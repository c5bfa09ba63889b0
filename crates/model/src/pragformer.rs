//! The PragFormer classifier: encoder + CLS pooling + two-dense heads.
//!
//! §4.3 of the paper: "The FC layer in PragFormer contains two dense
//! layers with a ReLU activation function between them. We implemented
//! dropout as a regularization strategy."
//!
//! [`PragFormer`] is one shared [`Trunk`] (embedding + encoder stack +
//! CLS pooling) plus N named [`ClassifierHead`]s. The paper trains one
//! model per task, which is N = 1 ([`PragFormer::new`], head `head`).
//! The advisor's multi-task model puts the directive, `private` and
//! `reduction` heads on one trunk ([`PragFormer::multi_task`]), as in
//! the graph-based advisor of Kadosh et al.: one encoder forward per
//! snippet feeds all three `[batch, d_model] → [batch, 2]` heads.

use crate::config::ModelConfig;
use crate::encoder::Encoder;
use crate::head::{ClassifierHead, Trunk};
use crate::multitask::Task;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::InferencePlan;
use pragformer_tensor::nn::Param;
use pragformer_tensor::serialize::StateDict;
use pragformer_tensor::{loss, Tensor};

/// The classification model: one [`Trunk`], N [`ClassifierHead`]s.
///
/// Methods that take no head index run head 0, the only head of an
/// N = 1 model.
pub struct PragFormer {
    trunk: Trunk,
    heads: Vec<ClassifierHead>,
}

impl PragFormer {
    /// Builds the paper's single-task model (one head, named `head`)
    /// from a config and seed.
    pub fn new(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self::with_heads(&["head"], cfg, rng)
    }

    /// Builds the shared-trunk multi-task model: heads
    /// `head.directive`, `head.private` and `head.reduction`, indexed by
    /// [`Task::index`].
    pub fn multi_task(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self::with_heads(&Task::ALL.map(|t| format!("head.{}", t.name())), cfg, rng)
    }

    /// Builds a trunk and one head per name; head `i`'s parameters are
    /// named `{names[i]}.fc1` / `{names[i]}.fc2`. Construction order
    /// (trunk, then heads in order) fixes the RNG draw order.
    fn with_heads<S: AsRef<str>>(names: &[S], cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        let trunk = Trunk::new(cfg, rng);
        let heads = names.iter().map(|n| ClassifierHead::new(n.as_ref(), cfg, rng)).collect();
        Self { trunk, heads }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.trunk.config()
    }

    /// Number of classifier heads.
    pub(crate) fn n_heads(&self) -> usize {
        self.heads.len()
    }

    /// Read access to the encoder (attention maps, explainability).
    pub fn encoder(&self) -> &Encoder {
        self.trunk.encoder()
    }

    /// Sets the plan every later eval forward runs on (see
    /// [`crate::head::Trunk::set_plan`]); heads run its f32 twin.
    pub fn set_plan(&mut self, plan: InferencePlan) {
        self.trunk.set_plan(plan);
    }

    /// The plan eval forwards run on.
    pub fn plan(&self) -> InferencePlan {
        self.trunk.plan()
    }

    /// Static f32-vs-int8 weight accounting for the trunk.
    pub fn trunk_weight_bytes(&self) -> crate::head::TrunkWeightBytes {
        self.trunk.weight_bytes()
    }

    /// Bytes retained by the trunk's attention backward caches — zero
    /// after any eval forward (cache-free inference mode).
    pub fn retained_attention_bytes(&self) -> usize {
        self.trunk.retained_attention_bytes()
    }

    /// Eagerly builds the inference weight caches the next eval forward
    /// would use (trunk int8 copies or packed f32 panels, plus head
    /// panels), moving the one-time pack cost out of the first request.
    pub fn prepack_for_inference(&mut self) {
        self.trunk.prepack_for_inference();
        self.set_head_caches(false);
    }

    /// Sets every head's weight cache for an eval (`train=false`) or
    /// training (`train=true`) forward (see [`Trunk::weight_cache`]).
    fn set_head_caches(&mut self, train: bool) {
        let cache = self.trunk.weight_cache(train);
        for h in &mut self.heads {
            h.set_weight_cache(cache);
        }
    }

    /// Runs the trunk over a batch padded to `seq ≤ max_len` and returns
    /// its `[batch, d_model]` CLS rows; an eval forward keeps no trunk
    /// cache.
    ///
    /// All projection/FFN GEMMs run over `batch·seq` rows at once, and
    /// each CLS row is bitwise independent of both the batch size and
    /// the padded length (see [`Trunk::forward_cls`]), so batching never
    /// changes a prediction.
    fn cls(&mut self, ids: &[usize], valid: &[usize], seq: usize, train: bool) -> Tensor {
        self.set_head_caches(train);
        let cls = self.trunk.forward_cls(ids, valid, seq, train);
        if !train {
            self.trunk.clear_cache();
        }
        cls
    }

    /// One fused train step at `seq = max_len`; see
    /// [`PragFormer::train_step_seq`].
    pub fn train_step(&mut self, ids: &[usize], valid: &[usize], labels: &[usize]) -> f32 {
        self.train_step_seq(ids, valid, self.config().max_len, labels)
    }

    /// One fused train step of head 0 over a batch padded to an explicit
    /// `seq ≤ max_len` — the length-bucketed training entry point.
    ///
    /// With a fixed dropout-RNG state, the loss and every accumulated
    /// parameter gradient are **bitwise identical** for every padded
    /// length `seq ≥ max(valid)`: forward activations on the valid prefix
    /// are padding-invariant, padded rows carry exactly-zero gradients
    /// backward, every cross-row reduction treats them as additive zeros,
    /// and dropout draws its mask per valid position only. Enforced over
    /// randomized shapes by `tests/train_proptests.rs`.
    pub fn train_step_seq(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        labels: &[usize],
    ) -> f32 {
        self.train_step_head(0, ids, valid, seq, labels, 1.0)
    }

    /// One fused train step for one head: forward through the trunk and
    /// `head`, CE loss, backward with the gradients scaled by
    /// `loss_scale`. Returns the raw (unscaled) batch loss. Gradient
    /// zeroing is the caller's job.
    pub fn train_step_head(
        &mut self,
        head: usize,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        labels: &[usize],
        loss_scale: f32,
    ) -> f32 {
        let cls = self.cls(ids, valid, seq, true);
        let logits = self.heads[head].forward(&cls, true);
        let (l, mut dlogits) = loss::softmax_cross_entropy(&logits, labels);
        if loss_scale != 1.0 {
            for v in dlogits.data_mut() {
                *v *= loss_scale;
            }
        }
        let dcls = self.heads[head].backward(&dlogits);
        self.trunk.backward_cls(&dcls);
        l
    }

    /// Eval-mode loss and correct count (threshold 0.5) of one head over
    /// a batch.
    pub fn eval_step_head(
        &mut self,
        head: usize,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        labels: &[usize],
    ) -> (f32, usize) {
        let cls = self.cls(ids, valid, seq, false);
        let logits = self.heads[head].forward(&cls, false);
        let (l, _) = loss::softmax_cross_entropy(&logits, labels);
        let probs = loss::positive_probabilities(&logits);
        let correct = probs.iter().zip(labels).filter(|(p, &y)| (**p > 0.5) == (y == 1)).count();
        (l, correct)
    }

    /// Positive-class probability of head 0 for each sequence, at
    /// `seq = max_len`; see [`PragFormer::predict_proba_batch`].
    pub fn predict_proba(&mut self, ids: &[usize], valid: &[usize]) -> Vec<f32> {
        self.predict_proba_batch(ids, valid, self.config().max_len)
    }

    /// Batched positive-class probabilities of head 0 (eval mode).
    ///
    /// `ids` is `batch × seq` flattened with `seq ≤ max_len`; `valid[b]`
    /// counts sequence `b`'s non-pad prefix. Per sequence, the result is
    /// **bitwise identical** for every batch size and every padded length
    /// `seq ≥ valid[b]` — batching and length-bucketing are pure
    /// performance choices, never accuracy trade-offs.
    pub fn predict_proba_batch(&mut self, ids: &[usize], valid: &[usize], seq: usize) -> Vec<f32> {
        self.predict_proba_head(0, ids, valid, seq)
    }

    /// [`PragFormer::predict_proba_batch`] for one chosen head.
    pub fn predict_proba_head(
        &mut self,
        head: usize,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
    ) -> Vec<f32> {
        let cls = self.cls(ids, valid, seq, false);
        loss::positive_probabilities(&self.heads[head].forward(&cls, false))
    }

    /// Every head's positive-class probabilities from **one** batched
    /// trunk forward (eval mode): one vector per head, in head order,
    /// each with one entry per sequence. Each probability is bitwise
    /// identical to [`PragFormer::predict_proba_head`] of that head at
    /// any batch size or padded length — the heads are row-local.
    pub fn predict_probs_batch(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
    ) -> Vec<Vec<f32>> {
        let cls = self.cls(ids, valid, seq, false);
        self.heads
            .iter_mut()
            .map(|h| loss::positive_probabilities(&h.forward(&cls, false)))
            .collect()
    }

    /// Hard labels of head 0 at the paper's 0.5 threshold.
    pub fn predict(&mut self, ids: &[usize], valid: &[usize]) -> Vec<bool> {
        self.predict_proba(ids, valid).into_iter().map(|p| p > 0.5).collect()
    }

    /// Parameter traversal: trunk, then heads in order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.trunk.visit_params(f);
        for h in &mut self.heads {
            h.visit_params(f);
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total trainable weights.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Captures all weights into a [`StateDict`].
    pub fn state_dict(&mut self) -> StateDict {
        let mut dict = StateDict::new();
        self.visit_params(&mut |p| dict.capture(p));
        dict
    }

    /// Restores weights by name; returns how many parameters matched.
    /// Trunk keys are shared by every head count and by
    /// [`crate::mlm::MlmModel`], so MLM pre-training state loads into
    /// any `PragFormer` unchanged.
    pub fn load_state_dict(&mut self, dict: &StateDict) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if dict.restore(p) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(cfg: &ModelConfig, batch: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        // Class 0 sequences are all token 5, class 1 all token 6.
        let mut ids = Vec::new();
        let mut valid = Vec::new();
        let mut labels = Vec::new();
        for b in 0..batch {
            let label = b % 2;
            let tok = if label == 0 { 5 } else { 6 };
            let len = cfg.max_len / 2;
            let mut seq = vec![2usize]; // CLS
            seq.extend(std::iter::repeat_n(tok, len - 1));
            seq.resize(cfg.max_len, 0); // PAD
            ids.extend(seq);
            valid.push(len);
            labels.push(label);
        }
        (ids, valid, labels)
    }

    #[test]
    fn probabilities_have_one_entry_per_sequence_and_head() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(1);
        let mut model = PragFormer::multi_task(&cfg, &mut rng);
        let (ids, valid, _) = toy_batch(&cfg, 4);
        let probs = model.predict_probs_batch(&ids, &valid, cfg.max_len);
        assert_eq!(probs.len(), 3);
        assert!(probs.iter().all(|p| p.len() == 4));
        assert_eq!(model.retained_attention_bytes(), 0);
    }

    #[test]
    fn learns_a_trivial_task() {
        // Separating "all 5s" from "all 6s" must be learnable in a few
        // dozen steps; this exercises the full forward/backward stack.
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(2);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let mut opt = pragformer_tensor::optim::AdamW::new(5e-3);
        let (ids, valid, labels) = toy_batch(&cfg, 8);
        let mut last = f32::INFINITY;
        for step in 0..60 {
            model.zero_grad();
            let l = model.train_step(&ids, &valid, &labels);
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
            if step == 0 {
                last = l;
            }
        }
        let (final_loss, _) = model.eval_step_head(0, &ids, &valid, cfg.max_len, &labels);
        assert!(final_loss < last * 0.5, "no learning: {last} -> {final_loss}");
        let preds = model.predict(&ids, &valid);
        let correct = preds.iter().zip(&labels).filter(|(p, l)| **p == (**l == 1)).count();
        assert!(correct >= 7, "only {correct}/8 correct");
    }

    #[test]
    fn state_dict_roundtrip_preserves_predictions() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(3);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let (ids, valid, _) = toy_batch(&cfg, 2);
        let before = model.predict_proba(&ids, &valid);
        let dict = model.state_dict();

        let mut rng2 = SeededRng::new(999);
        let mut model2 = PragFormer::new(&cfg, &mut rng2);
        let restored = model2.load_state_dict(&dict);
        assert!(restored > 10, "only {restored} params restored");
        let after = model2.predict_proba(&ids, &valid);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn predictions_are_deterministic_in_eval() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(4);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let (ids, valid, _) = toy_batch(&cfg, 3);
        let a = model.predict_proba(&ids, &valid);
        let b = model.predict_proba(&ids, &valid);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_probabilities_are_bitwise_equal_to_sequential() {
        // The advise_batch acceptance property at the model layer: one
        // batch-8 forward must reproduce eight batch-1 forwards bit for
        // bit, and a shorter padded length must not change anything.
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(6);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let (ids, valid, _) = toy_batch(&cfg, 8);
        let batched = model.predict_proba_batch(&ids, &valid, cfg.max_len);
        assert_eq!(batched.len(), 8);
        for b in 0..8 {
            let one = model.predict_proba_batch(
                &ids[b * cfg.max_len..(b + 1) * cfg.max_len],
                &valid[b..b + 1],
                cfg.max_len,
            );
            assert_eq!(
                batched[b].to_bits(),
                one[0].to_bits(),
                "sequence {b}: batched {} != sequential {}",
                batched[b],
                one[0]
            );
        }
        // Bucketed length: pad each row only to half the max length
        // (toy_batch uses valid = max_len/2).
        let seq = cfg.max_len / 2;
        let mut short_ids = Vec::new();
        for b in 0..8 {
            short_ids.extend_from_slice(&ids[b * cfg.max_len..b * cfg.max_len + seq]);
        }
        let bucketed = model.predict_proba_batch(&short_ids, &valid, seq);
        for b in 0..8 {
            assert_eq!(bucketed[b].to_bits(), batched[b].to_bits(), "bucketed row {b}");
        }
    }

    #[test]
    fn state_dict_keys_are_pinned_and_mlm_state_loads() {
        // Checkpoints and MLM pre-training state are matched by these
        // names, so they may never drift.
        const TRUNK: [&str; 20] = [
            "emb.ln.beta",
            "emb.ln.gamma",
            "emb.pos.table",
            "emb.tok.table",
            "enc.0.attn.wk.b",
            "enc.0.attn.wk.w",
            "enc.0.attn.wo.b",
            "enc.0.attn.wo.w",
            "enc.0.attn.wq.b",
            "enc.0.attn.wq.w",
            "enc.0.attn.wv.b",
            "enc.0.attn.wv.w",
            "enc.0.ff1.b",
            "enc.0.ff1.w",
            "enc.0.ff2.b",
            "enc.0.ff2.w",
            "enc.0.ln1.beta",
            "enc.0.ln1.gamma",
            "enc.0.ln2.beta",
            "enc.0.ln2.gamma",
        ];
        const ONE: [&str; 4] = ["head.fc1.b", "head.fc1.w", "head.fc2.b", "head.fc2.w"];
        const THREE: [&str; 12] = [
            "head.directive.fc1.b",
            "head.directive.fc1.w",
            "head.directive.fc2.b",
            "head.directive.fc2.w",
            "head.private.fc1.b",
            "head.private.fc1.w",
            "head.private.fc2.b",
            "head.private.fc2.w",
            "head.reduction.fc1.b",
            "head.reduction.fc1.w",
            "head.reduction.fc2.b",
            "head.reduction.fc2.w",
        ];
        let cfg = ModelConfig::tiny(16);
        let seqs: Vec<crate::mlm::MlmSequence> = (0..8)
            .map(|s| crate::mlm::MlmSequence { ids: vec![2, 5 + s % 3, 6, 7, 5, 6] })
            .collect();
        let tc = crate::TrainConfig { epochs: 1, batch_size: 8, lr: 1e-3, ..Default::default() };
        let (mlm_state, _) = crate::mlm::pretrain(&cfg, &seqs, &[], &tc);
        let mut rng = SeededRng::new(9);
        for (mut model, heads) in [
            (PragFormer::new(&cfg, &mut rng), &ONE[..]),
            (PragFormer::multi_task(&cfg, &mut rng), &THREE[..]),
        ] {
            let keys: Vec<String> = model.state_dict().iter().map(|(k, _)| k.clone()).collect();
            let want: Vec<&str> = TRUNK.iter().chain(heads).copied().collect();
            assert_eq!(keys, want);
            assert_eq!(model.load_state_dict(&mlm_state), TRUNK.len(), "{heads:?}");
        }
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(5);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let n = model.param_count();
        assert!(n > 1000, "{n}");
        assert_eq!(n, model.param_count());
    }
}
