//! The PragFormer classifier: encoder + CLS pooling + two-dense head.
//!
//! §4.3 of the paper: "The FC layer in PragFormer contains two dense
//! layers with a ReLU activation function between them. We implemented
//! dropout as a regularization strategy."
//!
//! Since the trunk/head split, this type is a thin composition of the
//! shared [`Trunk`] (embedding + encoder stack + CLS pooling) and one
//! [`ClassifierHead`] — the paper-faithful single-task model. The
//! multi-task variant ([`crate::multitask::MultiTaskPragFormer`]) reuses
//! exactly the same two pieces with three heads on one trunk.

use crate::config::ModelConfig;
use crate::encoder::Encoder;
use crate::head::{ClassifierHead, Trunk};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::nn::Param;
use pragformer_tensor::serialize::StateDict;
use pragformer_tensor::{loss, Tensor};

/// The full classification model: one [`Trunk`], one [`ClassifierHead`].
pub struct PragFormer {
    trunk: Trunk,
    head: ClassifierHead,
}

impl PragFormer {
    /// Builds a model from a config and seed.
    pub fn new(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        // Construction order (trunk, then head) fixes the RNG draw order;
        // the head keeps its historical parameter names ("head.fc1", …)
        // so pre-split state dicts keep loading.
        Self { trunk: Trunk::new(cfg, rng), head: ClassifierHead::new("head", cfg, rng) }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.trunk.config()
    }

    /// Read access to the encoder (attention maps, explainability).
    pub fn encoder(&self) -> &Encoder {
        self.trunk.encoder()
    }

    /// Model-local int8 override: `Some(true)` forces quantized trunk
    /// inference, `Some(false)` forces f32, `None` follows the process
    /// kernel tier (see [`crate::head::Trunk::set_int8_override`]).
    pub fn set_int8_override(&mut self, force: Option<bool>) {
        self.trunk.set_int8_override(force);
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
        self.head.set_weight_cache(self.trunk.weight_cache(false));
    }

    /// Forward pass: `[batch × max_len]` ids → `[batch, n_classes]` logits.
    pub fn forward(&mut self, ids: &[usize], valid: &[usize], train: bool) -> Tensor {
        self.forward_seq(ids, valid, self.config().max_len, train)
    }

    /// Forward pass over a batch padded to an explicit `seq ≤ max_len`:
    /// `[batch × seq]` ids → `[batch, n_classes]` logits.
    ///
    /// The batched entry point of the model: all projection/FFN GEMMs run
    /// over `batch·seq` rows at once, and per-row logits are bitwise
    /// independent of both the batch size and the padded length (see
    /// [`crate::encoder::Encoder::forward_seq`]), so batching never
    /// changes a prediction.
    pub fn forward_seq(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        train: bool,
    ) -> Tensor {
        self.head.set_weight_cache(self.trunk.weight_cache(train));
        let cls = self.trunk.forward_cls(ids, valid, seq, train);
        self.head.forward(&cls, train)
    }

    /// Backward pass from `dlogits` (as produced by
    /// [`pragformer_tensor::loss::softmax_cross_entropy`]).
    pub fn backward(&mut self, dlogits: &Tensor) {
        let dcls = self.head.backward(dlogits);
        self.trunk.backward_cls(&dcls);
    }

    /// One fused train step helper: forward, CE loss, backward.
    /// Returns the batch loss. Equivalent to [`PragFormer::train_step_seq`]
    /// at `seq = max_len`.
    pub fn train_step(&mut self, ids: &[usize], valid: &[usize], labels: &[usize]) -> f32 {
        self.train_step_seq(ids, valid, self.config().max_len, labels)
    }

    /// One fused train step over a batch padded to an explicit
    /// `seq ≤ max_len` — the length-bucketed training entry point.
    ///
    /// With a fixed dropout-RNG state, the loss and every accumulated
    /// parameter gradient are **bitwise identical** for every padded
    /// length `seq ≥ max(valid)`: forward activations on the valid prefix
    /// are padding-invariant (see [`PragFormer::forward_seq`]), padded
    /// rows carry exactly-zero gradients backward, every cross-row
    /// reduction treats them as additive zeros, and dropout draws its
    /// mask per valid position only. Enforced over randomized shapes by
    /// `tests/train_proptests.rs`.
    pub fn train_step_seq(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        labels: &[usize],
    ) -> f32 {
        let logits = self.forward_seq(ids, valid, seq, true);
        let (l, dlogits) = loss::softmax_cross_entropy(&logits, labels);
        self.backward(&dlogits);
        l
    }

    /// Probability of the positive class for each sequence (eval mode).
    ///
    /// Accepts any batch size (`ids.len() = batch × max_len`); kept for
    /// API familiarity, equivalent to [`PragFormer::predict_proba_batch`]
    /// at `seq = max_len`.
    pub fn predict_proba(&mut self, ids: &[usize], valid: &[usize]) -> Vec<f32> {
        self.predict_proba_batch(ids, valid, self.config().max_len)
    }

    /// Batched positive-class probabilities (eval mode), the advisor's
    /// hot path.
    ///
    /// `ids` is `batch × seq` flattened with `seq ≤ max_len`; `valid[b]`
    /// counts sequence `b`'s non-pad prefix. One call runs the whole
    /// batch through single large GEMMs. Per sequence, the result is
    /// **bitwise identical** for every batch size and every padded length
    /// `seq ≥ valid[b]` — batching and length-bucketing are pure
    /// performance choices, never accuracy trade-offs.
    pub fn predict_proba_batch(&mut self, ids: &[usize], valid: &[usize], seq: usize) -> Vec<f32> {
        let logits = self.forward_seq(ids, valid, seq, false);
        self.trunk.clear_cache();
        loss::positive_probabilities(&logits)
    }

    /// Hard labels at the paper's 0.5 threshold.
    pub fn predict(&mut self, ids: &[usize], valid: &[usize]) -> Vec<bool> {
        self.predict_proba(ids, valid).into_iter().map(|p| p > 0.5).collect()
    }

    /// Parameter traversal over encoder + head.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.trunk.visit_params(f);
        self.head.visit_params(f);
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
    fn logits_shape() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(1);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let (ids, valid, _) = toy_batch(&cfg, 4);
        let logits = model.forward(&ids, &valid, false);
        model.trunk.clear_cache();
        assert_eq!(logits.shape(), &[4, 2]);
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
        let final_loss = {
            let logits = model.forward(&ids, &valid, false);
            model.trunk.clear_cache();
            pragformer_tensor::loss::softmax_cross_entropy(&logits, &labels).0
        };
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
    fn param_count_is_positive_and_stable() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(5);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let n = model.param_count();
        assert!(n > 1000, "{n}");
        assert_eq!(n, model.param_count());
    }
}
