//! Shared-trunk multi-task PragFormer: one encoder, three heads.
//!
//! The paper trains three *complete* PragFormer models — directive,
//! `private`, `reduction` — and the advisor pays three full transformer
//! forwards per snippet even though all three read the same token
//! sequence. The follow-up literature (OMPar's graph-based advisor,
//! OMPILOT) moved to one shared code representation with per-decision
//! task heads; [`MultiTaskPragFormer`] is that architecture on this
//! codebase's [`Trunk`]/[`ClassifierHead`] split: **one trunk forward per
//! snippet, three `[batch, d_model] → [batch, 2]` head projections** —
//! roughly a 3× cut in inference compute and weights.
//!
//! Training runs on the shared length-bucketed engine
//! ([`crate::batching::TrainLoop`]) through [`MultiTaskObjective`]:
//!
//! * the three task datasets are **interleaved at batch granularity** —
//!   every batch carries one task ([`Objective::group_of`]), and the
//!   engine's seeded batch shuffle produces the deterministic task
//!   schedule (same seed → same interleaving, bit for bit);
//! * per-task **loss weights** scale each task's gradient contribution
//!   (`L = Σ_t w_t · L_t`) without touching the reported raw losses;
//! * per-task **epoch metrics** are accumulated alongside the engine's
//!   aggregate ones, and best-checkpoint selection runs on the
//!   task-weighted validation loss the engine already tracks.

use crate::batching::{self, Batch, EvalStep, Objective, TrainExample, TrainLoop};
use crate::config::ModelConfig;
use crate::head::{ClassifierHead, Trunk};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::loss;
use pragformer_tensor::nn::Param;
use pragformer_tensor::serialize::StateDict;

pub use crate::batching::{EpochMetrics, TrainConfig};

/// The three classification tasks sharing one trunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Task {
    /// Does the loop need `#pragma omp parallel for`?
    Directive = 0,
    /// Does the directive need a `private` clause?
    Private = 1,
    /// Does the directive need a `reduction` clause?
    Reduction = 2,
}

impl Task {
    /// All tasks, in head order.
    pub const ALL: [Task; 3] = [Task::Directive, Task::Private, Task::Reduction];

    /// Head index of this task.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (head parameter prefix, reports).
    pub fn name(self) -> &'static str {
        match self {
            Task::Directive => "directive",
            Task::Private => "private",
            Task::Reduction => "reduction",
        }
    }
}

/// One trunk, three heads.
pub struct MultiTaskPragFormer {
    trunk: Trunk,
    heads: [ClassifierHead; 3],
}

impl MultiTaskPragFormer {
    /// Builds the shared trunk and the three task heads
    /// (`head.directive.*`, `head.private.*`, `head.reduction.*`).
    pub fn new(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        let trunk = Trunk::new(cfg, rng);
        let heads = Task::ALL.map(|t| ClassifierHead::new(&format!("head.{}", t.name()), cfg, rng));
        Self { trunk, heads }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.trunk.config()
    }

    /// Model-local int8 override for the shared trunk: `Some(true)`
    /// forces quantized inference, `Some(false)` forces f32, `None`
    /// follows the process kernel tier.
    pub fn set_int8_override(&mut self, force: Option<bool>) {
        self.trunk.set_int8_override(force);
    }

    /// Static f32-vs-int8 weight accounting for the shared trunk.
    pub fn trunk_weight_bytes(&self) -> crate::head::TrunkWeightBytes {
        self.trunk.weight_bytes()
    }

    /// Bytes retained by the shared trunk's attention backward caches —
    /// zero after any eval forward (cache-free inference mode).
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

    /// Sets the heads' weight caches for an eval (`train=false`) or
    /// training (`train=true`) forward (see [`Trunk::weight_cache`]).
    fn set_head_caches(&mut self, train: bool) {
        let cache = self.trunk.weight_cache(train);
        for h in &mut self.heads {
            h.set_weight_cache(cache);
        }
    }

    /// The advisor's shared-trunk hot path: one batched trunk forward,
    /// then all three head projections (eval mode).
    ///
    /// `ids` is `batch × seq` flattened (`seq ≤ max_len`); returns one
    /// `[directive, private, reduction]` positive-probability triple per
    /// sequence. Each probability is **bitwise identical** to the same
    /// head evaluated alone ([`MultiTaskPragFormer::predict_proba_task`])
    /// at any batch size or padded length — the trunk's CLS rows are
    /// row-deterministic and the heads are row-local.
    pub fn predict_probs_batch(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
    ) -> Vec<[f32; 3]> {
        self.set_head_caches(false);
        let cls = self.trunk.forward_cls(ids, valid, seq, false);
        self.trunk.clear_cache();
        let per_head: [Vec<f32>; 3] = Task::ALL.map(|t| {
            let logits = self.heads[t.index()].forward(&cls, false);
            loss::positive_probabilities(&logits)
        });
        (0..valid.len()).map(|b| [per_head[0][b], per_head[1][b], per_head[2][b]]).collect()
    }

    /// Positive-class probabilities of one head (eval mode) — the
    /// per-task interface the parity evaluation and LIME use.
    pub fn predict_proba_task(
        &mut self,
        task: Task,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
    ) -> Vec<f32> {
        self.set_head_caches(false);
        let cls = self.trunk.forward_cls(ids, valid, seq, false);
        self.trunk.clear_cache();
        let logits = self.heads[task.index()].forward(&cls, false);
        loss::positive_probabilities(&logits)
    }

    /// One fused train step for a single-task batch padded to `seq`:
    /// forward through trunk + the task's head, CE loss, backward with
    /// the task's gradients scaled by `loss_scale`. Returns the raw
    /// (unscaled) batch loss. Gradient zeroing is the caller's job.
    pub fn train_step_seq(
        &mut self,
        task: Task,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        labels: &[usize],
        loss_scale: f32,
    ) -> f32 {
        self.set_head_caches(true);
        let cls = self.trunk.forward_cls(ids, valid, seq, true);
        let logits = self.heads[task.index()].forward(&cls, true);
        let (l, mut dlogits) = loss::softmax_cross_entropy(&logits, labels);
        if loss_scale != 1.0 {
            for v in dlogits.data_mut() {
                *v *= loss_scale;
            }
        }
        let dcls = self.heads[task.index()].backward(&dlogits);
        self.trunk.backward_cls(&dcls);
        l
    }

    /// Eval-mode loss and accuracy of one task over a batch.
    pub fn eval_step_seq(
        &mut self,
        task: Task,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        labels: &[usize],
    ) -> (f32, usize) {
        self.set_head_caches(false);
        let cls = self.trunk.forward_cls(ids, valid, seq, false);
        self.trunk.clear_cache();
        let logits = self.heads[task.index()].forward(&cls, false);
        let (l, _) = loss::softmax_cross_entropy(&logits, labels);
        let probs = loss::positive_probabilities(&logits);
        let correct = probs.iter().zip(labels).filter(|(p, &y)| (**p > 0.5) == (y == 1)).count();
        (l, correct)
    }

    /// Parameter traversal: trunk, then heads in task order.
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

    /// Total trainable weights (≈ one trunk + 3 heads, vs 3× everything
    /// for the per-head ensemble).
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
    /// Encoder keys are shared with [`crate::PragFormer`] and
    /// [`crate::mlm::MlmModel`], so MLM pre-training state loads here
    /// unchanged.
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

/// One labeled example tagged with its task.
#[derive(Clone, Debug)]
pub struct MultiTaskExample {
    /// Valid token ids (CLS-led, unpadded — the engine pads).
    pub ids: Vec<usize>,
    /// Binary label under `task`.
    pub label: bool,
    /// Which head this example trains.
    pub task: Task,
}

impl MultiTaskExample {
    /// Builds an example from a possibly-padded encoding, keeping only
    /// the `valid` prefix.
    pub fn new(mut ids: Vec<usize>, valid: usize, label: bool, task: Task) -> Self {
        ids.truncate(valid);
        Self { ids, label, task }
    }
}

impl TrainExample for MultiTaskExample {
    fn token_ids(&self) -> &[usize] {
        &self.ids
    }
}

/// Multi-task training configuration: the shared engine knobs plus
/// per-task loss weights (`L = Σ_t w_t · L_t`; a zero weight disables a
/// task's optimizer steps without removing its metrics).
#[derive(Clone, Debug)]
pub struct MultiTaskConfig {
    /// Engine hyper-parameters (epochs, batch size, LR, clip, seed,
    /// warmup, shuffle window).
    pub train: TrainConfig,
    /// Per-task loss weights, indexed by [`Task::index`].
    pub weights: [f32; 3],
}

impl Default for MultiTaskConfig {
    fn default() -> Self {
        Self { train: TrainConfig::default(), weights: [1.0; 3] }
    }
}

/// One task's slice of one epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskEpochMetrics {
    /// Which head.
    pub task: Task,
    /// Mean raw training loss over this task's examples (unweighted by
    /// the task's loss weight).
    pub train_loss: f32,
    /// Mean raw validation loss.
    pub valid_loss: f32,
    /// Validation accuracy at threshold 0.5.
    pub valid_accuracy: f32,
}

/// The outcome of a multi-task fit.
#[derive(Clone, Debug)]
pub struct MultiTaskHistory {
    /// The engine's aggregate per-epoch metrics (losses weighted by
    /// example count × task weight — the best-checkpoint criterion).
    pub epochs: Vec<EpochMetrics>,
    /// Per-task metrics for every epoch.
    pub per_task: Vec<[TaskEpochMetrics; 3]>,
    /// The task of every training batch, in execution order — the
    /// deterministic task schedule (same seed → identical sequence).
    pub schedule: Vec<Task>,
}

#[derive(Clone, Copy, Default)]
struct Accum {
    loss_sum: f32,
    weight: f32,
    correct: f32,
    scored: f32,
}

impl Accum {
    fn mean_loss(self) -> f32 {
        if self.weight > 0.0 {
            self.loss_sum / self.weight
        } else {
            0.0
        }
    }

    fn accuracy(self) -> f32 {
        if self.scored > 0.0 {
            self.correct / self.scored
        } else {
            0.0
        }
    }
}

/// The multi-task objective for [`TrainLoop`]: one batch = one task, the
/// task chosen by the engine's seeded plan.
pub struct MultiTaskObjective<'m> {
    model: &'m mut MultiTaskPragFormer,
    weights: [f32; 3],
    schedule: Vec<Task>,
    train_acc: [Accum; 3],
    eval_acc: [Accum; 3],
    pending_train: Option<[Accum; 3]>,
    per_task: Vec<[TaskEpochMetrics; 3]>,
}

impl<'m> MultiTaskObjective<'m> {
    /// Wraps a model with per-task loss weights.
    pub fn new(model: &'m mut MultiTaskPragFormer, weights: [f32; 3]) -> Self {
        Self {
            model,
            weights,
            schedule: Vec::new(),
            train_acc: [Accum::default(); 3],
            eval_acc: [Accum::default(); 3],
            pending_train: None,
            per_task: Vec::new(),
        }
    }

    fn batch_task(examples: &[MultiTaskExample], batch: &Batch) -> Task {
        let task = examples[batch.indices[0]].task;
        debug_assert!(
            batch.indices.iter().all(|&i| examples[i].task == task),
            "engine formed a mixed-task batch"
        );
        task
    }

    fn labels(examples: &[MultiTaskExample], batch: &Batch) -> Vec<usize> {
        batch.indices.iter().map(|&i| examples[i].label as usize).collect()
    }

    /// Closes the epoch whose train accumulators were snapshot at
    /// `begin_eval` and whose eval accumulators are now complete.
    fn finalize_epoch(&mut self) {
        let Some(train) = self.pending_train.take() else { return };
        let eval = std::mem::take(&mut self.eval_acc);
        self.per_task.push(Task::ALL.map(|t| {
            let i = t.index();
            TaskEpochMetrics {
                task: t,
                train_loss: train[i].mean_loss(),
                valid_loss: eval[i].mean_loss(),
                valid_accuracy: eval[i].accuracy(),
            }
        }));
    }

    /// Consumes the objective after a fit, returning the per-task history
    /// and the executed task schedule.
    pub fn finish(mut self) -> (Vec<[TaskEpochMetrics; 3]>, Vec<Task>) {
        self.finalize_epoch();
        (self.per_task, self.schedule)
    }
}

impl Objective for MultiTaskObjective<'_> {
    type Example = MultiTaskExample;

    fn train_step(&mut self, examples: &[MultiTaskExample], batch: &Batch) -> (f32, f32) {
        // A train step after an eval pass means a new epoch started.
        self.finalize_epoch();
        let task = Self::batch_task(examples, batch);
        let labels = Self::labels(examples, batch);
        self.schedule.push(task);
        let w = self.weights[task.index()];
        self.model.zero_grad();
        let loss = self.model.train_step_seq(task, &batch.ids, &batch.valid, batch.seq, &labels, w);
        let n = batch.indices.len() as f32;
        let acc = &mut self.train_acc[task.index()];
        acc.loss_sum += loss * n;
        acc.weight += n;
        // The engine weights epoch aggregates (and the best-checkpoint
        // criterion) by this returned weight: examples × task weight.
        (loss, n * w)
    }

    fn eval_step(&mut self, examples: &[MultiTaskExample], batch: &Batch) -> EvalStep {
        let task = Self::batch_task(examples, batch);
        let labels = Self::labels(examples, batch);
        let (loss, correct) =
            self.model.eval_step_seq(task, &batch.ids, &batch.valid, batch.seq, &labels);
        let n = batch.indices.len() as f32;
        let acc = &mut self.eval_acc[task.index()];
        acc.loss_sum += loss * n;
        acc.weight += n;
        acc.correct += correct as f32;
        acc.scored += n;
        let w = self.weights[task.index()];
        EvalStep { loss, weight: n * w, correct: correct as f32, scored: n }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.model.visit_params(f);
    }

    fn state_dict(&mut self) -> StateDict {
        self.model.state_dict()
    }

    fn load_state_dict(&mut self, dict: &StateDict) -> usize {
        self.model.load_state_dict(dict)
    }

    fn begin_eval(&mut self) {
        // Epoch boundary: snapshot this epoch's train accumulators; the
        // eval accumulators that follow complete the record.
        self.pending_train = Some(std::mem::take(&mut self.train_acc));
    }

    fn group_of(&self, example: &MultiTaskExample) -> usize {
        example.task.index()
    }
}

/// Fits a [`MultiTaskPragFormer`] on task-tagged examples through the
/// shared engine. Restores the best-validation-loss weights (task-weighted
/// criterion) before returning, like single-task `Trainer::fit`.
pub fn fit(
    model: &mut MultiTaskPragFormer,
    cfg: &MultiTaskConfig,
    train: &[MultiTaskExample],
    valid: &[MultiTaskExample],
) -> MultiTaskHistory {
    let max_len = model.config().max_len;
    let mut objective = MultiTaskObjective::new(model, cfg.weights);
    let epochs = TrainLoop::new(cfg.train.clone(), max_len).fit(&mut objective, train, valid);
    let (per_task, schedule) = objective.finish();
    MultiTaskHistory { epochs, per_task, schedule }
}

/// Mean raw loss and accuracy of one task's examples (eval mode),
/// bucketed like training.
pub fn evaluate_task(
    model: &mut MultiTaskPragFormer,
    task: Task,
    examples: &[MultiTaskExample],
    batch_size: usize,
) -> (f32, f32) {
    let max_len = model.config().max_len;
    let (mut loss_sum, mut n_sum, mut correct) = (0.0f32, 0.0f32, 0.0f32);
    let lens: Vec<usize> = examples.iter().map(|e| e.ids.len()).collect();
    for idxs in batching::plan_eval(&lens, batch_size, max_len) {
        let batch = batching::gather(examples, &idxs, max_len);
        let labels: Vec<usize> =
            batch.indices.iter().map(|&i| examples[i].label as usize).collect();
        let (l, c) = model.eval_step_seq(task, &batch.ids, &batch.valid, batch.seq, &labels);
        let n = batch.indices.len() as f32;
        loss_sum += l * n;
        n_sum += n;
        correct += c as f32;
    }
    if n_sum > 0.0 {
        (loss_sum / n_sum, correct / n_sum)
    } else {
        (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::synthetic_examples;

    /// Three linearly-separable tasks over one token stream: each task's
    /// label is "contains its hot token".
    fn synthetic_multitask(
        n_per_task: usize,
        max_len: usize,
        vocab: usize,
        seed: u64,
    ) -> Vec<MultiTaskExample> {
        let hots = [10usize, 11, 12];
        let mut out = Vec::new();
        for t in Task::ALL {
            let ex = synthetic_examples(
                n_per_task,
                max_len,
                vocab,
                hots[t.index()],
                seed + t.index() as u64,
            );
            out.extend(ex.into_iter().map(|e| MultiTaskExample {
                ids: e.ids,
                label: e.label,
                task: t,
            }));
        }
        out
    }

    fn quick_cfg(epochs: usize, seed: u64) -> MultiTaskConfig {
        MultiTaskConfig {
            train: TrainConfig {
                epochs,
                batch_size: 16,
                lr: 5e-3,
                clip: 1.0,
                seed,
                warmup_frac: 0.1,
                shuffle_window: 0,
            },
            weights: [1.0; 3],
        }
    }

    #[test]
    fn multitask_learns_all_three_tasks() {
        let vocab = 24;
        let cfg = ModelConfig::tiny(vocab);
        let train = synthetic_multitask(100, cfg.max_len, vocab, 1);
        let valid = synthetic_multitask(24, cfg.max_len, vocab, 100);
        let mut rng = SeededRng::new(3);
        let mut model = MultiTaskPragFormer::new(&cfg, &mut rng);
        let history = fit(&mut model, &quick_cfg(12, 4), &train, &valid);
        assert_eq!(history.epochs.len(), 12);
        assert_eq!(history.per_task.len(), 12);
        for t in Task::ALL {
            let best =
                history.per_task.iter().map(|e| e[t.index()].valid_accuracy).fold(0.0f32, f32::max);
            assert!(best > 0.7, "task {:?} best accuracy {best}", t);
        }
        // The schedule interleaves: every task appears, and not in one
        // contiguous run per task (seeded batch shuffle mixes them).
        for t in Task::ALL {
            assert!(history.schedule.contains(&t), "task {t:?} never scheduled");
        }
        let switches = history.schedule.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches > 4, "schedule barely interleaves: {switches} switches");
    }

    #[test]
    fn multitask_fit_is_seed_deterministic_including_schedule() {
        let vocab = 20;
        let cfg = ModelConfig::tiny(vocab);
        let train = synthetic_multitask(16, cfg.max_len, vocab, 7);
        let valid = synthetic_multitask(8, cfg.max_len, vocab, 70);
        let run = || {
            let mut rng = SeededRng::new(13);
            let mut model = MultiTaskPragFormer::new(&cfg, &mut rng);
            let h = fit(&mut model, &quick_cfg(2, 14), &train, &valid);
            // Include post-restore predictions so checkpoint selection is
            // covered too.
            let probe: Vec<usize> = vec![2, 10, 11, 12, 5, 6];
            let probs = model.predict_probs_batch(&probe, &[6], 6);
            (h.schedule, h.epochs, h.per_task, probs)
        };
        let (s1, e1, p1, probs1) = run();
        let (s2, e2, p2, probs2) = run();
        assert_eq!(s1, s2, "task schedules diverged");
        assert_eq!(e1, e2, "aggregate histories diverged");
        assert_eq!(p1, p2, "per-task histories diverged");
        assert_eq!(probs1, probs2, "restored checkpoints diverged");
    }

    #[test]
    fn shared_probs_match_per_task_probes_bitwise() {
        let vocab = 16;
        let cfg = ModelConfig::tiny(vocab);
        let mut rng = SeededRng::new(5);
        let mut model = MultiTaskPragFormer::new(&cfg, &mut rng);
        let ids: Vec<usize> = vec![2, 5, 6, 7, 8, 9, 10, 11];
        let all = model.predict_probs_batch(&ids, &[8], 8);
        for t in Task::ALL {
            let one = model.predict_proba_task(t, &ids, &[8], 8);
            assert_eq!(all[0][t.index()].to_bits(), one[0].to_bits(), "task {t:?}");
        }
    }

    #[test]
    fn zero_weight_scales_all_gradients_to_zero() {
        // loss_scale 0 zeroes dlogits, so a zero-weight task's batch
        // must leave every gradient — head and trunk — exactly zero.
        // (AdamW's decoupled weight decay may still shrink parameters;
        // the gradient is the task-contribution signal.)
        let vocab = 20;
        let cfg = ModelConfig::tiny(vocab);
        let mut rng = SeededRng::new(6);
        let mut model = MultiTaskPragFormer::new(&cfg, &mut rng);
        model.zero_grad();
        let ids: Vec<usize> = vec![2, 5, 6, 7, 8, 9, 10, 11];
        let loss = model.train_step_seq(Task::Reduction, &ids, &[8], 8, &[1], 0.0);
        assert!(loss.is_finite() && loss > 0.0, "raw loss still reported: {loss}");
        let mut max_grad = 0.0f32;
        model.visit_params(&mut |p| {
            for g in p.grad.data() {
                max_grad = max_grad.max(g.abs());
            }
        });
        assert_eq!(max_grad, 0.0, "zero-weight batch leaked gradient {max_grad}");
    }

    #[test]
    fn param_count_is_one_trunk_plus_three_heads() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(7);
        let mut mt = MultiTaskPragFormer::new(&cfg, &mut rng);
        let mut rng2 = SeededRng::new(8);
        let mut single = crate::PragFormer::new(&cfg, &mut rng2);
        let single_n = single.param_count();
        let mt_n = mt.param_count();
        // Three single-task models pay 3× everything; the shared trunk
        // pays the trunk once.
        assert!(mt_n < 2 * single_n, "shared trunk not shared: {mt_n} vs 3×{single_n}");
        assert!(mt_n > single_n, "three heads must outweigh one");
    }

    #[test]
    fn mlm_state_loads_into_multitask_trunk() {
        let cfg = ModelConfig::tiny(16);
        let seqs: Vec<crate::mlm::MlmSequence> = (0..8)
            .map(|s| crate::mlm::MlmSequence { ids: vec![2, 5 + s % 3, 6, 7, 5, 6] })
            .collect();
        let tc = TrainConfig { epochs: 1, batch_size: 8, lr: 1e-3, ..Default::default() };
        let (state, _) = crate::mlm::pretrain(&cfg, &seqs, &[], &tc);
        let mut rng = SeededRng::new(9);
        let mut mt = MultiTaskPragFormer::new(&cfg, &mut rng);
        let restored = mt.load_state_dict(&state);
        assert!(restored > 5, "only {restored} encoder params restored");
    }
}
