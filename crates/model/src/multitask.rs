//! Multi-task training of the shared-trunk PragFormer: one encoder,
//! three heads.
//!
//! The paper trains three *complete* PragFormer models — directive,
//! `private`, `reduction` — even though all three read the same token
//! sequence. The follow-up literature (OMPar's graph-based advisor,
//! OMPILOT) moved to one shared code representation with per-decision
//! task heads; [`PragFormer::multi_task`] is that architecture: **one
//! trunk forward per snippet, three `[batch, d_model] → [batch, 2]` head
//! projections**. Head `i` serves the task whose [`Task::index`] is `i`.
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

use crate::batching::{Batch, EvalStep, Objective, TrainExample, TrainLoop};
use crate::pragformer::PragFormer;
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
    model: &'m mut PragFormer,
    weights: [f32; 3],
    schedule: Vec<Task>,
    train_acc: [Accum; 3],
    eval_acc: [Accum; 3],
    pending_train: Option<[Accum; 3]>,
    per_task: Vec<[TaskEpochMetrics; 3]>,
}

impl<'m> MultiTaskObjective<'m> {
    /// Wraps a three-head model (see [`PragFormer::multi_task`]) with
    /// per-task loss weights.
    pub fn new(model: &'m mut PragFormer, weights: [f32; 3]) -> Self {
        assert_eq!(model.n_heads(), Task::ALL.len(), "multi-task training needs one head per task");
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
        let loss = self.model.train_step_head(
            task.index(),
            &batch.ids,
            &batch.valid,
            batch.seq,
            &labels,
            w,
        );
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
            self.model.eval_step_head(task.index(), &batch.ids, &batch.valid, batch.seq, &labels);
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

/// Fits a three-head [`PragFormer`] on task-tagged examples through the
/// shared engine. Restores the best-validation-loss weights (task-weighted
/// criterion) before returning, like single-task `Trainer::fit`.
pub fn fit(
    model: &mut PragFormer,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::synthetic_examples;
    use crate::ModelConfig;
    use pragformer_tensor::init::SeededRng;

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
        let mut model = PragFormer::multi_task(&cfg, &mut rng);
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
            let mut model = PragFormer::multi_task(&cfg, &mut rng);
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
        let mut model = PragFormer::multi_task(&cfg, &mut rng);
        let ids: Vec<usize> = vec![2, 5, 6, 7, 8, 9, 10, 11];
        let all = model.predict_probs_batch(&ids, &[8], 8);
        for t in Task::ALL {
            let one = model.predict_proba_head(t.index(), &ids, &[8], 8);
            assert_eq!(all[t.index()][0].to_bits(), one[0].to_bits(), "task {t:?}");
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
        let mut model = PragFormer::multi_task(&cfg, &mut rng);
        model.zero_grad();
        let ids: Vec<usize> = vec![2, 5, 6, 7, 8, 9, 10, 11];
        let loss = model.train_step_head(Task::Reduction.index(), &ids, &[8], 8, &[1], 0.0);
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
        let mut mt = PragFormer::multi_task(&cfg, &mut rng);
        let mut rng2 = SeededRng::new(8);
        let mut single = PragFormer::new(&cfg, &mut rng2);
        let single_n = single.param_count();
        let mt_n = mt.param_count();
        // Three single-task models pay 3× everything; the shared trunk
        // pays the trunk once.
        assert!(mt_n < 2 * single_n, "shared trunk not shared: {mt_n} vs 3×{single_n}");
        assert!(mt_n > single_n, "three heads must outweigh one");
    }
}
