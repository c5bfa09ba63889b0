//! Mini-batch fine-tuning: the classification objective on the shared
//! length-bucketed engine ([`crate::batching::TrainLoop`]).
//!
//! Emits exactly the series the paper's Figures 4-6 plot: per-epoch
//! training loss, validation loss and validation accuracy. Model
//! selection follows §5.1: keep the weights from the epoch with the best
//! validation loss. Batches are padded to their length bucket, not to
//! `max_len` — bitwise equivalent (see the `batching` module docs) and
//! proportionally cheaper on length-skewed corpora.

use crate::batching::{self, Batch, EvalStep, Objective, TrainExample, TrainLoop};
use crate::pragformer::PragFormer;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::nn::Param;
use pragformer_tensor::serialize::StateDict;

pub use crate::batching::{EpochMetrics, TrainConfig};

/// One encoded example: the **valid token prefix only** (CLS-prefixed,
/// unpadded — the batching engine pads to each batch's length bucket).
#[derive(Clone, Debug)]
pub struct EncodedExample {
    /// Valid token ids (no padding).
    pub ids: Vec<usize>,
    /// Binary label.
    pub label: bool,
}

impl EncodedExample {
    /// Builds an example from a possibly-padded encoding, keeping only
    /// the `valid` prefix (the shape `Vocab::encode` returns).
    pub fn new(mut ids: Vec<usize>, valid: usize, label: bool) -> Self {
        ids.truncate(valid);
        Self { ids, label }
    }

    /// Non-pad token count.
    pub fn valid(&self) -> usize {
        self.ids.len()
    }
}

impl TrainExample for EncodedExample {
    fn token_ids(&self) -> &[usize] {
        &self.ids
    }
}

/// The fine-tuning objective: softmax cross-entropy over a
/// [`PragFormer`]'s CLS head, one example = one loss unit.
pub struct FineTune<'m> {
    /// The model being fine-tuned.
    pub model: &'m mut PragFormer,
}

impl FineTune<'_> {
    fn labels(examples: &[EncodedExample], batch: &Batch) -> Vec<usize> {
        batch.indices.iter().map(|&i| examples[i].label as usize).collect()
    }
}

impl Objective for FineTune<'_> {
    type Example = EncodedExample;

    fn train_step(&mut self, examples: &[EncodedExample], batch: &Batch) -> (f32, f32) {
        let labels = Self::labels(examples, batch);
        self.model.zero_grad();
        let loss = self.model.train_step_seq(&batch.ids, &batch.valid, batch.seq, &labels);
        (loss, batch.indices.len() as f32)
    }

    fn eval_step(&mut self, examples: &[EncodedExample], batch: &Batch) -> EvalStep {
        let labels = Self::labels(examples, batch);
        let (loss, correct) =
            self.model.eval_step_head(0, &batch.ids, &batch.valid, batch.seq, &labels);
        let n = batch.indices.len() as f32;
        EvalStep { loss, weight: n, correct: correct as f32, scored: n }
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
}

/// Fine-tunes a [`PragFormer`] on encoded examples.
pub struct Trainer {
    cfg: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg }
    }

    /// Runs the shared engine with the fine-tuning objective. Returns
    /// per-epoch metrics and restores the model to the
    /// best-validation-loss epoch's weights before returning.
    pub fn fit(
        &self,
        model: &mut PragFormer,
        train: &[EncodedExample],
        valid: &[EncodedExample],
    ) -> Vec<EpochMetrics> {
        let max_len = model.config().max_len;
        TrainLoop::new(self.cfg.clone(), max_len).fit(&mut FineTune { model }, train, valid)
    }
}

/// Mean loss and accuracy over a split (eval mode), weighted by example
/// count — a short final chunk no longer biases the mean the way
/// per-batch averaging did.
pub fn evaluate(
    model: &mut PragFormer,
    examples: &[EncodedExample],
    batch_size: usize,
) -> (f32, f32) {
    let max_len = model.config().max_len;
    batching::evaluate(&mut FineTune { model }, examples, batch_size, max_len)
}

/// Synthesizes a linearly-separable toy set for tests, benches and doc
/// examples: label 1 sequences contain token `hot`, label 0 sequences do
/// not. Lengths are uniform in `[4, max_len - 2]`.
pub fn synthetic_examples(
    n: usize,
    max_len: usize,
    vocab: usize,
    hot: usize,
    seed: u64,
) -> Vec<EncodedExample> {
    use pragformer_tokenize::vocab::special;
    assert!(
        max_len >= 6,
        "synthetic_examples needs max_len >= 6 to fit CLS plus a 4..=max_len-2 token body \
         (got {max_len})"
    );
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|k| {
            let label = k % 2 == 1;
            let len = 4 + rng.below(max_len - 5);
            let mut ids = vec![special::CLS];
            for _ in 0..len - 1 {
                let mut t = special::COUNT + rng.below(vocab - special::COUNT);
                if t == hot {
                    t += 1; // keep negatives clean
                }
                ids.push(t.min(vocab - 1));
            }
            if label {
                let pos = 1 + rng.below(len - 1);
                ids[pos] = hot;
            }
            EncodedExample { ids, label }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    #[test]
    fn trainer_learns_hot_token_task() {
        let vocab = 24;
        let cfg = ModelConfig::tiny(vocab);
        let hot = 10;
        let train = synthetic_examples(120, cfg.max_len, vocab, hot, 1);
        let valid = synthetic_examples(40, cfg.max_len, vocab, hot, 2);
        let mut rng = SeededRng::new(3);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: 12,
            batch_size: 16,
            lr: 5e-3,
            clip: 1.0,
            seed: 4,
            warmup_frac: 0.1,
            shuffle_window: 0,
        });
        let history = trainer.fit(&mut model, &train, &valid);
        assert_eq!(history.len(), 12);
        let final_acc = history.last().unwrap().valid_accuracy;
        let best_acc = history.iter().map(|h| h.valid_accuracy).fold(0.0f32, f32::max);
        assert!(best_acc > 0.85, "best accuracy {best_acc} (history {history:?})");
        assert!(final_acc > 0.6, "final accuracy collapsed: {history:?}");
        // Train loss must trend down.
        assert!(history.last().unwrap().train_loss < history[0].train_loss);
    }

    #[test]
    fn model_selection_restores_best_epoch() {
        let vocab = 24;
        let cfg = ModelConfig::tiny(vocab);
        let train = synthetic_examples(60, cfg.max_len, vocab, 9, 5);
        let valid = synthetic_examples(30, cfg.max_len, vocab, 9, 6);
        let mut rng = SeededRng::new(7);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 16,
            lr: 2e-3,
            clip: 1.0,
            seed: 8,
            warmup_frac: 0.0,
            shuffle_window: 0,
        });
        let history = trainer.fit(&mut model, &train, &valid);
        let best =
            history.iter().min_by(|a, b| a.valid_loss.total_cmp(&b.valid_loss)).unwrap().clone();
        let (loss_now, _) = evaluate(&mut model, &valid, 16);
        assert!(
            (loss_now - best.valid_loss).abs() < 1e-5,
            "restored loss {loss_now} vs best epoch {best:?}"
        );
    }

    #[test]
    fn fit_is_seed_deterministic() {
        let vocab = 20;
        let cfg = ModelConfig::tiny(vocab);
        let train = synthetic_examples(40, cfg.max_len, vocab, 9, 11);
        let valid = synthetic_examples(16, cfg.max_len, vocab, 9, 12);
        let run = || {
            let mut rng = SeededRng::new(13);
            let mut model = PragFormer::new(&cfg, &mut rng);
            let trainer = Trainer::new(TrainConfig {
                epochs: 2,
                batch_size: 8,
                lr: 1e-3,
                clip: 1.0,
                seed: 14,
                warmup_frac: 0.1,
                shuffle_window: 0,
            });
            trainer.fit(&mut model, &train, &valid)
        };
        assert_eq!(run(), run(), "same seed must reproduce the history exactly");
    }

    #[test]
    fn evaluate_weights_by_example_count() {
        // 17 examples at batch 16 used to average a 16-batch and a
        // 1-batch equally; the weighted mean must match a direct
        // per-example computation regardless of batch size.
        let vocab = 20;
        let cfg = ModelConfig::tiny(vocab);
        let examples = synthetic_examples(17, cfg.max_len, vocab, 9, 15);
        let mut rng = SeededRng::new(16);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let (l16, a16) = evaluate(&mut model, &examples, 16);
        let (l1, a1) = evaluate(&mut model, &examples, 1);
        assert!((l16 - l1).abs() < 1e-5, "batch-size-dependent loss: {l16} vs {l1}");
        assert_eq!(a16, a1);
    }

    #[test]
    fn synthetic_examples_are_balanced_and_sized() {
        let ex = synthetic_examples(100, 24, 30, 12, 9);
        assert_eq!(ex.len(), 100);
        let pos = ex.iter().filter(|e| e.label).count();
        assert_eq!(pos, 50);
        for e in &ex {
            assert!(e.valid() >= 4 && e.valid() <= 24);
            assert_eq!(e.ids.len(), e.valid(), "examples must be unpadded");
            let has_hot = e.ids.contains(&12);
            assert_eq!(has_hot, e.label);
        }
    }

    #[test]
    #[should_panic(expected = "max_len >= 6")]
    fn synthetic_examples_rejects_tiny_max_len() {
        let _ = synthetic_examples(4, 5, 10, 6, 1);
    }

    #[test]
    fn encoded_example_new_truncates_padding() {
        let e = EncodedExample::new(vec![2, 7, 8, 0, 0, 0], 3, true);
        assert_eq!(e.ids, vec![2, 7, 8]);
        assert_eq!(e.valid(), 3);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        let cfg = ModelConfig::tiny(10);
        let mut rng = SeededRng::new(1);
        let mut model = PragFormer::new(&cfg, &mut rng);
        let trainer = Trainer::new(TrainConfig::default());
        let _ = trainer.fit(&mut model, &[], &[]);
    }
}
