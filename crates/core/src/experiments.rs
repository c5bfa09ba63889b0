//! Runnable experiments behind every evaluation table and figure.

use crate::advisor::{training_data, training_datasets, Advisor, HeadProbs, PreparedSnippet};
use crate::encode::{encode_dataset, EncodedDataset};
use crate::scale::Scale;
use pragformer_baselines::{analyze_snippet, BowModel, BowTrainConfig, Strictness};
use pragformer_corpus::{Database, Dataset, Example};
use pragformer_eval::metrics::{confusion, BinaryMetrics, Confusion};
use pragformer_model::trainer::{EncodedExample, Trainer};
use pragformer_model::{EpochMetrics, PragFormer, Task};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::default_plan;
use pragformer_tokenize::Representation;

/// One system's evaluation on a test split.
#[derive(Clone, Debug)]
pub struct SystemEval {
    /// System name as reported in the paper's tables.
    pub name: &'static str,
    /// Confusion counts.
    pub confusion: Confusion,
    /// Derived metrics.
    pub metrics: BinaryMetrics,
}

fn eval_system(name: &'static str, predictions: &[bool], labels: &[bool]) -> SystemEval {
    let c = confusion(predictions, labels);
    SystemEval { name, confusion: c, metrics: c.metrics() }
}

/// Outcome of the directive-classification comparison (Table 8) plus the
/// data for Figures 4-7.
pub struct DirectiveOutcome {
    /// PragFormer on the test split.
    pub pragformer: SystemEval,
    /// Bag-of-words baseline.
    pub bow: SystemEval,
    /// ComPar-style S2S engine (parse failures → negative fallback).
    pub compar: SystemEval,
    /// Snippets the strict front-end could not parse.
    pub compar_parse_failures: usize,
    /// Training history (Figures 4-6 series for the chosen
    /// representation).
    pub history: Vec<EpochMetrics>,
    /// For each test example: `(line_count, pragformer_correct)` —
    /// Figure 7's raw data.
    pub per_example: Vec<(usize, bool)>,
}

/// Trains PragFormer on encoded data and predicts the test split.
fn train_and_predict(
    enc: &EncodedDataset,
    scale: Scale,
    seed: u64,
) -> (Vec<bool>, Vec<EpochMetrics>, PragFormer) {
    let model_cfg = scale.model(enc.vocab.len());
    let mut rng = SeededRng::new(seed);
    let mut model = PragFormer::new(&model_cfg, &mut rng);
    let trainer = Trainer::new(scale.train(seed ^ 0x5EED));
    let history = trainer.fit(&mut model, &enc.train, &enc.valid);
    let preds = predict_all(&mut model, &enc.test, 32);
    (preds, history, model)
}

/// Batch prediction helper: hard labels at threshold 0.5.
pub fn predict_all(model: &mut PragFormer, examples: &[EncodedExample], batch: usize) -> Vec<bool> {
    positive_probs(model, examples, batch).into_iter().map(|p| p > 0.5).collect()
}

/// Head-0 positive-class probabilities in chunks of `batch`. Each chunk
/// runs at its length bucket (bitwise identical to `max_len` padding,
/// proportionally cheaper).
fn positive_probs(model: &mut PragFormer, examples: &[EncodedExample], batch: usize) -> Vec<f32> {
    let max_len = model.config().max_len;
    let mut out = Vec::with_capacity(examples.len());
    let idxs: Vec<usize> = (0..examples.len()).collect();
    for chunk in idxs.chunks(batch.max(1)) {
        let b = pragformer_model::batching::gather(examples, chunk, max_len);
        out.extend(model.predict_proba_batch(&b.ids, &b.valid, b.seq));
    }
    out
}

/// Runs the full Table 8 comparison on a database.
pub fn run_directive_experiment(db: &Database, scale: Scale, seed: u64) -> DirectiveOutcome {
    let ds = Dataset::directive(db, seed);
    let (min_freq, max_vocab) = scale.vocab_limits();
    let max_len = scale.model(8).max_len;
    let enc = encode_dataset(db, &ds, Representation::Text, max_len, min_freq, max_vocab);

    // PragFormer.
    let (pf_preds, history, _model) = train_and_predict(&enc, scale, seed);
    let pragformer = eval_system("PragFormer", &pf_preds, &enc.test_labels);

    // BoW + logistic regression, over the same truncated window the
    // transformer sees (a fair comparison; the paper's snippets all fit
    // its 110-token cap).
    let truncate = |seqs: &[Vec<String>]| -> Vec<Vec<String>> {
        seqs.iter().map(|s| s.iter().take(max_len - 1).cloned().collect()).collect()
    };
    let bow_model = BowModel::train(
        &truncate(&enc.train_tokens),
        &enc.train_labels,
        &BowTrainConfig { seed, ..Default::default() },
    );
    let bow_preds: Vec<bool> =
        truncate(&enc.test_tokens).iter().map(|t| bow_model.predict(t)).collect();
    let bow = eval_system("BoW + Logistic", &bow_preds, &enc.test_labels);

    // ComPar with the paper's negative fallback on parse failures.
    let mut compar_preds = Vec::with_capacity(ds.split.test.len());
    let mut parse_failures = 0usize;
    for ex in &ds.split.test {
        let source = db.records()[ex.record].code();
        let result = analyze_snippet(&source, Strictness::Strict);
        if result.is_parse_failure() {
            parse_failures += 1;
        }
        compar_preds.push(result.predicts_directive());
    }
    let compar = eval_system("ComPar", &compar_preds, &enc.test_labels);

    let per_example = enc
        .test_meta
        .iter()
        .zip(pf_preds.iter().zip(&enc.test_labels))
        .map(|(&(lines, _), (p, y))| (lines, p == y))
        .collect();

    DirectiveOutcome {
        pragformer,
        bow,
        compar,
        compar_parse_failures: parse_failures,
        history,
        per_example,
    }
}

/// Outcome of a clause experiment (Table 9 or 10).
pub struct ClauseOutcome {
    /// Which clause was classified.
    pub clause: pragformer_corpus::ClauseKind,
    /// PragFormer.
    pub pragformer: SystemEval,
    /// Bag-of-words.
    pub bow: SystemEval,
    /// ComPar.
    pub compar: SystemEval,
    /// Training history.
    pub history: Vec<EpochMetrics>,
}

/// Runs a clause-classification comparison over directive-bearing records
/// with balanced labels (§5.3).
pub fn run_clause_experiment(
    db: &Database,
    kind: pragformer_corpus::ClauseKind,
    scale: Scale,
    seed: u64,
) -> ClauseOutcome {
    let ds = Dataset::clause(db, kind, seed).balanced(seed ^ 0xBA1A);
    let (min_freq, max_vocab) = scale.vocab_limits();
    let max_len = scale.model(8).max_len;
    let enc = encode_dataset(db, &ds, Representation::Text, max_len, min_freq, max_vocab);

    let (pf_preds, history, _model) = train_and_predict(&enc, scale, seed);
    let pragformer = eval_system("PragFormer", &pf_preds, &enc.test_labels);

    let truncate = |seqs: &[Vec<String>]| -> Vec<Vec<String>> {
        seqs.iter().map(|s| s.iter().take(max_len - 1).cloned().collect()).collect()
    };
    let bow_model = BowModel::train(
        &truncate(&enc.train_tokens),
        &enc.train_labels,
        &BowTrainConfig { seed, ..Default::default() },
    );
    let bow_preds: Vec<bool> =
        truncate(&enc.test_tokens).iter().map(|t| bow_model.predict(t)).collect();
    let bow = eval_system("BoW + Logistic", &bow_preds, &enc.test_labels);

    let compar_preds: Vec<bool> = ds
        .split
        .test
        .iter()
        .map(|ex| {
            let result = analyze_snippet(&db.records()[ex.record].code(), Strictness::Strict);
            match kind {
                pragformer_corpus::ClauseKind::Private => result.predicts_private(),
                pragformer_corpus::ClauseKind::Reduction => result.predicts_reduction(),
            }
        })
        .collect();
    let compar = eval_system("ComPar", &compar_preds, &enc.test_labels);

    ClauseOutcome { clause: kind, pragformer, bow, compar, history }
}

/// Per-representation training histories (Figures 4, 5 and 6).
pub fn run_repr_sweep(
    db: &Database,
    scale: Scale,
    seed: u64,
) -> Vec<(Representation, Vec<EpochMetrics>)> {
    let ds = Dataset::directive(db, seed);
    let (min_freq, max_vocab) = scale.vocab_limits();
    let max_len = scale.model(8).max_len;
    Representation::ALL
        .iter()
        .map(|&repr| {
            let enc = encode_dataset(db, &ds, repr, max_len, min_freq, max_vocab);
            let (_preds, history, _model) = train_and_predict(&enc, scale, seed);
            (repr, history)
        })
        .collect()
}

/// Generalization outcome on a held-out suite (one row pair of Table 11).
pub struct SuiteOutcome {
    /// Suite name (`PolyBench` / `SPEC-OMP`).
    pub suite: &'static str,
    /// PragFormer trained on Open-OMP, evaluated zero-shot on the suite.
    pub pragformer: SystemEval,
    /// ComPar on the suite (parse failures → negative fallback).
    pub compar: SystemEval,
    /// Suite snippets the strict front-end rejected.
    pub compar_parse_failures: usize,
}

/// Trains once on the database, then evaluates on both benchmark suites
/// (Table 11).
pub fn run_generalization(db: &Database, scale: Scale, seed: u64) -> Vec<SuiteOutcome> {
    let ds = Dataset::directive(db, seed);
    let (min_freq, max_vocab) = scale.vocab_limits();
    let max_len = scale.model(8).max_len;
    let enc = encode_dataset(db, &ds, Representation::Text, max_len, min_freq, max_vocab);
    let (_preds, _history, mut model) = train_and_predict(&enc, scale, seed);

    let suites: Vec<(&'static str, Database)> = vec![
        ("PolyBench", pragformer_corpus::suites::polybench(seed ^ 0x9017)),
        ("SPEC-OMP", pragformer_corpus::suites::spec_omp(seed ^ 0x59EC)),
    ];
    suites
        .into_iter()
        .map(|(name, suite_db)| {
            let mut labels = Vec::with_capacity(suite_db.len());
            let mut examples = Vec::with_capacity(suite_db.len());
            let mut compar_preds = Vec::with_capacity(suite_db.len());
            let mut parse_failures = 0usize;
            for r in suite_db.records() {
                labels.push(r.has_directive());
                let tokens = pragformer_tokenize::tokens_for(&r.stmts, Representation::Text);
                let (ids, valid) = enc.vocab.encode(&tokens, max_len);
                examples.push(EncodedExample::new(ids, valid, r.has_directive()));
                let result = analyze_snippet(&r.code(), Strictness::Strict);
                if result.is_parse_failure() {
                    parse_failures += 1;
                }
                compar_preds.push(result.predicts_directive());
            }
            let pf_preds = predict_all(&mut model, &examples, 32);
            SuiteOutcome {
                suite: name,
                pragformer: eval_system("PragFormer", &pf_preds, &labels),
                compar: eval_system("ComPar", &compar_preds, &labels),
                compar_parse_failures: parse_failures,
            }
        })
        .collect()
}

/// One head's held-out comparison between the paper's per-head ensemble
/// and the shared-trunk advisor.
pub struct HeadParity {
    /// Head name (`directive` / `private` / `reduction`).
    pub head: &'static str,
    /// Confusion of the paper-faithful ensemble of three N = 1 models.
    pub per_head: Confusion,
    /// Confusion of the shared-trunk multi-task advisor.
    pub shared: Confusion,
}

impl HeadParity {
    /// Macro-F1 gap `shared − per_head` in points (×100).
    pub fn macro_f1_gap_points(&self) -> f64 {
        (self.shared.macro_f1() - self.per_head.macro_f1()) * 100.0
    }
}

/// Outcome of the backend-parity experiment: per-head macro-F1 of the
/// per-head ensemble vs the shared-trunk advisor on the held-out test
/// splits.
pub struct BackendParity {
    /// One entry per head, in `Task` order.
    pub heads: [HeadParity; 3],
}

impl BackendParity {
    /// Largest absolute per-head macro-F1 gap, in points.
    pub fn max_gap_points(&self) -> f64 {
        self.heads.iter().map(|h| h.macro_f1_gap_points().abs()).fold(0.0, f64::max)
    }
}

/// One held-out test split, run through an advisor's front end.
struct HeldOut {
    prepared: Vec<Result<PreparedSnippet, pragformer_cparse::ParseError>>,
    labels: Vec<bool>,
}

impl HeldOut {
    fn new(advisor: &Advisor, db: &Database, examples: &[Example]) -> HeldOut {
        let sources: Vec<String> = examples.iter().map(|e| db.records()[e.record].code()).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        HeldOut {
            prepared: advisor.prepare_batch(&refs),
            labels: examples.iter().map(|e| e.label).collect(),
        }
    }

    fn parsed(&self) -> Vec<&PreparedSnippet> {
        self.prepared.iter().filter_map(|p| p.as_ref().ok()).collect()
    }

    /// Scores one probability per parsed snippet at threshold 0.5;
    /// snippets the strict front-end cannot parse fall back to a
    /// negative prediction, like the paper's ComPar scoring.
    fn confusion(&self, probs: &[f32]) -> Confusion {
        let mut next = probs.iter();
        let preds: Vec<bool> =
            self.prepared.iter().map(|p| p.is_ok() && *next.next().unwrap() > 0.5).collect();
        confusion(&preds, &self.labels)
    }

    /// One task's probabilities from the advisor's three-head forward.
    fn advisor_probs(&self, advisor: &mut Advisor, task: Task) -> Vec<f32> {
        let pick = |p: &HeadProbs| match task {
            Task::Directive => p.directive,
            Task::Private => p.private,
            Task::Reduction => p.reduction,
        };
        advisor.head_probs_batch(&self.parsed()).iter().map(pick).collect()
    }
}

/// Trains the shared-trunk advisor and the paper's per-head ensemble
/// (three N = 1 [`PragFormer`]s, one per task) on the same encoded
/// examples, and scores each head on its held-out test split. Both score
/// the advisor's `prepare_batch` output: the advisor through
/// `head_probs_batch`, the ensemble through each model's batched forward
/// over the same encoded ids; threshold 0.5.
///
/// The splits reproduce exactly what [`Advisor::train`] trained on (same
/// datasets, same seeds/salts), so the test records are unseen by both.
pub fn run_backend_parity(db: &Database, scale: Scale, seed: u64) -> BackendParity {
    let data = training_data(db, scale, seed);
    let cfg = scale.model(data.vocab.len());
    let trainer = Trainer::new(scale.train(seed));
    let mut rng = SeededRng::new(seed);
    let mut ensemble = Task::ALL.map(|task| {
        let of_task = |set: &[pragformer_model::MultiTaskExample]| -> Vec<EncodedExample> {
            set.iter()
                .filter(|e| e.task == task)
                .map(|e| EncodedExample { ids: e.ids.clone(), label: e.label })
                .collect()
        };
        let mut model = PragFormer::new(&cfg, &mut rng);
        let train = of_task(&data.train);
        if !train.is_empty() {
            trainer.fit(&mut model, &train, &of_task(&data.valid));
        }
        model
    });
    let mut shared = Advisor::fit(data, scale, seed);

    let (directive_ds, private_ds, reduction_ds) = training_datasets(db, seed);
    let test_splits = [directive_ds, private_ds, reduction_ds];
    let heads = Task::ALL.map(|task| {
        let held_out = HeldOut::new(&shared, db, &test_splits[task.index()].split.test);
        let ids: Vec<EncodedExample> = held_out
            .parsed()
            .iter()
            .map(|p| EncodedExample { ids: p.cache_key(), label: false })
            .collect();
        let per_head = positive_probs(&mut ensemble[task.index()], &ids, 32);
        HeadParity {
            head: task.name(),
            per_head: held_out.confusion(&per_head),
            shared: held_out.confusion(&held_out.advisor_probs(&mut shared, task)),
        }
    });
    BackendParity { heads }
}

/// One head's held-out comparison between f32 and int8 trunk inference.
pub struct Int8HeadParity {
    /// Head name (`directive` / `private` / `reduction`).
    pub head: &'static str,
    /// Confusion with the f32 trunk.
    pub f32: Confusion,
    /// Confusion with the int8-quantized trunk.
    pub int8: Confusion,
}

impl Int8HeadParity {
    /// Macro-F1 gap `int8 − f32` in points (×100).
    pub fn macro_f1_gap_points(&self) -> f64 {
        (self.int8.macro_f1() - self.f32.macro_f1()) * 100.0
    }
}

/// Outcome of the int8-parity experiment: one trained advisor, each head's
/// held-out test split scored twice — once with the f32 trunk, once with
/// the per-channel int8 trunk — plus the trunk weight-byte accounting.
pub struct Int8Parity {
    /// One entry per head, in `Task` order.
    pub heads: [Int8HeadParity; 3],
    /// Trunk matrix/embedding weight bytes at f32.
    pub trunk_f32_bytes: usize,
    /// The same weights under the int8 scheme (per-column i8 + f32 scale).
    pub trunk_int8_bytes: usize,
}

impl Int8Parity {
    /// Largest absolute per-head macro-F1 gap, in points.
    pub fn max_gap_points(&self) -> f64 {
        self.heads.iter().map(|h| h.macro_f1_gap_points().abs()).fold(0.0, f64::max)
    }

    /// `trunk_int8_bytes / trunk_f32_bytes`.
    pub fn byte_ratio(&self) -> f64 {
        self.trunk_int8_bytes as f64 / self.trunk_f32_bytes as f64
    }
}

/// Trains one shared-trunk advisor and scores each head's held-out test
/// split twice through the full advise pipeline, on two plans
/// ([`Advisor::set_plan`]): the default plan's f32 twin and its int8
/// twin.
///
/// This is the accuracy gate for [`pragformer_tensor::kernel::KernelTier::Int8`]:
/// the tier is acceptable when the per-head macro-F1 gap stays within a
/// couple of points of f32 while the trunk weight bytes shrink to ≲30%.
pub fn run_int8_parity(db: &Database, scale: Scale, seed: u64) -> Int8Parity {
    let mut advisor = Advisor::train(db, scale, seed);
    let (trunk_f32_bytes, trunk_int8_bytes) = advisor.trunk_weight_bytes();

    // Same split constructor `Advisor::train` uses → test splits are held
    // out by construction (see `run_backend_parity`).
    let (directive_ds, private_ds, reduction_ds) = training_datasets(db, seed);
    let test_splits = [directive_ds, private_ds, reduction_ds];
    let default = default_plan();
    let heads = Task::ALL.map(|task| {
        let held_out = HeldOut::new(&advisor, db, &test_splits[task.index()].split.test);
        let mut score = |plan| {
            advisor.set_plan(plan);
            held_out.confusion(&held_out.advisor_probs(&mut advisor, task))
        };
        Int8HeadParity {
            head: task.name(),
            f32: score(default.float()),
            int8: score(default.int8()),
        }
    });
    Int8Parity { heads, trunk_f32_bytes, trunk_int8_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragformer_corpus::generate;

    fn tiny_db(seed: u64) -> Database {
        generate(&Scale::Tiny.generator(seed))
    }

    #[test]
    fn directive_experiment_end_to_end() {
        let db = tiny_db(11);
        let out = run_directive_experiment(&db, Scale::Tiny, 1);
        // The learned model must beat chance on a held-out split even at
        // tiny scale, and the deterministic engine must do *something*.
        assert!(
            out.pragformer.metrics.accuracy > 0.55,
            "PragFormer accuracy {:?}",
            out.pragformer.metrics
        );
        assert!(out.bow.metrics.accuracy > 0.55, "BoW {:?}", out.bow.metrics);
        assert!(out.compar.confusion.total() > 0);
        assert_eq!(out.per_example.len(), out.pragformer.confusion.total());
        assert!(!out.history.is_empty());
    }

    #[test]
    fn clause_experiment_end_to_end() {
        let db = tiny_db(12);
        let out =
            run_clause_experiment(&db, pragformer_corpus::ClauseKind::Reduction, Scale::Tiny, 2);
        // Balanced splits: both labels present.
        let c = out.pragformer.confusion;
        assert!(c.tp + c.fn_ > 0, "no positive labels {c:?}");
        assert!(c.tn + c.fp > 0, "no negative labels {c:?}");
        // ComPar's reduction precision should look like Table 10: high.
        let cm = out.compar.metrics;
        if out.compar.confusion.tp + out.compar.confusion.fp > 3 {
            assert!(cm.precision > 0.5, "ComPar reduction precision {cm:?}");
        }
    }

    #[test]
    fn backend_parity_scores_every_head_on_held_out_data() {
        let db = tiny_db(14);
        let out = run_backend_parity(&db, Scale::Tiny, 4);
        for h in &out.heads {
            assert!(h.per_head.total() > 0, "{}: empty per-head test split", h.head);
            assert_eq!(
                h.per_head.total(),
                h.shared.total(),
                "{}: ensemble and advisor scored different example counts",
                h.head
            );
            assert!((0.0..=1.0).contains(&h.per_head.macro_f1()), "{}", h.head);
            assert!((0.0..=1.0).contains(&h.shared.macro_f1()), "{}", h.head);
        }
        // Both learn the directive task well past chance at tiny
        // scale (the clause subsets are too small to pin tightly here;
        // the small-profile parity run is recorded by the
        // `backend_parity` bench binary).
        let d = &out.heads[0];
        assert!(d.per_head.metrics().accuracy > 0.55, "{:?}", d.per_head.metrics());
        assert!(d.shared.metrics().accuracy > 0.55, "{:?}", d.shared.metrics());
    }

    #[test]
    fn int8_parity_scores_every_head_twice_and_shrinks_the_trunk() {
        let db = tiny_db(15);
        let out = run_int8_parity(&db, Scale::Tiny, 5);
        for h in &out.heads {
            assert!(h.f32.total() > 0, "{}: empty test split", h.head);
            assert_eq!(
                h.f32.total(),
                h.int8.total(),
                "{}: f32/int8 scored different example counts",
                h.head
            );
            assert!((0.0..=1.0).contains(&h.f32.macro_f1()), "{}", h.head);
            assert!((0.0..=1.0).contains(&h.int8.macro_f1()), "{}", h.head);
        }
        // At tiny scale the per-f32-scale overhead is proportionally
        // large; the ≤30% acceptance gate is checked at small scale by
        // the `kernel_parity` bench binary.
        assert!(out.byte_ratio() < 0.45, "byte ratio {:.3}", out.byte_ratio());
        assert!(out.trunk_int8_bytes < out.trunk_f32_bytes);
        // Quantization must not wreck a learned head at tiny scale.
        let d = &out.heads[0];
        assert!(d.f32.metrics().accuracy > 0.55, "{:?}", d.f32.metrics());
        assert!(
            d.macro_f1_gap_points().abs() < 15.0,
            "directive gap {:.1} pts",
            d.macro_f1_gap_points()
        );
    }

    #[test]
    fn generalization_runs_on_both_suites() {
        let db = tiny_db(13);
        let outcomes = run_generalization(&db, Scale::Tiny, 3);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].suite, "PolyBench");
        assert_eq!(outcomes[1].suite, "SPEC-OMP");
        for o in &outcomes {
            assert_eq!(o.pragformer.confusion.total(), o.compar.confusion.total(), "{}", o.suite);
        }
        // SPEC's register/typedef flavour must trip the strict front-end.
        assert!(outcomes[1].compar_parse_failures > 0);
    }
}
