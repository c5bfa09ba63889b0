//! The on-the-fly parallelization advisor (§2.1 of the paper).
//!
//! The paper positions PragFormer as "an immediate 'advisor' for
//! developers to identify locations that can benefit from an OpenMP
//! directive", optionally cross-checked against an S2S compiler ("in
//! cases both the model and the S2S compilers agree on a directive, it
//! will remain"). [`Advisor`] packages exactly that: one fine-tuned
//! three-head classifier (directive / private / reduction heads on one
//! shared trunk, [`PragFormer::multi_task`]) plus the ComPar-style engine
//! for agreement checks and clause-variable synthesis.
//!
//! ## Batched advising
//!
//! A CI bot or IDE sweep asks about *every* loop of a translation unit at
//! once, so [`Advisor::advise_batch`] is the primary entry point:
//!
//! 1. snippets are parsed, tokenized, encoded and dependence-analyzed in
//!    parallel on the persistent thread pool;
//! 2. encoded sequences are **bucketed by padded length** (the smallest
//!    power of two ≥ the token count, capped at `max_len`), so short
//!    loops don't pay `max_len²` attention;
//! 3. within a bucket, **identical encoded sequences are deduplicated**
//!    — repeated loop idioms (ubiquitous in real translation units) are
//!    classified once and the result fanned out;
//! 4. each bucket runs **one** batched trunk forward — one large GEMM
//!    pipeline instead of `batch` small ones — and then the three
//!    `[rows, d_model] → [rows, 2]` head projections.
//!
//! Because every kernel is bitwise-deterministic per row regardless of
//! batch size and padding length (see `pragformer_tensor::ops`), the
//! returned [`Advice`] — including every probability, bit for bit — is
//! identical to what per-snippet [`Advisor::advise`] calls would produce.
//! [`Advisor::advise`] is in fact a batch of one.

use crate::encode::encode_dataset;
use crate::scale::Scale;
use pragformer_baselines::compar::{analyze_stmts, check_frontend};
use pragformer_baselines::{ComparResult, Strictness};
use pragformer_corpus::{generate, ClauseKind, Database, Dataset, Example};
use pragformer_cparse::omp::{OmpClause, OmpDirective};
use pragformer_cparse::{parse_snippet, ParseError};
use pragformer_model::multitask::{self, MultiTaskConfig, MultiTaskExample, Task};
use pragformer_model::PragFormer;
use pragformer_obs as obs;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::KernelTier;
use pragformer_tensor::parallel::par_map_indexed;
use pragformer_tokenize::{tokens_for, Representation, Vocab};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Advice for one code snippet.
#[derive(Clone, Debug)]
pub struct Advice {
    /// Should this loop get `#pragma omp parallel for`?
    pub needs_directive: bool,
    /// Model probability behind `needs_directive`.
    pub confidence: f32,
    /// Probability a `private` clause is needed (only meaningful when
    /// `needs_directive`).
    pub private_probability: f32,
    /// Probability a `reduction` clause is needed.
    pub reduction_probability: f32,
    /// Whether the deterministic S2S engine agrees a directive fits
    /// (`None` when it failed to parse the snippet).
    pub compar_agrees: Option<bool>,
    /// A synthesized directive: presence decided by the model, clause
    /// *variables* filled in from the S2S analysis when available.
    pub suggestion: Option<OmpDirective>,
}

/// The three head probabilities for one snippet — the model output an
/// [`Advice`] is assembled from.
///
/// This is exactly the data a serving layer may cache: it depends only on
/// the encoded id sequence (see [`PreparedSnippet::cache_key`]), never on
/// the surrounding batch, so a cached value is bitwise-equal to a fresh
/// forward of the same snippet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeadProbs {
    /// P(needs `#pragma omp parallel for`).
    pub directive: f32,
    /// P(needs a `private` clause).
    pub private: f32,
    /// P(needs a `reduction` clause).
    pub reduction: f32,
}

/// The front-end result for one snippet: encoded ids plus the S2S
/// dependence analysis, ready for a batched forward.
///
/// Produced by [`Advisor::prepare_batch`]; consumed by
/// [`Advisor::head_probs_batch`]. Splitting the pipeline here lets a
/// serving layer interpose a cross-request cache between the (cheap,
/// stateless) front-end and the (expensive) model forwards.
pub struct PreparedSnippet {
    /// Ids padded to `max_len` (buckets slice a prefix).
    ids: Vec<usize>,
    /// Count of meaningful leading ids; everything after is PAD.
    valid: usize,
    /// The ComPar-style dependence analysis of the source text.
    compar: ComparResult,
}

impl PreparedSnippet {
    /// The key under which this snippet's [`HeadProbs`] may be cached:
    /// the valid prefix of the encoded id sequence.
    ///
    /// Padding is deterministic (always the PAD id, to `max_len`) and the
    /// kernels are bitwise padding-invariant, so two snippets with equal
    /// valid prefixes — regardless of whitespace, comments, or identifier
    /// spelling that tokenizes identically — produce bit-identical
    /// probabilities. This is the in-batch dedup key of
    /// [`Advisor::advise_batch`], generalized across requests.
    pub fn cache_key(&self) -> Vec<usize> {
        self.ids[..self.valid].to_vec()
    }

    /// The S2S dependence-analysis result for this snippet.
    pub fn compar(&self) -> &ComparResult {
        &self.compar
    }
}

/// Cached observability handles for one kernel tier: the four
/// per-stage span histograms
/// (`pragformer_span_seconds{span="advise.*", tier}`) plus the snippet
/// counters. The registry is consulted once per tier (a lock plus
/// allocations); every later batch reuses the `Arc`s wait-free. Returns
/// `None` when observability is disabled, so the disabled hot path is a
/// single atomic load with no clock reads.
struct StageObs {
    prepare: Arc<obs::Histogram>,
    bucket: Arc<obs::Histogram>,
    forward: Arc<obs::Histogram>,
    post: Arc<obs::Histogram>,
    snippets: Arc<obs::Counter>,
    parse_errors: Arc<obs::Counter>,
}

impl StageObs {
    fn get(tier: KernelTier) -> Option<&'static StageObs> {
        if !obs::enabled() {
            return None;
        }
        static CELLS: [OnceLock<StageObs>; 3] = [const { OnceLock::new() }; 3];
        let t = match tier {
            KernelTier::Scalar => 0,
            KernelTier::Avx2 => 1,
            KernelTier::Int8 => 2,
        };
        Some(CELLS[t].get_or_init(|| {
            let labels = [("tier", tier.name())];
            StageObs {
                prepare: obs::span_histogram("advise.prepare", &labels),
                bucket: obs::span_histogram("advise.bucket", &labels),
                forward: obs::span_histogram("advise.forward", &labels),
                post: obs::span_histogram("advise.post", &labels),
                snippets: obs::counter(
                    "pragformer_advise_snippets_total",
                    "Snippets through the advise front-end",
                    &[],
                ),
                parse_errors: obs::counter(
                    "pragformer_advise_parse_errors_total",
                    "Snippets that failed to parse",
                    &[],
                ),
            }
        }))
    }
}

/// A trained advisor: a vocabulary and one three-head [`PragFormer`]
/// whose head `i` serves the task with [`Task::index`] `i`.
pub struct Advisor {
    vocab: Vocab,
    model: PragFormer,
    max_len: usize,
}

/// The exact `(directive, private, reduction)` datasets
/// [`Advisor::train`] fits on — one constructor shared with the parity
/// experiments, so their held-out test splits can never drift out of
/// sync with what the models trained on.
pub(crate) fn training_datasets(
    db: &Database,
    seed: u64,
) -> (Dataset<'_>, Dataset<'_>, Dataset<'_>) {
    (
        Dataset::directive(db, seed),
        Dataset::clause(db, ClauseKind::Private, seed ^ 0xAAAA).balanced(seed ^ 0xAAAA ^ 1),
        Dataset::clause(db, ClauseKind::Reduction, seed ^ 0xBBBB).balanced(seed ^ 0xBBBB ^ 1),
    )
}

/// The encoded, task-tagged examples an advisor trains on.
pub(crate) struct TrainingData {
    /// Built from the directive task's training split.
    pub(crate) vocab: Vocab,
    /// Directive, then `private`, then `reduction` training examples.
    pub(crate) train: Vec<MultiTaskExample>,
    /// Validation examples, in the same task order.
    pub(crate) valid: Vec<MultiTaskExample>,
}

/// Encodes [`training_datasets`] under one vocabulary: the directive task
/// over the full corpus plus the balanced `private`/`reduction` clause
/// subsets. [`Advisor::train`] fits on exactly these examples, and so
/// does the backend-parity experiment's per-head ensemble.
pub(crate) fn training_data(db: &Database, scale: Scale, seed: u64) -> TrainingData {
    let (min_freq, max_vocab) = scale.vocab_limits();
    let max_len = scale.model(8).max_len;
    let (directive_ds, private_ds, reduction_ds) = training_datasets(db, seed);
    let enc = encode_dataset(db, &directive_ds, Representation::Text, max_len, min_freq, max_vocab);
    let directive = |set: Vec<pragformer_model::trainer::EncodedExample>| {
        set.into_iter()
            .map(|ex| MultiTaskExample { ids: ex.ids, label: ex.label, task: Task::Directive })
            .collect::<Vec<_>>()
    };
    let mut train = directive(enc.train);
    let mut valid = directive(enc.valid);

    // Tokenize + encode every record exactly once with the shared
    // vocabulary; the clause datasets (and their balanced subsets, which
    // overlap heavily) index into this instead of re-running the
    // tokenizer per task × example. Lazy per slot: records no clause
    // dataset touches are never encoded.
    let mut record_enc: Vec<Option<(Vec<usize>, usize)>> = vec![None; db.records().len()];
    let mut push = |set: &mut Vec<MultiTaskExample>, examples: &[Example], task: Task| {
        for ex in examples {
            let (ids, n) = record_enc[ex.record]
                .get_or_insert_with(|| {
                    let toks = tokens_for(&db.records()[ex.record].stmts, Representation::Text);
                    enc.vocab.encode(&toks, max_len)
                })
                .clone();
            set.push(MultiTaskExample::new(ids, n, ex.label, task));
        }
    };
    push(&mut train, &private_ds.split.train, Task::Private);
    push(&mut valid, &private_ds.split.valid, Task::Private);
    push(&mut train, &reduction_ds.split.train, Task::Reduction);
    push(&mut valid, &reduction_ds.split.valid, Task::Reduction);
    TrainingData { vocab: enc.vocab, train, valid }
}

impl Advisor {
    /// Trains an advisor on a database: the three task datasets are
    /// interleaved through the multi-task engine
    /// ([`pragformer_model::multitask::fit`]) with a seeded deterministic
    /// task schedule.
    pub fn train(db: &Database, scale: Scale, seed: u64) -> Advisor {
        Advisor::fit(training_data(db, scale, seed), scale, seed)
    }

    /// Fits a fresh three-head model on `data`.
    pub(crate) fn fit(data: TrainingData, scale: Scale, seed: u64) -> Advisor {
        let cfg = scale.model(data.vocab.len());
        let mut model = PragFormer::multi_task(&cfg, &mut SeededRng::new(seed));
        if !data.train.is_empty() {
            let cfg = MultiTaskConfig { train: scale.train(seed), weights: [1.0; 3] };
            multitask::fit(&mut model, &cfg, &data.train, &data.valid);
        }
        Advisor::with_model(data.vocab, model)
    }

    /// Wraps a model for inference. Packs (or quantizes) eagerly so the
    /// first request pays no one-time cost.
    fn with_model(vocab: Vocab, model: PragFormer) -> Advisor {
        let max_len = model.config().max_len;
        let mut advisor = Advisor { vocab, model, max_len };
        advisor.prepack_for_inference();
        advisor
    }

    /// Convenience: generate a corpus and train, in one call.
    pub fn train_from_scratch(scale: Scale, seed: u64) -> Advisor {
        let db = generate(&scale.generator(seed));
        Advisor::train(&db, scale, seed)
    }

    /// The process-wide kernel tier the advisor's GEMMs dispatch on
    /// (reported by serve/CLI startup lines and experiment logs).
    pub fn kernel_tier(&self) -> KernelTier {
        pragformer_tensor::kernel::active_tier()
    }

    /// Advisor-local int8 override of the trunk: `Some(true)` runs
    /// quantized trunk inference, `Some(false)` forces f32, `None`
    /// follows the process kernel tier. Model-local, so parity harnesses
    /// can compare both paths without flipping the global tier under
    /// other threads.
    pub fn set_int8(&mut self, force: Option<bool>) {
        self.model.set_int8_override(force);
    }

    /// Bytes retained by the trunk's attention backward caches. The
    /// advise path runs eval-mode (cache-free) forwards only, so this is
    /// always zero for a serving advisor — the invariant the
    /// `profile_advise` example asserts in steady state.
    pub fn retained_attention_bytes(&self) -> usize {
        self.model.retained_attention_bytes()
    }

    /// Eagerly builds the inference weight caches the model would build
    /// on its first eval forward (packed f32 panels, or int8 copies under
    /// that tier), so the first advise request pays no one-time pack
    /// cost. Construction calls this; it is idempotent.
    pub fn prepack_for_inference(&mut self) {
        self.model.prepack_for_inference();
    }

    /// Static f32-vs-int8 weight accounting of the trunk:
    /// `(f32_bytes, int8_bytes)`.
    pub fn trunk_weight_bytes(&self) -> (usize, usize) {
        let w = self.model.trunk_weight_bytes();
        (w.f32_bytes, w.int8_bytes)
    }

    /// Builds an advisor with freshly initialized, **untrained** weights.
    ///
    /// Inference latency does not depend on weight values, so benchmarks
    /// (`pragformer-bench`'s `inference_latency`) use this to measure the
    /// advise path without paying a training run. Predictions are
    /// meaningless; everything else (tokenizer, bucketing, batching,
    /// ComPar agreement) behaves exactly like a trained advisor.
    pub fn untrained(scale: Scale, seed: u64) -> Advisor {
        let db = generate(&scale.generator(seed));
        let (min_freq, max_vocab) = scale.vocab_limits();
        let tokens: Vec<Vec<String>> =
            db.records().iter().map(|r| tokens_for(&r.stmts, Representation::Text)).collect();
        let vocab = Vocab::build(tokens.iter(), min_freq, max_vocab);
        let model = PragFormer::multi_task(&scale.model(vocab.len()), &mut SeededRng::new(seed));
        Advisor::with_model(vocab, model)
    }

    /// Classifies a C snippet. Errors if the snippet does not parse.
    ///
    /// Equivalent to — and implemented as — [`Advisor::advise_batch`]
    /// over a batch of one.
    pub fn advise(&mut self, source: &str) -> Result<Advice, ParseError> {
        self.advise_batch(&[source]).pop().expect("advise_batch returns one result per snippet")
    }

    /// Classifies a whole batch of C snippets in one pass.
    ///
    /// Returns one `Result` per input snippet, in input order; snippets
    /// that fail to parse report their [`ParseError`] without affecting
    /// the rest of the batch.
    ///
    /// The pipeline: parallel parse/tokenize/encode + ComPar dependence
    /// analysis on the persistent thread pool, then one batched forward
    /// per length bucket. Probabilities are **bitwise
    /// identical** to per-snippet [`Advisor::advise`] calls — batching
    /// and length-bucketing never change an answer (see the module docs).
    pub fn advise_batch(&mut self, sources: &[&str]) -> Vec<Result<Advice, ParseError>> {
        // Phase 0 — dedup by source text: repeated snippets (ubiquitous
        // in real translation units) go through the front-end and the
        // models exactly once; only advice assembly runs per input.
        let mut slot_of_source: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::with_capacity(sources.len());
        let mut unique: Vec<&str> = Vec::with_capacity(sources.len());
        let slots: Vec<usize> = sources
            .iter()
            .map(|&src| {
                *slot_of_source.entry(src).or_insert_with(|| {
                    unique.push(src);
                    unique.len() - 1
                })
            })
            .collect();

        // Phase 1 — parallel front-end over unique snippets.
        let prepared = self.prepare_batch(&unique);

        // Phases 2–3 — bucketed, deduplicated forwards over the parseable
        // snippets.
        let parsed: Vec<&PreparedSnippet> =
            prepared.iter().filter_map(|p| p.as_ref().ok()).collect();
        let probs = self.head_probs_batch(&parsed);
        let mut probs_of =
            vec![HeadProbs { directive: 0.0, private: 0.0, reduction: 0.0 }; unique.len()];
        let mut next = 0;
        for (u, p) in prepared.iter().enumerate() {
            if p.is_ok() {
                probs_of[u] = probs[next];
                next += 1;
            }
        }

        // Phase 4 — assemble per-input advice in input order (duplicates
        // share their unique slot's front-end + model results).
        let stage = StageObs::get(self.kernel_tier());
        let t_post = stage.map(|_| Instant::now());
        let out: Vec<Result<Advice, ParseError>> = slots
            .into_iter()
            .map(|u| match &prepared[u] {
                Ok(p) => Ok(Self::advice_from_parts(probs_of[u], &p.compar)),
                Err(e) => Err(e.clone()),
            })
            .collect();
        if let (Some(s), Some(t0)) = (stage, t_post) {
            s.post.observe(t0.elapsed().as_secs_f64());
        }
        out
    }

    /// The advisor's maximum (padded) sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The front-end for one snippet: parse, tokenize, encode, and run
    /// the S2S dependence analysis. No model weights are touched.
    ///
    /// The snippet is parsed once: ComPar runs its strict front-end gate
    /// on the text and then analyzes the statements already parsed here,
    /// which gives exactly `analyze_snippet(source, Strictness::Strict)`.
    pub fn prepare(&self, source: &str) -> Result<PreparedSnippet, ParseError> {
        let stmts = parse_snippet(source)?;
        let tokens = tokens_for(&stmts, Representation::Text);
        let (ids, valid) = self.vocab.encode(&tokens, self.max_len);
        let compar = match check_frontend(source, Strictness::Strict) {
            Ok(()) => analyze_stmts(&stmts),
            Err(reason) => ComparResult::ParseFailure(reason),
        };
        Ok(PreparedSnippet { ids, valid, compar })
    }

    /// [`Advisor::prepare`] over a batch, parallelized on the persistent
    /// thread pool. Per-snippet parse errors surface in their own slot.
    ///
    /// Observability: records the whole pass into
    /// `pragformer_span_seconds{span="advise.prepare"}` and advances the
    /// snippet/parse-error counters.
    pub fn prepare_batch(&self, sources: &[&str]) -> Vec<Result<PreparedSnippet, ParseError>> {
        let stage = StageObs::get(self.kernel_tier());
        let start = stage.map(|_| Instant::now());
        let out = par_map_indexed(sources.len(), 4, |u| self.prepare(sources[u]));
        if let (Some(s), Some(t0)) = (stage, start) {
            s.prepare.observe(t0.elapsed().as_secs_f64());
            s.snippets.add(sources.len() as u64);
            s.parse_errors.add(out.iter().filter(|r| r.is_err()).count() as u64);
        }
        out
    }

    /// Runs the three classifier heads over a set of prepared snippets,
    /// returning one [`HeadProbs`] per input, in input order.
    ///
    /// Snippets are bucketed by padded length (smallest power of two ≥
    /// the token count, capped at `max_len`) and identical encoded
    /// sequences within a bucket are classified once. Per bucket, **one**
    /// batched trunk forward is followed by the three head projections.
    /// Every returned probability is **bitwise identical** to a
    /// batch-of-one forward of the same snippet — the kernel
    /// row-determinism contract of `pragformer_tensor::ops` — which is
    /// what lets a serving layer cache these values across requests.
    pub fn head_probs_batch(&mut self, snippets: &[&PreparedSnippet]) -> Vec<HeadProbs> {
        let stage = StageObs::get(self.kernel_tier());
        let max_len = self.max_len;
        // Bucket by padded length. The bucketing/dedup sections across
        // all buckets accumulate into one `advise.bucket` observation and
        // the model forwards into one `advise.forward` observation, so
        // the two spans partition this call's wall clock per batch.
        let mut bucket_secs = 0.0f64;
        let mut forward_secs = 0.0f64;
        let t0 = stage.map(|_| Instant::now());
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (u, p) in snippets.iter().enumerate() {
            buckets.entry(Self::bucket_len(p.valid, max_len)).or_default().push(u);
        }
        if let Some(t0) = t0 {
            bucket_secs += t0.elapsed().as_secs_f64();
        }

        let zero = HeadProbs { directive: 0.0, private: 0.0, reduction: 0.0 };
        let mut out = vec![zero; snippets.len()];
        for (&seq, members) in &buckets {
            let t_dedup = stage.map(|_| Instant::now());
            let mut ids = Vec::new();
            let mut valid = Vec::new();
            // members[i] -> row in the deduplicated batch. Distinct
            // sources can encode to identical id sequences (whitespace,
            // comments), so the forward batch dedups on the encoded key
            // and fans results out.
            let mut row_of: Vec<usize> = Vec::with_capacity(members.len());
            let mut seen: std::collections::HashMap<(&[usize], usize), usize> =
                std::collections::HashMap::with_capacity(members.len());
            for &u in members {
                let p = snippets[u];
                let key = (&p.ids[..seq], p.valid);
                let next_row = seen.len();
                let row = *seen.entry(key).or_insert_with(|| {
                    ids.extend_from_slice(&p.ids[..seq]);
                    valid.push(p.valid);
                    next_row
                });
                row_of.push(row);
            }
            let t_forward = stage.map(|_| Instant::now());
            if let (Some(td), Some(tf)) = (t_dedup, t_forward) {
                bucket_secs += (tf - td).as_secs_f64();
            }
            // One probability vector per head, in `Task` order.
            let probs = self.model.predict_probs_batch(&ids, &valid, seq);
            if let Some(tf) = t_forward {
                forward_secs += tf.elapsed().as_secs_f64();
            }
            for (slot, &u) in members.iter().enumerate() {
                let r = row_of[slot];
                out[u] = HeadProbs {
                    directive: probs[0][r],
                    private: probs[1][r],
                    reduction: probs[2][r],
                };
            }
        }
        if let Some(s) = stage {
            s.bucket.observe(bucket_secs);
            s.forward.observe(forward_secs);
        }
        out
    }

    /// Assembles an [`Advice`] from head probabilities and the snippet's
    /// dependence analysis — the last pipeline stage, shared by
    /// [`Advisor::advise_batch`] and serving layers that cache
    /// [`HeadProbs`] across requests.
    pub fn advice_from_parts(probs: HeadProbs, compar: &ComparResult) -> Advice {
        Self::build_advice(probs.directive, probs.private, probs.reduction, compar)
    }

    /// Smallest power of two ≥ `valid` (and ≥ 2, for the CLS + one token
    /// minimum), capped at `max_len`. Sequences padded to the bucket
    /// length produce bitwise-identical predictions to `max_len` padding,
    /// so the bucket choice is purely a throughput knob: a 9-token loop
    /// in a 16-bucket does ~5% of the attention work `max_len = 72`
    /// would. Shared with the training engine
    /// ([`pragformer_model::batching::bucket_len`]) so training and
    /// inference bucket identically.
    fn bucket_len(valid: usize, max_len: usize) -> usize {
        pragformer_model::batching::bucket_len(valid, max_len)
    }

    /// Turns the three head probabilities plus the S2S analysis into an
    /// [`Advice`] (shared by the batched and single paths).
    fn build_advice(p_dir: f32, p_priv: f32, p_red: f32, compar: &ComparResult) -> Advice {
        let needs_directive = p_dir > 0.5;
        let compar_agrees = match compar {
            ComparResult::ParseFailure(_) => None,
            other => Some(other.predicts_directive()),
        };

        let suggestion = if needs_directive {
            let mut d = OmpDirective::parallel_for();
            // Clause variables come from the dependence analysis when it
            // succeeded; otherwise the clause is suggested without
            // variables (presence-only, like the paper's task definition).
            let analyzed = match compar {
                ComparResult::Parallelized(cd) => Some(cd.clone()),
                _ => None,
            };
            if p_priv > 0.5 {
                let vars: Vec<String> = analyzed
                    .as_ref()
                    .map(|cd| cd.private_vars().iter().map(|s| s.to_string()).collect())
                    .unwrap_or_default();
                d = d.with(OmpClause::Private(if vars.is_empty() {
                    vec!["<var>".to_string()]
                } else {
                    vars
                }));
            }
            if p_red > 0.5 {
                let from_compar = analyzed.as_ref().and_then(|cd| {
                    cd.clauses.iter().find_map(|c| match c {
                        OmpClause::Reduction { op, vars } => {
                            Some(OmpClause::Reduction { op: *op, vars: vars.clone() })
                        }
                        _ => None,
                    })
                });
                d = d.with(from_compar.unwrap_or(OmpClause::Reduction {
                    op: pragformer_cparse::omp::ReductionOp::Add,
                    vars: vec!["<var>".to_string()],
                }));
            }
            Some(d)
        } else {
            None
        };

        Advice {
            needs_directive,
            confidence: if needs_directive { p_dir } else { 1.0 - p_dir },
            private_probability: p_priv,
            reduction_probability: p_red,
            compar_agrees,
            suggestion,
        }
    }

    /// The tokenizer vocabulary size (for reports).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Probability that a *token sequence* needs a directive — the
    /// black-box interface LIME perturbs (Figure 8).
    pub fn directive_probability_of_tokens(&mut self, tokens: &[String]) -> f32 {
        let (ids, valid) = self.vocab.encode(tokens, self.max_len);
        self.model.predict_proba_head(Task::Directive.index(), &ids, &[valid], self.max_len)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragformer_baselines::analyze_snippet;
    use std::sync::{Mutex, OnceLock};

    /// Training even the tiny advisor costs tens of seconds; every test
    /// shares one instance.
    fn shared() -> &'static Mutex<Advisor> {
        static ADVISOR: OnceLock<Mutex<Advisor>> = OnceLock::new();
        ADVISOR.get_or_init(|| Mutex::new(Advisor::train_from_scratch(Scale::Tiny, 21)))
    }

    #[test]
    fn advisor_end_to_end_tiny() {
        let mut advisor = shared().lock().unwrap();
        // A canonical parallel loop.
        let pos = advisor.advise("for (i = 0; i < n; i++) a[i] = b[i] + c[i];").unwrap();
        assert!(pos.confidence > 0.5);
        // An I/O loop.
        let neg = advisor.advise("for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);").unwrap();
        // At tiny scale the model may err, but the call contract holds.
        assert!((0.0..=1.0).contains(&neg.private_probability));
        assert!((0.0..=1.0).contains(&neg.reduction_probability));
        if pos.needs_directive {
            assert!(pos.suggestion.is_some());
        }
        // ComPar agreement is well-defined on parseable snippets.
        assert!(pos.compar_agrees.is_some());
    }

    #[test]
    fn advise_rejects_unparseable_code() {
        let mut advisor = shared().lock().unwrap();
        assert!(advisor.advise("for (i = 0; i < ; i++ {").is_err());
    }

    #[test]
    fn advise_batch_matches_sequential_bitwise() {
        let mut advisor = shared().lock().unwrap();
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
            "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x[i] = x[i] + A[i][j] * y[j];",
        ];
        let batched = advisor.advise_batch(&snippets);
        assert_eq!(batched.len(), snippets.len());
        assert!(batched[2].is_err(), "parse error must surface in its slot");
        for (i, src) in snippets.iter().enumerate() {
            let single = advisor.advise(src);
            match (&batched[i], &single) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.needs_directive, s.needs_directive, "snippet {i}");
                    assert_eq!(
                        b.confidence.to_bits(),
                        s.confidence.to_bits(),
                        "snippet {i}: batched {} vs sequential {}",
                        b.confidence,
                        s.confidence
                    );
                    assert_eq!(b.private_probability.to_bits(), s.private_probability.to_bits());
                    assert_eq!(
                        b.reduction_probability.to_bits(),
                        s.reduction_probability.to_bits()
                    );
                    assert_eq!(b.compar_agrees, s.compar_agrees);
                    assert_eq!(
                        b.suggestion.as_ref().map(|d| d.to_string()),
                        s.suggestion.as_ref().map(|d| d.to_string())
                    );
                }
                (Err(_), Err(_)) => {}
                other => panic!("snippet {i}: batched/sequential disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn advise_batch_of_empty_and_large_inputs() {
        let mut advisor = shared().lock().unwrap();
        assert!(advisor.advise_batch(&[]).is_empty());
        // A batch large enough to exercise several buckets and the
        // parallel front-end.
        let snippets: Vec<String> = (0..32)
            .map(|i| format!("for (i = 0; i < {}; i++) a[i] = a[i] * {};", 10 + i, i + 1))
            .collect();
        let refs: Vec<&str> = snippets.iter().map(|s| s.as_str()).collect();
        let out = advisor.advise_batch(&refs);
        assert_eq!(out.len(), 32);
        for r in out {
            let advice = r.expect("all snippets parse");
            assert!((0.0..=1.0).contains(&advice.confidence));
        }
    }

    #[test]
    fn advise_batch_deduplicates_repeated_snippets_without_changing_results() {
        let mut advisor = shared().lock().unwrap();
        let unique = "for (i = 0; i < n; i++) a[i] = b[i] + c[i];";
        // 1 idiom repeated 15 times + 1 distinct snippet.
        let mut snippets = vec![unique; 15];
        snippets.push("for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);");
        let batched = advisor.advise_batch(&snippets);
        let lone = advisor.advise(unique).unwrap();
        for r in &batched[..15] {
            let a = r.as_ref().unwrap();
            assert_eq!(a.confidence.to_bits(), lone.confidence.to_bits());
            assert_eq!(a.private_probability.to_bits(), lone.private_probability.to_bits());
        }
        let last = batched[15].as_ref().unwrap();
        let lone_last = advisor.advise(snippets[15]).unwrap();
        assert_eq!(last.confidence.to_bits(), lone_last.confidence.to_bits());
    }

    #[test]
    fn bucket_len_is_monotone_and_capped() {
        for max_len in [8usize, 48, 72, 110] {
            let mut prev = 0;
            for valid in 1..=max_len {
                let b = Advisor::bucket_len(valid, max_len);
                assert!(b >= valid, "bucket {b} < valid {valid}");
                assert!(b <= max_len);
                assert!(b >= prev, "bucket must be monotone in valid");
                prev = b;
            }
        }
    }

    #[test]
    fn prepare_runs_compar_on_its_own_parse() {
        // `prepare` parses once and hands the statements to ComPar; the
        // result must equal the standalone engine's on every snippet.
        let advisor = Advisor::untrained(Scale::Tiny, 3);
        let db = generate(&Scale::Tiny.generator(3));
        let mut checked = 0;
        for record in db.records() {
            let src = record.code();
            if let Ok(p) = advisor.prepare(&src) {
                assert_eq!(p.compar(), &analyze_snippet(&src, Strictness::Strict), "{src}");
                checked += 1;
            }
        }
        assert!(checked > db.records().len() / 2, "only {checked} records parsed");
    }

    #[test]
    fn shared_trunk_batch_matches_sequential_bitwise() {
        // One trunk forward over a coalesced batch reproduces
        // per-snippet calls bit for bit, on every head.
        let mut advisor = Advisor::untrained(Scale::Tiny, 5);
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
            "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
        ];
        let batched = advisor.advise_batch(&snippets);
        for (i, src) in snippets.iter().enumerate() {
            let single = advisor.advise(src).unwrap();
            let b = batched[i].as_ref().unwrap();
            assert_eq!(b.confidence.to_bits(), single.confidence.to_bits(), "snippet {i}");
            assert_eq!(
                b.private_probability.to_bits(),
                single.private_probability.to_bits(),
                "snippet {i}"
            );
            assert_eq!(
                b.reduction_probability.to_bits(),
                single.reduction_probability.to_bits(),
                "snippet {i}"
            );
        }
    }

    #[test]
    fn int8_advice_is_shape_identical_and_batch_invariant() {
        // The int8 trunk must change only probability *values*: parse
        // errors, advice shape and the batched == sequential bitwise
        // contract all hold exactly as in f32. Model-local override —
        // the global tier is never touched.
        let mut advisor = Advisor::untrained(Scale::Tiny, 9);
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
        ];
        advisor.set_int8(Some(false));
        let f32_out = advisor.advise_batch(&snippets);
        advisor.set_int8(Some(true));
        let int8_out = advisor.advise_batch(&snippets);
        for (i, (a, b)) in f32_out.iter().zip(&int8_out).enumerate() {
            match (a, b) {
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "snippet {i}"),
                (Ok(fa), Ok(ib)) => {
                    assert_eq!(fa.compar_agrees, ib.compar_agrees, "snippet {i}");
                    assert!((0.0..=1.0).contains(&ib.confidence), "snippet {i}");
                }
                other => panic!("snippet {i}: int8 changed ok/err shape: {other:?}"),
            }
        }
        // Batched == sequential, bit for bit, under the quantized trunk.
        let single = advisor.advise(snippets[0]).unwrap();
        let batched = int8_out[0].as_ref().unwrap();
        assert_eq!(batched.confidence.to_bits(), single.confidence.to_bits());
        assert_eq!(batched.private_probability.to_bits(), single.private_probability.to_bits());
        let (f32_bytes, int8_bytes) = advisor.trunk_weight_bytes();
        assert!(int8_bytes < f32_bytes, "int8 accounting must shrink the trunk");
    }

    #[test]
    fn advise_stages_land_in_the_span_registry() {
        if !obs::enabled() {
            return; // PRAGFORMER_OBS=off in the environment
        }
        let mut advisor = shared().lock().unwrap();
        let labels = [("tier", advisor.kernel_tier().name())];
        let stages: Vec<Arc<obs::Histogram>> =
            ["advise.prepare", "advise.bucket", "advise.forward", "advise.post"]
                .iter()
                .map(|s| obs::span_histogram(s, &labels))
                .collect();
        let before: Vec<u64> = stages.iter().map(|h| h.count()).collect();
        advisor
            .advise_batch(&["for (i = 0; i < n; i++) a[i] = b[i] + c[i];"])
            .pop()
            .unwrap()
            .unwrap();
        for (h, b) in stages.iter().zip(&before) {
            assert!(h.count() > *b, "every advise stage must observe at least once per batch");
        }
    }

    #[test]
    fn obs_off_advice_is_bitwise_identical_and_registers_nothing() {
        // Hold the shared advisor for the whole test: serializing against
        // the other advise tests keeps the registry quiet while disabled.
        let mut advisor = shared().lock().unwrap();
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
        ];
        obs::set_enabled(true);
        let on = advisor.advise_batch(&snippets); // warm every registration
        obs::set_enabled(false);
        let len = obs::registry_len();
        let off = advisor.advise_batch(&snippets);
        assert_eq!(obs::registry_len(), len, "disabled advise must not register metrics");
        obs::set_enabled(true);
        for (i, (a, b)) in on.iter().zip(&off).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "snippet {i}");
                    assert_eq!(
                        a.private_probability.to_bits(),
                        b.private_probability.to_bits(),
                        "snippet {i}"
                    );
                    assert_eq!(
                        a.reduction_probability.to_bits(),
                        b.reduction_probability.to_bits(),
                        "snippet {i}"
                    );
                    assert_eq!(a.compar_agrees, b.compar_agrees, "snippet {i}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                other => panic!("snippet {i}: obs toggle changed ok/err shape: {other:?}"),
            }
        }
    }

    #[test]
    fn token_probability_interface_is_stable() {
        let mut advisor = shared().lock().unwrap();
        let toks: Vec<String> =
            ["for", "(", "i", "=", "0", ";", ")"].iter().map(|s| s.to_string()).collect();
        let a = advisor.directive_probability_of_tokens(&toks);
        let b = advisor.directive_probability_of_tokens(&toks);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }
}
