//! `sweep_distinct`: a closed loop of one caller running `advise_batch`
//! on batches of 64 distinct snippets drawn from a generated corpus.
//!
//! The batched forward dominates this workload, so kernel, attention and
//! padding changes show here while the serving layers are bypassed.

use crate::gen::{Corpus, Rng, Snippet, BATCH, CLASS_NAMES, MALFORMED_PER_BATCH};
use crate::stats::{
    add_deltas, median, obs_snapshot, quantile, ratio, window_median, Digest, Outcome,
};
use crate::trace::Tracer;
use crate::{advice_line, front_end_sample, setup_metrics, ADVISOR_SEED, SETUP_REPS};
use pragformer_core::{Advice, Advisor, Scale};
use pragformer_cparse::ParseError;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Distinct batches generated per run; the loop cycles through them.
const BATCHES: usize = 32;
/// Records of the input corpus: enough for every batch to draw distinct
/// snippets of each length class.
const CORPUS_RECORDS: usize = 4096;
/// The tail percentile reported as `tail_ms`.
const TAIL_Q: f64 = 0.9;
/// Batches per window of `tail_ms` (about three seconds): `tail_ms` is
/// the median over the run's windows of each window's p90, so a spell of
/// host noise moves one window and not the run's figure. A 40-second run
/// yields about 320 batches, twelve windows and thirty batches beyond p90.
const TAIL_WINDOW: usize = 25;
/// Batches per window of `rate_per_s` (about one second): the rate is the
/// median over the windows of snippets advised per second of batch time.
const RATE_WINDOW: usize = 8;

/// Counts results of the wrong kind: a well-formed snippet must get
/// advice and a malformed one a `ParseError`.
fn wrong_kinds(batch: &[Snippet], results: &[Result<Advice, ParseError>]) -> u64 {
    batch.iter().zip(results).filter(|(s, r)| s.malformed == r.is_ok()).count() as u64
}

pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let corpus = Corpus::generate(seed, CORPUS_RECORDS);
    let mix: Vec<String> =
        CLASS_NAMES.iter().zip(corpus.batch_mix()).map(|(n, k)| format!("{n}:{k}")).collect();
    println!(
        "sweep_distinct: corpus length classes {:?}, per batch {} + {MALFORMED_PER_BATCH} malformed",
        corpus.histogram(),
        mix.join(" ")
    );
    let batches = corpus.batches(&mut Rng::new(seed), BATCHES);
    drop(corpus);
    let srcs: Vec<Vec<&str>> =
        batches.iter().map(|b| b.iter().map(|s| s.src.as_str()).collect()).collect();

    let (mut advisor, setup_times) =
        crate::sys::timed_setups(SETUP_REPS, || Advisor::untrained(Scale::Paper, ADVISOR_SEED));
    setup_metrics(&mut out, &setup_times, trace);

    // Warm-up: first touches of the scratch arena and worker pool.
    for b in srcs.iter().take(2) {
        std::hint::black_box(advisor.advise_batch(b));
    }

    if !trace {
        let budget = Duration::from_secs_f64(seconds);
        let (lat, snippets, failed) = timed_loop(&mut advisor, &batches, &srcs, budget);
        out.attempted = snippets;
        out.failed = failed;
        let rate = |w: &[f64]| (BATCH * w.len()) as f64 / w.iter().sum::<f64>();
        out.metric("peak_rss_mb", crate::sys::peak_rss_mb(), "MiB");
        out.metric("rate_per_s", window_median(&lat, RATE_WINDOW, rate), "1/s");
        out.metric("p50_ms", median(&lat) * 1e3, "ms");
        let tail = window_median(&lat, TAIL_WINDOW, |w| quantile(w, TAIL_Q));
        out.metric("tail_ms", tail * 1e3, "ms");
        println!(
            "sweep_distinct: p50 over {} batches of {BATCH}, whole-run rate {:.1}/s and p{:.0} {:.3} ms",
            lat.len(),
            rate(&lat),
            TAIL_Q * 100.0,
            quantile(&lat, TAIL_Q) * 1e3
        );
    } else {
        traced_run(&mut out, &mut advisor, &batches, &srcs, seconds, tracer);
        front_end_sample(&mut out, &advisor, batches.iter().flatten().take(256), false, tracer);
    }
    checks(&mut out, &mut advisor, &batches, &srcs);
    out
}

/// Runs `advise_batch` over the batches in turn until `budget` is spent.
/// Returns per-batch latencies (s), snippets advised and wrong results.
fn timed_loop(
    advisor: &mut Advisor,
    batches: &[Vec<Snippet>],
    srcs: &[Vec<&str>],
    budget: Duration,
) -> (Vec<f64>, u64, u64) {
    let mut lat = Vec::new();
    let (mut snippets, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget {
        let b = k % batches.len();
        let t0 = Instant::now();
        let results = advisor.advise_batch(&srcs[b]);
        lat.push(t0.elapsed().as_secs_f64());
        snippets += srcs[b].len() as u64;
        failed += wrong_kinds(&batches[b], &results);
        k += 1;
    }
    (lat, snippets, failed)
}

/// A traced run: for each batch in turn until `seconds` are spent, the
/// three phases `advise_batch` runs, called separately under spans, then
/// `advise_batch` itself twice, once under a span and once untraced, in
/// alternating order. All three see the same batch at the same moment,
/// so a host slowing down mid-run cancels out of the unattributed share
/// and the tracing overhead. Counter deltas cover the phases alone, so
/// each batch's forward counts once.
fn traced_run(
    out: &mut Outcome,
    advisor: &mut Advisor,
    batches: &[Vec<Snippet>],
    srcs: &[Vec<&str>],
    seconds: f64,
    tracer: &mut Tracer,
) {
    let (mut snippets, mut parsed) = (0u64, 0u64);
    let (mut valid_sum, mut padded_sum) = (0usize, 0usize);
    let mut untraced_s = 0.0;
    let max_len = advisor.max_len();
    let mut counters = BTreeMap::new();
    let mut last = BTreeMap::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget {
        let b = k % batches.len();
        let req = k as u64;
        let plain = |advisor: &mut Advisor| {
            let t0 = Instant::now();
            let results = advisor.advise_batch(&srcs[b]);
            (t0.elapsed().as_secs_f64(), wrong_kinds(&batches[b], &results))
        };
        let mut untraced = (0.0, 0);
        if k % 2 == 0 {
            untraced = plain(advisor);
        }
        let before = obs_snapshot();
        tracer.begin("sweep.batch", req);
        tracer.begin("core.prepare_batch", req);
        let prepared = advisor.prepare_batch(&srcs[b]);
        tracer.end();
        let ok: Vec<_> = prepared.iter().filter_map(|p| p.as_ref().ok()).collect();
        tracer.begin("core.head_probs_batch", req);
        let probs = advisor.head_probs_batch(&ok);
        tracer.end();
        tracer.begin("core.advice_from_parts", req);
        let advice: Vec<Advice> = ok
            .iter()
            .zip(&probs)
            .map(|(p, &hp)| Advisor::advice_from_parts(hp, p.compar()))
            .collect();
        tracer.end();
        tracer.end();
        last = obs_snapshot();
        add_deltas(&mut counters, &before, &last);
        std::hint::black_box(advice);
        tracer.begin("core.advise_batch", req);
        let results = advisor.advise_batch(&srcs[b]);
        tracer.end();
        out.failed += wrong_kinds(&batches[b], &results);
        if k % 2 == 1 {
            untraced = plain(advisor);
        }
        untraced_s += untraced.0;
        out.failed += untraced.1;
        snippets += srcs[b].len() as u64;
        parsed += ok.len() as u64;
        // Padded rows the bucketed forward runs: per power-of-two bucket,
        // every distinct row padded to the bucket's longest valid length.
        let mut buckets: BTreeMap<usize, (usize, usize)> = Default::default();
        let mut seen = std::collections::HashSet::new();
        for p in &ok {
            let key = p.cache_key();
            if seen.insert(key.clone()) {
                let v = key.len();
                let e =
                    buckets.entry(pragformer_model::batching::bucket_len(v, max_len)).or_default();
                e.0 += 1;
                e.1 = e.1.max(v);
                valid_sum += v;
            }
        }
        padded_sum += buckets.values().map(|(rows, m)| rows * m).sum::<usize>();
        k += 1;
    }
    // Each batch was advised twice: once traced, once untraced.
    out.attempted = 2 * snippets;
    let t = |n: &str| tracer.total(n);
    let (prep, fwd, post, whole) = (
        t("core.prepare_batch"),
        t("core.head_probs_batch"),
        t("core.advice_from_parts"),
        t("core.advise_batch"),
    );
    let phases = prep + fwd + post;
    let n = snippets as f64;
    out.metric("core.prepare_us", prep / n * 1e6, "us");
    out.metric("core.forward_us", fwd / n * 1e6, "us");
    out.metric("core.post_us", post / n * 1e6, "us");
    out.metric("core.forward_share", ratio(fwd, phases), "frac");
    out.metric("core.pad_eff", ratio(valid_sum as f64, padded_sum as f64), "frac");
    out.metric("trace.unattributed_frac", 1.0 - ratio(phases, whole), "frac");
    // 1 - traced rate / untraced rate, on the same batches.
    out.metric("trace.overhead_frac", 1.0 - ratio(untraced_s, whole), "frac");
    crate::tensor_metrics(out, &counters, &last, parsed as f64, fwd);
}

/// Correctness: batch ≡ single bitwise on a sample, malformed inputs get
/// `ParseError`, and a digest of the first batches' advice.
fn checks(out: &mut Outcome, advisor: &mut Advisor, batches: &[Vec<Snippet>], srcs: &[Vec<&str>]) {
    let mut mismatches = Vec::new();
    let mut digest = Digest::default();
    let mut compared = 0;
    for (b, batch) in batches.iter().enumerate().take(4) {
        let results = advisor.advise_batch(&srcs[b]);
        for (i, (s, r)) in batch.iter().zip(&results).enumerate() {
            let line = advice_line(r);
            digest.feed(line.as_bytes());
            if i < 16 || s.malformed {
                compared += 1;
                if advice_line(&advisor.advise(&s.src)) != line {
                    mismatches.push(format!("batch {b} slot {i}"));
                }
            }
        }
    }
    out.check(
        "batch_equals_single",
        mismatches.is_empty(),
        format!("{compared} compared, mismatches: {mismatches:?}"),
    );
    let malformed: Vec<&Snippet> = batches.iter().flatten().filter(|s| s.malformed).collect();
    let rejected = malformed.iter().filter(|s| advisor.advise(&s.src).is_err()).count();
    out.check(
        "malformed_get_parse_error",
        rejected == malformed.len() && !malformed.is_empty(),
        format!("{rejected}/{} rejected", malformed.len()),
    );
    out.check("advice_digest", true, digest.hex());
}
