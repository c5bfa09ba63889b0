//! End-to-end and per-layer benchmark of the PragFormer advisor.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep_distinct --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs one named workload on inputs generated from `--seed`, checks the
//! program's outputs, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records spans around every call
//! into a layer and reports the per-layer metrics instead. See README.md
//! for the workloads, metrics and what each one should move.
//!
//! The program is driven only through its public entry points and always
//! on the default inference plan: no plan setter is called.

mod gen;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;

use pragformer_core::{Advice, Advisor, Scale};
use pragformer_cparse::ParseError;
use pragformer_serve::ServeError;
use stats::{median, ratio, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// Seed of the advisor (weights, corpus, vocabulary): part of the program
/// under test, so it stays fixed while `--seed` varies the inputs.
pub const ADVISOR_SEED: u64 = 2023;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const WORKLOADS: &[&str] = &["sweep_distinct", "serve_zipf"];

/// Every per-layer metric with its unit. A traced run reports all of
/// them; one whose layer the workload does not run reads 0 and is listed
/// on the `not exercised` line.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup.corpus_s", "s"),
    ("setup.first_s", "s"),
    ("setup.peak_rss_mb", "MiB"),
    ("cparse.parse_us", "us"),
    ("cparse.errors", "count"),
    ("tokenize.tokens_us", "us"),
    ("tokenize.valid_tokens", "tokens"),
    ("tokenize.trunc_frac", "frac"),
    ("baselines.compar_us", "us"),
    ("core.prepare_us", "us"),
    ("core.forward_us", "us"),
    ("core.post_us", "us"),
    ("core.forward_share", "frac"),
    ("core.pad_eff", "frac"),
    ("tensor.gemm_mflop_per_snippet", "MFLOP"),
    ("tensor.gemm_gflop_s", "GFLOP/s"),
    ("tensor.softmax_rows_per_snippet", "rows"),
    ("model.attn_tiles_per_snippet", "tiles"),
    ("tensor.pack_builds", "count"),
    ("tensor.scratch_hwm_kb", "KiB"),
    ("tensor.pool_pooled_frac", "frac"),
    ("serve.batch_mean", "requests"),
    ("serve.flush_full_frac", "frac"),
    ("serve.deadline_wait_ms", "ms"),
    ("serve.queue_hwm", "requests"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.evictions_per_req", "frac"),
    ("serve.wire_parse_us", "us"),
    ("serve.wire_format_us", "us"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.heavy_p99_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if kv.len() != 4 {
        return Err(format!("unexpected flags in {:?}", kv.keys().collect::<Vec<_>>()));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", sys::provenance_json(&args.workload, args.seed, args.seconds, args.trace));
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let seconds = args.seconds as f64;
    let (steal0, total0) = sys::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "sweep_distinct" => sweep::run(args.seed, seconds, args.trace, &mut tracer),
        _ => serve::run(args.seed, seconds, args.trace, &mut tracer),
    };
    let (steal1, total1) = sys::cpu_ticks();
    let steal = stats::ratio((steal1 - steal0) as f64, (total1 - total0) as f64);
    println!("host: {:.1}% of CPU time stolen by the hypervisor during the run", steal * 100.0);

    if args.trace {
        for (name, (total, self_s, n)) in tracer.totals() {
            println!("span {name}: n={n} total_s={total:.6} self_s={self_s:.6}");
        }
        let path = std::path::PathBuf::from(format!(
            "e2ebench/out/trace_{}_{}.jsonl",
            args.workload, args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => println!("wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => out.check("trace_written", false, format!("{}: {e}", path.display())),
        }
        let have: Vec<String> = out.metrics.iter().map(|m| m.0.clone()).collect();
        let missing: Vec<&str> =
            PER_LAYER.iter().map(|p| p.0).filter(|n| !have.iter().any(|h| h == n)).collect();
        println!("not exercised by {}: {}", args.workload, missing.join(", "));
        for (name, unit) in PER_LAYER {
            if missing.contains(name) {
                out.metric(name, 0.0, unit);
            }
        }
    }
    finish(out);
}

/// Prints the checks, the verdict line and the result JSON; a failed
/// check fails the run.
fn finish(mut out: Outcome) {
    let bad: Vec<String> =
        out.metrics.iter().filter(|m| !m.1.is_finite()).map(|m| m.0.clone()).collect();
    out.check("metrics_finite", bad.is_empty(), format!("non-finite: {bad:?}"));
    // A wrong answer kind, a timeout or a refusal is a defect, not noise.
    out.check(
        "no_failed_operations",
        out.failed == 0,
        format!("{} of {} failed", out.failed, out.attempted),
    );
    for (name, ok, detail) in &out.checks {
        println!("check {name}: {} ({detail})", if *ok { "ok" } else { "FAILED" });
    }
    let correct = out.correct();
    println!(
        "verdict: {} ({} checks, {} attempted, {} failed)",
        if correct { "PASS" } else { "FAIL" },
        out.checks.len(),
        out.attempted,
        out.failed
    );
    let metrics = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Reports set-up metrics, then returns freed set-up memory to the OS
/// and resets the resident high-water mark so `peak_rss_mb` measures the
/// workload alone.
pub fn setup_metrics(out: &mut Outcome, times: &[f64], trace: bool) {
    if trace {
        out.metric("setup.peak_rss_mb", sys::peak_rss_mb(), "MiB");
        out.metric("setup.first_s", times[0], "s");
        sys::trim_heap();
        let t0 = Instant::now();
        drop(std::hint::black_box(pragformer_corpus::generate(
            &Scale::Paper.generator(ADVISOR_SEED),
        )));
        out.metric("setup.corpus_s", t0.elapsed().as_secs_f64(), "s");
    } else {
        out.metric("setup_s", median(times), "s");
    }
    println!("setup: {} set-ups, seconds {times:?}", times.len());
    sys::trim_heap();
    sys::reset_peak_rss();
}

/// One advice result in wire form: equal lines mean bitwise-equal advice.
pub fn advice_line(r: &Result<Advice, ParseError>) -> String {
    pragformer_serve::wire::format_response(0, &r.clone().map_err(ServeError::Parse))
}

/// Single-threaded front-end timings on a sample of inputs: parse,
/// tokenize and ComPar analysis per snippet, plus input properties.
/// `with_prepare` also times `Advisor::prepare` per snippet.
pub fn front_end_sample<'a>(
    out: &mut Outcome,
    advisor: &Advisor,
    sample: impl Iterator<Item = &'a gen::Snippet>,
    with_prepare: bool,
    tracer: &mut Tracer,
) {
    use pragformer_baselines::{analyze_snippet, Strictness};
    use pragformer_tokenize::{tokens_for, Representation};
    let max_len = advisor.max_len();
    let (mut parse_s, mut tok_s, mut compar_s, mut prep_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut n, mut parsed, mut errors, mut valid, mut trunc) = (0usize, 0usize, 0, 0usize, 0);
    for (k, s) in sample.enumerate() {
        let req = k as u64;
        n += 1;
        tracer.begin("cparse.parse_snippet", req);
        let t0 = Instant::now();
        let stmts = pragformer_cparse::parse_snippet(&s.src);
        parse_s += t0.elapsed().as_secs_f64();
        tracer.end();
        match stmts {
            Ok(stmts) => {
                tracer.begin("tokenize.tokens_for", req);
                let t0 = Instant::now();
                let toks = tokens_for(&stmts, Representation::Text);
                tok_s += t0.elapsed().as_secs_f64();
                tracer.end();
                parsed += 1;
                valid += toks.len().min(max_len - 1) + 1;
                trunc += usize::from(toks.len() >= max_len);
            }
            Err(_) => errors += 1,
        }
        tracer.begin("baselines.analyze_snippet", req);
        let t0 = Instant::now();
        std::hint::black_box(analyze_snippet(&s.src, Strictness::Strict));
        compar_s += t0.elapsed().as_secs_f64();
        tracer.end();
        if with_prepare {
            tracer.begin("core.prepare", req);
            let t0 = Instant::now();
            std::hint::black_box(advisor.prepare(&s.src).is_ok());
            prep_s += t0.elapsed().as_secs_f64();
            tracer.end();
        }
    }
    let (n, parsed) = (n as f64, parsed as f64);
    out.metric("cparse.parse_us", ratio(parse_s, n) * 1e6, "us");
    out.metric("cparse.errors", errors as f64, "count");
    out.metric("tokenize.tokens_us", ratio(tok_s, parsed) * 1e6, "us");
    out.metric("tokenize.valid_tokens", ratio(valid as f64, parsed), "tokens");
    out.metric("tokenize.trunc_frac", ratio(trunc as f64, parsed), "frac");
    out.metric("baselines.compar_us", ratio(compar_s, n) * 1e6, "us");
    if with_prepare {
        out.metric("core.prepare_us", ratio(prep_s, n) * 1e6, "us");
    }
}

/// Kernel-layer counter deltas from the obs registry, per unit of work
/// (an advised snippet, or a served cache miss), and the GEMM rate over
/// `busy_s` seconds of model time. Gauges are read from the snapshot
/// `after` the work.
pub fn tensor_metrics(
    out: &mut Outcome,
    deltas: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    units: f64,
    busy_s: f64,
) {
    let d = |name: &str| deltas.get(name).copied().unwrap_or(0.0);
    let flops = d("pragformer_gemm_flops_total") + d("pragformer_int8_gemm_flops_total");
    out.metric("tensor.gemm_mflop_per_snippet", ratio(flops, units) * 1e-6, "MFLOP");
    out.metric("tensor.gemm_gflop_s", ratio(flops, busy_s) * 1e-9, "GFLOP/s");
    let softmax = d("pragformer_softmax_rows_total");
    out.metric("tensor.softmax_rows_per_snippet", ratio(softmax, units), "rows");
    let tiles = d("pragformer_attn_tile_dispatch_total");
    out.metric("model.attn_tiles_per_snippet", ratio(tiles, units), "tiles");
    out.metric("tensor.pack_builds", d("pragformer_pack_builds_total"), "count");
    let hwm = after.get("pragformer_scratch_high_water_bytes").copied().unwrap_or(0.0);
    out.metric("tensor.scratch_hwm_kb", hwm / 1024.0, "KiB");
    let pooled = d("pragformer_pool_dispatch_total{path=\"pooled\"}");
    out.metric(
        "tensor.pool_pooled_frac",
        ratio(pooled, d("pragformer_pool_dispatch_total")),
        "frac",
    );
}
