//! Per-stage timing breakdown of the advise pipeline, read from the
//! observability registry (used while tuning the batched path; not part
//! of the evaluation harness).
//!
//! ```text
//! cargo run --release --example profile_advise
//! ```
//!
//! The pipeline stages (`advise.prepare` → `advise.bucket` →
//! `advise.forward` → `advise.post`) record themselves into
//! `pragformer_span_seconds{span,tier}` histograms as a side
//! effect of running; this binary just drives batches through and then
//! prints the registry's view — the same numbers a Prometheus scrape of
//! a serving process would report.

use pragformer::core::{Advisor, Scale};
use pragformer::obs;
use std::time::Instant;

fn main() {
    let mut advisor = Advisor::untrained(Scale::Tiny, 1);
    let snippet =
        "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x1[i] = x1[i] + A[i][j] * y_1[j];";
    let snippets: Vec<&str> = (0..64).map(|_| snippet).collect();

    if !obs::enabled() {
        eprintln!("observability is disabled (PRAGFORMER_OBS=off); no spans will be recorded");
    }

    // Front-end cost (parse + tokenize + ComPar baseline), measured
    // directly: these run outside the advise pipeline's spans.
    let t = Instant::now();
    for _ in 0..200 {
        let stmts = pragformer::cparse::parse_snippet(snippet).unwrap();
        let toks =
            pragformer::tokenize::tokens_for(&stmts, pragformer::tokenize::Representation::Text);
        std::hint::black_box(toks);
        let c = pragformer::baselines::analyze_snippet(
            snippet,
            pragformer::baselines::Strictness::Strict,
        );
        std::hint::black_box(c);
    }
    println!("front-end per snippet: {:?}", t.elapsed() / 200);

    for batch in [1usize, 8, 64] {
        let t = Instant::now();
        let iters = (128 / batch).max(2);
        for _ in 0..iters {
            std::hint::black_box(advisor.advise_batch(&snippets[..batch]));
        }
        let per = t.elapsed() / (iters * batch) as u32;
        println!("advise_batch/{batch}: {per:?} per snippet");
    }

    // Zero-repack, cache-free steady state: the batches above warmed
    // every weight cache, so one more batch must serve its weight GEMMs
    // from the pre-packed panels (hits grow) without a single B-panel
    // rebuild (builds delta zero) or new arena high water, and its eval
    // forwards retain zero attention bytes (no backward caches, no
    // probability tiles).
    if obs::enabled() {
        let hits = obs::counter(
            "pragformer_prepack_hits_total",
            "f32 GEMMs served from pre-packed weight panels",
            &[],
        );
        let builds = obs::counter(
            "pragformer_pack_builds_total",
            "B-panel pack operations (per-call repacks + one-time prepacks)",
            &[],
        );
        let (h0, b0) = (hits.get(), builds.get());
        let hw0 = pragformer::tensor::scratch::high_water_bytes();
        std::hint::black_box(advisor.advise_batch(&snippets));
        assert!(hits.get() > h0, "steady-state advise recorded no prepack hits");
        assert_eq!(builds.get(), b0, "steady-state advise still rebuilds B panels");
        assert_eq!(
            pragformer::tensor::scratch::high_water_bytes(),
            hw0,
            "steady-state advise grew the scratch high-water mark"
        );
        println!(
            "\nzero-repack steady state: +{} prepack hits, 0 pack builds, \
             arena high water {} KiB (flat)",
            hits.get() - h0,
            hw0 / 1024,
        );
    }
    assert_eq!(
        advisor.retained_attention_bytes(),
        0,
        "eval forwards must retain zero attention bytes"
    );

    // Int8 steady-state check: flip to the quantized tier, warm the
    // weight caches and the i8 scratch lane, then assert one more batch
    // quantizes activations only — zero weight requantizations and zero
    // arena high-water growth (the quantize-once path runs entirely on
    // recycled buffers).
    let prior_tier = pragformer::tensor::kernel::active_tier();
    if obs::enabled()
        && pragformer::tensor::kernel::set_tier(pragformer::tensor::kernel::KernelTier::Int8)
            .is_ok()
    {
        let quant_builds = obs::counter(
            "pragformer_weight_quant_builds_total",
            "Weight matrices / embedding tables quantized to i8",
            &[],
        );
        let quant_rows = obs::counter(
            "pragformer_quantize_rows_total",
            "Activation rows dynamically quantized to i8",
            &[],
        );
        // Two warm batches: the first builds the int8 weight copies, the
        // second settles the i8 lane's high-water mark.
        std::hint::black_box(advisor.advise_batch(&snippets));
        std::hint::black_box(advisor.advise_batch(&snippets));
        let (b0, r0) = (quant_builds.get(), quant_rows.get());
        let hw0 = pragformer::tensor::scratch::high_water_bytes();
        std::hint::black_box(advisor.advise_batch(&snippets));
        assert!(quant_rows.get() > r0, "int8 advise quantized no activation rows");
        assert_eq!(quant_builds.get(), b0, "steady-state int8 advise requantized weights");
        assert_eq!(
            pragformer::tensor::scratch::high_water_bytes(),
            hw0,
            "steady-state int8 advise grew the scratch high-water mark"
        );
        println!(
            "\nint8 steady state: +{} activation rows quantized, 0 weight requantizations, \
             arena high water {} KiB",
            quant_rows.get() - r0,
            hw0 / 1024,
        );
        pragformer::tensor::kernel::set_tier(prior_tier).expect("restore kernel tier");
    }

    // Per-stage breakdown from the span registry: one row per
    // (stage, tier) series the runs above populated.
    let mut stages: Vec<_> = obs::histogram_snapshots()
        .into_iter()
        .filter(|s| s.name == "pragformer_span_seconds" && s.count > 0)
        .collect();
    stages.sort_by_key(|s| {
        ["advise.prepare", "advise.bucket", "advise.forward", "advise.post"]
            .iter()
            .position(|&stage| s.label("span") == Some(stage))
            .unwrap_or(usize::MAX)
    });
    let total: f64 = stages.iter().map(|s| s.sum).sum();
    println!("\nper-stage spans (whole process, from the obs registry):");
    println!("{:<16} {:>6} {:>12} {:>12} {:>7}", "stage", "calls", "total", "mean/call", "share");
    for s in &stages {
        let span = s.label("span").unwrap_or("?");
        let share = if total > 0.0 { 100.0 * s.sum / total } else { 0.0 };
        println!(
            "{span:<16} {:>6} {:>10.3}ms {:>10.3}ms {share:>6.1}%",
            s.count,
            1e3 * s.sum,
            1e3 * s.mean(),
        );
    }
    if stages.is_empty() {
        println!("(no spans recorded — registry disabled?)");
    }
}
