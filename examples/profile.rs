//! Profiling aid: micro-kernel timings, model forwards by batch size, and
//! the advise pipeline's per-stage breakdown with its steady-state
//! checks (a tuning aid; not part of the evaluation harness).
//!
//! ```text
//! cargo run --release --example profile               # all three sections
//! cargo run --release --example profile -- kernels    # or: forward, advise
//! ```
//!
//! * `kernels` times the GEMM, softmax, GELU and LayerNorm kernels at
//!   forward shapes, on the default plan's instruction set.
//! * `forward` times `predict_proba_batch` at batch sizes 1, 8 and 64
//!   (`PRAGFORMER_PROFILE=small|paper` picks a bigger model than tiny).
//! * `advise` drives batches through an untrained tiny advisor, asserts
//!   the zero-repack f32 steady state and, on the int8 plan, the int8
//!   steady state (zero weight requantizations, flat arena high water),
//!   then prints the `pragformer_span_seconds{span="advise.*",tier}`
//!   breakdown — the numbers a Prometheus scrape of a serving process
//!   would report. It exits non-zero if a check fails.

use pragformer::core::{Advisor, Scale};
use pragformer::model::{ModelConfig, PragFormer};
use pragformer::obs;
use pragformer::tensor::init::SeededRng;
use pragformer::tensor::kernel::{self, Simd};
use pragformer::tensor::nn::{gelu, Layer, LayerNorm};
use pragformer::tensor::{ops, scratch, Tensor};
use std::time::Instant;

fn main() {
    let only = std::env::args().nth(1);
    let run = |section: &str| only.as_deref().is_none_or(|s| s == section);
    println!("{}", kernel::describe());
    if run("kernels") {
        kernels(kernel::active_simd());
    }
    if run("forward") {
        forward();
    }
    if run("advise") {
        advise();
    }
}

/// Runs `f` in growing batches until one takes over 200 ms, then prints
/// the mean time per call.
fn time(label: &str, mut f: impl FnMut()) {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el.as_millis() > 200 || iters > 1 << 20 {
            println!("{label}: {:?}", el / iters);
            break;
        }
        iters *= 4;
    }
}

/// Kernel timings at tiny-scale batch-64 shapes (seq 48, d 16, 2 heads)
/// and at small-scale per-sequence shapes (d 48, d_ff 96, seq 72): the
/// GEMMs, and the non-GEMM share that bounds any kernel speedup.
fn kernels(simd: Simd) {
    println!("\n== kernels ({}) ==", simd.name());
    let mut rng = SeededRng::new(1);
    let x = Tensor::randn(&[64 * 48, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[16, 16], 1.0, &mut rng);
    let wff = Tensor::randn(&[16, 32], 1.0, &mut rng);
    time("matmul 3072x16x16", || {
        std::hint::black_box(ops::matmul(simd, &x, &w));
    });
    time("matmul 3072x16x32", || {
        std::hint::black_box(ops::matmul(simd, &x, &wff));
    });
    let q = Tensor::randn(&[48, 8], 1.0, &mut rng);
    let k = Tensor::randn(&[48, 8], 1.0, &mut rng);
    time("matmul_nt 48x8 x 48x8 (scores)", || {
        std::hint::black_box(ops::matmul_nt(simd, &q, &k));
    });
    let p = Tensor::randn(&[48, 48], 1.0, &mut rng);
    let v = Tensor::randn(&[48, 8], 1.0, &mut rng);
    time("matmul_unpacked 48x48x8 (ctx)", || {
        std::hint::black_box(ops::matmul_unpacked(simd, &p, &v));
    });
    time("alloc+zero 3072x16", || {
        std::hint::black_box(Tensor::zeros(&[3072, 16]));
    });

    let h = Tensor::randn(&[72, 96], 1.0, &mut rng);
    time("gelu 72x96", || {
        std::hint::black_box(gelu(simd, &h));
    });
    let scores = Tensor::randn(&[144, 72], 1.0, &mut rng);
    time("softmax_rows_uniform 144x72", || {
        let mut c = scores.clone();
        ops::softmax_rows_uniform(simd, &mut c, 72);
        std::hint::black_box(c);
    });
    time("clone 144x72 (baseline for softmax)", || {
        std::hint::black_box(scores.clone());
    });
    let x = Tensor::randn(&[72, 48], 1.0, &mut rng);
    let mut ln = LayerNorm::new("ln", 48);
    time("layernorm 72x48", || {
        std::hint::black_box(ln.forward(&x, false));
    });
    let w = Tensor::randn(&[48, 48], 1.0, &mut rng);
    time("matmul 72x48x48 (projection)", || {
        std::hint::black_box(ops::matmul(simd, &x, &w));
    });
}

/// `predict_proba_batch` per sequence at batch sizes 1, 8 and 64.
fn forward() {
    let cfg = match std::env::var("PRAGFORMER_PROFILE").as_deref() {
        Ok("small") => ModelConfig::small(800),
        Ok("paper") => ModelConfig::paper(800),
        _ => ModelConfig::tiny(800),
    };
    println!("\n== forward (d_model {}, seq {}) ==", cfg.d_model, cfg.max_len);
    let mut rng = SeededRng::new(1);
    let mut model = PragFormer::new(&cfg, &mut rng);
    let seq = cfg.max_len;
    for batch in [1usize, 8, 64] {
        let ids: Vec<usize> = (0..batch * seq).map(|i| i % 800).collect();
        let valid = vec![seq; batch];
        for _ in 0..3 {
            std::hint::black_box(model.predict_proba_batch(&ids, &valid, seq));
        }
        let iters = (256 / batch).max(4);
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(model.predict_proba_batch(&ids, &valid, seq));
        }
        let per = t.elapsed() / (iters * batch) as u32;
        println!("predict_proba_batch batch={batch}: {per:?} per sequence");
    }
}

/// The advise pipeline: timings, steady-state checks, stage breakdown.
fn advise() {
    println!("\n== advise ==");
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
        let hw0 = scratch::high_water_bytes();
        std::hint::black_box(advisor.advise_batch(&snippets));
        assert!(hits.get() > h0, "steady-state advise recorded no prepack hits");
        assert_eq!(builds.get(), b0, "steady-state advise still rebuilds B panels");
        assert_eq!(
            scratch::high_water_bytes(),
            hw0,
            "steady-state advise grew the scratch high-water mark"
        );
        println!(
            "\nzero-repack steady state ({}): +{} prepack hits, 0 pack builds, \
             arena high water {} KiB (flat)",
            advisor.plan().name(),
            hits.get() - h0,
            hw0 / 1024,
        );
    }
    assert_eq!(
        advisor.retained_attention_bytes(),
        0,
        "eval forwards must retain zero attention bytes"
    );

    // Int8 steady state: move the advisor to its int8 plan, warm the
    // weight copies and the i8 scratch lane, then assert one more batch
    // quantizes activations only — zero weight requantizations and zero
    // arena high-water growth (the quantize-once path runs entirely on
    // recycled buffers).
    if obs::enabled() {
        advisor.set_plan(advisor.plan().int8());
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
        // Two warm batches: the second settles the i8 lane's high-water
        // mark.
        std::hint::black_box(advisor.advise_batch(&snippets));
        std::hint::black_box(advisor.advise_batch(&snippets));
        let (b0, r0) = (quant_builds.get(), quant_rows.get());
        let hw0 = scratch::high_water_bytes();
        std::hint::black_box(advisor.advise_batch(&snippets));
        assert!(quant_rows.get() > r0, "int8 advise quantized no activation rows");
        assert_eq!(quant_builds.get(), b0, "steady-state int8 advise requantized weights");
        assert_eq!(
            scratch::high_water_bytes(),
            hw0,
            "steady-state int8 advise grew the scratch high-water mark"
        );
        println!(
            "int8 steady state ({}): +{} activation rows quantized, 0 weight \
             requantizations, arena high water {} KiB",
            advisor.plan().name(),
            quant_rows.get() - r0,
            hw0 / 1024,
        );
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
    println!(
        "{:<16} {:<7} {:>6} {:>12} {:>12} {:>7}",
        "stage", "tier", "calls", "total", "mean/call", "share"
    );
    for s in &stages {
        let span = s.label("span").unwrap_or("?");
        let tier = s.label("tier").unwrap_or("?");
        let share = if total > 0.0 { 100.0 * s.sum / total } else { 0.0 };
        println!(
            "{span:<16} {tier:<7} {:>6} {:>10.3}ms {:>10.3}ms {share:>6.1}%",
            s.count,
            1e3 * s.sum,
            1e3 * s.mean(),
        );
    }
    if stages.is_empty() {
        println!("(no spans recorded — registry disabled?)");
    }
}
