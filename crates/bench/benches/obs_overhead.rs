//! Observability overhead: the cost of per-stage span instrumentation
//! on the advise hot path, and of the raw span guard itself — backing
//! the "≤2% on `advise_batch_shared_distinct/64`" acceptance bar for the
//! obs layer. The `_off` twins measure the same code with the registry
//! kill switch thrown (`pragformer_obs::set_enabled(false)`), i.e. what
//! `PRAGFORMER_OBS=off` restores.
//!
//! The JSON twin lands in `BENCH_obs_overhead.json`; CI's bench-guard
//! arm records it fresh-process via `BENCH_ONLY=obs_overhead/...`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pragformer_core::{Advisor, Scale};
use pragformer_obs as obs;

/// The loop idioms a numerical translation unit keeps repeating
/// (mirrors `inference_latency.rs` so the advise arms are comparable).
const TEMPLATES: [&str; 8] = [
    "for (i = 0; i < n; i++) y[i] = alpha * x[i] + y[i];",
    "for (i = 0; i < n; i++) v[i] = v[i] / norm;",
    "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
    "for (i = 0; i < n; i++) { t = a[i]; a[i] = b[i]; b[i] = t; }",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < m; j++)\n    c[i][j] = a[i][j] + b[i][j];",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x1[i] = x1[i] + A[i][j] * y_1[j];",
    "acc = 0.0;\nfor (i = 0; i < n; i++) { acc += in[i]; out[i] = acc; }",
    "for (i = 1; i < n; i++)\n  for (j = 1; j < m; j++)\n    u[i][j] = 0.25 * (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1]);",
];

/// 64 pairwise-distinct snippets (unique identifiers defeat dedup), the
/// worst case for the batch path — every forward stays live, so the
/// instrumentation share is as visible as it gets.
fn distinct_set() -> Vec<String> {
    (0..64)
        .map(|i| TEMPLATES[i % TEMPLATES.len()].replace("[i]", &format!("[i + {}]", i / 8)))
        .collect()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut shared = Advisor::untrained(Scale::Tiny, 1);
    let distinct = distinct_set();
    let distinct_refs: Vec<&str> = distinct.iter().map(|s| s.as_str()).collect();

    let mut group = c.benchmark_group("obs_overhead");

    // The raw span guard: one histogram lookup-from-cache + one clock
    // read + one observe per guard when on; one relaxed atomic load when
    // off.
    obs::set_enabled(true);
    group.bench_function("span_guard", |b| {
        b.iter(|| {
            let guard = obs::span(std::hint::black_box("bench.obs_overhead"));
            std::hint::black_box(&guard);
        })
    });
    obs::set_enabled(false);
    group.bench_function("span_guard_off", |b| {
        b.iter(|| {
            let guard = obs::span(std::hint::black_box("bench.obs_overhead"));
            std::hint::black_box(&guard);
        })
    });

    // The acceptance arm: the full advise pipeline (4 stage spans + 2
    // counters per batch) with instrumentation on vs off. Warm each mode
    // before measuring so one-time registry lookups don't bill the
    // steady state.
    group.throughput(Throughput::Elements(64));
    obs::set_enabled(true);
    let _ = shared.advise_batch(&distinct_refs);
    group.bench_function("advise64_obs_on", |b| b.iter(|| shared.advise_batch(&distinct_refs)));
    obs::set_enabled(false);
    let _ = shared.advise_batch(&distinct_refs);
    group.bench_function("advise64_obs_off", |b| b.iter(|| shared.advise_batch(&distinct_refs)));
    obs::set_enabled(true);

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_obs_overhead
}
criterion_main!(benches);
