//! # pragformer-obs
//!
//! Workspace-wide observability: a global, lock-free-*read* registry of
//! named [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, a
//! lightweight RAII [`span`] API feeding latency histograms, a Prometheus
//! text-format renderer ([`render_prometheus`]), and structured NDJSON
//! stderr logging ([`log_kv`]) with process-unique trace ids
//! ([`next_trace_id`]). Std-only, like the rest of the workspace (the
//! container has no crates-io access).
//!
//! ## Design
//!
//! Metric *registration* (first lookup of a `(name, labels)` pair) takes a
//! `Mutex` over a `BTreeMap` and allocates; every *update* afterwards is a
//! handful of relaxed atomics on an `Arc`-shared metric — callers cache
//! the `Arc` handles (in statics or struct fields), so hot paths never
//! touch the registry lock. Scrapes ([`render_prometheus`]) take the lock
//! only to walk the map; the atomics they read are updated wait-free
//! underneath, so a scrape never stalls the pipeline.
//!
//! ## Kill switch
//!
//! `PRAGFORMER_OBS=off` (or `0` / `false`) disables the registry before
//! first use: [`enabled`] returns `false`, registration functions return
//! shared detached null metrics without allocating or registering
//! anything, and [`span`] guards skip even the clock read. Instrumented
//! code guards its updates with [`enabled`], so the disabled hot path
//! costs one relaxed atomic load. [`set_enabled`] flips the switch
//! in-process for benches and tests. The switch gates *metrics only* —
//! code that must keep counters regardless (the serve scheduler's
//! `ServerStats` snapshot) constructs detached metrics via
//! [`Counter::new`] & co when the registry is off.
//!
//! ## Exported metric families
//!
//! Every metric the workspace emits, by layer (labels in parentheses):
//!
//! | family | type | labels | source |
//! |---|---|---|---|
//! | `pragformer_span_seconds` | histogram | `span` (+ per-span extras) | [`span`] guards everywhere |
//! | — `span="advise.prepare"` | | `tier` | core: parse/tokenize/encode + ComPar |
//! | — `span="advise.bucket"` | | `tier` | core: length bucketing + in-batch dedup |
//! | — `span="advise.forward"` | | `tier` | core: batched model forwards |
//! | — `span="advise.post"` | | `tier` | core/serve: advice assembly |
//! | `pragformer_advise_snippets_total` | counter | — | core: snippets through `prepare_batch` |
//! | `pragformer_advise_parse_errors_total` | counter | — | core: snippets that failed to parse |
//! | `pragformer_gemm_calls_total` | counter | `op` (`nn`/`nt`/`tn`), `simd` | tensor: f32 GEMM entry points |
//! | `pragformer_gemm_flops_total` | counter | `op`, `simd` | tensor: `2·m·n·k` per GEMM |
//! | `pragformer_pack_builds_total` | counter | — | tensor: B-panel pack builds (per-call repacks and one-time prepacks alike; zero steady-state delta under zero-repack inference) |
//! | `pragformer_prepack_hits_total` | counter | — | tensor: GEMMs served from pre-packed weight panels |
//! | `pragformer_int8_gemm_calls_total` | counter | `simd` | tensor: quantized int8 GEMM invocations |
//! | `pragformer_int8_gemm_flops_total` | counter | `simd` | tensor: `2·m·n·k` per int8 GEMM |
//! | `pragformer_quantize_rows_total` | counter | — | tensor: activation rows dynamically quantized to i8 (quantize-once reuse shows as fewer rows per forward) |
//! | `pragformer_weight_quant_builds_total` | counter | — | tensor: weight matrices / embedding tables quantized to i8 (zero steady-state delta under int8 inference) |
//! | `pragformer_softmax_rows_total` | counter | `simd` | tensor: rows through the masked-softmax kernels |
//! | `pragformer_attn_tile_dispatch_total` | counter | — | model: per-`(batch, head)` attention score/context tiles |
//! | `pragformer_packed_weight_bytes` | gauge | — | tensor: bytes held by live `PackedWeights` copies |
//! | `pragformer_scratch_high_water_bytes` | gauge | — | tensor: scratch-arena pooled-bytes high-water mark |
//! | `pragformer_pool_dispatch_total` | counter | `path` (`pooled`/`inline`) | tensor: worker-pool job dispatch |
//! | `pragformer_serve_requests_total` | counter | `server` | serve: requests answered |
//! | `pragformer_serve_batches_total` | counter | `server` | serve: batches formed |
//! | `pragformer_serve_batch_flush_total` | counter | `server`, `cause` (`full`/`deadline`) | serve: why each batch closed |
//! | `pragformer_serve_batch_size` | histogram | `server` | serve: requests per batch |
//! | `pragformer_serve_deadline_wait_seconds` | histogram | `server` | serve: first-request-to-dispatch wait |
//! | `pragformer_serve_queue_depth` | gauge | `server` | serve: submitted-not-yet-collected requests |
//! | `pragformer_serve_queue_hwm` | gauge | `server` | serve: high-water mark of the queue depth |
//! | `pragformer_serve_max_batch` | gauge | `server` | serve: largest batch observed |
//! | `pragformer_serve_cache_hits_total` | counter | `server` | serve: advise requests answered from the source-text cache, on the submit path or by the collector |
//! | `pragformer_serve_cache_misses_total` | counter | `server` | serve: advise requests the collector advised; hits + misses = advise requests |
//! | `pragformer_serve_cache_evictions_total` | counter | `server` | serve: advice-cache evictions (entry bound or key-byte budget) |
//! | `pragformer_serve_panics_total` | counter | `server` | serve: collector batches whose advising panicked (their requests got an internal error) |
//! | `pragformer_serve_http_requests_total` | counter | `path` | serve: HTTP requests on the NDJSON port |
//! | `pragformer_serve_rejected_lines_total` | counter | — | serve: request lines over the TCP front-end's line-length cap |
//! | `pragformer_train_epochs_total` | counter | — | model: epochs completed by `TrainLoop::fit` |
//! | `pragformer_train_batches_total` | counter | — | model: optimizer steps taken |
//! | `pragformer_train_clip_events_total` | counter | — | model: batches whose grad norm exceeded the clip |
//! | `pragformer_train_loss` | gauge | `split` (`train`/`valid`) | model: last epoch's weighted loss |
//! | `pragformer_train_accuracy` | gauge | `split="valid"` | model: last epoch's validation accuracy |
//! | `pragformer_train_lr` | gauge | — | model: effective learning rate after the last step |
//! | `pragformer_log_lines_total` | counter | `level`, `target` | this crate: NDJSON log lines emitted |
//!
//! The `server` label is a process-unique instance number so several
//! `AdvisorServer`s in one process (integration tests) never share
//! counters; `tier` is the tier (`scalar`/`avx2`/`int8`) of the
//! inference plan (`pragformer_tensor::kernel::InferencePlan`) of the
//! advisor that ran the stage — each model owns its plan, so two
//! advisors in one process on plans of different tiers record separate
//! series.
//! `simd` is the instruction set a kernel ran on (`scalar`/`avx2` — the
//! float simd on the f32 GEMM counters, the integer sub-simd on the int8
//! GEMM counters).
//!
//! ## Logging
//!
//! [`log_kv`] writes one NDJSON object per line to stderr —
//! `{"ts":…,"level":"info","target":"tensor.kernel","msg":…,…}` — gated
//! by `PRAGFORMER_LOG` (`debug`/`info`/`warn`/`error`/`off`, default
//! `info`). The serve front-end stamps every wire request with a trace id
//! from [`next_trace_id`] and logs it at `debug`.

pub mod logging;
pub mod metrics;
pub mod registry;
pub mod render;

pub use logging::{log, log_enabled, log_kv, next_trace_id, set_log_level, Level};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, LATENCY_BUCKETS, SIZE_BUCKETS};
pub use registry::{counter, gauge, histogram, histogram_snapshots, registry_len};
pub use render::render_prometheus;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The histogram family every [`span`] guard observes into.
pub const SPAN_SECONDS: &str = "pragformer_span_seconds";

/// 0 = uninitialized, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether the registry is live. Initialized lazily from
/// `PRAGFORMER_OBS` (anything but `off`/`0`/`false` — including unset —
/// means on); [`set_enabled`] overrides it. One relaxed load on the hot
/// path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_enabled(),
        v => v == 1,
    }
}

#[cold]
fn init_enabled() -> bool {
    let off = matches!(std::env::var("PRAGFORMER_OBS").as_deref(), Ok("off" | "0" | "false"));
    let encoded = if off { 2 } else { 1 };
    // First writer wins; racing initializers agree on the env value.
    let _ = ENABLED.compare_exchange(0, encoded, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == 1
}

/// Flips the kill switch in-process (benches comparing on/off, tests).
/// Metrics already registered keep their values; new registrations while
/// off return detached nulls.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// An RAII timing guard: measures from construction to drop and observes
/// the elapsed seconds into `pragformer_span_seconds{span="<name>"}`.
/// When the registry is [disabled](enabled), construction is a single
/// atomic load — no clock read, no allocation.
#[must_use = "a Span measures until drop; binding it to _ drops immediately"]
pub struct Span {
    inner: Option<(Arc<Histogram>, Instant)>,
}

/// Starts a [`Span`] with no extra labels.
pub fn span(name: &str) -> Span {
    span_with(name, &[])
}

/// Starts a [`Span`] with extra labels (e.g. `tier`). The
/// `span` label is always set to `name`.
pub fn span_with(name: &str, extra: &[(&str, &str)]) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span { inner: Some((span_histogram(name, extra), Instant::now())) }
}

/// Records an already-measured duration into the span family — for call
/// sites that accumulate several disjoint sections into one stage.
pub fn observe_span(name: &str, extra: &[(&str, &str)], seconds: f64) {
    if enabled() {
        span_histogram(name, extra).observe(seconds);
    }
}

/// The histogram behind `pragformer_span_seconds{span="<name>", …}` —
/// callers that record the same stage repeatedly should fetch this once
/// and cache the `Arc`.
pub fn span_histogram(name: &str, extra: &[(&str, &str)]) -> Arc<Histogram> {
    let mut labels: Vec<(&str, &str)> = Vec::with_capacity(extra.len() + 1);
    labels.push(("span", name));
    labels.extend_from_slice(extra);
    histogram(SPAN_SECONDS, "Wall-clock seconds per instrumented span", &labels, &LATENCY_BUCKETS)
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            hist.observe(start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_feeds_the_span_family() {
        set_enabled(true);
        let h = span_histogram("test.lib_span", &[("k", "v")]);
        let before = h.count();
        {
            let _guard = span_with("test.lib_span", &[("k", "v")]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), before + 1);
        assert!(h.sum() > 0.0);
    }
}
