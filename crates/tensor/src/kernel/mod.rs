//! Kernel tiers: runtime-dispatched compute backends for the GEMM stack.
//!
//! ## The tier lattice
//!
//! Every dense kernel in [`crate::ops`] runs on one point of a small
//! lattice, selected once per process. Three **tiers** pick the
//! numeric regime:
//!
//! * [`KernelTier::Scalar`] — the portable f32 microkernels (the only
//!   tier before this module existed). Bit-for-bit identical to the
//!   historical kernels on every platform.
//! * [`KernelTier::Avx2`] — the same `MR×NR` packed f32 microkernels
//!   reimplemented with `core::arch::x86_64` AVX2/FMA intrinsics behind
//!   `#[target_feature]` (see [`self`] internals). Selected by default
//!   when the CPU reports `avx2` **and** `fma`.
//! * [`KernelTier::Int8`] — an inference-only tier: trunk weights are
//!   quantized per output channel to `i8` ([`quantize`]) and activations
//!   dynamically per row; accumulation is exact `i32`. Float GEMMs that
//!   are not quantized (gradients, heads, attention scores) run on the
//!   best available SIMD tier. Never auto-selected — it trades bounded
//!   accuracy for speed and memory, so turning it on is an explicit
//!   choice (env override or a model-level switch).
//!
//! The int8 tier additionally splits on the instruction set its
//! *integer* kernels use — the **int8 sub-simd** ([`int8_simd`] /
//! [`set_int8_simd`]): `int8-avx2` runs the `_mm256_madd_epi16`
//! microkernels in [`self`]'s AVX2 module, `int8-scalar` the portable
//! `i32` loops. Because exact integer accumulation is associative and
//! order-free, the two int8 points are **bitwise identical** — a
//! stronger contract than the f32 tiers can offer, and what lets the
//! parity suite pin the vectorized kernels against the scalar ones.
//! The full lattice is therefore: `scalar` / `avx2` (f32) /
//! `int8-scalar` / `int8-avx2`.
//!
//! ## Selection
//!
//! The tier is picked lazily on first kernel use: the
//! `PRAGFORMER_KERNEL=scalar|avx2|int8|int8-scalar` environment variable
//! wins if set (an unavailable or unknown value falls back to detection
//! with a note; `int8-scalar` selects the int8 tier **and** forces its
//! integer kernels scalar); otherwise runtime CPU detection
//! (`is_x86_feature_detected!`) chooses between `Avx2` and `Scalar`. One
//! structured NDJSON startup line on stderr (via
//! `pragformer_obs::log_kv`, target `tensor.kernel`) records the
//! detected features, the chosen tier, its int8 sub-simd and provenance,
//! so recorded benchmarks are attributable. Harnesses can switch tiers
//! in-process with [`set_tier`] and the int8 sub-simd with
//! [`set_int8_simd`].
//!
//! ## Pre-packed weights and weight memory
//!
//! On the f32 tiers every eval forward runs its weight GEMMs on cached
//! packed column panels ([`crate::ops::PackedWeights`]), built once per
//! weight matrix, so inference never repacks; on the int8 tier the
//! trunk runs on quantized copies instead. Which cache a model holds is
//! decided by the model crate from the active tier alone. The packed
//! copy costs ≈ +1× the f32 weight bytes per cached matrix (exactly
//! `⌈n/NR⌉·k·NR` floats): it is reported next to the existing
//! `*_weight_bytes` accounting (`TrunkWeightBytes::prepacked_bytes` in
//! the model crate) and live in the `pragformer_packed_weight_bytes`
//! gauge. Training never holds packed copies (the backward pass asserts
//! none, mirroring the int8 rule), so the overhead is inference-only.
//!
//! ## The tier contract
//!
//! * **Bitwise determinism *within* a lattice point.** Each tier
//!   accumulates every output element in a single chain ascending in the
//!   contraction index, so per-row results are bitwise identical across
//!   batch sizes, padding lengths, worker splits and the packed/simple
//!   dispatch — the repo-wide row-determinism contract (`advise_batch`
//!   == sequential `advise`, serve-cache reuse) holds under every tier.
//!   Proptested per tier in `tests/kernel_tier_proptests.rs`.
//! * **Which pairs are bitwise-comparable.** Within the f32 regime,
//!   prepacked vs repack is bitwise per tier (proptest-pinned), but
//!   `scalar` vs `avx2` is **not**: AVX2 fuses each multiply-add into
//!   one rounding, so the two differ by a few ULP per reduction step.
//!   Within the int8 regime the opposite holds: `int8-scalar` vs
//!   `int8-avx2` **is bitwise** — quantization rounds ties-to-even on
//!   both paths, the `i32` dot is exact on both, and the dequantize
//!   epilogues use the same FMA contractions — pinned by
//!   `tests/int8_kernel_proptests.rs`. (The int8 epilogue's GELU
//!   dispatches on the *float* simd, identical for both int8 points on
//!   one machine.)
//! * **Parity bounds *across* regimes.** f32 vs int8 agreement is
//!   bounded, not bitwise: the `Int8` trunk is gated by an accuracy
//!   harness (`run_int8_parity`: macro-F1 within ±2 points of f32 on
//!   every head). Checkpoints, caches and recorded probabilities are
//!   only comparable within one lattice point.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
pub mod quantize;

use std::sync::atomic::{AtomicU8, Ordering};

/// The compute backend every kernel call dispatches on. See the
/// [module docs](self) for the three tiers and the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable scalar f32 microkernels (bit-identical to the
    /// pre-tier kernels everywhere).
    Scalar,
    /// AVX2/FMA f32 microkernels (x86_64 with `avx2`+`fma` only).
    Avx2,
    /// Int8-quantized trunk inference on top of the best available
    /// float SIMD tier. Opt-in only.
    Int8,
}

impl KernelTier {
    /// Parses `scalar` / `avx2` / `int8` (the `PRAGFORMER_KERNEL`
    /// values and CLI flags).
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s {
            "scalar" => Some(KernelTier::Scalar),
            "avx2" => Some(KernelTier::Avx2),
            "int8" => Some(KernelTier::Int8),
            _ => None,
        }
    }

    /// Stable lowercase name (logs, bench arm labels).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Int8 => "int8",
        }
    }
}

/// The float-GEMM instruction set a tier resolves to — what
/// [`crate::ops::matmul_with`] and friends actually dispatch on.
/// (`Int8` has no `Simd` of its own: its float GEMMs use the best
/// available set, its quantized GEMM is integer arithmetic.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simd {
    /// Portable scalar loops.
    Scalar,
    /// AVX2 + FMA intrinsics.
    Avx2,
}

impl Simd {
    /// Stable lowercase name (bench arm labels).
    pub fn name(self) -> &'static str {
        match self {
            Simd::Scalar => "scalar",
            Simd::Avx2 => "avx2",
        }
    }
}

/// True when this CPU can run the [`KernelTier::Avx2`] kernels
/// (x86_64 reporting both `avx2` and `fma`).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Short description of the detected CPU features relevant to tier
/// selection (`"avx2+fma"` / `"no avx2+fma"`).
pub fn cpu_features() -> &'static str {
    if avx2_available() {
        "avx2+fma"
    } else {
        "no avx2+fma"
    }
}

/// Every [`Simd`] instruction set this CPU can run — the list per-tier
/// tests and benches iterate.
pub fn available_simds() -> Vec<Simd> {
    let mut v = vec![Simd::Scalar];
    if avx2_available() {
        v.push(Simd::Avx2);
    }
    v
}

/// 0 = uninitialized; otherwise `KernelTier` + 1.
static TIER: AtomicU8 = AtomicU8::new(0);

fn encode(t: KernelTier) -> u8 {
    match t {
        KernelTier::Scalar => 1,
        KernelTier::Avx2 => 2,
        KernelTier::Int8 => 3,
    }
}

fn decode(v: u8) -> KernelTier {
    match v {
        1 => KernelTier::Scalar,
        2 => KernelTier::Avx2,
        3 => KernelTier::Int8,
        other => unreachable!("corrupt kernel-tier state {other}"),
    }
}

/// The active tier, initializing it on first use (env override, then
/// CPU detection) with one startup log line on stderr.
pub fn active_tier() -> KernelTier {
    match TIER.load(Ordering::Relaxed) {
        0 => init_tier(),
        v => decode(v),
    }
}

/// The float instruction set the active tier's f32 GEMMs run on.
pub fn active_simd() -> Simd {
    match active_tier() {
        KernelTier::Scalar => Simd::Scalar,
        KernelTier::Avx2 => Simd::Avx2,
        KernelTier::Int8 => {
            if avx2_available() {
                Simd::Avx2
            } else {
                Simd::Scalar
            }
        }
    }
}

/// Switches the active tier in-process (benches, parity harnesses, the
/// startup override). Fails when the tier's instruction set is not
/// available on this CPU.
///
/// The tier is process-global: switching while other threads run
/// kernels makes *concurrent* calls pick either tier (each individual
/// GEMM reads the tier once at entry, so no single call mixes tiers).
/// Test code that must not perturb other threads should prefer the
/// model-level int8 override or the explicit `*_with` kernel entry
/// points instead.
pub fn set_tier(tier: KernelTier) -> Result<(), String> {
    if tier == KernelTier::Avx2 && !avx2_available() {
        return Err(format!("kernel tier 'avx2' unavailable on this CPU ({})", cpu_features()));
    }
    // Initialize first so the startup log (with provenance) still
    // happens exactly once even when a harness switches tiers early.
    let _ = active_tier();
    TIER.store(encode(tier), Ordering::Relaxed);
    Ok(())
}

/// One-line description of the detection outcome and active tier
/// (what the startup log prints; `profile_kernels` prints it too).
pub fn describe() -> String {
    format!(
        "pragformer kernels: tier={} int8_simd={} (cpu: {})",
        active_tier().name(),
        int8_simd().name(),
        cpu_features()
    )
}

/// 0 = uninitialized; otherwise 1 = scalar, 2 = avx2.
static INT8_SIMD: AtomicU8 = AtomicU8::new(0);

/// The instruction set the **integer** int8 kernels (quantized GEMM and
/// per-row activation quantization) run on. Defaults to the best
/// available set; `PRAGFORMER_KERNEL=int8-scalar` pins it scalar at
/// startup. Independent of [`active_simd`], which governs the float
/// kernels — both int8 sub-simds produce bitwise-identical output (see
/// the [module docs](self)).
#[inline]
pub fn int8_simd() -> Simd {
    match INT8_SIMD.load(Ordering::Relaxed) {
        0 => init_int8_simd(),
        1 => Simd::Scalar,
        _ => Simd::Avx2,
    }
}

/// Switches the int8 sub-simd in-process (bench twin arms, parity
/// suites). Fails when AVX2 is requested but unavailable. Process-global
/// with the same concurrency caveat as [`set_tier`].
pub fn set_int8_simd(simd: Simd) -> Result<(), String> {
    if simd == Simd::Avx2 && !avx2_available() {
        return Err(format!("int8 simd 'avx2' unavailable on this CPU ({})", cpu_features()));
    }
    INT8_SIMD.store(if simd == Simd::Scalar { 1 } else { 2 }, Ordering::Relaxed);
    Ok(())
}

#[cold]
fn init_int8_simd() -> Simd {
    let forced_scalar = matches!(std::env::var("PRAGFORMER_KERNEL").as_deref(), Ok("int8-scalar"));
    let simd = if forced_scalar || !avx2_available() { Simd::Scalar } else { Simd::Avx2 };
    let encoded = if simd == Simd::Scalar { 1 } else { 2 };
    // First writer wins, same as the tier; no dedicated log line — the
    // tier startup line records the resolved int8 sub-simd.
    let _ = INT8_SIMD.compare_exchange(0, encoded, Ordering::Relaxed, Ordering::Relaxed);
    match INT8_SIMD.load(Ordering::Relaxed) {
        1 => Simd::Scalar,
        _ => Simd::Avx2,
    }
}

#[cold]
fn init_tier() -> KernelTier {
    let (mut tier, mut source) = if avx2_available() {
        (KernelTier::Avx2, "detected")
    } else {
        (KernelTier::Scalar, "detected")
    };
    let mut note = String::new();
    if let Ok(v) = std::env::var("PRAGFORMER_KERNEL") {
        // `int8-scalar` is the int8 tier with its integer kernels pinned
        // scalar; the pin itself lives in `init_int8_simd`.
        let parsed =
            if v == "int8-scalar" { Some(KernelTier::Int8) } else { KernelTier::parse(&v) };
        match parsed {
            Some(KernelTier::Avx2) if !avx2_available() => {
                note = format!(" (PRAGFORMER_KERNEL={v} unavailable on this CPU; falling back)");
            }
            Some(t) => {
                tier = t;
                source = "PRAGFORMER_KERNEL";
            }
            None => {
                note = format!(" (ignoring unknown PRAGFORMER_KERNEL={v})");
            }
        }
    }
    // First writer wins; only the winner logs, so the startup line
    // appears exactly once even under concurrent first use.
    match TIER.compare_exchange(0, encode(tier), Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => {
            let msg = if note.is_empty() {
                String::from("kernel tier selected")
            } else {
                format!("kernel tier selected{note}")
            };
            pragformer_obs::log_kv(
                pragformer_obs::Level::Info,
                "tensor.kernel",
                &msg,
                &[
                    ("tier", tier.name()),
                    ("int8_simd", int8_simd().name()),
                    ("cpu", cpu_features()),
                    ("source", source),
                ],
            );
            tier
        }
        Err(v) => decode(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parse_roundtrip() {
        for t in [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Int8] {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
        }
        assert_eq!(KernelTier::parse("sse2"), None);
    }

    #[test]
    fn available_simds_starts_with_scalar() {
        let simds = available_simds();
        assert_eq!(simds[0], Simd::Scalar);
        assert_eq!(simds.contains(&Simd::Avx2), avx2_available());
    }

    #[test]
    fn active_tier_is_stable_and_switchable() {
        let initial = active_tier();
        assert_eq!(active_tier(), initial, "tier must not drift between reads");
        // Scalar is always available; switching and restoring must work.
        set_tier(KernelTier::Scalar).unwrap();
        assert_eq!(active_tier(), KernelTier::Scalar);
        assert_eq!(active_simd(), Simd::Scalar);
        set_tier(initial).unwrap();
        assert_eq!(active_tier(), initial);
    }

    #[test]
    fn avx2_tier_requires_cpu_support() {
        if avx2_available() {
            let initial = active_tier();
            set_tier(KernelTier::Avx2).unwrap();
            assert_eq!(active_simd(), Simd::Avx2);
            set_tier(initial).unwrap();
        } else {
            assert!(set_tier(KernelTier::Avx2).is_err());
        }
    }

    #[test]
    fn describe_names_the_tier() {
        let d = describe();
        assert!(d.contains(active_tier().name()), "{d}");
        assert!(d.contains("int8_simd="), "{d}");
    }

    #[test]
    fn int8_simd_defaults_to_best_available_and_switches() {
        let initial = int8_simd();
        if std::env::var("PRAGFORMER_KERNEL").as_deref() == Ok("int8-scalar") {
            assert_eq!(initial, Simd::Scalar, "int8-scalar must pin the integer kernels scalar");
        } else if std::env::var("PRAGFORMER_KERNEL").is_err() {
            let want = if avx2_available() { Simd::Avx2 } else { Simd::Scalar };
            assert_eq!(initial, want);
        }
        set_int8_simd(Simd::Scalar).unwrap();
        assert_eq!(int8_simd(), Simd::Scalar);
        if avx2_available() {
            set_int8_simd(Simd::Avx2).unwrap();
            assert_eq!(int8_simd(), Simd::Avx2);
        } else {
            assert!(set_int8_simd(Simd::Avx2).is_err());
        }
        set_int8_simd(initial).unwrap();
        assert_eq!(int8_simd(), initial);
    }

    #[test]
    fn startup_log_line_is_emitted_at_most_once() {
        if !pragformer_obs::log_enabled(pragformer_obs::Level::Info) || !pragformer_obs::enabled() {
            return; // counter only advances when logging + registry are live
        }
        let lines = pragformer_obs::counter(
            "pragformer_log_lines_total",
            "NDJSON log lines emitted to stderr",
            &[("level", "info"), ("target", "tensor.kernel")],
        );
        let initial = active_tier();
        let after_first = lines.get();
        assert!(after_first <= 1, "startup line must log at most once, saw {after_first}");
        // Re-reads and explicit switches must not log again.
        let _ = active_tier();
        set_tier(KernelTier::Scalar).unwrap();
        let _ = active_tier();
        set_tier(initial).unwrap();
        assert_eq!(lines.get(), after_first, "tier reads/switches must not re-log");
    }
}
