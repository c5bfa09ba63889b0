//! Kernel tiers and inference plans: the compute backends of the GEMM
//! stack, and the one value that picks among them.
//!
//! ## Tiers and plans
//!
//! Three **tiers** pick the numeric regime of a forward:
//!
//! * [`KernelTier::Scalar`] — the portable f32 microkernels (the only
//!   tier before this module existed). Bit-for-bit identical to the
//!   historical kernels on every platform.
//! * [`KernelTier::Avx2`] — the same `MR×NR` packed f32 microkernels
//!   reimplemented with `core::arch::x86_64` AVX2/FMA intrinsics behind
//!   `#[target_feature]` (see [`self`] internals).
//! * [`KernelTier::Int8`] — an inference-only tier: trunk weights are
//!   quantized per output channel to `i8` ([`quantize`]) and activations
//!   dynamically per row; accumulation is exact `i32`. Float kernels
//!   that are not quantized (heads, attention tiles, the GELU epilogue)
//!   run on the best float instruction set this CPU has.
//!
//! An [`InferencePlan`] is one tier plus the instruction set of its
//! *integer* int8 kernels, and it is the only knob. One name table
//! lists every plan:
//!
//! | name          | tier     | float kernels  | int8 kernels |
//! |---------------|----------|----------------|--------------|
//! | `scalar`      | `Scalar` | scalar         | —            |
//! | `avx2`        | `Avx2`   | AVX2+FMA       | —            |
//! | `int8`        | `Int8`   | best available | AVX2         |
//! | `int8-scalar` | `Int8`   | best available | scalar       |
//!
//! [`InferencePlan::parse`] reads a name and refuses an unknown one, or
//! one whose instruction set this CPU lacks; [`InferencePlan::available`]
//! lists the plans this CPU can run. Each model owns its plan (the model
//! crate's `Trunk::set_plan`), so two models in one process can run on
//! different plans at the same time. Every kernel entry point in
//! [`crate::ops`] and [`quantize`] takes its instruction set as an
//! argument and reads no process state.
//!
//! ## Selection
//!
//! [`default_plan`] is resolved once per process, on first use: from
//! `PRAGFORMER_KERNEL` if it is set and names a plan this CPU can run
//! (anything else falls back to detection with a note), otherwise by
//! runtime CPU detection (`is_x86_feature_detected!`), which picks
//! `avx2` or `scalar` and never `int8` — int8 trades bounded accuracy
//! for speed and memory, so it is an explicit choice. One structured
//! NDJSON startup line on stderr (via `pragformer_obs::log_kv`, target
//! `tensor.kernel`) records the detected features, the chosen tier, its
//! int8 sub-simd and provenance, so recorded benchmarks are
//! attributable. There is no in-process switch: a model that should run
//! another plan is given one.
//!
//! ## Pre-packed weights and weight memory
//!
//! On the f32 plans every eval forward runs its weight GEMMs on packed
//! column panels built once per weight matrix
//! ([`crate::ops::PackedWeights`]: ≈ +1× the f32 weight bytes, reported
//! as `TrunkWeightBytes::prepacked_bytes` in the model crate and live in
//! the `pragformer_packed_weight_bytes` gauge); on the int8 plans the
//! trunk runs on quantized copies instead. Which copy a layer holds is
//! decided by its plan alone ([`crate::nn::WeightCache`]). Training
//! holds neither (the backward passes assert it).
//!
//! ## The plan contract
//!
//! * **Bitwise determinism *within* a plan.** Each plan accumulates
//!   every output element in a single chain ascending in the
//!   contraction index, so per-row results are bitwise identical across
//!   batch sizes, padding lengths, worker splits and the packed/simple
//!   dispatch — the repo-wide row-determinism contract (`advise_batch`
//!   == sequential `advise`, serve-cache reuse) holds under every plan.
//!   Proptested per instruction set in `tests/kernel_tier_proptests.rs`.
//! * **`scalar` vs `avx2` is not bitwise.** Prepacked vs repack is
//!   bitwise on each (proptest-pinned), but AVX2 fuses each multiply-add
//!   into one rounding, so the two differ by a few ULP per reduction
//!   step.
//! * **`int8` vs `int8-scalar` is bitwise** — a stronger contract than
//!   the f32 plans can offer. Quantization rounds ties-to-even on both
//!   integer paths, the `i32` dot is exact on both, the dequantize
//!   epilogues use the same FMA contractions, and both plans run their
//!   float kernels (GELU epilogue included) on the same instruction
//!   set. Pinned per kernel by `tests/int8_kernel_proptests.rs` and per
//!   advice by the core crate's advisor tests.
//! * **f32 vs int8 is bounded, not bitwise.** The int8 trunk is gated by
//!   an accuracy harness (`run_int8_parity`: macro-F1 within ±2 points
//!   of the f32 plan on every head). Checkpoints, caches and recorded
//!   probabilities are only comparable within one plan.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
pub mod quantize;

use std::sync::OnceLock;

/// The numeric regime of a forward. See the [module docs](self) for the
/// three tiers and the plans built on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable scalar f32 microkernels (bit-identical to the
    /// pre-tier kernels everywhere).
    Scalar,
    /// AVX2/FMA f32 microkernels (x86_64 with `avx2`+`fma` only).
    Avx2,
    /// Int8-quantized trunk inference on top of the best available
    /// float instruction set. Opt-in only.
    Int8,
}

impl KernelTier {
    /// Stable lowercase name (logs, metric labels, bench arm labels).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
            KernelTier::Int8 => "int8",
        }
    }
}

/// An instruction set a kernel runs on — the argument every entry point
/// in [`crate::ops`] and [`quantize`] dispatches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simd {
    /// Portable scalar loops.
    Scalar,
    /// AVX2 + FMA intrinsics.
    Avx2,
}

impl Simd {
    /// Stable lowercase name (metric labels, bench arm labels).
    pub fn name(self) -> &'static str {
        match self {
            Simd::Scalar => "scalar",
            Simd::Avx2 => "avx2",
        }
    }
}

/// True when this CPU can run the [`Simd::Avx2`] kernels (x86_64
/// reporting both `avx2` and `fma`).
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

/// Short description of the detected CPU features relevant to plan
/// selection (`"avx2+fma"` / `"no avx2+fma"`).
pub fn cpu_features() -> &'static str {
    if avx2_available() {
        "avx2+fma"
    } else {
        "no avx2+fma"
    }
}

/// Every [`Simd`] instruction set this CPU can run — the list
/// per-instruction-set tests and benches iterate.
pub fn available_simds() -> Vec<Simd> {
    let mut v = vec![Simd::Scalar];
    if avx2_available() {
        v.push(Simd::Avx2);
    }
    v
}

/// One inference configuration: a [`KernelTier`] plus the instruction
/// set of its integer int8 kernels. `Copy`, and built only from the
/// name table ([`InferencePlan::parse`], [`InferencePlan::available`],
/// [`default_plan`]), so a plan always names kernels this CPU can run.
/// See the [module docs](self) for the table and the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InferencePlan {
    tier: KernelTier,
    int8_simd: Simd,
}

/// The name table: every plan, under the name `PRAGFORMER_KERNEL`,
/// logs and bench arms use for it.
const PLANS: [(&str, InferencePlan); 4] = [
    ("scalar", InferencePlan { tier: KernelTier::Scalar, int8_simd: Simd::Scalar }),
    ("avx2", InferencePlan { tier: KernelTier::Avx2, int8_simd: Simd::Avx2 }),
    ("int8", InferencePlan { tier: KernelTier::Int8, int8_simd: Simd::Avx2 }),
    ("int8-scalar", InferencePlan { tier: KernelTier::Int8, int8_simd: Simd::Scalar }),
];

impl InferencePlan {
    /// The plan named `name`. An unknown name is an `Err`, and so is a
    /// plan whose instruction set this CPU lacks.
    pub fn parse(name: &str) -> Result<InferencePlan, String> {
        Self::lookup(name, avx2_available())
    }

    /// [`parse`](Self::parse) against a stated CPU capability.
    fn lookup(name: &str, avx2: bool) -> Result<InferencePlan, String> {
        let Some(&(_, plan)) = PLANS.iter().find(|(n, _)| *n == name) else {
            let names: Vec<&str> = PLANS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown inference plan '{name}' (one of {})", names.join(", ")));
        };
        if plan.needs_avx2() && !avx2 {
            return Err(format!("inference plan '{name}' needs avx2+fma, which this CPU lacks"));
        }
        Ok(plan)
    }

    /// Every plan this CPU can run, in name-table order.
    pub fn available() -> Vec<InferencePlan> {
        let avx2 = avx2_available();
        PLANS.iter().map(|&(_, p)| p).filter(|p| avx2 || !p.needs_avx2()).collect()
    }

    /// The plan's name in the table (`scalar`, `avx2`, `int8`,
    /// `int8-scalar`).
    pub fn name(self) -> &'static str {
        PLANS.iter().find(|(_, p)| *p == self).map(|(n, _)| *n).expect("every plan is in the table")
    }

    fn needs_avx2(self) -> bool {
        self.tier == KernelTier::Avx2 || self.int8_simd == Simd::Avx2
    }

    /// The plan's tier.
    pub fn tier(self) -> KernelTier {
        self.tier
    }

    /// The instruction set the **integer** int8 kernels (quantized GEMM
    /// and per-row activation quantization) run on. On the f32 plans it
    /// equals [`simd`](Self::simd) and no int8 kernel runs.
    pub fn int8_simd(self) -> Simd {
        self.int8_simd
    }

    /// The instruction set the plan's **float** kernels run on. Both
    /// int8 plans use the best one this CPU has, which is what keeps
    /// `int8` and `int8-scalar` bitwise identical.
    #[inline]
    pub fn simd(self) -> Simd {
        match self.tier {
            KernelTier::Scalar => Simd::Scalar,
            KernelTier::Avx2 => Simd::Avx2,
            KernelTier::Int8 if avx2_available() => Simd::Avx2,
            KernelTier::Int8 => Simd::Scalar,
        }
    }

    /// Whether the plan runs the trunk on int8 copies.
    #[inline]
    pub fn is_int8(self) -> bool {
        self.tier == KernelTier::Int8
    }

    /// The int8 plan on this plan's integer instruction set: `int8` for
    /// `avx2`, `int8-scalar` for `scalar`, the plan itself on the int8
    /// plans.
    pub fn int8(self) -> InferencePlan {
        InferencePlan { tier: KernelTier::Int8, int8_simd: self.int8_simd }
    }

    /// The f32 plan on this plan's float instruction set: the plan
    /// itself for `scalar` / `avx2`, the plan an int8 model's float-only
    /// parts (its heads) run on otherwise.
    pub fn float(self) -> InferencePlan {
        if !self.is_int8() {
            return self;
        }
        match self.simd() {
            Simd::Scalar => PLANS[0].1,
            Simd::Avx2 => PLANS[1].1,
        }
    }
}

/// The process's default plan: what every model runs on until given
/// another, and what training always runs on. Resolved once, on first
/// use (see [Selection](self#selection)), with one startup log line on
/// stderr. `PRAGFORMER_KERNEL` is read here and nowhere else.
pub fn default_plan() -> InferencePlan {
    static PLAN: OnceLock<InferencePlan> = OnceLock::new();
    *PLAN.get_or_init(resolve_default_plan)
}

#[cold]
fn resolve_default_plan() -> InferencePlan {
    let detected = if avx2_available() { PLANS[1].1 } else { PLANS[0].1 };
    let (plan, source, note) = match std::env::var("PRAGFORMER_KERNEL") {
        Err(_) => (detected, "detected", String::new()),
        Ok(v) => match InferencePlan::parse(&v) {
            Ok(plan) => (plan, "PRAGFORMER_KERNEL", String::new()),
            Err(e) => {
                (detected, "detected", format!(" (PRAGFORMER_KERNEL={v}: {e}; falling back)"))
            }
        },
    };
    pragformer_obs::log_kv(
        pragformer_obs::Level::Info,
        "tensor.kernel",
        &format!("kernel tier selected{note}"),
        &[
            ("tier", plan.tier.name()),
            ("int8_simd", plan.int8_simd.name()),
            ("cpu", cpu_features()),
            ("source", source),
        ],
    );
    plan
}

/// The default plan's tier.
pub fn active_tier() -> KernelTier {
    default_plan().tier()
}

/// The default plan's float instruction set — what training and
/// plan-less eval forwards run on.
#[inline]
pub fn active_simd() -> Simd {
    default_plan().simd()
}

/// The default plan's integer int8 instruction set.
#[inline]
pub fn int8_simd() -> Simd {
    default_plan().int8_simd()
}

/// One-line description of the detection outcome and the default plan
/// (what the startup log records; `kernel_parity` and the profiling
/// example print it).
pub fn describe() -> String {
    let plan = default_plan();
    format!(
        "pragformer kernels: tier={} int8_simd={} (cpu: {})",
        plan.tier.name(),
        plan.int8_simd.name(),
        cpu_features()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_name_round_trips() {
        for &(name, plan) in &PLANS {
            assert_eq!(InferencePlan::lookup(name, true), Ok(plan));
            assert_eq!(plan.name(), name);
        }
        for plan in InferencePlan::available() {
            assert_eq!(InferencePlan::parse(plan.name()), Ok(plan));
        }
    }

    #[test]
    fn unknown_plan_name_is_an_error() {
        for name in ["", "sse2", "AVX2", "int8-avx2", "int8 "] {
            assert!(InferencePlan::lookup(name, true).is_err(), "{name:?}");
        }
    }

    #[test]
    fn plans_needing_missing_avx2_are_errors() {
        assert!(InferencePlan::lookup("avx2", false).is_err());
        assert!(InferencePlan::lookup("int8", false).is_err());
        assert!(InferencePlan::lookup("scalar", false).is_ok());
        assert!(InferencePlan::lookup("int8-scalar", false).is_ok());
        assert_eq!(InferencePlan::parse("avx2").is_ok(), avx2_available());
    }

    #[test]
    fn int8_plans_share_their_float_kernels() {
        let int8 = InferencePlan::lookup("int8", true).unwrap();
        let int8_scalar = InferencePlan::lookup("int8-scalar", true).unwrap();
        assert_eq!(int8.simd(), int8_scalar.simd());
        assert_eq!(int8.float().simd(), int8.simd());
        assert_eq!(int8.float().int8(), int8);
        assert_eq!(int8.int8(), int8);
        assert_eq!(int8_scalar.int8(), int8_scalar);
        assert!(!int8.float().is_int8());
        for plan in InferencePlan::available().into_iter().filter(|p| !p.is_int8()) {
            assert_eq!(plan.float(), plan);
            assert_eq!(plan.int8_simd(), plan.simd());
        }
    }

    #[test]
    fn available_simds_starts_with_scalar() {
        let simds = available_simds();
        assert_eq!(simds[0], Simd::Scalar);
        assert_eq!(simds.contains(&Simd::Avx2), avx2_available());
    }

    #[test]
    fn describe_names_the_tier() {
        let d = describe();
        assert!(d.contains(active_tier().name()), "{d}");
        assert!(d.contains("int8_simd="), "{d}");
    }
}
