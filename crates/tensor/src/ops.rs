//! Dense linear-algebra kernels.
//!
//! Three GEMM variants cover everything a transformer needs:
//!
//! * [`matmul`]      — `C = A · B`       (activations × weights)
//! * [`matmul_nt`]   — `C = A · Bᵀ`      (attention scores `Q·Kᵀ`, and
//!   `dX = dY · Wᵀ` in linear backward)
//! * [`matmul_tn`]   — `C = Aᵀ · B`      (`dW = Xᵀ · dY`)
//!
//! All three parallelize over rows of the output on the persistent pool
//! in [`crate::parallel`] (no threads are spawned per call) and are
//! cache-blocked:
//!
//! * [`matmul`] packs `B` into column panels of width `NR` so the
//!   microkernel streams one contiguous panel per output tile, and
//!   register-tiles `MR`` × ``NR` outputs. Small left-hand sides skip
//!   the packing (the panel build would dominate) and fall back to an
//!   i-k-j loop.
//! * [`matmul_nt`] is row-times-row dot products, each split into four
//!   independent `k`-lanes for instruction-level parallelism.
//! * [`matmul_tn`] (gradient path) reuses the packed microkernel: `B` is
//!   packed into the same column panels and each worker transposes its
//!   slice of `Aᵀ` into contiguous rows first; tiny outputs fall back to
//!   the outer-product loop.
//!
//! ## Pre-packed weights
//!
//! At inference `B` is almost always a constant weight matrix, so
//! [`PackedWeights`] packs its panels **once** and [`matmul_prepacked`]
//! runs the same packed microkernel against the cached panels — bitwise
//! identical to [`matmul`] by construction (same panel bytes, same
//! ascending-`k` chains) with zero per-call pack work. For genuinely
//! per-call right-hand sides that are too transient to pack (attention's
//! head tiles), [`matmul_unpacked`] runs the simple kernel on every
//! shape — also bitwise identical — so the steady-state forward path
//! issues **no** panel builds at all (`pack_b_panels_into` counts into
//! `pragformer_pack_builds_total`; prepacked calls count into
//! `pragformer_prepack_hits_total`). Per-call scratch (pack panels, the
//! `matmul_tn` gather) is drawn from [`crate::scratch`] rather than
//! allocated fresh.
//!
//! ## Instruction sets
//!
//! Every entry point takes the [`Simd`] it runs on as its first
//! argument and dispatches once at entry: the portable scalar
//! microkernels below, or their AVX2/FMA twins in `kernel::avx2`. An
//! eval forward passes its model's plan ([`crate::kernel::InferencePlan`]);
//! training passes the default plan's ([`crate::kernel::active_simd`]).
//! Every call counts itself into the GEMM / softmax obs counters.
//!
//! ## Determinism
//!
//! Every path accumulates each output element strictly in ascending-`k`
//! order with a fixed accumulator chain, and the per-row arithmetic never
//! depends on how many rows the call processes or how rows were split
//! across workers. Consequently a row of `matmul(A, B)` is **bitwise
//! identical** whether `A` has 1 row or 1000 — the property that lets
//! `Advisor::advise_batch` promise bit-equal probabilities with the
//! sequential path. This holds *within* each kernel tier: the AVX2 twins
//! keep the same chains but fuse each multiply-add, so their bits differ
//! from scalar by bounded rounding while remaining equally
//! batch/split-invariant (see [`crate::kernel`] for the tier contract).
//! (The earlier per-element `a_ik == 0.0` skip was
//! removed: it pessimized the dense hot loop with a branch per
//! multiply-add for a sparsity that transformer activations do not have.
//! No sparse entry point replaces it — profiling showed no caller with
//! meaningfully sparse operands.)

use crate::kernel::{self, Simd};
use crate::parallel::par_rows_mut;
use crate::{scratch, Tensor};
use pragformer_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Minimum output rows each worker should own before a kernel dispatches
/// to the pool. Dispatch on the persistent pool costs a few microseconds
/// (no thread spawn), so even mid-sized activation GEMMs split profitably;
/// tiny attention tiles still run inline.
const MIN_ROWS_PER_THREAD: usize = 32;

/// Microkernel register tile: rows of `A` processed together.
pub(crate) const MR: usize = 4;
/// Microkernel register tile: columns of `B` processed together (one
/// auto-vectorizable lane group).
pub(crate) const NR: usize = 8;
/// Inner `k` sub-block: the microkernel consumes `KB` consecutive `k`
/// steps through fixed-size array references, so the hot loop has no
/// bounds checks or per-step iterator overhead — critical for the short
/// inner dimensions of attention GEMMs (`d_head` is 8–24).
const KB: usize = 8;

/// Counts one B-panel build into `pragformer_pack_builds_total` — both
/// per-call repacks and one-time [`PackedWeights::pack`] builds land
/// here, so a steady-state forward path shows a zero *delta* on this
/// counter once warm.
#[inline]
fn record_pack_build() {
    if !obs::enabled() {
        return;
    }
    static BUILDS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    BUILDS
        .get_or_init(|| {
            obs::counter(
                "pragformer_pack_builds_total",
                "B-panel pack operations (per-call repacks + one-time prepacks)",
                &[],
            )
        })
        .inc();
}

/// Packs `b` (`k × n`, row-major) into `⌈n/NR⌉` column panels, writing
/// into a caller-provided zeroed buffer of `⌈n/NR⌉·k·NR` floats.
///
/// Panel `jp` holds columns `jp*NR .. jp*NR+NR` in `k`-major order:
/// element `(p, c)` of the panel is `b[p, jp*NR + c]`, zero-padded when
/// `n` is not a multiple of `NR` (which is why `packed` must come in
/// zeroed). The microkernel then reads one contiguous `NR`-wide stripe
/// per `k` step.
fn pack_b_panels_into(b: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    record_pack_build();
    let panels = n.div_ceil(NR);
    debug_assert_eq!(packed.len(), panels * k * NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        let panel = &mut packed[jp * k * NR..(jp + 1) * k * NR];
        for p in 0..k {
            panel[p * NR..p * NR + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
    }
}

/// [`pack_b_panels_into`] into a fresh (non-arena) buffer — the
/// long-lived [`PackedWeights`] build and test helpers. Hot paths use
/// the arena-backed variant inside [`matmul`]/[`matmul_tn`].
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; panels * k * NR];
    pack_b_panels_into(b, k, n, &mut packed);
    packed
}

/// Packed-`B` GEMM over a chunk of output rows.
///
/// `a_rows` are the `rows × k` left-hand rows matching `c_chunk`
/// (`rows × n`); `packed` is the full [`pack_b_panels`] buffer.
fn gemm_packed_rows(a_rows: &[f32], k: usize, packed: &[f32], n: usize, c_chunk: &mut [f32]) {
    let rows = c_chunk.len() / n;
    let panels = n.div_ceil(NR);
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let panel = &packed[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [[0.0f32; NR]; MR];
            if mr == MR {
                // Full register tile, four rows in lock-step, `k`
                // consumed in KB-sized blocks through `&[f32; _]`
                // references: the innermost loops have constant bounds,
                // so they unroll and vectorize with no per-step checks.
                let mut acc0 = [0.0f32; NR];
                let mut acc1 = [0.0f32; NR];
                let mut acc2 = [0.0f32; NR];
                let mut acc3 = [0.0f32; NR];
                let row = |r: usize| &a_rows[(i + r) * k..(i + r + 1) * k];
                let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                let pblocks =
                    panel.chunks_exact(NR * KB).map(|s| <&[f32; NR * KB]>::try_from(s).unwrap());
                fn ablk(r: &[f32]) -> impl Iterator<Item = &[f32; KB]> {
                    r.chunks_exact(KB).map(|s| <&[f32; KB]>::try_from(s).unwrap())
                }
                for ((((pb, a0), a1), a2), a3) in
                    pblocks.zip(ablk(r0)).zip(ablk(r1)).zip(ablk(r2)).zip(ablk(r3))
                {
                    for p in 0..KB {
                        for c in 0..NR {
                            let bv = pb[p * NR + c];
                            acc0[c] += a0[p] * bv;
                            acc1[c] += a1[p] * bv;
                            acc2[c] += a2[p] * bv;
                            acc3[c] += a3[p] * bv;
                        }
                    }
                }
                // k % KB tail, same ascending-k accumulator chains.
                for p in (k - k % KB)..k {
                    let stripe = &panel[p * NR..(p + 1) * NR];
                    for c in 0..NR {
                        acc0[c] += r0[p] * stripe[c];
                        acc1[c] += r1[p] * stripe[c];
                        acc2[c] += r2[p] * stripe[c];
                        acc3[c] += r3[p] * stripe[c];
                    }
                }
                acc = [acc0, acc1, acc2, acc3];
            } else {
                // Remainder rows: same per-element arithmetic (ascending
                // k, one chain), so results match the full tile bit for
                // bit.
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let row = a_rows[(i + r) * k..(i + r + 1) * k].iter();
                    let stripes =
                        panel.chunks_exact(NR).map(|s| <&[f32; NR]>::try_from(s).unwrap());
                    for (stripe, &a_val) in stripes.zip(row) {
                        for c in 0..NR {
                            acc_row[c] += a_val * stripe[c];
                        }
                    }
                }
            }
            for r in 0..mr {
                let c_row = &mut c_chunk[(i + r) * n + j0..(i + r) * n + j0 + w];
                c_row.copy_from_slice(&acc[r][..w]);
            }
        }
        i += mr;
    }
}

/// Unpacked i-k-j GEMM over a chunk of output rows (small-`m` fast path:
/// skips the `O(k·n)` panel build). Bitwise-identical results to
/// [`gemm_packed_rows`]: per element, both accumulate ascending in `k`
/// from `0.0` with a single chain.
fn gemm_simple_rows(a_rows: &[f32], k: usize, b: &[f32], n: usize, c_chunk: &mut [f32]) {
    for (ri, c_row) in c_chunk.chunks_mut(n).enumerate() {
        let a_row = &a_rows[ri * k..(ri + 1) * k];
        for (b_row, &a_val) in b.chunks_exact(n).zip(a_row) {
            for (c, &b_val) in c_row.iter_mut().zip(b_row) {
                *c += a_val * b_val;
            }
        }
    }
}

/// Left-hand rows below which `matmul` skips packing `B`.
const PACK_MIN_ROWS: usize = 4;

/// [`gemm_packed_rows`] on the requested instruction set.
fn dispatch_packed(
    simd: Simd,
    a_rows: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    c_chunk: &mut [f32],
) {
    match simd {
        Simd::Scalar => gemm_packed_rows(a_rows, k, packed, n, c_chunk),
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            kernel::avx2::gemm_packed_rows(a_rows, k, packed, n, c_chunk);
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

/// [`gemm_simple_rows`] on the requested instruction set.
fn dispatch_simple(simd: Simd, a_rows: &[f32], k: usize, b: &[f32], n: usize, c_chunk: &mut [f32]) {
    match simd {
        Simd::Scalar => gemm_simple_rows(a_rows, k, b, n, c_chunk),
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            kernel::avx2::gemm_simple_rows(a_rows, k, b, n, c_chunk);
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

/// GEMM entry-point indices into the cached counter table (and their
/// `op` label values).
const GEMM_OPS: [&str; 3] = ["nn", "nt", "tn"];
const OP_NN: usize = 0;
const OP_NT: usize = 1;
const OP_TN: usize = 2;

/// Records one tier-dispatched GEMM into
/// `pragformer_gemm_{calls,flops}_total{op,simd}`. Registry lookups
/// happen only on the first call per `(op, simd)`; afterwards this is an
/// enabled check plus two relaxed atomic adds. `flops` counts the
/// conventional `2·m·n·k` multiply-adds of the contraction.
#[inline]
fn record_gemm(op_idx: usize, simd: Simd, m: usize, n: usize, k: usize) {
    if !obs::enabled() {
        return;
    }
    /// Cached `(calls, flops)` counter handles for one `(op, simd)` cell.
    type GemmCounters = (Arc<obs::Counter>, Arc<obs::Counter>);
    static CELLS: [[OnceLock<GemmCounters>; 2]; 3] = [const { [const { OnceLock::new() }; 2] }; 3];
    let (calls, flops) = CELLS[op_idx][simd as usize].get_or_init(|| {
        let labels = [("op", GEMM_OPS[op_idx]), ("simd", simd.name())];
        (
            obs::counter("pragformer_gemm_calls_total", "f32 GEMM entry-point calls", &labels),
            obs::counter(
                "pragformer_gemm_flops_total",
                "Floating-point operations (2*m*n*k) issued by f32 GEMMs",
                &labels,
            ),
        )
    });
    calls.inc();
    flops.add(2 * (m as u64) * (n as u64) * (k as u64));
}

/// `C[m×n] = A[m×k] · B[k×n]` on `simd`.
pub fn matmul(simd: Simd, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul inner dims: {:?} x {:?}", a.shape(), b.shape());
    record_gemm(OP_NN, simd, m, n, k);
    let mut out = Tensor::zeros(&[m, n]);
    let (a_d, b_d) = (a.data(), b.data());
    if m < PACK_MIN_ROWS || n < NR {
        dispatch_simple(simd, a_d, k, b_d, n, out.data_mut());
        return out;
    }
    let mut packed = scratch::take_zeroed(n.div_ceil(NR) * k * NR);
    pack_b_panels_into(b_d, k, n, &mut packed);
    par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
        let rows = chunk.len() / n;
        dispatch_packed(simd, &a_d[row0 * k..(row0 + rows) * k], k, &packed, n, chunk);
    });
    scratch::give(packed);
    out
}

/// Total bytes held by live [`PackedWeights`] (mirrored to the
/// `pragformer_packed_weight_bytes` gauge).
static PACKED_WEIGHT_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Total bytes held by live [`PackedWeights`] in this process.
pub fn live_packed_weight_bytes() -> usize {
    PACKED_WEIGHT_BYTES.load(Ordering::Relaxed)
}

/// Adjusts the live packed-weight byte total by `delta` and mirrors it
/// to the gauge.
fn adjust_packed_bytes(delta: isize) {
    let new = if delta >= 0 {
        PACKED_WEIGHT_BYTES.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
    } else {
        PACKED_WEIGHT_BYTES.fetch_sub((-delta) as usize, Ordering::Relaxed) - (-delta) as usize
    };
    if obs::enabled() {
        static GAUGE: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
        GAUGE
            .get_or_init(|| {
                obs::gauge(
                    "pragformer_packed_weight_bytes",
                    "Bytes held by live pre-packed f32 weight panels",
                    &[],
                )
            })
            .set(new as f64);
    }
}

/// A weight matrix's B-panels, packed once — the f32 twin of
/// [`crate::kernel::quantize::QuantizedMatrix`].
///
/// Holds exactly the buffer [`matmul`] would build per call
/// (`⌈n/NR⌉·k·NR` floats, zero-padded lanes included), so
/// [`matmul_prepacked`] against it is **bitwise identical** to
/// [`matmul`] against the original matrix on every tier, shape and
/// worker split — same panel bytes, same microkernel, same ascending-`k`
/// accumulation. Build cost is paid once (counted in
/// `pragformer_pack_builds_total` like any pack); memory cost is ≈ +1×
/// the f32 weight bytes, tracked in `pragformer_packed_weight_bytes`.
pub struct PackedWeights {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedWeights {
    /// Packs a `[k, n]` weight matrix's column panels once.
    pub fn pack(w: &Tensor) -> PackedWeights {
        let (k, n) = (w.rows(), w.cols());
        let panels = pack_b_panels(w.data(), k, n);
        adjust_packed_bytes((panels.len() * 4) as isize);
        PackedWeights { k, n, panels }
    }

    /// Inner (contraction) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the packed panels.
    pub fn bytes(&self) -> usize {
        self.panels.len() * 4
    }

    /// Bytes [`PackedWeights::pack`] would hold for a `[k, n]` matrix —
    /// static accounting without building anything.
    pub fn bytes_for(k: usize, n: usize) -> usize {
        n.div_ceil(NR) * k * NR * 4
    }
}

impl Drop for PackedWeights {
    fn drop(&mut self) {
        adjust_packed_bytes(-((self.panels.len() * 4) as isize));
    }
}

/// Counts one [`matmul_prepacked`] call into
/// `pragformer_prepack_hits_total` (the pack-cache hit counter).
#[inline]
fn record_prepack_hit() {
    if !obs::enabled() {
        return;
    }
    static HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    HITS.get_or_init(|| {
        obs::counter(
            "pragformer_prepack_hits_total",
            "f32 GEMMs served from pre-packed weight panels",
            &[],
        )
    })
    .inc();
}

/// `C[m×n] = A[m×k] · B` where `B`'s panels were packed once by
/// [`PackedWeights::pack`] — zero per-call pack work, bitwise identical
/// to [`matmul`] on the original matrix (see [`PackedWeights`]).
pub fn matmul_prepacked(simd: Simd, a: &Tensor, pw: &PackedWeights) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(k, pw.k, "matmul_prepacked inner dims: {:?} x [{}, {}]", a.shape(), pw.k, pw.n);
    let n = pw.n;
    record_gemm(OP_NN, simd, m, n, k);
    record_prepack_hit();
    let mut out = Tensor::zeros(&[m, n]);
    let a_d = a.data();
    // Every shape runs the packed microkernel (the panels already
    // exist); small-m inputs that matmul would route through the simple
    // kernel produce the same bits either way — the documented
    // packed/simple equivalence.
    par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
        let rows = chunk.len() / n;
        dispatch_packed(simd, &a_d[row0 * k..(row0 + rows) * k], k, &pw.panels, n, chunk);
    });
    out
}

/// `C[m×n] = A[m×k] · B[k×n]` without ever packing `B` — the simple
/// kernel on every shape, bitwise identical to [`matmul`].
///
/// For right-hand sides too transient to pre-pack (attention's per-call
/// head tiles): where [`matmul`] would pack per call, this skips the
/// `O(k·n)` panel build and its buffer entirely, keeping the
/// steady-state forward path free of `pragformer_pack_builds_total`
/// increments.
pub fn matmul_unpacked(simd: Simd, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_unpacked inner dims: {:?} x {:?}", a.shape(), b.shape());
    record_gemm(OP_NN, simd, m, n, k);
    let mut out = Tensor::zeros(&[m, n]);
    let (a_d, b_d) = (a.data(), b.data());
    par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
        let rows = chunk.len() / n;
        dispatch_simple(simd, &a_d[row0 * k..(row0 + rows) * k], k, b_d, n, chunk);
    });
    out
}

/// Dot product with a fixed four-lane accumulator split.
///
/// The lane assignment depends only on the index within the row, so for a
/// given `k` the reduction order is identical on every call — see the
/// module-level determinism notes.
#[inline]
fn dot4(x: &[f32], y: &[f32]) -> f32 {
    let xq = x.chunks_exact(4);
    let yq = y.chunks_exact(4);
    let (xr, yr) = (xq.remainder(), yq.remainder());
    let mut acc = [0.0f32; 4];
    for (xs, ys) in xq.zip(yq) {
        for l in 0..4 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&a, &b) in xr.iter().zip(yr) {
        sum += a * b;
    }
    sum
}

/// Below this `k`, the AVX2 tier's `matmul_nt` dots fall back to
/// [`dot4`]: one or two FMA blocks can't amortize the horizontal
/// reduction, and at tiny attention head dims (`d_head` 8-24) the scalar
/// four-lane split measures ~2× faster. The switch depends only on `k`,
/// so rows stay batch-invariant per tier.
const DOT_AVX2_MIN_K: usize = 32;

/// Row dot product on the requested instruction set: `dot4`'s fixed
/// four-lane split on scalar, eight FMA lanes on AVX2 (with the
/// [`DOT_AVX2_MIN_K`] short-operand fallback). Both depend only on the
/// operand values and `k`, keeping `matmul_nt` rows batch-invariant per
/// tier.
#[inline]
fn dispatch_dot(simd: Simd, x: &[f32], y: &[f32]) -> f32 {
    match simd {
        Simd::Scalar => dot4(x, y),
        Simd::Avx2 if x.len() < DOT_AVX2_MIN_K => dot4(x, y),
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                kernel::avx2::dot(x, y)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

/// `C[m×n] = A[m×k] · Bᵀ` where `B` is `[n×k]`, on `simd`.
///
/// Row-times-row dot products: both operands stream contiguously. Each
/// dot has a fixed reduction order per instruction set — see the module
/// docs.
pub fn matmul_nt(simd: Simd, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, kb) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_nt inner dims: {:?} x {:?}ᵀ", a.shape(), b.shape());
    record_gemm(OP_NT, simd, m, n, k);
    let mut out = Tensor::zeros(&[m, n]);
    let (a_d, b_d) = (a.data(), b.data());
    par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
        for (ri, c_row) in chunk.chunks_mut(n).enumerate() {
            let i = row0 + ri;
            let a_row = &a_d[i * k..(i + 1) * k];
            for (j, c) in c_row.iter_mut().enumerate() {
                *c = dispatch_dot(simd, a_row, &b_d[j * k..(j + 1) * k]);
            }
        }
    });
    out
}

/// Outer-product accumulation over a chunk of `matmul_tn` output rows
/// (the unpacked fallback, and the pre-PR-2 kernel). Ascending-`s`
/// single-chain accumulation per element — the same reduction order as
/// the packed path, so both produce bitwise-identical results.
fn tn_simple_rows(
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / n;
    for s in 0..m {
        let b_row = &b[s * n..(s + 1) * n];
        for r in 0..rows {
            let a_sk = a[s * k + row0 + r];
            let c_row = &mut chunk[r * n..(r + 1) * n];
            for (c, &b_sj) in c_row.iter_mut().zip(b_row) {
                *c += a_sk * b_sj;
            }
        }
    }
}

/// `C[k×n] = Aᵀ · B` where `A` is `[m×k]`, `B` is `[m×n]`.
///
/// Used for weight gradients `dW = Xᵀ·dY` (the training hot path).
/// Blocked the same way as [`matmul`]: `B` is packed into `NR`-wide
/// column panels and each worker gathers its `k`-slice of `Aᵀ` into
/// contiguous rows (`at[r][s] = A[s][row0+r]`, an `O(rows·m)` transpose
/// amortized over the `O(rows·m·n)` GEMM), then runs the same
/// `MR``×``NR``×``KB` microkernel as the forward pass. Tiny
/// outputs (`k <` `PACK_MIN_ROWS` or `n <` `NR`) skip the
/// packing/transpose and fall back to the outer-product loop.
///
/// Both paths accumulate every output element in a single chain,
/// ascending in the sample index `s`, so results are bitwise identical
/// (per instruction set) across paths, worker splits, and the
/// pre-blocking kernel.
pub fn matmul_tn(simd: Simd, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (mb, n) = (b.rows(), b.cols());
    assert_eq!(m, mb, "matmul_tn outer dims: {:?}ᵀ x {:?}", a.shape(), b.shape());
    record_gemm(OP_TN, simd, k, n, m);
    let mut out = Tensor::zeros(&[k, n]);
    let (a_d, b_d) = (a.data(), b.data());
    if k < PACK_MIN_ROWS || n < NR {
        par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
            dispatch_tn_simple(simd, a_d, m, k, row0, b_d, n, chunk);
        });
        return out;
    }
    let mut packed = scratch::take_zeroed(n.div_ceil(NR) * m * NR);
    pack_b_panels_into(b_d, m, n, &mut packed);
    par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
        tn_packed_rows(simd, a_d, m, k, row0, &packed, n, chunk);
    });
    scratch::give(packed);
    out
}

/// [`tn_simple_rows`] on the requested instruction set.
#[allow(clippy::too_many_arguments)]
fn dispatch_tn_simple(
    simd: Simd,
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    match simd {
        Simd::Scalar => tn_simple_rows(a, m, k, row0, b, n, chunk),
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            kernel::avx2::tn_simple_rows(a, m, k, row0, b, n, chunk);
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

/// Packed-path body of [`matmul_tn`] for one worker's chunk of output
/// rows `row0 .. row0 + chunk.len()/n`: gathers the worker's columns of
/// `A` as contiguous rows (`at[r][s] = A[s][row0+r]`), then runs the
/// shared microkernel. Split out so tests can drive nonzero `row0`
/// directly — on machines where the pool runs inline (1 core), the
/// public entry point only ever produces a single `row0 = 0` chunk.
#[allow(clippy::too_many_arguments)]
fn tn_packed_rows(
    simd: Simd,
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    packed: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / n;
    let mut at = scratch::take_zeroed(rows * m);
    for s in 0..m {
        let a_slice = &a[s * k + row0..s * k + row0 + rows];
        for (r, &v) in a_slice.iter().enumerate() {
            at[r * m + s] = v;
        }
    }
    dispatch_packed(simd, &at, m, packed, n, chunk);
    scratch::give(at);
}

/// Reference `C = A · B`: textbook triple loop, no blocking, no packing,
/// no parallelism, always scalar (plan-independent). Kept strictly as
/// the cross-tier oracle for the GEMM property tests and the kernel
/// benchmarks' baseline — never call it on a hot path.
#[doc(hidden)]
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_naive inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Adds a `[n]` bias vector to every row of a `[m×n]` tensor, in place.
pub fn add_bias(x: &mut Tensor, bias: &Tensor) {
    let n = x.cols();
    assert_eq!(bias.len(), n, "bias length {} vs {} cols", bias.len(), n);
    let b = bias.data();
    for row in x.data_mut().chunks_mut(n) {
        for (v, bv) in row.iter_mut().zip(b) {
            *v += *bv;
        }
    }
}

/// Column-wise sum of a `[m×n]` tensor → `[n]` (bias gradient).
pub fn sum_rows(x: &Tensor) -> Tensor {
    let n = x.cols();
    let mut out = Tensor::zeros(&[n]);
    let o = out.data_mut();
    for row in x.data().chunks(n) {
        for (acc, v) in o.iter_mut().zip(row) {
            *acc += *v;
        }
    }
    out
}

/// Largest input [`exp_approx`] flushes to zero (≈ `ln(f32::MIN_POSITIVE)`);
/// below this, `e^x` is at best denormal and softmax treats it as an
/// exact additive zero anyway.
pub(crate) const EXP_UNDERFLOW: f32 = -87.336_54;

/// Largest input [`exp_approx`] evaluates; above this (`e^x > ~3.1e38`)
/// it returns `+∞` like `f32::exp` effectively does at `f32` precision.
pub(crate) const EXP_OVERFLOW: f32 = 88.0;

/// Deterministic polynomial `e^x` — the softmax kernel's `exp`.
///
/// libm's `expf` was ~6.8 µs per 2304-element attention softmax, a
/// visible slice of inference after the GEMMs were blocked (PR 1). This
/// replacement is the classic vectorizable recipe: round `x / ln 2` to an
/// integer `k`, reduce `r = x − k·ln 2` with a two-constant (hi/lo)
/// subtraction so `|r| ≤ ½ln 2` stays accurate, evaluate a degree-7
/// Taylor/Horner polynomial in `r`, and scale by `2^k` through exponent
/// bits. No tables, no libm, no FMA dependence.
///
/// Properties the softmax contract needs:
///
/// * **Pure and deterministic** — a function of the input bits alone
///   (two range guards plus a branch-free core), so results are
///   bit-stable across batch composition, padding length, thread count
///   and call site (the row-determinism contract every batched ==
///   sequential test pins).
/// * **Accurate** — within a few ULP of `f32::exp` on the evaluated
///   domain; `tests/proptests.rs` pins the maximum observed ULP distance.
/// * **Softmax-safe tails** — inputs below `EXP_UNDERFLOW` (where
///   `f32::exp` is at best denormal) flush to exactly `0.0`, inputs above
///   `EXP_OVERFLOW` saturate to `+∞`, and `NaN` propagates.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    if x < EXP_UNDERFLOW {
        return 0.0; // also reached by -∞
    }
    if x > EXP_OVERFLOW {
        return if x.is_nan() { x } else { f32::INFINITY };
    }
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln 2 split so `k * LN2_HI` is exact for |k| < 2^15 (LN2_HI carries
    // only 17 mantissa bits) and the reduction error lives in the tiny
    // LN2_LO term.
    const LN2_HI: f32 = 0.693_145_75;
    const LN2_LO: f32 = 1.428_606_8e-6;
    let k = (x * LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Degree-7 Taylor of e^r on |r| ≤ ½ln2: the truncation remainder
    // (r⁸/8! ≈ 5e-10 relative) sits far below f32 rounding noise.
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))))));
    // 2^k via exponent bits: k ∈ [-126, 127] on the accepted domain.
    let scale = f32::from_bits((((k as i32) + 127) as u32) << 23);
    p * scale
}

/// Records `rows` masked-softmax rows into
/// `pragformer_softmax_rows_total{simd}` — attention's
/// per-row throughput signal. Registry lookups happen only on the first
/// call per simd; afterwards this is an enabled check plus one relaxed
/// atomic add.
#[inline]
fn record_softmax_rows(simd: Simd, rows: usize) {
    if !obs::enabled() {
        return;
    }
    static CELLS: [OnceLock<Arc<obs::Counter>>; 2] = [const { OnceLock::new() }; 2];
    CELLS[simd as usize]
        .get_or_init(|| {
            obs::counter(
                "pragformer_softmax_rows_total",
                "Masked softmax rows processed by the row-softmax kernels",
                &[("simd", simd.name())],
            )
        })
        .add(rows as u64);
}

/// One numerically-stable softmax over `row[..valid]`, zeroing the tail.
///
/// The single row body shared by [`softmax_rows`] and
/// [`softmax_rows_uniform`] — `advise_batch`'s bitwise batched ==
/// sequential contract depends on every masked softmax running exactly
/// this arithmetic (including [`exp_approx`], its polynomial `exp`).
#[inline]
fn softmax_row(row: &mut [f32], valid: usize) {
    if valid == 0 {
        row.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let m = row[..valid].iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for v in &mut row[..valid] {
        *v = exp_approx(*v - m);
        z += *v;
    }
    let inv = 1.0 / z;
    for v in &mut row[..valid] {
        *v *= inv;
    }
    for v in &mut row[valid..] {
        *v = 0.0;
    }
}

/// Numerically-stable softmax over the last dimension, in place.
///
/// `row_valid` optionally limits each row to its first `row_valid[r]`
/// entries; the rest are forced to probability 0 (padding-mask
/// semantics). Runs on the default plan's instruction set — its callers
/// are the training losses.
pub fn softmax_rows(x: &mut Tensor, row_valid: Option<&[usize]>) {
    let n = x.cols();
    dispatch_softmax(kernel::active_simd(), x, &mut |r| row_valid.map_or(n, |v| v[r].min(n)));
}

/// [`softmax_rows`] with the same valid-prefix for every row (attention's
/// per-sequence padding mask) — avoids materializing a per-row mask
/// vector on the hot path. Runs on `simd`.
pub fn softmax_rows_uniform(simd: Simd, x: &mut Tensor, valid: usize) {
    let valid = valid.min(x.cols());
    dispatch_softmax(simd, x, &mut |_| valid);
}

/// Row softmax of `x` on `simd`, row `r` valid up to `valid_of(r)`.
fn dispatch_softmax(simd: Simd, x: &mut Tensor, valid_of: &mut dyn FnMut(usize) -> usize) {
    let n = x.cols();
    record_softmax_rows(simd, x.rows());
    match simd {
        Simd::Scalar => {
            for (r, row) in x.data_mut().chunks_mut(n).enumerate() {
                softmax_row(row, valid_of(r));
            }
        }
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            kernel::avx2::softmax_rows(x.data_mut(), n, valid_of);
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

/// Backward of row-softmax: given probabilities `p` and upstream `dp`,
/// returns `dlogits = p ⊙ (dp − (dp·p))` row by row.
pub fn softmax_backward(p: &Tensor, dp: &Tensor) -> Tensor {
    assert_eq!(p.shape(), dp.shape());
    let n = p.cols();
    let mut out = Tensor::zeros(&[p.rows(), n]);
    for ((p_row, dp_row), o_row) in
        p.data().chunks(n).zip(dp.data().chunks(n)).zip(out.data_mut().chunks_mut(n))
    {
        let dot: f32 = p_row.iter().zip(dp_row).map(|(a, b)| a * b).sum();
        for ((o, &pv), &dv) in o_row.iter_mut().zip(p_row).zip(dp_row) {
            *o = pv * (dv - dot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::active_simd;

    fn t(shape: &[usize], v: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, v)
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(active_simd(), &a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], vec![3., 1., 4., 1.]);
        let i = t(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(matmul(active_simd(), &a, &i), a);
        assert_eq!(matmul(active_simd(), &i, &a), a);
    }

    #[test]
    fn nt_and_tn_agree_with_explicit_transpose() {
        let mut rng = crate::init::SeededRng::new(11);
        let a = Tensor::randn(&[5, 7], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 7], 1.0, &mut rng);
        let c1 = matmul_nt(active_simd(), &a, &b);
        let c2 = matmul(active_simd(), &a, &b.transpose2());
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert!((x - y).abs() < 1e-4);
        }
        let d = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let e1 = matmul_tn(active_simd(), &a, &d);
        let e2 = matmul(active_simd(), &a.transpose2(), &d);
        for (x, y) in e1.data().iter().zip(e2.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn large_matmul_parallel_matches_serial_reference() {
        let mut rng = crate::init::SeededRng::new(2);
        let a = Tensor::randn(&[67, 33], 1.0, &mut rng);
        let b = Tensor::randn(&[33, 41], 1.0, &mut rng);
        let c = matmul(active_simd(), &a, &b);
        // Naive reference.
        for i in 0..67 {
            for j in 0..41 {
                let mut acc = 0.0f32;
                for k in 0..33 {
                    acc += a.at2(i, k) * b.at2(k, j);
                }
                assert!((c.at2(i, j) - acc).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    #[test]
    fn matmul_rows_are_bitwise_stable_across_batch_sizes() {
        // The property advise_batch relies on: row i of a large GEMM is
        // bit-identical to the same row computed through a 1-row GEMM,
        // even though the two take different (packed vs simple) paths.
        // Checked on every instruction set this CPU has.
        let mut rng = crate::init::SeededRng::new(7);
        let a = Tensor::randn(&[64, 48], 1.0, &mut rng);
        let b = Tensor::randn(&[48, 96], 1.0, &mut rng);
        for simd in kernel::available_simds() {
            let big = matmul(simd, &a, &b);
            for i in [0usize, 1, 31, 63] {
                let single = matmul(simd, &a.slice_rows(i, 1), &b);
                assert_eq!(
                    big.row(i),
                    single.row(0),
                    "{}: row {i} differs across batch sizes",
                    simd.name()
                );
            }
            // Mid-sized batch takes the packed path too; also must agree.
            let mid = matmul(simd, &a.slice_rows(16, 8), &b);
            for r in 0..8 {
                assert_eq!(big.row(16 + r), mid.row(r), "{}", simd.name());
            }
        }
    }

    #[test]
    fn packed_path_matches_naive_reference() {
        let mut rng = crate::init::SeededRng::new(8);
        for (m, k, n) in [(1, 7, 5), (4, 8, 8), (13, 17, 23), (64, 33, 41), (5, 1, 9)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = matmul(active_simd(), &a, &b);
            let slow = matmul_naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_rows_and_columns_are_handled_densely() {
        // The old kernel skipped a_ik == 0.0; the dense kernel must still
        // produce exact zeros where they belong.
        let a = t(&[2, 3], vec![0., 0., 0., 1., 0., 2.]);
        let b = t(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let c = matmul(active_simd(), &a, &b);
        assert_eq!(c.data(), &[0., 0., 11., 14.]);
    }

    /// Drives the worker-split path of `matmul_tn` (nonzero `row0`
    /// gather offsets) directly: on 1-core machines `par_rows_mut` runs
    /// inline and the public entry point never splits, so this is the
    /// only coverage of multi-chunk gathers there. Uneven splits cross
    /// the MR remainder inside each chunk.
    #[test]
    fn matmul_tn_worker_chunks_reassemble_bitwise() {
        let mut rng = crate::init::SeededRng::new(13);
        let (m, k, n) = (37, 129, 33);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[m, n], 1.0, &mut rng);
        for simd in kernel::available_simds() {
            let whole = matmul_tn(simd, &a, &b);
            // Anchor against the naive ascending-s reference with the
            // tier's own multiply-add (plain on scalar, fused on avx2 —
            // `f32::mul_add` matches the vector FMA lanes bitwise).
            for i in 0..k {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for s in 0..m {
                        let (av, bv) = (a.data()[s * k + i], b.data()[s * n + j]);
                        acc = match simd {
                            Simd::Scalar => acc + av * bv,
                            Simd::Avx2 => av.mul_add(bv, acc),
                        };
                    }
                    assert_eq!(
                        whole.data()[i * n + j].to_bits(),
                        acc.to_bits(),
                        "{}: ({i},{j})",
                        simd.name()
                    );
                }
            }
            let packed = pack_b_panels(b.data(), m, n);
            for chunk_rows in [1usize, 5, 64, 129] {
                let mut pieced = vec![0.0f32; k * n];
                let mut row0 = 0;
                while row0 < k {
                    let rows = chunk_rows.min(k - row0);
                    let chunk = &mut pieced[row0 * n..(row0 + rows) * n];
                    tn_packed_rows(simd, a.data(), m, k, row0, &packed, n, chunk);
                    row0 += rows;
                }
                for (i, (x, y)) in pieced.iter().zip(whole.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{}: chunk_rows {chunk_rows}, elem {i}: {x} vs {y}",
                        simd.name()
                    );
                }
            }
        }
    }

    /// The prepacked contract: for every tier and shape class (packed
    /// path, small-m simple path, narrow-n simple path, k=1 edge),
    /// `matmul_prepacked` and `matmul_unpacked` reproduce `matmul` bit
    /// for bit.
    #[test]
    fn prepacked_and_unpacked_match_matmul_bitwise() {
        let mut rng = crate::init::SeededRng::new(21);
        for (m, k, n) in
            [(1, 7, 5), (2, 16, 12), (4, 8, 8), (13, 17, 23), (64, 33, 41), (5, 1, 9), (3, 24, 64)]
        {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let pw = PackedWeights::pack(&b);
            assert_eq!((pw.k(), pw.n()), (k, n));
            assert_eq!(pw.bytes(), PackedWeights::bytes_for(k, n));
            for simd in kernel::available_simds() {
                let base = matmul(simd, &a, &b);
                let pre = matmul_prepacked(simd, &a, &pw);
                let unp = matmul_unpacked(simd, &a, &b);
                assert_eq!(pre.shape(), base.shape());
                assert_eq!(unp.shape(), base.shape());
                for (i, (x, y)) in base.data().iter().zip(pre.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{}: prepacked {m}x{k}x{n} elem {i}: {x} vs {y}",
                        simd.name()
                    );
                }
                for (i, (x, y)) in base.data().iter().zip(unp.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{}: unpacked {m}x{k}x{n} elem {i}: {x} vs {y}",
                        simd.name()
                    );
                }
            }
        }
    }

    /// Drives the prepacked worker-split path (nonzero `row0` offsets)
    /// directly, like the `matmul_tn` twin below: on 1-core machines the
    /// pool runs inline and the public entry point never splits.
    #[test]
    fn prepacked_worker_chunks_reassemble_bitwise() {
        let mut rng = crate::init::SeededRng::new(22);
        let (m, k, n) = (129, 48, 33);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let pw = PackedWeights::pack(&b);
        for simd in kernel::available_simds() {
            let whole = matmul_prepacked(simd, &a, &pw);
            for chunk_rows in [1usize, 5, 64, 129] {
                let mut pieced = vec![0.0f32; m * n];
                let mut row0 = 0;
                while row0 < m {
                    let rows = chunk_rows.min(m - row0);
                    let chunk = &mut pieced[row0 * n..(row0 + rows) * n];
                    dispatch_packed(
                        simd,
                        &a.data()[row0 * k..(row0 + rows) * k],
                        k,
                        &pw.panels,
                        n,
                        chunk,
                    );
                    row0 += rows;
                }
                for (i, (x, y)) in pieced.iter().zip(whole.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{}: chunk_rows {chunk_rows}, elem {i}: {x} vs {y}",
                        simd.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bias_and_row_sum_are_inverse_shapes() {
        let mut x = t(&[2, 3], vec![0.; 6]);
        let b = t(&[3], vec![1., 2., 3.]);
        add_bias(&mut x, &b);
        assert_eq!(x.data(), &[1., 2., 3., 1., 2., 3.]);
        assert_eq!(sum_rows(&x).data(), &[2., 4., 6.]);
    }

    /// ULP distance between two finite positive f32s.
    fn ulp_distance(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_approx_tracks_exp_within_a_few_ulp() {
        // Dense sweep over the softmax-relevant domain (inputs ≤ 0) and
        // the positive side up to overflow.
        let mut max_ulp = 0u32;
        let mut worst = 0.0f32;
        let mut x = -87.3f32;
        while x < 88.0 {
            let got = exp_approx(x);
            let want = x.exp();
            let d = ulp_distance(got, want);
            if d > max_ulp {
                max_ulp = d;
                worst = x;
            }
            x += 0.0137; // irrational-ish step: no lattice alignment
        }
        assert!(max_ulp <= 4, "max ULP {max_ulp} at x = {worst}");
    }

    #[test]
    fn exp_approx_edges() {
        assert_eq!(exp_approx(0.0), 1.0);
        assert_eq!(exp_approx(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_approx(-1.0e9), 0.0);
        assert_eq!(exp_approx(-100.0), 0.0, "sub-denormal range flushes to exact zero");
        assert_eq!(exp_approx(1.0e9), f32::INFINITY);
        assert!(exp_approx(f32::NAN).is_nan());
        // Near the underflow knee the result is tiny but finite.
        let knee = exp_approx(-87.0);
        assert!(knee > 0.0 && knee < 2.0e-38, "{knee}");
    }

    #[test]
    fn exp_approx_is_bit_deterministic() {
        for x in [-50.0f32, -3.7, -0.2, 0.0] {
            assert_eq!(exp_approx(x).to_bits(), exp_approx(x).to_bits());
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_respect_mask() {
        let mut x = t(&[2, 4], vec![1., 2., 3., 4., 10., 0., 0., 0.]);
        softmax_rows(&mut x, Some(&[4, 2]));
        let s0: f32 = x.row(0).iter().sum();
        let s1: f32 = x.row(1).iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
        assert_eq!(x.at2(1, 2), 0.0);
        assert_eq!(x.at2(1, 3), 0.0);
        assert!(x.at2(0, 3) > x.at2(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = t(&[1, 3], vec![1., 2., 3.]);
        let mut b = t(&[1, 3], vec![101., 102., 103.]);
        softmax_rows(&mut a, None);
        softmax_rows(&mut b, None);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = t(&[1, 4], vec![0.3, -0.7, 1.2, 0.1]);
        let upstream = t(&[1, 4], vec![0.5, -1.0, 0.25, 2.0]);
        let mut p = logits.clone();
        softmax_rows(&mut p, None);
        let analytic = softmax_backward(&p, &upstream);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            softmax_rows(&mut lp, None);
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            softmax_rows(&mut lm, None);
            let mut num = 0.0f32;
            for j in 0..4 {
                num += upstream.data()[j] * (lp.data()[j] - lm.data()[j]) / (2.0 * eps);
            }
            assert!(
                (num - analytic.data()[i]).abs() < 1e-3,
                "i={i} numeric={num} analytic={}",
                analytic.data()[i]
            );
        }
    }
}
