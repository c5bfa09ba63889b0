//! Per-channel symmetric int8 quantization for the int8 inference plans
//! ([`KernelTier::Int8`]).
//!
//! [`QuantizedMatrix`] stores a weight matrix as `i8` values in the same
//! `NR`-wide k-major column panels `ops::pack_b_panels` builds for f32,
//! with one f32 scale per *output column* (per channel): column `j` of
//! the original matrix is `q[p][j] * scales[j]` with
//! `scales[j] = max_p |w[p][j]| / 127` — symmetric, zero-point-free, so
//! the quantized GEMM needs no offset corrections.
//!
//! [`QuantizedActivations`] quantizes activation rows dynamically (one
//! scale per row) into scratch-backed `i8` buffers — built **once** per
//! activation matrix and fed to every GEMM consumer (the attention
//! Q/K/V projections share one), so steady-state int8 inference
//! allocates nothing and requantizes nothing twice.
//! [`matmul_quant_reuse`] consumes them: exact `i32` panel dots — the
//! contraction lengths in this codebase (`k ≤ a few hundred`) keep
//! `Σ |qa·qb| ≤ 127²·k` far below `i32::MAX`, so integer accumulation
//! is associative and order-free — then one f32 rescale per output
//! element with the bias / GELU / residual epilogue fused in
//! ([`QuantEpilogue`]). [`matmul_quant`] is the convenience wrapper
//! (quantize, multiply, recycle).
//!
//! The integer kernels dispatch on the plan's
//! [`int8_simd`](super::InferencePlan::int8_simd): the AVX2 path
//! (`_mm256_madd_epi16` microkernels in `super::avx2`) is **bitwise
//! identical** to the scalar `i32` loops — quantization rounds
//! ties-to-even on both, the dot is exact on both, and the epilogues
//! use the same FMA contractions — pinned by
//! `tests/int8_kernel_proptests.rs`. Because the integer dot is exact
//! and a row's quantization depends only on the row's own values,
//! quantized results are also bitwise invariant to batch size, padding
//! and worker splits: the same per-tier contract the float kernels
//! uphold, here for free.
//!
//! This tier is **inference-only**: quantized caches never participate
//! in backward passes (the nn layers assert this), and accuracy is gated
//! end-to-end by the `run_int8_parity` harness rather than per-op error
//! bounds. The per-op guarantee tests pin is the round-trip bound
//! `|w − dequant(quant(w))| ≤ scale/2` per element.
//!
//! [`KernelTier::Int8`]: super::KernelTier::Int8

use super::{InferencePlan, Simd};
use crate::{scratch, Tensor};
use pragformer_obs as obs;
use std::sync::{Arc, OnceLock};

/// Panel width — matches `ops::NR` so the int8 panels mirror the f32
/// packing layout.
pub(crate) const NR: usize = 8;

/// Quantization range: symmetric `[-127, 127]` (−128 is unused so the
/// range is symmetric and `-q` is always representable).
pub(crate) const QMAX: f32 = 127.0;

/// Minimum output rows per worker for the parallel int8 GEMM — same
/// granularity the f32 `ops::matmul` uses.
const MIN_ROWS_PER_THREAD: usize = 32;

/// A `k × n` weight matrix quantized per output column to `i8`, packed
/// into `NR`-wide k-major column panels (zero-padded in the last panel).
#[derive(Clone, Debug)]
pub struct QuantizedMatrix {
    k: usize,
    n: usize,
    /// `⌈n/NR⌉` panels, each `k × NR`, k-major: element `(p, c)` of panel
    /// `jp` is column `jp*NR + c` at row `p`.
    panels: Vec<i8>,
    /// Per-column scales, length `n`; `scales[j] = amax_j / 127`
    /// (`0.0` for an all-zero column).
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a `[k × n]` f32 matrix per output column.
    pub fn quantize(w: &Tensor) -> QuantizedMatrix {
        let (k, n) = (w.rows(), w.cols());
        let d = w.data();
        let mut scales = vec![0.0f32; n];
        let mut invs = vec![0.0f32; n];
        for j in 0..n {
            let mut amax = 0.0f32;
            for p in 0..k {
                amax = amax.max(d[p * n + j].abs());
            }
            if amax > 0.0 {
                scales[j] = amax / QMAX;
                invs[j] = QMAX / amax;
            }
        }
        let panels_count = n.div_ceil(NR);
        let mut panels = vec![0i8; panels_count * k * NR];
        for jp in 0..panels_count {
            let j0 = jp * NR;
            let w_cols = NR.min(n - j0);
            let panel = &mut panels[jp * k * NR..(jp + 1) * k * NR];
            for p in 0..k {
                for c in 0..w_cols {
                    let j = j0 + c;
                    panel[p * NR + c] = quantize_value(d[p * n + j], invs[j]);
                }
            }
        }
        record_weight_quant_build();
        QuantizedMatrix { k, n, panels, scales }
    }

    /// Rows of the original matrix (the contraction length).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the original matrix (output channels).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-column scales (length [`n`](Self::n)).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstructs the f32 matrix (`q * scale` per element) — the value
    /// the round-trip error-bound tests compare against the original.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.k, self.n]);
        let o = out.data_mut();
        for jp in 0..self.n.div_ceil(NR) {
            let j0 = jp * NR;
            let w = NR.min(self.n - j0);
            let panel = &self.panels[jp * self.k * NR..(jp + 1) * self.k * NR];
            for p in 0..self.k {
                for c in 0..w {
                    o[p * self.n + j0 + c] = panel[p * NR + c] as f32 * self.scales[j0 + c];
                }
            }
        }
        out
    }

    /// Bytes this quantized form occupies (i8 panels + f32 scales).
    pub fn bytes(&self) -> usize {
        self.panels.len() + self.scales.len() * 4
    }

    /// [`bytes`](Self::bytes) for a `k × n` matrix without building it —
    /// static weight-memory accounting.
    pub fn bytes_for(k: usize, n: usize) -> usize {
        n.div_ceil(NR) * k * NR + n * 4
    }
}

/// `round_ties_even(v * inv)` clamped to the symmetric i8 range.
/// Ties-to-even is the rounding `_mm256_cvtps_epi32` performs, which is
/// what keeps the AVX2 quantizer bitwise identical to this one.
#[inline]
pub(crate) fn quantize_value(v: f32, inv: f32) -> i8 {
    (v * inv).round_ties_even().clamp(-QMAX, QMAX) as i8
}

/// Quantizes one activation row symmetrically (scalar path); returns
/// its scale. An all-zero row quantizes to zeros with scale `0.0`.
pub(crate) fn quantize_row(row: &[f32], out: &mut [i8]) -> f32 {
    let amax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if amax == 0.0 {
        out.iter_mut().for_each(|q| *q = 0);
        return 0.0;
    }
    let inv = QMAX / amax;
    for (q, &v) in out.iter_mut().zip(row) {
        *q = quantize_value(v, inv);
    }
    amax / QMAX
}

/// [`quantize_row`] on `simd` (both produce the same bits; the dispatch
/// is purely a speed choice).
fn dispatch_quantize_row(simd: Simd, row: &[f32], out: &mut [i8]) -> f32 {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => super::avx2::quantize_row(row, out),
        #[cfg(not(target_arch = "x86_64"))]
        Simd::Avx2 => unreachable!("avx2 int8 simd selected on a non-x86_64 build"),
        Simd::Scalar => quantize_row(row, out),
    }
}

/// An activation matrix quantized per row to `i8`, built **once** and
/// fed to every quantized GEMM that consumes the same activations
/// (`matmul_quant_reuse`). Buffers ride the [`crate::scratch`] arena's
/// i8/f32 lanes — call [`recycle`](Self::recycle) when the last
/// consumer is done so steady state allocates nothing.
pub struct QuantizedActivations {
    m: usize,
    k: usize,
    /// Row-major `i8` values, `m × k` (scratch-backed).
    data: Vec<i8>,
    /// Per-row scales, length `m` (scratch-backed).
    scales: Vec<f32>,
}

impl QuantizedActivations {
    /// Quantizes a `[m × k]` activation matrix per row on `simd` — a
    /// plan's [`int8_simd`](InferencePlan::int8_simd). Both instruction
    /// sets give the same bits.
    pub fn quantize(simd: Simd, a: &Tensor) -> QuantizedActivations {
        let (m, k) = (a.rows(), a.cols());
        let d = a.data();
        let mut data = scratch::take_i8(m * k);
        data.resize(m * k, 0);
        let mut scales = scratch::take(m);
        for i in 0..m {
            scales.push(dispatch_quantize_row(
                simd,
                &d[i * k..(i + 1) * k],
                &mut data[i * k..(i + 1) * k],
            ));
        }
        record_quantize_rows(m);
        QuantizedActivations { m, k, data, scales }
    }

    /// Activation rows.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns per row (the GEMM contraction length).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parks both buffers back in the scratch arena for the next
    /// quantization. (Dropping instead is correct but re-allocates.)
    pub fn recycle(self) {
        scratch::give_i8(self.data);
        scratch::give(self.scales);
    }

    /// Bytes a `rows × k` quantized activation matrix occupies (i8
    /// values + f32 row scales) — static scratch-memory accounting.
    pub fn bytes_for(rows: usize, k: usize) -> usize {
        rows * k + rows * 4
    }
}

/// The epilogue fused into the quantized GEMM's dequantize pass: what
/// would otherwise be 1–2 extra passes over the f32 output (bias add,
/// GELU, residual add) happens while the freshly dequantized row is hot.
///
/// The GELU variant dispatches on the plan's **float**
/// [`simd`](InferencePlan::simd) (not its int8 sub-simd), so `int8` and
/// `int8-scalar` stay bitwise identical on one machine.
#[derive(Clone, Copy)]
pub enum QuantEpilogue<'a> {
    /// Plain dequantize: `C = acc · (a_scale · b_scale)`.
    None,
    /// `C = acc ⊗ scales + bias` (one FMA per element).
    Bias(&'a [f32]),
    /// [`Bias`](Self::Bias), then tanh-GELU in place.
    BiasGelu(&'a [f32]),
    /// [`Bias`](Self::Bias), then `+ residual` (`m × n`, the layer
    /// input of a residual block).
    BiasResidual(&'a [f32], &'a [f32]),
}

/// `C[m×n] = A[m×k] · dequant(QB)` computed in int8: dynamic per-row
/// activation quantization, exact `i32` panel dot products, one f32
/// rescale per output element. Convenience wrapper over
/// [`QuantizedActivations`] + [`matmul_quant_reuse`] (quantize,
/// multiply, recycle) for single-consumer call sites and tests.
pub fn matmul_quant(plan: InferencePlan, a: &Tensor, qb: &QuantizedMatrix) -> Tensor {
    let qa = QuantizedActivations::quantize(plan.int8_simd(), a);
    let out = matmul_quant_reuse(plan, &qa, qb, QuantEpilogue::None);
    qa.recycle();
    out
}

/// The quantized GEMM over pre-quantized activations, with the
/// dequantize epilogue fused: `C[m×n] = epilogue(QA · QB)`. The integer
/// kernels run on the plan's [`int8_simd`](InferencePlan::int8_simd),
/// the GELU epilogue on its float [`simd`](InferencePlan::simd). Row
/// chunks run on the worker pool (the integer dot is exact, so the
/// split is invisible in the bits).
pub fn matmul_quant_reuse(
    plan: InferencePlan,
    qa: &QuantizedActivations,
    qb: &QuantizedMatrix,
    epilogue: QuantEpilogue,
) -> Tensor {
    let (m, k) = (qa.m, qa.k);
    assert_eq!(k, qb.k, "matmul_quant inner dims: {m}x{k} x {}x{}", qb.k, qb.n);
    let n = qb.n;
    let (bias, residual, gelu) = match epilogue {
        QuantEpilogue::None => (None, None, false),
        QuantEpilogue::Bias(b) => (Some(b), None, false),
        QuantEpilogue::BiasGelu(b) => (Some(b), None, true),
        QuantEpilogue::BiasResidual(b, r) => (Some(b), Some(r), false),
    };
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "epilogue bias length");
    }
    if let Some(r) = residual {
        assert_eq!(r.len(), m * n, "epilogue residual shape");
    }
    let (simd, float_simd) = (plan.int8_simd(), plan.simd());
    record_int8_gemm(simd, m, n, k);
    let mut out = Tensor::zeros(&[m, n]);
    crate::parallel::par_rows_mut(out.data_mut(), n, MIN_ROWS_PER_THREAD, |row0, chunk| {
        let rows = chunk.len() / n;
        let qa_chunk = &qa.data[row0 * k..(row0 + rows) * k];
        let scales_chunk = &qa.scales[row0..row0 + rows];
        let res_chunk = residual.map(|r| &r[row0 * n..(row0 + rows) * n]);
        match simd {
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => super::avx2::quant_gemm_rows(
                qa_chunk,
                scales_chunk,
                k,
                &qb.panels,
                &qb.scales,
                n,
                bias,
                res_chunk,
                chunk,
            ),
            #[cfg(not(target_arch = "x86_64"))]
            Simd::Avx2 => unreachable!("avx2 int8 simd selected on a non-x86_64 build"),
            Simd::Scalar => quant_gemm_rows_scalar(
                qa_chunk,
                scales_chunk,
                k,
                &qb.panels,
                &qb.scales,
                n,
                bias,
                res_chunk,
                chunk,
            ),
        }
        if gelu {
            crate::nn::activation::gelu_in_place(float_simd, chunk);
        }
    });
    out
}

/// The scalar int8 panel GEMM over a chunk of output rows, epilogue
/// fused — the reference the AVX2 kernel is bitwise-pinned against.
#[allow(clippy::too_many_arguments)]
fn quant_gemm_rows_scalar(
    qa: &[i8],
    a_scales: &[f32],
    k: usize,
    panels: &[i8],
    b_scales: &[f32],
    n: usize,
    bias: Option<&[f32]>,
    residual: Option<&[f32]>,
    c_chunk: &mut [f32],
) {
    let rows = c_chunk.len() / n;
    let panels_count = n.div_ceil(NR);
    for i in 0..rows {
        let qa_row = &qa[i * k..(i + 1) * k];
        let a_scale = a_scales[i];
        for jp in 0..panels_count {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let panel = &panels[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [0i32; NR];
            for (p, &qa_v) in qa_row.iter().enumerate() {
                let stripe = &panel[p * NR..(p + 1) * NR];
                for c in 0..NR {
                    acc[c] += qa_v as i32 * stripe[c] as i32;
                }
            }
            for (c, &lane) in acc.iter().enumerate().take(w) {
                let j = j0 + c;
                let s = a_scale * b_scales[j];
                let mut v = match bias {
                    Some(b) => (lane as f32).mul_add(s, b[j]),
                    None => lane as f32 * s,
                };
                if let Some(res) = residual {
                    v += res[i * n + j];
                }
                c_chunk[i * n + j] = v;
            }
        }
    }
}

/// Advances `pragformer_quantize_rows_total` — how many activation rows
/// were dynamically quantized (the quantize-once reuse shows up here as
/// fewer rows per forward).
fn record_quantize_rows(rows: usize) {
    if rows == 0 || !obs::enabled() {
        return;
    }
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        obs::counter(
            "pragformer_quantize_rows_total",
            "Activation rows dynamically quantized to i8",
            &[],
        )
    })
    .add(rows as u64);
}

/// Advances the weight-quantization build counter — steady-state int8
/// inference must not rebuild quantized weights
/// (`examples/profile.rs` asserts a zero delta after warm-up).
fn record_weight_quant_build() {
    if !obs::enabled() {
        return;
    }
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        obs::counter(
            "pragformer_weight_quant_builds_total",
            "Weight matrices / embedding tables quantized to i8",
            &[],
        )
    })
    .inc();
}

/// Cached handles for the per-simd int8 GEMM counters (same idiom as
/// `ops::record_gemm`: registry lookups happen once per series).
struct Int8GemmCounters {
    calls: Arc<obs::Counter>,
    flops: Arc<obs::Counter>,
}

/// Advances `pragformer_int8_gemm_{calls,flops}_total{simd}`.
fn record_int8_gemm(simd: Simd, m: usize, n: usize, k: usize) {
    if !obs::enabled() {
        return;
    }
    static CELLS: [OnceLock<Int8GemmCounters>; 2] = [OnceLock::new(), OnceLock::new()];
    let c = CELLS[simd as usize].get_or_init(|| Int8GemmCounters {
        calls: obs::counter(
            "pragformer_int8_gemm_calls_total",
            "Quantized int8 GEMM invocations",
            &[("simd", simd.name())],
        ),
        flops: obs::counter(
            "pragformer_int8_gemm_flops_total",
            "Int8 multiply-accumulate ops (2·m·n·k) executed by quantized GEMMs",
            &[("simd", simd.name())],
        ),
    });
    c.calls.inc();
    c.flops.add(2 * (m as u64) * (n as u64) * (k as u64));
}

/// An embedding table quantized per *row* to `i8` (each row is one
/// token's vector, so per-row scaling is the per-channel choice here).
#[derive(Clone, Debug)]
pub struct QuantizedEmbedding {
    rows: usize,
    dim: usize,
    /// Row-major `i8` values, `rows × dim`.
    data: Vec<i8>,
    /// Per-row scales, length `rows`.
    scales: Vec<f32>,
}

impl QuantizedEmbedding {
    /// Quantizes a `[rows × dim]` table per row.
    pub fn quantize(table: &Tensor) -> QuantizedEmbedding {
        let (rows, dim) = (table.rows(), table.cols());
        let d = table.data();
        let mut data = vec![0i8; rows * dim];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            scales[r] = quantize_row(&d[r * dim..(r + 1) * dim], &mut data[r * dim..(r + 1) * dim]);
        }
        record_weight_quant_build();
        QuantizedEmbedding { rows, dim, data, scales }
    }

    /// Table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Writes the dequantized row `r` into `out` (`out.len() == dim`).
    pub fn write_row(&self, r: usize, out: &mut [f32]) {
        assert!(r < self.rows, "embedding row {r} out of range {}", self.rows);
        let s = self.scales[r];
        for (o, &q) in out.iter_mut().zip(&self.data[r * self.dim..(r + 1) * self.dim]) {
            *o = q as f32 * s;
        }
    }

    /// Appends the dequantized row `r` to `out` — the arena-backed
    /// gather path of `Embedding::lookup` (no zero fill before the
    /// write, unlike [`QuantizedEmbedding::write_row`]).
    pub fn extend_row(&self, r: usize, out: &mut Vec<f32>) {
        assert!(r < self.rows, "embedding row {r} out of range {}", self.rows);
        let s = self.scales[r];
        out.extend(self.data[r * self.dim..(r + 1) * self.dim].iter().map(|&q| q as f32 * s));
    }

    /// Bytes this quantized form occupies (i8 table + f32 scales).
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// [`bytes`](Self::bytes) for a `rows × dim` table without building
    /// it — static weight-memory accounting.
    pub fn bytes_for(rows: usize, dim: usize) -> usize {
        rows * dim + rows * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededRng;

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let mut rng = SeededRng::new(41);
        let w = Tensor::randn(&[17, 11], 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w);
        let back = q.dequantize();
        for j in 0..11 {
            let bound = q.scales()[j] * 0.500_000_3;
            for p in 0..17 {
                let err = (w.at2(p, j) - back.at2(p, j)).abs();
                assert!(err <= bound, "({p},{j}): err {err} > {bound}");
            }
        }
    }

    #[test]
    fn extend_row_matches_write_row_bitwise() {
        let mut rng = SeededRng::new(43);
        let table = Tensor::randn(&[9, 6], 1.0, &mut rng);
        let q = QuantizedEmbedding::quantize(&table);
        for r in [0usize, 4, 8] {
            let mut written = vec![0.0f32; 6];
            q.write_row(r, &mut written);
            let mut appended = Vec::new();
            q.extend_row(r, &mut appended);
            assert_eq!(appended.len(), 6);
            for (a, b) in appended.iter().zip(&written) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn zero_column_and_zero_row_stay_exact_zero() {
        let mut w = Tensor::zeros(&[4, 3]);
        w.data_mut()[1] = 2.0; // column 1 nonzero, columns 0 and 2 zero
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.scales()[0], 0.0);
        assert_eq!(q.scales()[2], 0.0);
        let a = Tensor::from_vec(&[2, 4], vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        let c = matmul_quant(crate::kernel::default_plan().int8(), &a, &q);
        assert_eq!(c.row(0), &[0.0, 0.0, 0.0], "zero activation row");
        assert_eq!(c.at2(1, 0), 0.0, "zero weight column");
        assert_eq!(c.at2(1, 2), 0.0, "zero weight column");
    }

    #[test]
    fn matmul_quant_matches_integer_reference() {
        // The int8 GEMM must equal the naive dequant-free reference
        // exactly: quantize both operands, integer-dot, rescale.
        let mut rng = SeededRng::new(42);
        let a = Tensor::randn(&[5, 13], 1.0, &mut rng);
        let w = Tensor::randn(&[13, 9], 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w);
        let c = matmul_quant(crate::kernel::default_plan().int8(), &a, &q);
        let mut qa = vec![0i8; 13];
        for i in 0..5 {
            let a_scale = quantize_row(&a.data()[i * 13..(i + 1) * 13], &mut qa);
            for j in 0..9 {
                let jp = j / NR;
                let ccol = j % NR;
                let panel = &q.panels[jp * 13 * NR..(jp + 1) * 13 * NR];
                let mut acc = 0i64;
                for p in 0..13 {
                    acc += qa[p] as i64 * panel[p * NR + ccol] as i64;
                }
                let want = acc as f32 * (a_scale * q.scales()[j]);
                assert_eq!(c.at2(i, j).to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn quantized_gemm_tracks_f32_within_quantization_noise() {
        let mut rng = SeededRng::new(43);
        let a = Tensor::randn(&[8, 24], 1.0, &mut rng);
        let w = Tensor::randn(&[24, 16], 0.3, &mut rng);
        let q = QuantizedMatrix::quantize(&w);
        let exact = crate::ops::matmul(crate::kernel::active_simd(), &a, &w);
        let quant = matmul_quant(crate::kernel::default_plan().int8(), &a, &q);
        for (x, y) in exact.data().iter().zip(quant.data()) {
            // ~1% relative of the row/col magnitudes: generous but tight
            // enough to catch scale or layout bugs.
            assert!((x - y).abs() < 0.15, "{x} vs {y}");
        }
    }

    #[test]
    fn embedding_round_trip_is_bounded() {
        let mut rng = SeededRng::new(44);
        let t = Tensor::randn(&[9, 6], 1.0, &mut rng);
        let q = QuantizedEmbedding::quantize(&t);
        let mut row = vec![0.0f32; 6];
        for r in 0..9 {
            q.write_row(r, &mut row);
            let amax = t.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let bound = (amax / 127.0) * 0.500_000_3;
            for (got, want) in row.iter().zip(t.row(r)) {
                assert!((got - want).abs() <= bound);
            }
        }
    }

    #[test]
    fn byte_accounting_matches_construction() {
        let mut rng = SeededRng::new(45);
        let w = Tensor::randn(&[30, 20], 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.bytes(), QuantizedMatrix::bytes_for(30, 20));
        let t = Tensor::randn(&[12, 7], 1.0, &mut rng);
        let e = QuantizedEmbedding::quantize(&t);
        assert_eq!(e.bytes(), QuantizedEmbedding::bytes_for(12, 7));
    }
}
