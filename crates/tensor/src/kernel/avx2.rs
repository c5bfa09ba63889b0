//! AVX2/FMA twins of the scalar GEMM microkernels in [`crate::ops`],
//! plus the vectorized elementwise kernels ([`softmax_rows`], [`gelu`],
//! their shared [`exp8`]) that dominate forward time once the GEMMs are
//! fast, and the **integer int8 kernels** ([`quantize_row`],
//! [`quant_gemm_rows`]) that are bitwise identical to their scalar
//! twins — exact `i32` accumulation is order-free, so vectorizing it is
//! free of the ULP caveats the f32 kernels carry.
//!
//! Same blocking scheme (`MR = 4` rows in lock-step over `NR = 8`-wide
//! packed column panels), same accumulation order — each output element
//! is one chain ascending in the contraction index — but every
//! multiply-add is a *fused* `_mm256_fmadd_ps` (or the bitwise-equal
//! scalar [`f32::mul_add`] on column tails), so results differ from the
//! scalar tier by the fusion's single rounding while staying bitwise
//! deterministic within this tier: packed vs simple path, batch size,
//! padding length and worker splits all reproduce identical bits (the
//! contract `tests/kernel_tier_proptests.rs` pins per tier).
//!
//! Safety: every public function asserts [`super::avx2_available`]
//! before entering the `#[target_feature(enable = "avx2,fma")]` body,
//! so the intrinsics never execute on an unsupported CPU.

use core::arch::x86_64::{
    __m128i, __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_andnot_ps, _mm256_blendv_ps,
    _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cvtepi32_ps,
    _mm256_cvtepi8_epi16, _mm256_cvtps_epi32, _mm256_div_ps, _mm256_extracti128_si256,
    _mm256_fmadd_ps, _mm256_fnmadd_ps, _mm256_loadu_ps, _mm256_madd_epi16, _mm256_max_ps,
    _mm256_min_ps, _mm256_mul_ps, _mm256_round_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setzero_ps, _mm256_setzero_si256, _mm256_slli_epi32, _mm256_storeu_ps,
    _mm256_storeu_si256, _mm256_sub_ps, _mm_loadl_epi64, _mm_loadu_si128, _mm_packs_epi16,
    _mm_packs_epi32, _mm_setr_epi8, _mm_shuffle_epi8, _mm_storel_epi64, _CMP_GT_OQ, _CMP_LT_OQ,
    _CMP_UNORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
};

use crate::nn::activation::{GELU_C, SQRT_2_OVER_PI};
use crate::ops::{EXP_OVERFLOW, EXP_UNDERFLOW, MR, NR};

use super::quantize::QMAX;

#[inline]
fn assert_supported() {
    assert!(super::avx2_available(), "avx2 kernels called without CPU support");
}

/// AVX2 twin of `ops::gemm_packed_rows`: packed-`B` GEMM over a chunk of
/// output rows. `packed` is the `ops::pack_b_panels` buffer.
pub fn gemm_packed_rows(a_rows: &[f32], k: usize, packed: &[f32], n: usize, c_chunk: &mut [f32]) {
    assert_supported();
    // SAFETY: CPU support asserted above; all indexing is bounds-checked
    // slice access.
    unsafe { gemm_packed_rows_impl(a_rows, k, packed, n, c_chunk) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_packed_rows_impl(
    a_rows: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    c_chunk: &mut [f32],
) {
    let rows = c_chunk.len() / n;
    let panels = n.div_ceil(NR);
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let panel = &packed[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [_mm256_setzero_ps(); MR];
            if mr == MR {
                // Four rows in lock-step: one fused multiply-add per
                // (row, k) step, ascending k — a single chain per lane.
                let row = |r: usize| &a_rows[(i + r) * k..(i + r + 1) * k];
                let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                let (mut a0, mut a1, mut a2, mut a3) = (acc[0], acc[1], acc[2], acc[3]);
                for p in 0..k {
                    let bv = _mm256_loadu_ps(panel.as_ptr().add(p * NR));
                    a0 = _mm256_fmadd_ps(_mm256_set1_ps(r0[p]), bv, a0);
                    a1 = _mm256_fmadd_ps(_mm256_set1_ps(r1[p]), bv, a1);
                    a2 = _mm256_fmadd_ps(_mm256_set1_ps(r2[p]), bv, a2);
                    a3 = _mm256_fmadd_ps(_mm256_set1_ps(r3[p]), bv, a3);
                }
                acc = [a0, a1, a2, a3];
            } else {
                // Remainder rows: identical per-element chains, one row
                // at a time.
                for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                    let a_row = &a_rows[(i + r) * k..(i + r + 1) * k];
                    let mut av = _mm256_setzero_ps();
                    for (p, &a_val) in a_row.iter().enumerate() {
                        let bv = _mm256_loadu_ps(panel.as_ptr().add(p * NR));
                        av = _mm256_fmadd_ps(_mm256_set1_ps(a_val), bv, av);
                    }
                    *acc_r = av;
                }
            }
            for (r, &acc_r) in acc.iter().enumerate().take(mr) {
                store_prefix(acc_r, &mut c_chunk[(i + r) * n + j0..(i + r) * n + j0 + w]);
            }
        }
        i += mr;
    }
}

/// Writes the first `dst.len()` (≤ 8) lanes of `v` into `dst`.
#[target_feature(enable = "avx2,fma")]
unsafe fn store_prefix(v: __m256, dst: &mut [f32]) {
    if dst.len() == NR {
        _mm256_storeu_ps(dst.as_mut_ptr(), v);
    } else {
        let mut buf = [0.0f32; NR];
        _mm256_storeu_ps(buf.as_mut_ptr(), v);
        dst.copy_from_slice(&buf[..dst.len()]);
    }
}

/// AVX2 twin of `ops::gemm_simple_rows` (the small-`m` unpacked path).
///
/// Column blocks of 8 run as vector FMA chains; the `n % 8` tail runs
/// scalar [`f32::mul_add`] chains — fused like the vector lanes, so the
/// tail is bitwise identical to what a zero-padded panel lane computes
/// and the packed/simple dispatch stays invisible.
pub fn gemm_simple_rows(a_rows: &[f32], k: usize, b: &[f32], n: usize, c_chunk: &mut [f32]) {
    assert_supported();
    // SAFETY: CPU support asserted above.
    unsafe { gemm_simple_rows_impl(a_rows, k, b, n, c_chunk) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_simple_rows_impl(
    a_rows: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    c_chunk: &mut [f32],
) {
    let blocks = n / NR;
    for (ri, c_row) in c_chunk.chunks_mut(n).enumerate() {
        let a_row = &a_rows[ri * k..(ri + 1) * k];
        for jb in 0..blocks {
            let j0 = jb * NR;
            let mut acc = _mm256_setzero_ps();
            for (p, &a_val) in a_row.iter().enumerate() {
                let bv = _mm256_loadu_ps(b.as_ptr().add(p * n + j0));
                acc = _mm256_fmadd_ps(_mm256_set1_ps(a_val), bv, acc);
            }
            _mm256_storeu_ps(c_row.as_mut_ptr().add(j0), acc);
        }
        for j in blocks * NR..n {
            let mut acc = 0.0f32;
            for (p, &a_val) in a_row.iter().enumerate() {
                acc = a_val.mul_add(b[p * n + j], acc);
            }
            c_row[j] = acc;
        }
    }
}

/// AVX2 twin of `ops::tn_simple_rows` (outer-product accumulation over a
/// chunk of `matmul_tn` output rows). Ascending-`s` fused chains per
/// element — the same order as [`gemm_packed_rows`] run on a transposed
/// gather, so the packed and simple `matmul_tn` paths agree bitwise.
#[allow(clippy::too_many_arguments)]
pub fn tn_simple_rows(
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    assert_supported();
    // SAFETY: CPU support asserted above.
    unsafe { tn_simple_rows_impl(a, m, k, row0, b, n, chunk) }
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tn_simple_rows_impl(
    a: &[f32],
    m: usize,
    k: usize,
    row0: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / n;
    let blocks = n / NR;
    for s in 0..m {
        let b_row = &b[s * n..(s + 1) * n];
        for r in 0..rows {
            let a_sk = a[s * k + row0 + r];
            let av = _mm256_set1_ps(a_sk);
            let c_row = &mut chunk[r * n..(r + 1) * n];
            for jb in 0..blocks {
                let j0 = jb * NR;
                let cv = _mm256_loadu_ps(c_row.as_ptr().add(j0));
                let bv = _mm256_loadu_ps(b_row.as_ptr().add(j0));
                _mm256_storeu_ps(c_row.as_mut_ptr().add(j0), _mm256_fmadd_ps(av, bv, cv));
            }
            for j in blocks * NR..n {
                c_row[j] = a_sk.mul_add(b_row[j], c_row[j]);
            }
        }
    }
}

/// AVX2 dot product for `ops::matmul_nt`: 8 FMA lanes over the common
/// prefix, a fixed-order horizontal reduction, then a fused scalar tail.
/// Depends only on the operand values and `k`, so `matmul_nt` rows stay
/// batch-invariant under this tier.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_supported();
    // SAFETY: CPU support asserted above.
    unsafe { dot_impl(x, y) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_impl(x: &[f32], y: &[f32]) -> f32 {
    let blocks = x.len() / NR;
    let mut acc = _mm256_setzero_ps();
    for i in 0..blocks {
        let xv = _mm256_loadu_ps(x.as_ptr().add(i * NR));
        let yv = _mm256_loadu_ps(y.as_ptr().add(i * NR));
        acc = _mm256_fmadd_ps(xv, yv, acc);
    }
    let mut lanes = [0.0f32; NR];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in blocks * NR..x.len() {
        sum = x[i].mul_add(y[i], sum);
    }
    sum
}

/// Lane-wise twin of [`crate::ops::exp_approx`]: same `ln 2` split, same
/// degree-7 Horner polynomial and the same clamp edges (0 below the
/// underflow bound including `−∞`, `+∞` above the overflow bound, NaN
/// propagated) — evaluated with fused lane ops, so bits differ from the
/// scalar tier by the fusions' roundings while each lane stays a pure
/// function of its own input.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp8(x: __m256) -> __m256 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_145_75;
    const LN2_LO: f32 = 1.428_606_8e-6;
    const ROUND: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let k = _mm256_round_ps::<ROUND>(_mm256_mul_ps(x, _mm256_set1_ps(LOG2_E)));
    let r =
        _mm256_fnmadd_ps(k, _mm256_set1_ps(LN2_LO), _mm256_fnmadd_ps(k, _mm256_set1_ps(LN2_HI), x));
    let mut p = _mm256_set1_ps(1.0 / 5040.0);
    for c in [1.0 / 720.0, 1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0] {
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(c));
    }
    // 2^k via exponent bits; k ∈ [-126, 127] on the un-clamped domain.
    let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(k),
        _mm256_set1_epi32(127),
    )));
    let y = _mm256_mul_ps(p, scale);
    let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_UNDERFLOW));
    let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_OVERFLOW));
    let y = _mm256_andnot_ps(under, y);
    let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(y, x, nan)
}

/// AVX2 twin of `ops::softmax_row` applied over `[rows × n]` data:
/// vector max / [`exp8`] / fixed-split sum per row. The `valid % 8` tail
/// runs through a `−∞`-padded stack block, so every element sees the
/// identical lane arithmetic and the padding lanes contribute an exact
/// `0.0` to the sum — each row's bits depend only on its contents and
/// valid prefix, which keeps the batched == sequential contract per
/// tier.
pub fn softmax_rows(data: &mut [f32], n: usize, valid_of: &mut dyn FnMut(usize) -> usize) {
    assert_supported();
    // SAFETY: CPU support asserted above.
    unsafe {
        for (r, row) in data.chunks_mut(n).enumerate() {
            let valid = valid_of(r).min(n);
            softmax_row_impl(row, valid);
        }
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_row_impl(row: &mut [f32], valid: usize) {
    if valid == 0 {
        row.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let blocks = valid / NR;
    let tail = valid % NR;
    let mut buf = [f32::NEG_INFINITY; NR];
    if tail > 0 {
        buf[..tail].copy_from_slice(&row[blocks * NR..valid]);
    }
    // Row max: exact under any reduction order (no rounding), −∞ pads.
    let mut mv = _mm256_set1_ps(f32::NEG_INFINITY);
    for bi in 0..blocks {
        mv = _mm256_max_ps(mv, _mm256_loadu_ps(row.as_ptr().add(bi * NR)));
    }
    if tail > 0 {
        mv = _mm256_max_ps(mv, _mm256_loadu_ps(buf.as_ptr()));
    }
    softmax_row_finish(row, valid, mv, buf);
}

/// Exp/sum/normalize finish of [`softmax_row_impl`]: `row[..valid]`
/// holds the logits, `mv` their lane-wise running max, `buf` the
/// `−∞`-padded tail block.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_row_finish(row: &mut [f32], valid: usize, mv: __m256, mut buf: [f32; NR]) {
    let blocks = valid / NR;
    let tail = valid % NR;
    let mut lanes = [0.0f32; NR];
    _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
    let m = lanes.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mb = _mm256_set1_ps(m);
    let mut acc = _mm256_setzero_ps();
    for bi in 0..blocks {
        let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(bi * NR)), mb));
        _mm256_storeu_ps(row.as_mut_ptr().add(bi * NR), e);
        acc = _mm256_add_ps(acc, e);
    }
    if tail > 0 {
        let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(buf.as_ptr()), mb));
        _mm256_storeu_ps(buf.as_mut_ptr(), e);
        row[blocks * NR..valid].copy_from_slice(&buf[..tail]);
        acc = _mm256_add_ps(acc, e); // −∞ pads became exact 0.0
    }
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    let z = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    let inv = 1.0 / z;
    let invv = _mm256_set1_ps(inv);
    for bi in 0..blocks {
        let v = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(bi * NR)), invv);
        _mm256_storeu_ps(row.as_mut_ptr().add(bi * NR), v);
    }
    for v in &mut row[blocks * NR..valid] {
        *v *= inv; // scalar IEEE mul — bitwise equal to a vector lane
    }
    for v in &mut row[valid..] {
        *v = 0.0;
    }
}

/// AVX2 tanh-GELU over a flat slice, with `tanh u = 1 − 2/(e^{2u} + 1)`
/// on [`exp8`] — exact at both saturated ends (`e^{2u}` hits `+∞` or `0`)
/// and within a few ulp of the libm-`tanh` scalar tier elsewhere. Purely
/// lane-local; the tail runs through a zero-padded stack block
/// (`gelu(0) = 0`), so every element sees identical arithmetic.
pub fn gelu(x: &[f32], out: &mut [f32]) {
    assert_supported();
    debug_assert_eq!(x.len(), out.len());
    // SAFETY: CPU support asserted above.
    unsafe { gelu_impl(x, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_impl(x: &[f32], out: &mut [f32]) {
    let blocks = x.len() / NR;
    for bi in 0..blocks {
        let v = _mm256_loadu_ps(x.as_ptr().add(bi * NR));
        _mm256_storeu_ps(out.as_mut_ptr().add(bi * NR), gelu8(v));
    }
    let tail = x.len() % NR;
    if tail > 0 {
        let mut buf = [0.0f32; NR];
        buf[..tail].copy_from_slice(&x[blocks * NR..]);
        let v = gelu8(_mm256_loadu_ps(buf.as_ptr()));
        _mm256_storeu_ps(buf.as_mut_ptr(), v);
        out[blocks * NR..].copy_from_slice(&buf[..tail]);
    }
}

#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn gelu8(v: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    let two = _mm256_set1_ps(2.0);
    let v3 = _mm256_mul_ps(_mm256_mul_ps(v, v), v);
    let u = _mm256_mul_ps(
        _mm256_set1_ps(SQRT_2_OVER_PI),
        _mm256_fmadd_ps(_mm256_set1_ps(GELU_C), v3, v),
    );
    let e = exp8(_mm256_mul_ps(two, u));
    let t = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
    _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), v), _mm256_add_ps(one, t))
}

/// In-place [`gelu`] over a flat slice — the int8 epilogue variant
/// (activations are dequantized into their output buffer first).
/// Identical lane arithmetic to [`gelu`].
pub fn gelu_in_place(buf: &mut [f32]) {
    assert_supported();
    // SAFETY: CPU support asserted above.
    unsafe { gelu_in_place_impl(buf) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_in_place_impl(buf: &mut [f32]) {
    let blocks = buf.len() / NR;
    for bi in 0..blocks {
        let v = _mm256_loadu_ps(buf.as_ptr().add(bi * NR));
        _mm256_storeu_ps(buf.as_mut_ptr().add(bi * NR), gelu8(v));
    }
    let tail = buf.len() % NR;
    if tail > 0 {
        let mut tmp = [0.0f32; NR];
        tmp[..tail].copy_from_slice(&buf[blocks * NR..]);
        let v = gelu8(_mm256_loadu_ps(tmp.as_ptr()));
        _mm256_storeu_ps(tmp.as_mut_ptr(), v);
        buf[blocks * NR..].copy_from_slice(&tmp[..tail]);
    }
}

/// AVX2 twin of the scalar per-row activation quantizer
/// (`quantize::quantize_row`), **bitwise identical** to it: `abs` and
/// `max` are exact under any order, the `v * inv` multiply is the same
/// IEEE op per lane, and `_mm256_cvtps_epi32` rounds ties-to-even —
/// exactly what the scalar path's `round_ties_even` does. Returns the
/// row scale (`amax / 127`, `0.0` for an all-zero row).
pub fn quantize_row(row: &[f32], out: &mut [i8]) -> f32 {
    assert_supported();
    // SAFETY: CPU support asserted above.
    unsafe { quantize_row_impl(row, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn quantize_row_impl(row: &[f32], out: &mut [i8]) -> f32 {
    debug_assert_eq!(row.len(), out.len());
    let blocks = row.len() / NR;
    let sign = _mm256_set1_ps(-0.0);
    let mut mv = _mm256_setzero_ps();
    for bi in 0..blocks {
        let v = _mm256_loadu_ps(row.as_ptr().add(bi * NR));
        mv = _mm256_max_ps(mv, _mm256_andnot_ps(sign, v));
    }
    let mut lanes = [0.0f32; NR];
    _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
    let mut amax = lanes.iter().copied().fold(0.0f32, f32::max);
    for &v in &row[blocks * NR..] {
        amax = amax.max(v.abs());
    }
    if amax == 0.0 {
        out.iter_mut().for_each(|q| *q = 0);
        return 0.0;
    }
    let inv = QMAX / amax;
    let invv = _mm256_set1_ps(inv);
    let lo_clamp = _mm256_set1_ps(-QMAX);
    let hi_clamp = _mm256_set1_ps(QMAX);
    for bi in 0..blocks {
        let v = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(bi * NR)), invv);
        // Clamp in the float domain, then convert (rounds ties-to-even):
        // equal to the scalar round-then-clamp for every finite input,
        // since the clamp edges are exact integers.
        let c = _mm256_max_ps(_mm256_min_ps(v, hi_clamp), lo_clamp);
        let q32 = _mm256_cvtps_epi32(c);
        // 8×i32 → 8×i8 (values already in [-127, 127], packs are exact).
        let p16 = _mm_packs_epi32(_mm256_castsi256_si128(q32), _mm256_extracti128_si256::<1>(q32));
        let p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(out.as_mut_ptr().add(bi * NR) as *mut __m128i, p8);
    }
    for (q, &v) in out[blocks * NR..].iter_mut().zip(&row[blocks * NR..]) {
        *q = super::quantize::quantize_value(v, inv);
    }
    amax / QMAX
}

/// The `pshufb` control that interleaves two adjacent 8-byte panel
/// stripes `[b0..b7, c0..c7]` into pairs `[b0,c0, b1,c1, …, b7,c7]` —
/// the operand layout `_mm256_madd_epi16` wants.
#[target_feature(enable = "avx2,fma")]
unsafe fn interleave_mask() -> __m128i {
    _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15)
}

/// Widens panel stripes `p` and `p+1` (16 contiguous bytes) into 16
/// interleaved `i16` lanes `[b0,c0, …, b7,c7]`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn widen_stripe_pair(ptr: *const i8, mask: __m128i) -> __m256i {
    let v = _mm_loadu_si128(ptr as *const __m128i);
    _mm256_cvtepi8_epi16(_mm_shuffle_epi8(v, mask))
}

/// Widens a lone final stripe (8 bytes) into `[b0,0, b1,0, …, b7,0]` —
/// the zero partner makes the pair `madd` a plain per-column product.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn widen_stripe_single(ptr: *const i8, mask: __m128i) -> __m256i {
    // The high 8 bytes of the 64-bit load are zero, so the same shuffle
    // control interleaves each panel byte with a zero.
    let v = _mm_loadl_epi64(ptr as *const __m128i);
    _mm256_cvtepi8_epi16(_mm_shuffle_epi8(v, mask))
}

/// Two quantized activation values as the `[lo, hi]` i16 pair every
/// 32-bit lane of the broadcast `madd` operand carries.
#[inline]
fn qa_pair(lo: i8, hi: i8) -> i32 {
    (lo as i16 as u16 as u32 | ((hi as i16 as u16 as u32) << 16)) as i32
}

/// AVX2 twin of the scalar int8 panel GEMM
/// (`quantize::quant_gemm_rows_scalar`) over a chunk of output rows,
/// with the dequantize + optional bias/residual epilogue fused in —
/// **bitwise identical** to the scalar kernel: the `i32` dot is exact
/// under any summation order (`Σ|qa·qb| ≤ 127²·k ≪ i32::MAX`), the
/// lane conversions/multiplies/FMAs match the scalar casts/`mul_add`
/// bit for bit, and the ragged last panel runs the scalar epilogue.
///
/// Layout: `qa` is `rows × k` row-major quantized activations with one
/// scale per row; `panels`/`b_scales` are the [`super::quantize`] column
/// panels. `bias` has length `n`; `residual` is `rows × n`, matching
/// `c_chunk`.
#[allow(clippy::too_many_arguments)]
pub fn quant_gemm_rows(
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
    assert_supported();
    // SAFETY: CPU support asserted above; all indexing is bounds-checked
    // slice access.
    unsafe { quant_gemm_rows_impl(qa, a_scales, k, panels, b_scales, n, bias, residual, c_chunk) }
}

#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn quant_gemm_rows_impl(
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
    let mask = interleave_mask();
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        for jp in 0..panels_count {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let panel = &panels[jp * k * NR..(jp + 1) * k * NR];
            let mut acc = [_mm256_setzero_si256(); MR];
            if mr == MR {
                // Four rows in lock-step: each widened stripe pair is
                // loaded once and fed to all four rows' madd chains.
                let row = |r: usize| &qa[(i + r) * k..(i + r + 1) * k];
                let (q0, q1, q2, q3) = (row(0), row(1), row(2), row(3));
                let (mut a0, mut a1, mut a2, mut a3) = (acc[0], acc[1], acc[2], acc[3]);
                let mut p = 0;
                while p + 2 <= k {
                    let bv = widen_stripe_pair(panel.as_ptr().add(p * NR), mask);
                    a0 = _mm256_add_epi32(
                        a0,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q0[p], q0[p + 1]))),
                    );
                    a1 = _mm256_add_epi32(
                        a1,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q1[p], q1[p + 1]))),
                    );
                    a2 = _mm256_add_epi32(
                        a2,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q2[p], q2[p + 1]))),
                    );
                    a3 = _mm256_add_epi32(
                        a3,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q3[p], q3[p + 1]))),
                    );
                    p += 2;
                }
                if p < k {
                    let bv = widen_stripe_single(panel.as_ptr().add(p * NR), mask);
                    a0 = _mm256_add_epi32(
                        a0,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q0[p], 0))),
                    );
                    a1 = _mm256_add_epi32(
                        a1,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q1[p], 0))),
                    );
                    a2 = _mm256_add_epi32(
                        a2,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q2[p], 0))),
                    );
                    a3 = _mm256_add_epi32(
                        a3,
                        _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q3[p], 0))),
                    );
                }
                acc = [a0, a1, a2, a3];
            } else {
                for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                    let q_row = &qa[(i + r) * k..(i + r + 1) * k];
                    let mut av = _mm256_setzero_si256();
                    let mut p = 0;
                    while p + 2 <= k {
                        let bv = widen_stripe_pair(panel.as_ptr().add(p * NR), mask);
                        av = _mm256_add_epi32(
                            av,
                            _mm256_madd_epi16(
                                bv,
                                _mm256_set1_epi32(qa_pair(q_row[p], q_row[p + 1])),
                            ),
                        );
                        p += 2;
                    }
                    if p < k {
                        let bv = widen_stripe_single(panel.as_ptr().add(p * NR), mask);
                        av = _mm256_add_epi32(
                            av,
                            _mm256_madd_epi16(bv, _mm256_set1_epi32(qa_pair(q_row[p], 0))),
                        );
                    }
                    *acc_r = av;
                }
            }
            for (r, &acc_r) in acc.iter().enumerate().take(mr) {
                let a_scale = a_scales[i + r];
                let o0 = (i + r) * n + j0;
                if w == NR {
                    let accf = _mm256_cvtepi32_ps(acc_r);
                    let sv = _mm256_mul_ps(
                        _mm256_set1_ps(a_scale),
                        _mm256_loadu_ps(b_scales.as_ptr().add(j0)),
                    );
                    let mut v = match bias {
                        Some(b) => _mm256_fmadd_ps(accf, sv, _mm256_loadu_ps(b.as_ptr().add(j0))),
                        None => _mm256_mul_ps(accf, sv),
                    };
                    if let Some(res) = residual {
                        v = _mm256_add_ps(v, _mm256_loadu_ps(res.as_ptr().add(o0)));
                    }
                    _mm256_storeu_ps(c_chunk.as_mut_ptr().add(o0), v);
                } else {
                    // Ragged last panel: the scalar epilogue, bitwise
                    // equal to a zero-padded vector lane.
                    let mut lanes = [0i32; NR];
                    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc_r);
                    for (c, &lane) in lanes.iter().enumerate().take(w) {
                        let j = j0 + c;
                        let s = a_scale * b_scales[j];
                        let mut v = match bias {
                            Some(b) => (lane as f32).mul_add(s, b[j]),
                            None => lane as f32 * s,
                        };
                        if let Some(res) = residual {
                            v += res[o0 + c];
                        }
                        c_chunk[o0 + c] = v;
                    }
                }
            }
        }
        i += mr;
    }
}

#[cfg(test)]
mod tests {
    use super::super::avx2_available;
    use crate::init::SeededRng;
    use crate::Tensor;

    fn gelu_libm(v: f32) -> f32 {
        use crate::nn::activation::{GELU_C, SQRT_2_OVER_PI};
        0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + GELU_C * v * v * v)).tanh())
    }

    #[test]
    fn exp8_tracks_scalar_exp_approx() {
        if !avx2_available() {
            return;
        }
        let mut xs: Vec<f32> = (-200..=200).map(|i| i as f32 * 0.5).collect();
        xs.extend([0.0, -0.0, f32::NEG_INFINITY, f32::INFINITY, f32::NAN, -87.4, 88.5]);
        let mut out = vec![0.0f32; xs.len().next_multiple_of(8)];
        let mut padded = xs.clone();
        padded.resize(out.len(), 0.0);
        // SAFETY: avx2_available checked above.
        unsafe {
            for (i, chunk) in padded.chunks(8).enumerate() {
                let v = super::exp8(core::arch::x86_64::_mm256_loadu_ps(chunk.as_ptr()));
                core::arch::x86_64::_mm256_storeu_ps(out.as_mut_ptr().add(i * 8), v);
            }
        }
        for (&x, &got) in xs.iter().zip(&out) {
            let want = crate::ops::exp_approx(x);
            if want.is_nan() {
                assert!(got.is_nan(), "exp8({x}) = {got}, want NaN");
            } else if want.is_infinite() || want == 0.0 {
                assert_eq!(got, want, "exp8({x}) clamp edge");
            } else {
                let rel = ((got - want) / want).abs();
                assert!(rel < 1e-6, "exp8({x}) = {got}, scalar {want}, rel {rel}");
            }
        }
    }

    #[test]
    fn gelu_tracks_libm_tanh_form() {
        if !avx2_available() {
            return;
        }
        let xs: Vec<f32> = (-80..=80).map(|i| i as f32 * 0.1).collect();
        let mut out = vec![0.0f32; xs.len()];
        super::gelu(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = gelu_libm(x);
            assert!((got - want).abs() < 1e-5, "gelu({x}) = {got}, libm {want}");
        }
        assert_eq!(out[80], 0.0, "gelu(0) must be exactly 0");
    }

    #[test]
    fn softmax_rows_matches_f64_reference_and_masks() {
        if !avx2_available() {
            return;
        }
        let mut rng = SeededRng::new(77);
        let n = 21; // deliberately not a multiple of 8
        let x = Tensor::randn(&[5, n], 2.0, &mut rng);
        let valids = [21usize, 16, 8, 3, 0];
        let mut data = x.data().to_vec();
        super::softmax_rows(&mut data, n, &mut |r| valids[r]);
        for (r, &valid) in valids.iter().enumerate() {
            let row = &data[r * n..(r + 1) * n];
            let src = &x.data()[r * n..r * n + valid];
            assert!(row[valid..].iter().all(|&v| v == 0.0), "row {r} masked tail");
            if valid == 0 {
                continue;
            }
            let m = src.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
            let exps: Vec<f64> = src.iter().map(|&v| ((v as f64) - m).exp()).collect();
            let z: f64 = exps.iter().sum();
            for (j, (&got, e)) in row[..valid].iter().zip(&exps).enumerate() {
                let want = e / z;
                assert!((got as f64 - want).abs() < 1e-5, "row {r} col {j}: {got} vs f64 {want}");
            }
            let sum: f32 = row[..valid].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_rows_are_batch_invariant() {
        if !avx2_available() {
            return;
        }
        let mut rng = SeededRng::new(78);
        let n = 19;
        let x = Tensor::randn(&[7, n], 1.5, &mut rng);
        let mut batched = x.data().to_vec();
        super::softmax_rows(&mut batched, n, &mut |_| 13);
        for r in 0..7 {
            let mut single = x.data()[r * n..(r + 1) * n].to_vec();
            super::softmax_rows(&mut single, n, &mut |_| 13);
            assert_eq!(
                &batched[r * n..(r + 1) * n],
                single.as_slice(),
                "row {r} bits changed with batch size"
            );
        }
    }
}
