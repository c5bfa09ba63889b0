//! Property tests for the blocked GEMM kernels against naive references,
//! run once per available kernel tier.
//!
//! Two claims per kernel, over randomized shapes crossing every blocking
//! boundary (`MR`/`NR`/`KB` remainders, the pack-vs-simple dispatch,
//! and — on multicore machines — the parallel row split):
//!
//! 1. **Bitwise determinism** — the blocked kernel accumulates every
//!    output element in a single chain ascending in the contraction
//!    index, exactly like the textbook triple loop *with the tier's own
//!    multiply-add* (plain `a*b + acc` on scalar, [`f32::mul_add`] on
//!    AVX2/FMA — a scalar fused multiply-add is bitwise identical to one
//!    vector FMA lane), so the two agree *bit for bit*, not just
//!    approximately. This is the property the batched advisor and the
//!    serving cache lean on.
//! 2. Row slices are batch-size invariant: computing a sub-block alone
//!    reproduces the same bits as the full product.
//!
//! Every assertion names the instruction set it runs on, so the test
//! does not depend on the process's default plan.

use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::{available_simds, Simd};
use pragformer_tensor::ops::{matmul, matmul_prepacked, matmul_tn, matmul_unpacked, PackedWeights};
use pragformer_tensor::Tensor;
use proptest::prelude::*;

/// The tier's scalar multiply-add: what one accumulation step of the
/// tier's kernels computes per element.
fn madd(simd: Simd, a: f32, b: f32, acc: f32) -> f32 {
    match simd {
        Simd::Scalar => acc + a * b,
        Simd::Avx2 => a.mul_add(b, acc),
    }
}

/// Naive `C = A·B` with the tier's multiply-add: single ascending-`k`
/// chain per element — the reduction order `matmul` promises per tier.
fn matmul_naive_for(simd: Simd, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = madd(simd, a.data()[i * k + p], b.data()[p * n + j], acc);
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Naive `C[k×n] = Aᵀ·B` with the tier's multiply-add: single chain per
/// element, ascending sample index — the order `matmul_tn` preserves.
fn matmul_tn_naive_for(simd: Simd, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(m, b.rows());
    let mut out = Tensor::zeros(&[k, n]);
    for i in 0..k {
        for j in 0..n {
            let mut acc = 0.0f32;
            for s in 0..m {
                acc = madd(simd, a.data()[s * k + i], b.data()[s * n + j], acc);
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn matmul_tn_matches_naive_bitwise(
        m in 1usize..40,
        // Up to 139 output rows: crosses 2×MIN_ROWS_PER_THREAD, so the
        // worker split (and nonzero-offset Aᵀ gathers) runs on
        // multicore machines. On 1-core containers the split is driven
        // by `matmul_tn_worker_chunks_reassemble_bitwise` in ops.rs.
        k in 1usize..140,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[m, n], 1.0, &mut rng);
        for simd in available_simds() {
            let fast = matmul_tn(simd, &a, &b);
            let slow = matmul_tn_naive_for(simd, &a, &b);
            prop_assert_eq!(fast.shape(), &[k, n]);
            for (i, (x, y)) in fast.data().iter().zip(slow.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{}: ({m}x{k})ᵀ·({m}x{n}) elem {i}: blocked {} vs naive {}",
                    simd.name(), x, y
                );
            }
        }
    }

    #[test]
    fn matmul_matches_naive_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        for simd in available_simds() {
            let fast = matmul(simd, &a, &b);
            let slow = matmul_naive_for(simd, &a, &b);
            for (i, (x, y)) in fast.data().iter().zip(slow.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{}: ({m}x{k})·({k}x{n}) elem {i}: blocked {} vs naive {}",
                    simd.name(), x, y
                );
            }
        }
    }

    #[test]
    fn matmul_prepacked_and_unpacked_match_matmul_bitwise(
        // Up to 139 left-hand rows: crosses 2×MIN_ROWS_PER_THREAD so the
        // parallel row split runs on multicore machines; small m and
        // n < NR shapes exercise the pack-vs-simple dispatch boundary
        // that matmul takes and matmul_prepacked deliberately does not.
        m in 1usize..140,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let pw = PackedWeights::pack(&b);
        for simd in available_simds() {
            let base = matmul(simd, &a, &b);
            let pre = matmul_prepacked(simd, &a, &pw);
            let unp = matmul_unpacked(simd, &a, &b);
            for (i, ((x, y), z)) in base.data().iter().zip(pre.data()).zip(unp.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{}: ({m}x{k})·({k}x{n}) elem {i}: matmul {} vs prepacked {}",
                    simd.name(), x, y
                );
                prop_assert_eq!(
                    x.to_bits(), z.to_bits(),
                    "{}: ({m}x{k})·({k}x{n}) elem {i}: matmul {} vs unpacked {}",
                    simd.name(), x, z
                );
            }
        }
    }

    #[test]
    fn matmul_tn_column_slices_are_batch_invariant(
        m in 1usize..32,
        k in 2usize..20,
        n in 8usize..32,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[m, n], 1.0, &mut rng);
        // Recompute from a single column of A (one output row): the row
        // must reproduce the full product's bits exactly, per tier.
        let i = k / 2;
        let mut col = Tensor::zeros(&[m, 1]);
        for s in 0..m {
            col.data_mut()[s] = a.data()[s * k + i];
        }
        for simd in available_simds() {
            let full = matmul_tn(simd, &a, &b);
            let row = matmul_tn(simd, &col, &b);
            for j in 0..n {
                prop_assert_eq!(
                    row.data()[j].to_bits(),
                    full.data()[i * n + j].to_bits(),
                    "{}: row {} col {} differs when computed standalone",
                    simd.name(), i, j
                );
            }
        }
    }
}
