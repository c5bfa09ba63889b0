//! Per-tier bit-stability and quantization property tests — the kernel
//! tier contract (`crates/tensor/src/kernel`): within a tier, results
//! are bitwise invariant to batch size, padding and dispatch path; the
//! int8 packer's round-trip error is bounded by half a quantization
//! step per element; and the quantized GEMM inherits batch invariance
//! from its exact integer accumulation.
//!
//! All float assertions use the explicit-simd `*_with` entry points so
//! the tests cover every tier this CPU supports without touching the
//! process-global tier selection.

use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::available_simds;
use pragformer_tensor::kernel::quantize::{matmul_quant, QuantizedEmbedding, QuantizedMatrix};
use pragformer_tensor::ops::{matmul_nt_with, matmul_with};
use pragformer_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Batch-of-N == N × batch-of-1 per tier: each row of a batched
    /// matmul is bitwise the row computed through a 1-row call, even
    /// though batch size flips the packed/simple dispatch.
    #[test]
    fn matmul_batch_of_n_equals_n_batches_of_one(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        for simd in available_simds() {
            let batched = matmul_with(simd, &a, &b);
            for i in 0..m {
                let single = matmul_with(simd, &a.slice_rows(i, 1), &b);
                for j in 0..n {
                    prop_assert_eq!(
                        batched.data()[i * n + j].to_bits(),
                        single.data()[j].to_bits(),
                        "{}: row {} col {}", simd.name(), i, j
                    );
                }
            }
        }
    }

    /// Same property for the transposed-RHS GEMM (attention scores).
    #[test]
    fn matmul_nt_batch_of_n_equals_n_batches_of_one(
        m in 1usize..16,
        k in 1usize..48,
        n in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[n, k], 1.0, &mut rng);
        for simd in available_simds() {
            let batched = matmul_nt_with(simd, &a, &b);
            for i in 0..m {
                let single = matmul_nt_with(simd, &a.slice_rows(i, 1), &b);
                for j in 0..n {
                    prop_assert_eq!(
                        batched.data()[i * n + j].to_bits(),
                        single.data()[j].to_bits(),
                        "{}: row {} col {}", simd.name(), i, j
                    );
                }
            }
        }
    }

    /// Padding invisibility per tier: appending zero columns to `B`
    /// (shifting which panel is the ragged last one) must not change a
    /// single bit of the columns that were already there.
    #[test]
    fn matmul_zero_padding_columns_are_invisible(
        m in 1usize..20,
        k in 1usize..32,
        n in 1usize..20,
        extra in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut padded = Tensor::zeros(&[k, n + extra]);
        for p in 0..k {
            padded.data_mut()[p * (n + extra)..p * (n + extra) + n]
                .copy_from_slice(&b.data()[p * n..(p + 1) * n]);
        }
        for simd in available_simds() {
            let base = matmul_with(simd, &a, &b);
            let wide = matmul_with(simd, &a, &padded);
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(
                        base.data()[i * n + j].to_bits(),
                        wide.data()[i * (n + extra) + j].to_bits(),
                        "{}: ({},{}) changed under padding", simd.name(), i, j
                    );
                }
                for j in n..n + extra {
                    prop_assert_eq!(
                        wide.data()[i * (n + extra) + j], 0.0f32,
                        "{}: padding column {} must be exactly zero", simd.name(), j
                    );
                }
            }
        }
    }

    /// Int8 round trip: `|w − dequant(quant(w))| ≤ scale/2` per element
    /// (with a hair of slack for the f32 multiply in dequantization).
    #[test]
    fn quantize_round_trip_error_is_bounded(
        k in 1usize..32,
        n in 1usize..24,
        scale_exp in -3i32..4,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut w = Tensor::randn(&[k, n], 1.0, &mut rng);
        let magnitude = 2.0f32.powi(scale_exp);
        w.map_in_place(|v| v * magnitude);
        let q = QuantizedMatrix::quantize(&w);
        let back = q.dequantize();
        for j in 0..n {
            let bound = q.scales()[j] * 0.500_001;
            for p in 0..k {
                let err = (w.at2(p, j) - back.at2(p, j)).abs();
                prop_assert!(err <= bound, "({},{}) err {} > bound {}", p, j, err, bound);
            }
        }
    }

    /// Per-row embedding round trip with the same half-step bound.
    #[test]
    fn embedding_round_trip_error_is_bounded(
        rows in 1usize..24,
        dim in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let t = Tensor::randn(&[rows, dim], 1.0, &mut rng);
        let q = QuantizedEmbedding::quantize(&t);
        let mut row = vec![0.0f32; dim];
        for r in 0..rows {
            q.write_row(r, &mut row);
            let amax = t.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let bound = (amax / 127.0) * 0.500_001;
            for (got, want) in row.iter().zip(t.row(r)) {
                prop_assert!((got - want).abs() <= bound, "row {}", r);
            }
        }
    }

    /// The quantized GEMM is batch invariant: per-row dynamic
    /// quantization depends only on the row, and i32 accumulation is
    /// exact, so batch-of-N rows are bitwise batch-of-1 rows.
    #[test]
    fn matmul_quant_batch_of_n_equals_n_batches_of_one(
        m in 1usize..16,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let w = Tensor::randn(&[k, n], 1.0, &mut rng);
        let q = QuantizedMatrix::quantize(&w);
        let batched = matmul_quant(&a, &q);
        for i in 0..m {
            let single = matmul_quant(&a.slice_rows(i, 1), &q);
            for j in 0..n {
                prop_assert_eq!(
                    batched.data()[i * n + j].to_bits(),
                    single.data()[j].to_bits(),
                    "row {} col {}", i, j
                );
            }
        }
    }
}
