//! Property tests for the int8 kernel pair — the integer twin of
//! `gemm_proptests.rs`, with a stronger claim: the `int8` and
//! `int8-scalar` plans are **bitwise identical**, not merely
//! naive-matching.
//!
//! Exact `i32` accumulation is associative and order-free, per-row
//! quantization rounds ties-to-even on both paths, and the dequantize
//! epilogues use the same FMA contractions — so the vectorized kernels
//! must reproduce the scalar kernels bit for bit over randomized shapes
//! (crossing the `MR`/`NR` blocking and odd-`k` pair-tail boundaries),
//! batch splits and every fused epilogue.
//!
//! Also pinned here: quantize-once activation reuse
//! ([`QuantizedActivations`] fed to several GEMMs) is bitwise identical
//! to quantizing per GEMM — the contract that lets attention share one
//! quantized input across Q/K/V.
//!
//! Every assertion names the plan it runs on, so the test does not
//! depend on the process's default plan.

use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::{
    matmul_quant, matmul_quant_reuse, QuantEpilogue, QuantizedActivations, QuantizedMatrix,
};
use pragformer_tensor::kernel::InferencePlan;
use pragformer_tensor::Tensor;
use proptest::prelude::*;

/// The `int8` and `int8-scalar` plans, or `None` without AVX2.
fn int8_pair() -> Option<(InferencePlan, InferencePlan)> {
    let avx2 = InferencePlan::parse("int8").ok()?;
    Some((avx2, InferencePlan::parse("int8-scalar").expect("int8-scalar runs everywhere")))
}

/// Every int8 plan this CPU can run.
fn int8_plans() -> Vec<InferencePlan> {
    InferencePlan::available().into_iter().filter(|p| p.is_int8()).collect()
}

/// Asserts two tensors agree bit for bit.
fn assert_bitwise(what: &str, got: &Tensor, want: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{} shape", what);
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} elem {}: {} vs {}", what, i, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn int8_avx2_matches_int8_scalar_bitwise(
        // m crosses 2×MIN_ROWS_PER_THREAD (worker split on multicore),
        // MR remainders, and m < MR; k crosses the 2-stripe pair loop
        // (odd k exercises the zero-partner tail); n crosses NR panels
        // and the ragged last panel.
        m in 1usize..140,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let Some((int8, int8_scalar)) = int8_pair() else {
            return Ok(());
        };
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let w = Tensor::randn(&[k, n], 0.5, &mut rng);
        let qw = QuantizedMatrix::quantize(&w);
        let scalar = matmul_quant(int8_scalar, &a, &qw);
        let avx2 = matmul_quant(int8, &a, &qw);
        assert_bitwise(&format!("({m}x{k})·({k}x{n}) int8 avx2-vs-scalar"), &avx2, &scalar)?;
    }

    #[test]
    fn int8_epilogues_are_bitwise_across_simds(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..32,
        seed in 0u64..1_000,
    ) {
        let Some((int8, int8_scalar)) = int8_pair() else {
            return Ok(());
        };
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let w = Tensor::randn(&[k, n], 0.5, &mut rng);
        let bias = Tensor::randn(&[n], 0.3, &mut rng);
        let res = Tensor::randn(&[m, n], 1.0, &mut rng);
        let qw = QuantizedMatrix::quantize(&w);
        let epilogues: [(&str, QuantEpilogue); 3] = [
            ("bias", QuantEpilogue::Bias(bias.data())),
            ("bias+gelu", QuantEpilogue::BiasGelu(bias.data())),
            ("bias+residual", QuantEpilogue::BiasResidual(bias.data(), res.data())),
        ];
        for (name, epi) in epilogues {
            let qa_s = QuantizedActivations::quantize(int8_scalar.int8_simd(), &a);
            let scalar = matmul_quant_reuse(int8_scalar, &qa_s, &qw, epi);
            qa_s.recycle();
            let qa_v = QuantizedActivations::quantize(int8.int8_simd(), &a);
            let avx2 = matmul_quant_reuse(int8, &qa_v, &qw, epi);
            qa_v.recycle();
            assert_bitwise(&format!("({m}x{k})·({k}x{n}) epilogue {name}"), &avx2, &scalar)?;
        }
    }

    #[test]
    fn quantize_once_matches_quantize_per_gemm_bitwise(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..32,
        seed in 0u64..1_000,
    ) {
        // One quantized input feeding three different weight matrices
        // (the attention Q/K/V shape of the reuse path) must reproduce
        // the per-GEMM requantization bits exactly, per plan.
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let ws: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[k, n], 0.5, &mut rng)).collect();
        let qws: Vec<QuantizedMatrix> = ws.iter().map(QuantizedMatrix::quantize).collect();
        for plan in int8_plans() {
            let qa = QuantizedActivations::quantize(plan.int8_simd(), &a);
            for (wi, qw) in qws.iter().enumerate() {
                let reused = matmul_quant_reuse(plan, &qa, qw, QuantEpilogue::None);
                let fresh = matmul_quant(plan, &a, qw);
                assert_bitwise(
                    &format!("{}: ({m}x{k})·({k}x{n}) consumer {wi} reuse-vs-fresh", plan.name()),
                    &reused,
                    &fresh,
                )?;
            }
            qa.recycle();
        }
    }

    #[test]
    fn int8_row_slices_are_batch_invariant(
        m in 2usize..24,
        k in 1usize..40,
        n in 1usize..32,
        seed in 0u64..1_000,
    ) {
        // A single activation row computed standalone must reproduce its
        // row of the batched product bit for bit (per-row quantization
        // depends only on the row itself), per plan.
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let w = Tensor::randn(&[k, n], 0.5, &mut rng);
        let qw = QuantizedMatrix::quantize(&w);
        let i = m / 2;
        let row = Tensor::from_vec(&[1, k], a.data()[i * k..(i + 1) * k].to_vec());
        for plan in int8_plans() {
            let full = matmul_quant(plan, &a, &qw);
            let single = matmul_quant(plan, &row, &qw);
            for j in 0..n {
                prop_assert_eq!(
                    single.data()[j].to_bits(),
                    full.data()[i * n + j].to_bits(),
                    "{}: row {} col {} differs when computed standalone",
                    plan.name(), i, j
                );
            }
        }
    }
}
