//! Property-based tests for the tensor engine's core invariants.

use pragformer_tensor::kernel::active_simd;
use pragformer_tensor::{init::SeededRng, loss, nn, nn::Layer, ops, optim, Tensor};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: a matrix with dims in `1..=max_dim` and bounded entries.
fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        vec(-10.0f32..10.0, m * n).prop_map(move |data| Tensor::from_vec(&[m, n], data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn blocked_matmul_matches_naive_reference(seed in 0u64..1000, m in 1usize..33, k in 1usize..33, n in 1usize..33) {
        // The blocked/packed kernel (and its small-m fallback) against
        // the textbook triple loop, over random shapes spanning full
        // tiles, remainder rows/panels, and sub-tile matrices.
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let fast = ops::matmul(active_simd(), &a, &b);
        let slow = ops::matmul_naive(&a, &b);
        for (i, (x, y)) in fast.data().iter().zip(slow.data()).enumerate() {
            prop_assert!((x - y).abs() < 1e-4, "{m}x{k}x{n} elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_nt_matches_naive_reference(seed in 0u64..1000, m in 1usize..25, k in 1usize..25, n in 1usize..25) {
        // A·Bᵀ via the four-lane dot kernel == naive A·(Bᵀ).
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[n, k], 1.0, &mut rng);
        let fast = ops::matmul_nt(active_simd(), &a, &b);
        let slow = ops::matmul_naive(&a, &b.transpose2());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_tn_matches_naive_reference(seed in 0u64..1000, m in 1usize..25, k in 1usize..25, n in 1usize..25) {
        // Aᵀ·B accumulation kernel == naive (Aᵀ)·B.
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[m, n], 1.0, &mut rng);
        let fast = ops::matmul_tn(active_simd(), &a, &b);
        let slow = ops::matmul_naive(&a.transpose2(), &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_rows_bitwise_stable_for_any_row_count(seed in 0u64..1000, m in 1usize..20, k in 1usize..20, n in 1usize..20, pick in 0usize..20) {
        // The batching property behind advise_batch: any row of a GEMM
        // equals the same row computed through a 1-row GEMM, bit for bit.
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let full = ops::matmul(active_simd(), &a, &b);
        let i = pick % m;
        let single = ops::matmul(active_simd(), &a.slice_rows(i, 1), &b);
        prop_assert_eq!(full.row(i), single.row(0));
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..1000, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let c = Tensor::randn(&[k, n], 1.0, &mut rng);
        let lhs = ops::matmul(active_simd(), &a, &b.add(&c));
        let rhs = ops::matmul(active_simd(), &a, &b).add(&ops::matmul(active_simd(), &a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..1000, m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let lhs = ops::matmul(active_simd(), &a, &b).transpose2();
        let rhs = ops::matmul(active_simd(), &b.transpose2(), &a.transpose2());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn exp_approx_stays_within_ulp_budget(xs in vec(-87.3f32..88.0, 1..256)) {
        // The polynomial softmax exp must track f32::exp to a pinned ULP
        // budget everywhere on its evaluated domain.
        for &x in &xs {
            let got = ops::exp_approx(x);
            let want = x.exp();
            let ulp = got.to_bits().abs_diff(want.to_bits());
            prop_assert!(ulp <= 4, "exp_approx({x}) = {got} vs {want} ({ulp} ULP)");
        }
    }

    #[test]
    fn exp_approx_is_monotone_on_samples(a in -87.0f32..87.0, d in 1e-3f32..5.0) {
        // Monotonicity keeps softmax argmax-preservation exact.
        prop_assert!(ops::exp_approx(a) <= ops::exp_approx(a + d));
    }

    #[test]
    fn softmax_with_polynomial_exp_keeps_invariants(t in matrix(10), shift in -30.0f32..30.0) {
        // The softmax invariants under exp_approx: probabilities in
        // [0, 1], rows sum to ~1, and a uniform row shift changes nothing
        // beyond float noise (shift invariance).
        let mut p = t.clone();
        ops::softmax_rows(&mut p, None);
        let mut shifted = t.map(|v| v + shift);
        ops::softmax_rows(&mut shifted, None);
        for r in 0..p.rows() {
            let row = p.row(r);
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            for (a, b) in row.iter().zip(shifted.row(r)) {
                prop_assert!((0.0..=1.0).contains(a));
                prop_assert!((a - b).abs() < 1e-4, "shift variance: {a} vs {b}");
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions(t in matrix(10)) {
        let mut p = t.clone();
        ops::softmax_rows(&mut p, None);
        for r in 0..p.rows() {
            let row = p.row(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(row.iter().all(|v| (0.0..=1.0 + 1e-6).contains(v)));
        }
    }

    #[test]
    fn softmax_preserves_argmax(t in matrix(10)) {
        let mut p = t.clone();
        ops::softmax_rows(&mut p, None);
        for r in 0..t.rows() {
            let argmax_in = t.row(r).iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            let argmax_out = p.row(r).iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            // Ties can legitimately flip; only check when the max is unique.
            let max_v = t.row(r)[argmax_in];
            let unique = t.row(r).iter().filter(|v| (**v - max_v).abs() < 1e-6).count() == 1;
            if unique {
                prop_assert_eq!(argmax_in, argmax_out);
            }
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_finite(t in matrix(6)) {
        let labels: Vec<usize> = (0..t.rows()).map(|r| r % t.cols()).collect();
        let (loss_v, grad) = loss::softmax_cross_entropy(&t, &labels);
        prop_assert!(loss_v >= 0.0);
        prop_assert!(loss_v.is_finite());
        prop_assert!(grad.all_finite());
        // Each gradient row sums to ~0 (softmax minus one-hot).
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_output_is_scale_invariant(seed in 0u64..1000, scale in 0.5f32..20.0) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn(&[3, 8], 1.0, &mut rng);
        let mut ln1 = nn::LayerNorm::new("a", 8);
        let mut ln2 = nn::LayerNorm::new("b", 8);
        let y1 = ln1.forward(&x, false);
        let y2 = ln2.forward(&x.scale(scale), false);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn adamw_steps_stay_finite(seed in 0u64..1000, lr in 1e-5f32..0.5) {
        let mut rng = SeededRng::new(seed);
        let mut p = nn::Param::new("w", Tensor::randn(&[4, 4], 1.0, &mut rng));
        let mut opt = optim::AdamW::new(lr);
        for _ in 0..20 {
            p.zero_grad();
            p.grad = Tensor::randn(&[4, 4], 10.0, &mut rng);
            opt.begin_step();
            opt.update(&mut p);
            prop_assert!(p.value.all_finite());
        }
    }

    #[test]
    fn clip_global_norm_bounds_norm(seed in 0u64..1000, max_norm in 0.1f32..5.0) {
        let mut rng = SeededRng::new(seed);
        let mut p = nn::Param::new("w", Tensor::zeros(&[16]));
        p.grad = Tensor::randn(&[16], 3.0, &mut rng);
        let mut refs = [&mut p];
        optim::clip_global_norm(&mut refs, max_norm);
        let norm = refs[0].grad.norm();
        prop_assert!(norm <= max_norm * 1.001);
    }

    #[test]
    fn statedict_roundtrip(names in vec("[a-z]{1,10}", 1..5), seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let mut dict = pragformer_tensor::serialize::StateDict::new();
        for (i, name) in names.iter().enumerate() {
            let t = Tensor::randn(&[i + 1, 3], 1.0, &mut rng);
            dict.insert(format!("{name}{i}"), t);
        }
        let mut buf = Vec::new();
        dict.write_to(&mut buf).unwrap();
        let back = pragformer_tensor::serialize::StateDict::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), dict.len());
        for (name, t) in dict.iter() {
            prop_assert_eq!(back.get(name).unwrap(), t);
        }
    }

    #[test]
    fn dropout_mask_is_binary_scaled(p_drop in 0.0f32..0.9, seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let mut d = nn::Dropout::new(p_drop, &mut rng);
        let x = Tensor::full(&[10, 10], 1.0);
        let y = d.forward(&x, true);
        let scale = 1.0 / (1.0 - p_drop);
        for v in y.data() {
            prop_assert!(*v == 0.0 || (*v - scale).abs() < 1e-5);
        }
    }
}
