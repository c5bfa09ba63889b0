//! Fully-connected layer `y = x·W + b`.

use super::{Layer, Param};
use crate::init::{xavier_bound, SeededRng};
use crate::kernel::quantize::{
    matmul_quant_reuse, QuantEpilogue, QuantizedActivations, QuantizedMatrix,
};
use crate::ops::{self, PackedWeights};
use crate::Tensor;

/// The derived weight copy a layer holds ([`Linear::set_weight_cache`],
/// [`super::Embedding::set_weight_cache`]). One value per model decides
/// the whole stack: no copy while training, packed f32 panels for f32
/// inference, int8 copies for the int8 tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightCache {
    /// Plain f32 weights only — the training regime (backward requires
    /// it).
    None,
    /// Pre-packed f32 panels (zero-repack f32 inference). Embedding
    /// tables are gathered, not multiplied, so they hold nothing here.
    Packed,
    /// Int8 copies (quantized inference).
    Int8,
}

/// Dense affine transform over the last dimension.
///
/// Input `[n, in]`, output `[n, out]`. Weights are Xavier-uniform
/// initialized; the bias starts at zero.
///
/// At inference the layer holds one derived copy of `W`, chosen by
/// [`Linear::set_weight_cache`]: a quantized copy for the int8 tier
/// (`forward` then runs the int8 GEMM instead of f32), or a
/// [`PackedWeights`] copy whose panels were packed once, so `forward`
/// skips the per-call pack while staying bitwise identical to the plain
/// f32 path. Both copies are inference-only — `backward` refuses to run
/// with either set — and are dropped whenever parameters are handed out
/// mutably (`visit_params`: optimizer steps, checkpoint restores), so
/// they can never go stale.
pub struct Linear {
    /// Weight matrix `[in, out]`.
    pub w: Param,
    /// Bias vector `[out]`.
    pub b: Param,
    cache_x: Option<Tensor>,
    qw: Option<QuantizedMatrix>,
    pw: Option<PackedWeights>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        Self::named("linear", in_dim, out_dim, rng)
    }

    /// Like [`Linear::new`] but with a checkpoint name prefix.
    pub fn named(name: &str, in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        let bound = xavier_bound(in_dim, out_dim);
        let w = Tensor::rand_uniform(&[in_dim, out_dim], -bound, bound, rng);
        Self {
            w: Param::new(format!("{name}.w"), w),
            b: Param::new(format!("{name}.b"), Tensor::zeros(&[out_dim])),
            cache_x: None,
            qw: None,
            pw: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Makes this layer hold exactly the derived copy of `W` that
    /// `cache` names, building it if missing and dropping the other.
    /// Idempotent: a copy already held is kept, so calling this before
    /// every forward costs nothing once warm.
    pub fn set_weight_cache(&mut self, cache: WeightCache) {
        if cache != WeightCache::Int8 {
            self.qw = None;
        } else if self.qw.is_none() {
            self.qw = Some(QuantizedMatrix::quantize(&self.w.value));
        }
        if cache != WeightCache::Packed {
            self.pw = None;
        } else if self.pw.is_none() {
            self.pw = Some(PackedWeights::pack(&self.w.value));
        }
    }

    /// Whether quantized inference is active.
    pub fn is_quantized(&self) -> bool {
        self.qw.is_some()
    }

    /// Bytes of the quantized form of this layer's weight matrix
    /// (static accounting; does not require the cache to exist).
    pub fn quantized_weight_bytes(&self) -> usize {
        QuantizedMatrix::bytes_for(self.in_dim(), self.out_dim())
    }

    /// Whether prepacked inference is active.
    pub fn is_packed(&self) -> bool {
        self.pw.is_some()
    }

    /// Bytes of the packed form of this layer's weight matrix (static
    /// accounting; does not require the cache to exist).
    pub fn packed_weight_bytes(&self) -> usize {
        PackedWeights::bytes_for(self.in_dim(), self.out_dim())
    }

    /// Int8 forward over **pre-quantized** activations with the bias
    /// fused into the dequantize epilogue — the quantize-once path
    /// siblings sharing one input use (attention Q/K/V). Requires the
    /// quantized cache ([`WeightCache::Int8`]).
    pub fn forward_quant(&self, qx: &QuantizedActivations) -> Tensor {
        let qw = self.qw.as_ref().expect("forward_quant on an unquantized layer");
        matmul_quant_reuse(qx, qw, QuantEpilogue::Bias(self.b.value.data()))
    }

    /// [`Linear::forward_quant`] with tanh-GELU fused after the bias —
    /// the feed-forward `ff1` epilogue.
    pub fn forward_quant_gelu(&self, qx: &QuantizedActivations) -> Tensor {
        let qw = self.qw.as_ref().expect("forward_quant_gelu on an unquantized layer");
        matmul_quant_reuse(qx, qw, QuantEpilogue::BiasGelu(self.b.value.data()))
    }

    /// [`Linear::forward_quant`] with a residual add fused after the
    /// bias — the attention output / `ff2` epilogue. `residual` is the
    /// block input, shaped like the output.
    pub fn forward_quant_residual(&self, qx: &QuantizedActivations, residual: &Tensor) -> Tensor {
        let qw = self.qw.as_ref().expect("forward_quant_residual on an unquantized layer");
        assert_eq!(residual.shape(), &[qx.m(), self.out_dim()], "residual shape");
        matmul_quant_reuse(
            qx,
            qw,
            QuantEpilogue::BiasResidual(self.b.value.data(), residual.data()),
        )
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.cols(), self.in_dim(), "Linear input dim");
        let y = match (&self.qw, &self.pw) {
            (Some(_), _) => {
                // Same fused path as `forward_quant`, so a layer fed a
                // shared pre-quantized input produces identical bits to
                // one quantizing its own (the quantize-once pin).
                let qx = QuantizedActivations::quantize(x);
                let y = self.forward_quant(&qx);
                qx.recycle();
                y
            }
            (None, Some(p)) => {
                let mut y = ops::matmul_prepacked(x, p);
                ops::add_bias(&mut y, &self.b.value);
                y
            }
            (None, None) => {
                let mut y = ops::matmul(x, &self.w.value);
                ops::add_bias(&mut y, &self.b.value);
                y
            }
        };
        // The input clone exists only for backward; inference forwards
        // neither build one nor keep an earlier pass's alive.
        self.cache_x = if train { Some(x.clone()) } else { None };
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert!(self.qw.is_none(), "Linear::backward on a quantized (inference-only) layer");
        assert!(self.pw.is_none(), "Linear::backward on a prepacked (inference-only) layer");
        let x = self.cache_x.take().expect("Linear::backward before forward");
        // dW = xᵀ·dy, db = Σ rows dy, dx = dy·Wᵀ
        self.w.grad.add_assign(&ops::matmul_tn(&x, dy));
        self.b.grad.add_assign(&ops::sum_rows(dy));
        // dx = dy · Wᵀ: matmul_nt transposes its second operand internally.
        ops::matmul_nt(dy, &self.w.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Handing out &mut Params can change the weights (optimizer
        // step, checkpoint restore): neither derived copy of W may
        // survive it.
        self.qw = None;
        self.pw = None;
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    #[test]
    fn forward_known_values() {
        let mut rng = SeededRng::new(0);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.w.value = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        lin.b.value = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        let y = lin.forward(&x, false);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(3, 5, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let y = lin.forward(&x, true);
        let dx = lin.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(lin.w.grad.shape(), &[3, 5]);
        assert_eq!(lin.b.grad.shape(), &[5]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = SeededRng::new(1);
        let mut lin = Linear::new(2, 2, &mut rng);
        let _ = lin.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn gradcheck_input_and_params() {
        let mut rng = SeededRng::new(3);
        let lin = Linear::new(3, 4, &mut rng);
        let x = Tensor::randn(&[5, 3], 1.0, &mut rng);
        gradcheck::check_layer(lin, &x, 2e-2);
    }

    #[test]
    fn quantized_forward_tracks_f32_and_cache_lifecycle() {
        let mut rng = SeededRng::new(9);
        let mut lin = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        let y32 = lin.forward(&x, false);
        lin.set_weight_cache(WeightCache::Int8);
        assert!(lin.is_quantized());
        let y8 = lin.forward(&x, false);
        for (a, b) in y32.data().iter().zip(y8.data()) {
            assert!((a - b).abs() < 0.1, "int8 {b} too far from f32 {a}");
        }
        // visit_params (optimizer step / state restore) must drop the cache.
        lin.visit_params(&mut |_| {});
        assert!(!lin.is_quantized(), "quantized cache survived visit_params");
        let y_back = lin.forward(&x, false);
        assert_eq!(y_back.data(), y32.data(), "f32 path must be restored exactly");
    }

    #[test]
    fn packed_forward_is_bitwise_f32_and_cache_lifecycle() {
        let mut rng = SeededRng::new(11);
        let mut lin = Linear::new(6, 4, &mut rng);
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        let y32 = lin.forward(&x, false);
        lin.set_weight_cache(WeightCache::Packed);
        assert!(lin.is_packed());
        assert_eq!(lin.packed_weight_bytes(), PackedWeights::bytes_for(6, 4));
        let yp = lin.forward(&x, false);
        // Same tier, same panels: prepacked must be bit-for-bit f32.
        assert_eq!(y32.data(), yp.data(), "prepacked forward diverged from f32");
        // visit_params (optimizer step / state restore) must drop the cache.
        lin.visit_params(&mut |_| {});
        assert!(!lin.is_packed(), "packed cache survived visit_params");
        let y_back = lin.forward(&x, false);
        assert_eq!(y_back.data(), y32.data());
    }

    #[test]
    fn weight_cache_holds_one_copy_at_a_time() {
        let mut rng = SeededRng::new(12);
        let mut lin = Linear::new(5, 3, &mut rng);
        lin.set_weight_cache(WeightCache::Int8);
        assert!(lin.is_quantized() && !lin.is_packed());
        lin.set_weight_cache(WeightCache::Packed);
        assert!(lin.is_packed() && !lin.is_quantized());
        lin.set_weight_cache(WeightCache::None);
        assert!(!lin.is_packed() && !lin.is_quantized());
    }

    #[test]
    #[should_panic(expected = "prepacked (inference-only)")]
    fn packed_backward_panics() {
        let mut rng = SeededRng::new(13);
        let mut lin = Linear::new(3, 3, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        lin.set_weight_cache(WeightCache::Packed);
        let y = lin.forward(&x, true);
        let _ = lin.backward(&Tensor::full(y.shape(), 1.0));
    }

    #[test]
    #[should_panic(expected = "inference-only")]
    fn quantized_backward_panics() {
        let mut rng = SeededRng::new(10);
        let mut lin = Linear::new(3, 3, &mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        lin.set_weight_cache(WeightCache::Int8);
        let y = lin.forward(&x, true);
        let _ = lin.backward(&Tensor::full(y.shape(), 1.0));
    }

    #[test]
    fn grads_accumulate_across_steps() {
        let mut rng = SeededRng::new(4);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::randn(&[3, 2], 1.0, &mut rng);
        let dy = Tensor::full(&[3, 2], 1.0);
        let _ = lin.forward(&x, true);
        let _ = lin.backward(&dy);
        let g1 = lin.w.grad.clone();
        let _ = lin.forward(&x, true);
        let _ = lin.backward(&dy);
        let g2 = lin.w.grad.clone();
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((b - 2.0 * a).abs() < 1e-4, "gradient did not accumulate");
        }
    }
}
