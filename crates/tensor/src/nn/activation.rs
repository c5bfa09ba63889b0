//! Activation functions (ReLU for the classification head, GELU for the
//! transformer feed-forward blocks, matching RoBERTa).

use super::{Layer, Param};
use crate::kernel::{self, Simd};
use crate::Tensor;

pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_C: f32 = 0.044_715;

/// ReLU applied element-wise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU backward given the *input* of the forward pass.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip(dy, |xv, d| if xv > 0.0 { d } else { 0.0 })
}

/// GELU, tanh approximation (the variant used by BERT/RoBERTa):
/// `0.5·x·(1 + tanh(√(2/π)(x + 0.044715 x³)))`.
///
/// Runs on `simd`: libm `tanh` per element on scalar, the exp-based
/// vector twin under AVX2 (within a few ulp; bitwise deterministic per
/// instruction set like every forward kernel).
pub fn gelu(simd: Simd, x: &Tensor) -> Tensor {
    match simd {
        Simd::Scalar => x.map(gelu_scalar),
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                let mut out = Tensor::zeros(x.shape());
                crate::kernel::avx2::gelu(x.data(), out.data_mut());
                out
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

#[inline]
fn gelu_scalar(v: f32) -> f32 {
    0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + GELU_C * v * v * v)).tanh())
}

/// In-place [`gelu`] over a flat slice — the int8 GEMM's fused
/// epilogue. The int8 kernels always pass their plan's *float* simd
/// here (never the int8 sub-simd), so `int8` and `int8-scalar` apply
/// bit-identical GELUs.
pub(crate) fn gelu_in_place(simd: Simd, buf: &mut [f32]) {
    match simd {
        Simd::Scalar => buf.iter_mut().for_each(|v| *v = gelu_scalar(*v)),
        Simd::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            crate::kernel::avx2::gelu_in_place(buf);
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("avx2 kernels requested on a non-x86_64 build");
        }
    }
}

/// GELU backward given the forward input.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip(dy, |v, d| {
        let u = SQRT_2_OVER_PI * (v + GELU_C * v * v * v);
        let t = u.tanh();
        let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * v * v);
        let g = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
        d * g
    })
}

/// Which non-linearity an [`Activation`] layer applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivationKind {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

/// Stateless activation wrapped in the [`Layer`] interface.
pub struct Activation {
    kind: ActivationKind,
    cache_x: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cache_x: None }
    }

    /// The configured non-linearity.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// [`Layer::forward`] on an explicit instruction set — what an eval
    /// forward under a model's plan runs ([`Layer::forward`] uses the
    /// default plan's).
    pub fn forward_on(&mut self, simd: Simd, x: &Tensor, train: bool) -> Tensor {
        self.cache_x = if train { Some(x.clone()) } else { None };
        match self.kind {
            ActivationKind::Relu => relu(x),
            ActivationKind::Gelu => gelu(simd, x),
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_on(kernel::active_simd(), x, train)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("Activation::backward before forward");
        match self.kind {
            ActivationKind::Relu => relu_backward(&x, dy),
            ActivationKind::Gelu => gelu_backward(&x, dy),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use crate::init::SeededRng;

    #[test]
    fn relu_known_values() {
        let x = Tensor::from_vec(&[4], vec![-2., -0.5, 0.0, 3.0]);
        assert_eq!(relu(&x).data(), &[0., 0., 0., 3.]);
    }

    #[test]
    fn gelu_known_values() {
        // Reference values from the tanh approximation.
        let x = Tensor::from_vec(&[3], vec![-1.0, 0.0, 1.0]);
        let y = gelu(kernel::active_simd(), &x);
        assert!((y.data()[0] + 0.1588).abs() < 1e-3);
        assert_eq!(y.data()[1], 0.0);
        assert!((y.data()[2] - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_shape_properties() {
        // Monotone for x ≥ 0; bounded small dip for x < 0 (the tanh-GELU
        // minimum is ≈ −0.17 near x ≈ −0.75); approaches identity for
        // large positive x and zero for large negative x.
        let xs: Vec<f32> = (0..=20).map(|i| i as f32 / 10.0).collect();
        let y = gelu(kernel::active_simd(), &Tensor::from_vec(&[xs.len()], xs));
        for w in y.data().windows(2) {
            assert!(w[1] >= w[0] - 1e-6);
        }
        let neg: Vec<f32> = (-40..0).map(|i| i as f32 / 10.0).collect();
        let yn = gelu(kernel::active_simd(), &Tensor::from_vec(&[neg.len()], neg));
        for v in yn.data() {
            assert!(*v <= 1e-6 && *v > -0.2, "gelu(neg) out of range: {v}");
        }
        assert!((gelu_scalar(6.0) - 6.0).abs() < 1e-3);
        assert!(gelu_scalar(-6.0).abs() < 1e-3);
    }

    #[test]
    fn gradcheck_relu_and_gelu() {
        let mut rng = SeededRng::new(10);
        // Keep ReLU inputs away from the kink at 0.
        let x =
            Tensor::randn(&[4, 5], 1.0, &mut rng).map(|v| if v.abs() < 0.1 { v + 0.3 } else { v });
        gradcheck::check_layer(Activation::new(ActivationKind::Relu), &x, 2e-2);
        gradcheck::check_layer(Activation::new(ActivationKind::Gelu), &x, 2e-2);
    }
}
