//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers cache whatever their analytic backward needs during `forward`
//! and release it in `backward`, accumulating parameter gradients into
//! [`Param::grad`]. Optimizers visit parameters through
//! [`Layer::visit_params`]; parameter identity (for optimizer state such
//! as Adam moments) comes from the unique [`Param::id`].
//!
//! ## Plans
//!
//! Layers that run kernels read one value, [`WeightCache`]:
//! `WeightCache::None` in training (plain f32 weights, the default
//! plan's float kernels) and `WeightCache::Infer(plan)` at inference
//! (int8 copies on an int8 [`InferencePlan`](crate::kernel::InferencePlan),
//! pre-packed panels otherwise, on the plan's kernels). A model hands
//! the same value to every layer (the model crate's
//! `Trunk::weight_cache`); blocks built from layers (attention, the
//! feed-forward block) read it back from their [`Linear`]s
//! ([`Linear::weight_cache`]) rather than keeping a copy. A layer used
//! on its own, with no value set, runs like training.

pub(crate) mod activation;
mod dropout;
mod embedding;
mod layernorm;
mod linear;

pub use activation::{gelu, gelu_backward, relu, relu_backward, Activation, ActivationKind};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use layernorm::LayerNorm;
pub use linear::{Linear, WeightCache};

use crate::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(1);

/// A trainable tensor: value plus accumulated gradient.
pub struct Param {
    /// Unique, process-wide identifier; optimizer state is keyed on it.
    pub id: u64,
    /// Human-readable name used by checkpoints (e.g. `enc.0.attn.wq`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by `backward` calls since the last `zero_grad`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed), name: name.into(), value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter holds no weights.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Common layer interface: forward, backward, parameter traversal.
///
/// `train` switches stochastic behaviour (dropout) on; evaluation passes
/// `false` and become deterministic.
pub trait Layer {
    /// Computes the layer output, caching activations for `backward`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates the upstream gradient, accumulating into parameter
    /// gradients and returning the gradient w.r.t. the layer input.
    ///
    /// Must be called after a matching `forward`; implementations panic on
    /// a missing cache to surface sequencing bugs early.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Calls `f` on every trainable parameter of the layer (possibly none).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar weights.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ids_are_unique() {
        let a = Param::new("a", Tensor::zeros(&[2]));
        let b = Param::new("b", Tensor::zeros(&[2]));
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new("p", Tensor::zeros(&[3]));
        p.grad = Tensor::full(&[3], 5.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0; 3]);
    }
}
