//! # pragformer-tensor
//!
//! A minimal, dependency-light CPU tensor and neural-network engine used as
//! the deep-learning substrate of the PragFormer reproduction.
//!
//! The paper fine-tunes a RoBERTa-derived transformer with PyTorch /
//! HuggingFace. Neither is available here, so this crate provides the pieces
//! a transformer encoder needs, implemented from scratch:
//!
//! * [`Tensor`]: a row-major `f32` n-d array with shape bookkeeping,
//!   element-wise math, reductions and (transposed) matrix products;
//! * [`ops`]: free functions for GEMM variants (cache-blocked, packed-B
//!   microkernels), softmax, bias addition — the hot GEMM loops are
//!   parallelized over rows on a persistent worker pool (see
//!   [`parallel`]); constant weight matrices can be packed once into
//!   [`ops::PackedWeights`] so inference never repacks;
//! * [`scratch`]: a per-thread reusable buffer arena the forward hot
//!   loop draws its short-lived f32 scratch from (pack panels, attention
//!   tiles, embedding gathers) instead of allocating fresh;
//! * [`kernel`]: kernel tiers — portable scalar, AVX2/FMA intrinsics,
//!   and an int8-quantized inference tier ([`kernel::quantize`]) — and
//!   the [`kernel::InferencePlan`] each model runs on (the process
//!   default comes from CPU detection or `PRAGFORMER_KERNEL`);
//! * [`nn`]: layers with explicit forward/backward passes ([`nn::Linear`],
//!   [`nn::LayerNorm`], [`nn::Embedding`], [`nn::Dropout`], activations);
//!   no autograd tape — every layer caches what its analytic backward needs,
//!   which keeps the engine small, predictable and fast on two cores;
//! * [`loss`]: softmax cross-entropy (sequence-masked variant for MLM);
//! * [`optim`]: AdamW and SGD with learning-rate schedules and global-norm
//!   gradient clipping;
//! * [`serialize`]: a versioned little-endian binary checkpoint format;
//! * [`gradcheck`]: finite-difference utilities used by the test-suites of
//!   this crate and of `pragformer-model` to validate every backward pass.
//!
//! ## Example
//!
//! ```
//! use pragformer_tensor::{Tensor, nn::{Linear, Layer}, optim::AdamW, loss};
//! let mut rng = pragformer_tensor::init::SeededRng::new(7);
//! let mut lin = Linear::new(4, 2, &mut rng);
//! let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
//! let y = lin.forward(&x, true);
//! let labels = vec![0usize, 1, 0, 1, 0, 1, 0, 1];
//! let (loss_value, dlogits) = loss::softmax_cross_entropy(&y, &labels);
//! lin.backward(&dlogits);
//! let mut opt = AdamW::new(1e-2);
//! opt.begin_step();
//! lin.visit_params(&mut |p| opt.update(p));
//! assert!(loss_value.is_finite());
//! ```

pub mod gradcheck;
pub mod init;
pub mod kernel;
pub mod loss;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod parallel;
pub mod scratch;
pub mod serialize;
mod tensor;

pub use tensor::Tensor;
