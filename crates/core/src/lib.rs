//! # pragformer-core
//!
//! The PragFormer pipeline (Figure 1 of the paper): corpus → tokenize →
//! train → classify → evaluate, assembled from the substrate crates.
//!
//! * [`encode`] — dataset encoding: records → token streams (one of the
//!   four representations) → padded id sequences;
//! * [`experiments`] — runnable experiments behind every evaluation table
//!   and figure (directive task, clause tasks, representation sweep,
//!   PolyBench/SPEC generalization, error-by-length, LIME examples);
//! * [`advisor`] — the paper's "immediate on-the-fly advisor" (§2.1):
//!   train once, then ask whether any C loop needs an OpenMP directive,
//!   with clause suggestions and optional S2S-compiler agreement;
//! * [`scale`] — small/paper experiment profiles.
//!
//! ## Quickstart
//!
//! ```no_run
//! use pragformer_core::{advisor::Advisor, scale::Scale};
//! let mut advisor = Advisor::train_from_scratch(Scale::Small, 42);
//! let advice = advisor
//!     .advise("for (i = 0; i < n; i++) a[i] = b[i] + c[i];")
//!     .unwrap();
//! println!("parallelize? {} (p = {:.2})", advice.needs_directive, advice.confidence);
//! ```

pub mod advisor;
pub mod encode;
pub mod experiments;
pub mod scale;

pub use advisor::{Advice, Advisor, HeadProbs, PreparedSnippet};
pub use encode::{encode_dataset, EncodedDataset};
pub use pragformer_tensor::kernel::{InferencePlan, KernelTier};
pub use scale::Scale;
