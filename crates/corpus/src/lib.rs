//! # pragformer-corpus
//!
//! A synthetic stand-in for the paper's **Open-OMP** database: 17k C
//! snippets crawled from GitHub, half annotated with
//! `#pragma omp parallel for` directives, half negative examples drawn
//! from the same files. The crawl is not reproducible offline, so this
//! crate *generates* the corpus from ~40 parameterized loop templates that
//! cover the same phenomenology:
//!
//! * positive templates: initialization, axpy/triad, GEMV/GEMM, stencils,
//!   element-wise math, reductions (`+`, `*`, `max`, `min`), loops needing
//!   `private` temporaries, imbalanced bodies needing `schedule(dynamic)`;
//! * negative templates: I/O inside the loop, loop-carried dependences,
//!   prefix sums, recurrences, tiny trip counts, `rand()`/`malloc` calls,
//!   pointer chasing, early exits, side-effecting helper calls;
//! * ambiguous templates emitted into *both* classes, reproducing the
//!   label noise inherent in developer-annotated data (the reason the
//!   paper's ceiling is ~0.85, not 1.0).
//!
//! The module layout mirrors the paper's data pipeline (Figure 2):
//! [`generator`] → [`database`] (dedup + stats for Tables 3-4 / Figure 3)
//! → [`dataset`] (80/10/10 balanced splits, Table 5). [`suites`] generates
//! the held-out PolyBench-like and SPEC-like benchmarks of Table 11.
//!
//! ```
//! use pragformer_corpus::{GeneratorConfig, generate};
//! let db = generate(&GeneratorConfig { target_records: 200, seed: 7, ..Default::default() });
//! assert!(db.len() >= 190);
//! let stats = db.stats();
//! assert!(stats.with_directive > 0 && stats.with_directive < db.len());
//! ```

pub mod database;
pub mod dataset;
pub mod domain;
pub mod export;
pub mod generator;
pub mod names;
pub mod record;
pub mod suites;
mod templates;

pub use database::{Database, DbStats, LengthHistogram};
pub use dataset::{ClauseKind, Dataset, Example, Split};
pub use domain::Domain;
pub use generator::{generate, GeneratorConfig};
pub use record::Record;
