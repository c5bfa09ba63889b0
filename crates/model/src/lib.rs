//! # pragformer-model
//!
//! The PragFormer model (§4 of the paper): a transformer encoder with a
//! two-layer classification head, plus the masked-language-model (MLM)
//! pre-training objective that stands in for the DeepSCC-RoBERTa
//! initialization.
//!
//! Everything runs on `pragformer-tensor`'s explicit-backprop layers; each
//! module's backward pass is validated against finite differences in the
//! test-suite.
//!
//! * [`config::ModelConfig`] — hyper-parameters (the defaults are the
//!   reproduction-scale model that trains on two CPU cores);
//! * [`attention`] — multi-head self-attention with padding masks;
//! * [`encoder`] — embeddings + encoder blocks (post-LN, GELU FFN);
//! * [`head`] — the trunk/head split: [`head::Trunk`] (embeddings +
//!   encoder + CLS pooling) and [`head::ClassifierHead`] (the two-dense
//!   FC block);
//! * [`pragformer::PragFormer`] — the one model type: a trunk plus N
//!   named heads. [`PragFormer::new`] is the paper's single-task model
//!   (N = 1); [`PragFormer::multi_task`] puts the directive / private /
//!   reduction heads on one trunk, one encoder forward per snippet
//!   instead of three;
//! * [`multitask`] — the multi-task training objective
//!   ([`multitask::fit`]) on the shared engine;
//! * [`mlm`] — MLM pre-training (15% masking, 80/10/10 mask policy);
//! * [`batching`] — the shared length-bucketed training engine
//!   ([`batching::TrainLoop`] + the [`batching::Objective`] trait) every
//!   training entry point runs on, including grouped (per-task) batch
//!   formation and fairseq-style bucketed shuffling
//!   ([`TrainConfig::shuffle_window`]);
//! * [`trainer`] — mini-batch fine-tuning (the classification objective)
//!   emitting the per-epoch train-loss / valid-loss / valid-accuracy
//!   series of Figures 4-6.

pub mod attention;
pub mod batching;
pub mod config;
pub mod encoder;
pub mod head;
pub mod mlm;
pub mod multitask;
pub mod pragformer;
pub mod trainer;

pub use batching::{EpochMetrics, TrainConfig, TrainLoop};
pub use config::ModelConfig;
pub use head::{ClassifierHead, Trunk, TrunkWeightBytes};
pub use multitask::{MultiTaskConfig, MultiTaskExample, MultiTaskHistory, Task};
pub use pragformer::PragFormer;
pub use trainer::Trainer;
