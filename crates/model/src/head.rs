//! The trunk/head split of the PragFormer classifier.
//!
//! §4.3's "FC layer" (two dense layers with a ReLU between them, plus
//! dropout) used to live inline in [`crate::PragFormer`]; it is now a
//! standalone [`ClassifierHead`] so several heads can share **one**
//! [`Trunk`] forward — the shared-trunk multi-task model
//! ([`crate::PragFormer::multi_task`]) runs the encoder once per
//! snippet and only the cheap `[batch, d_model] → [batch, n_classes]`
//! head projections per task.
//!
//! [`Trunk`] owns everything below the heads: the embedding + encoder
//! stack ([`Encoder`]) and CLS pooling. Its `[batch, d_model]` CLS output
//! is the hand-off point: bitwise identical regardless of batch size and
//! padded length (the `pragformer_tensor::ops` row-determinism contract),
//! which is what lets heads, caches and serving layers treat it as a pure
//! function of the encoded id sequence.

use crate::config::ModelConfig;
use crate::encoder::Encoder;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::{
    QuantizedActivations, QuantizedEmbedding, QuantizedMatrix,
};
use pragformer_tensor::kernel::{active_tier, KernelTier};
use pragformer_tensor::nn::{
    Activation, ActivationKind, Dropout, Layer, Linear, Param, WeightCache,
};
use pragformer_tensor::ops::PackedWeights;
use pragformer_tensor::Tensor;

/// The shared lower stack: embeddings + encoder blocks + CLS pooling.
///
/// `forward_cls` runs the whole encoder and gathers row `b·seq` of each
/// sequence (the CLS position) into a `[batch, d_model]` matrix;
/// `backward_cls` scatters CLS gradients back and completes the encoder
/// backward pass. One trunk forward feeds any number of
/// [`ClassifierHead`]s.
pub struct Trunk {
    encoder: Encoder,
    cache: Option<(usize, usize)>,
    /// Per-model override of the int8 decision: `Some(true)` forces the
    /// quantized trunk, `Some(false)` forces f32, `None` follows the
    /// process-wide kernel tier. Model-local so parity harnesses can
    /// compare both paths without flipping the global tier under
    /// concurrently running models.
    int8_override: Option<bool>,
}

impl Trunk {
    /// Builds a trunk from a config and seed.
    pub fn new(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self::from_encoder(Encoder::new(cfg, rng))
    }

    /// Wraps an already-built encoder (e.g. one restored from MLM
    /// pre-training).
    pub fn from_encoder(encoder: Encoder) -> Self {
        Self { encoder, cache: None, int8_override: None }
    }

    /// Sets the model-local int8 override (see the field docs). Takes
    /// effect on the next eval forward.
    pub fn set_int8_override(&mut self, force: Option<bool>) {
        self.int8_override = force;
    }

    /// The current model-local int8 override.
    pub fn int8_override(&self) -> Option<bool> {
        self.int8_override
    }

    /// The weight copies a forward in this mode runs on: none while
    /// training (backward refuses to run over inference caches), int8
    /// copies for eval under the int8 tier — or the model-local
    /// override — and pre-packed f32 panels for every other eval
    /// forward. Heads take the same value
    /// ([`ClassifierHead::set_weight_cache`]).
    pub fn weight_cache(&self, train: bool) -> WeightCache {
        if train {
            WeightCache::None
        } else if self.int8_override.unwrap_or_else(|| active_tier() == KernelTier::Int8) {
            WeightCache::Int8
        } else {
            WeightCache::Packed
        }
    }

    /// Eagerly builds the weight caches the next eval forward would use
    /// (int8 copies or pre-packed f32 panels), moving the one-time
    /// pack/quantize cost out of the first request.
    pub fn prepack_for_inference(&mut self) {
        let cache = self.weight_cache(false);
        self.encoder.set_weight_cache(cache);
        if pragformer_obs::enabled() && pragformer_obs::log_enabled(pragformer_obs::Level::Info) {
            let wb = self.weight_bytes();
            pragformer_obs::log_kv(
                pragformer_obs::Level::Info,
                "model.trunk",
                "trunk inference caches built",
                &[
                    ("path", if cache == WeightCache::Int8 { "int8" } else { "f32" }),
                    ("f32_bytes", &wb.f32_bytes.to_string()),
                    ("int8_bytes", &wb.int8_bytes.to_string()),
                    ("quant_scratch_bytes", &wb.quant_scratch_bytes.to_string()),
                ],
            );
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.encoder.config()
    }

    /// Read access to the underlying encoder (attention maps etc.).
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Bytes retained by the encoder's attention backward caches — zero
    /// after any inference forward (see [`crate::attention`]).
    pub fn retained_attention_bytes(&self) -> usize {
        self.encoder.retained_attention_bytes()
    }

    /// Forward over `batch × seq` flattened ids (`seq ≤ max_len`),
    /// returning the `[batch, d_model]` CLS representations.
    ///
    /// Per row, the result is **bitwise identical** for every batch size
    /// and every padded length `seq ≥ valid[b]` (see
    /// [`Encoder::forward_seq`]) — the property every head, cache and
    /// serving layer above this trunk relies on. Eval forwards exploit
    /// the same property from the inside: the padded length is clamped
    /// to the batch's longest valid prefix before the encoder runs, so
    /// rows the attention mask would discard are never embedded,
    /// projected, or normalized at all. The clamp is output-invisible
    /// by exactly the contract above (pinned by the padding-invariance
    /// proptests); training keeps the caller's padding because the
    /// backward cache records the caller-visible geometry.
    pub fn forward_cls(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        train: bool,
    ) -> Tensor {
        // Weight caches are chosen here, not in the layers (see
        // `weight_cache`). Setting them is idempotent and the copies are
        // invalidated by any parameter mutation, so this stays correct
        // across train/eval interleavings and checkpoint restores.
        self.encoder.set_weight_cache(self.weight_cache(train));
        let batch = ids.len() / seq.max(1);
        // Eval-only padded-length clamp (see the doc comment): run at
        // the longest valid prefix instead of the caller's padding.
        let mut run_seq = seq;
        let mut gathered: Vec<usize> = Vec::new();
        if !train && batch > 0 {
            let m = valid.iter().copied().max().unwrap_or(seq).clamp(1, seq.max(1));
            if m < seq {
                run_seq = m;
                if batch > 1 {
                    gathered.reserve(batch * m);
                    for b in 0..batch {
                        gathered.extend_from_slice(&ids[b * seq..b * seq + m]);
                    }
                }
            }
        }
        let run_ids: &[usize] = if run_seq == seq {
            ids
        } else if batch > 1 {
            &gathered
        } else {
            &ids[..run_seq]
        };
        let h = self.encoder.forward_seq(run_ids, valid, run_seq, train);
        let d_model = self.config().d_model;
        let mut cls = Tensor::zeros(&[batch, d_model]);
        for b in 0..batch {
            cls.row_mut(b).copy_from_slice(h.row(b * run_seq));
        }
        self.cache = Some((batch, run_seq));
        cls
    }

    /// Backward from CLS gradients (`[batch, d_model]`) into every
    /// encoder parameter. Must follow a matching [`Trunk::forward_cls`].
    pub fn backward_cls(&mut self, dcls: &Tensor) {
        let (batch, seq) = self.cache.take().expect("Trunk backward before forward");
        let d_model = self.config().d_model;
        let mut dh = Tensor::zeros(&[batch * seq, d_model]);
        for b in 0..batch {
            dh.row_mut(b * seq).copy_from_slice(dcls.row(b));
        }
        self.encoder.backward(&dh);
    }

    /// Drops the forward cache (eval-mode forwards that skip backward).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Parameter traversal over the encoder stack.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(f);
    }

    /// Static weight-memory accounting for this trunk (f32 vs the int8
    /// tier). Pure shape arithmetic from the config — building the int8
    /// caches is not required and nothing is invalidated.
    pub fn weight_bytes(&self) -> TrunkWeightBytes {
        let cfg = self.config();
        let (d, dff) = (cfg.d_model, cfg.d_ff);
        let mut f32_bytes = 0usize;
        let mut int8_bytes = 0usize;
        let mut prepacked_bytes = 0usize;
        // Embedding tables: quantized per row under int8; never
        // pre-packed (lookups are gathers, not GEMMs).
        for (rows, dim) in [(cfg.vocab, d), (cfg.max_len, d)] {
            f32_bytes += rows * dim * 4;
            int8_bytes += QuantizedEmbedding::bytes_for(rows, dim);
        }
        // Weight matrices: quantized per output column under int8,
        // panel-packed (column-padded to the kernel's NR) when prepacked.
        let mats_per_layer = [(d, d), (d, d), (d, d), (d, d), (d, dff), (dff, d)];
        for (rows, cols) in mats_per_layer.into_iter().cycle().take(6 * cfg.n_layers) {
            f32_bytes += rows * cols * 4;
            int8_bytes += QuantizedMatrix::bytes_for(rows, cols);
            prepacked_bytes += PackedWeights::bytes_for(rows, cols);
        }
        // Biases and LayerNorm affine params stay f32 in both tiers:
        // embedding LN (2d) + per layer 4 attention biases (4d), two
        // LNs (4d), and the FFN biases (dff + d).
        let small = 2 * d + cfg.n_layers * (4 * d + 4 * d + dff + d);
        f32_bytes += small * 4;
        int8_bytes += small * 4;
        // Quantized-activation scratch at the worst-case batch of one
        // max_len sequence: the arena retains one d_model-wide i8 lane
        // (shared in turn by the Q/K/V input, the attention output and
        // the FFN input) plus the wider d_ff lane for the FFN midpoint.
        let quant_scratch_bytes = QuantizedActivations::bytes_for(cfg.max_len, d)
            + QuantizedActivations::bytes_for(cfg.max_len, dff);
        TrunkWeightBytes { f32_bytes, int8_bytes, prepacked_bytes, quant_scratch_bytes }
    }
}

/// Byte totals for a trunk's weights in the f32 and int8 tiers
/// (see [`Trunk::weight_bytes`]).
#[derive(Clone, Copy, Debug)]
pub struct TrunkWeightBytes {
    /// Total bytes of every trunk parameter held as f32.
    pub f32_bytes: usize,
    /// Total bytes with every weight matrix / embedding table in its
    /// int8 form (i8 values + f32 scales); biases and LN params stay f32.
    pub int8_bytes: usize,
    /// *Additional* bytes held while zero-repack inference is active:
    /// one panel-packed copy per weight matrix (`⌈n/NR⌉·k·NR` floats
    /// each). Embedding tables, biases and LN params hold no packed
    /// form, so this is ≈ +1× the weight-matrix share of `f32_bytes`.
    pub prepacked_bytes: usize,
    /// *Additional* bytes retained by the scratch arena's i8 lane while
    /// int8 inference is active: per-sequence quantized activations
    /// (values + per-row scales) at the worst-case `max_len` shape —
    /// one `d_model`-wide buffer and one `d_ff`-wide buffer. Scales with
    /// batch rows, not with weights, and is zero on the f32 tiers.
    pub quant_scratch_bytes: usize,
}

impl TrunkWeightBytes {
    /// `int8_bytes / f32_bytes` — the compression ratio the int8
    /// acceptance gate bounds (≤ 0.30 at evaluation scales).
    pub fn ratio(&self) -> f64 {
        self.int8_bytes as f64 / self.f32_bytes as f64
    }
}

/// One classification head: `fc1 → ReLU → dropout → fc2` over CLS
/// representations (§4.3's two-dense FC block).
///
/// Parameters are named `{name}.fc1` / `{name}.fc2`, so the single-head
/// [`crate::PragFormer::new`] (name `"head"`) keeps its historical
/// state-dict keys and the multi-task heads get distinct ones
/// (`head.directive.fc1`, …).
pub struct ClassifierHead {
    fc1: Linear,
    act: Activation,
    drop: Dropout,
    fc2: Linear,
}

impl ClassifierHead {
    /// Builds a head whose parameters are named under `name`.
    pub fn new(name: &str, cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            fc1: Linear::named(&format!("{name}.fc1"), cfg.d_model, cfg.d_model, rng),
            act: Activation::new(ActivationKind::Relu),
            drop: Dropout::new(cfg.dropout, rng),
            fc2: Linear::named(&format!("{name}.fc2"), cfg.d_model, cfg.n_classes, rng),
        }
    }

    /// `[batch, d_model]` CLS rows → `[batch, n_classes]` logits.
    pub fn forward(&mut self, cls: &Tensor, train: bool) -> Tensor {
        let z = self.fc1.forward(cls, train);
        let z = self.act.forward(&z, train);
        let z = self.drop.forward(&z, train);
        self.fc2.forward(&z, train)
    }

    /// Backward from logit gradients; returns the CLS gradient.
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        let dz = self.fc2.backward(dlogits);
        let dz = self.drop.backward(&dz);
        let dz = self.act.backward(&dz);
        self.fc1.backward(&dz)
    }

    /// Parameter traversal.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.act.visit_params(f);
        self.drop.visit_params(f);
        self.fc2.visit_params(f);
    }

    /// Visits both dense layers (cache management, weight accounting).
    pub fn for_each_linear(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.fc1);
        f(&mut self.fc2);
    }

    /// Makes both dense layers hold the weight copy for `cache`. Heads
    /// always run f32 — the int8 tier quantizes only the trunk — so
    /// [`WeightCache::Int8`] packs them like [`WeightCache::Packed`].
    pub fn set_weight_cache(&mut self, cache: WeightCache) {
        let cache = if cache == WeightCache::None { cache } else { WeightCache::Packed };
        self.for_each_linear(&mut |lin| lin.set_weight_cache(cache));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trunk_cls_shape_and_determinism() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(1);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..3 * cfg.max_len).map(|i| i % 12).collect();
        let cls = trunk.forward_cls(&ids, &[5, 7, 9], cfg.max_len, false);
        trunk.clear_cache();
        assert_eq!(cls.shape(), &[3, cfg.d_model]);
        let again = trunk.forward_cls(&ids, &[5, 7, 9], cfg.max_len, false);
        trunk.clear_cache();
        assert_eq!(cls, again);
    }

    #[test]
    fn weight_bytes_f32_total_matches_param_traversal() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(5);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let wb = trunk.weight_bytes();
        let mut traversed = 0usize;
        trunk.visit_params(&mut |p| traversed += p.value.len() * 4);
        assert_eq!(wb.f32_bytes, traversed, "static accounting drifted from real params");
        assert!(wb.int8_bytes < wb.f32_bytes);
        // Packed panels cover exactly the weight matrices (no embeddings,
        // no biases), padded up to the kernel's NR column multiple.
        let (d, dff) = (cfg.d_model, cfg.d_ff);
        let mat_f32 = cfg.n_layers * (4 * d * d + 2 * d * dff) * 4;
        assert!(
            wb.prepacked_bytes >= mat_f32 && wb.prepacked_bytes < wb.f32_bytes,
            "prepacked {} outside [{mat_f32}, {})",
            wb.prepacked_bytes,
            wb.f32_bytes
        );
        // Tiny dims carry proportionally more scale overhead than the
        // eval scales the ≤0.30 gate targets; still far below 1.
        assert!(wb.ratio() < 0.45, "ratio {}", wb.ratio());
        // Quantized-activation scratch: exactly the two worst-case
        // per-sequence buffers (values + f32 row scales).
        let expect = (cfg.max_len * (d + dff)) + 2 * cfg.max_len * 4;
        assert_eq!(wb.quant_scratch_bytes, expect, "quant scratch accounting drifted");
    }

    #[test]
    fn int8_override_quantizes_eval_and_training_restores_f32() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(6);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..2 * cfg.max_len).map(|i| i % 12).collect();
        let valid = [7usize, 9];
        // Pin the f32 baseline model-locally so the test holds even when
        // the process-wide tier is forced to int8 (CI's int8 sweep).
        trunk.set_int8_override(Some(false));
        let f32_cls = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(!trunk.encoder().int8_active());
        trunk.set_int8_override(Some(true));
        let q_cls = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(trunk.encoder().int8_active(), "override must build int8 caches");
        assert_ne!(f32_cls, q_cls, "quantization should perturb some bits");
        for (a, b) in f32_cls.data().iter().zip(q_cls.data()) {
            assert!((a - b).abs() < 0.35, "int8 CLS {b} too far from f32 {a}");
        }
        // A training forward must tear the int8 caches down even while
        // the override is still set.
        let _ = trunk.forward_cls(&ids, &valid, cfg.max_len, true);
        trunk.clear_cache();
        assert!(!trunk.encoder().int8_active(), "train forward left int8 caches up");
        trunk.set_int8_override(Some(false));
        let back = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert_eq!(back, f32_cls, "f32 path must restore bitwise");
    }

    #[test]
    fn prepack_for_inference_packs_eagerly() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(9);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        // Start pinned to f32 so eager packing is what's under test even
        // when the process-wide tier is forced to int8 (CI's int8 sweep).
        trunk.set_int8_override(Some(false));
        assert!(!trunk.encoder().packed_active());
        trunk.prepack_for_inference();
        assert!(trunk.encoder().packed_active(), "eager packing did nothing");
        // With the int8 override set, eager packing builds the quantized
        // caches instead of f32 panels.
        trunk.set_int8_override(Some(true));
        assert_eq!(trunk.weight_cache(false), WeightCache::Int8);
        trunk.prepack_for_inference();
        assert!(trunk.encoder().int8_active(), "int8 override must quantize eagerly");
        assert!(!trunk.encoder().packed_active(), "int8 caches must replace the f32 panels");
        // A training forward tears every cache down.
        let ids: Vec<usize> = (0..cfg.max_len).map(|i| i % 12).collect();
        let _ = trunk.forward_cls(&ids, &[9], cfg.max_len, true);
        trunk.clear_cache();
        assert!(!trunk.encoder().int8_active() && !trunk.encoder().packed_active());
    }

    #[test]
    fn int8_cls_rows_are_batch_invariant() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(7);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        trunk.set_int8_override(Some(true));
        let ids: Vec<usize> = (0..3 * cfg.max_len).map(|i| (i * 3 + 1) % 12).collect();
        let valid = [5usize, 8, 11];
        let batched = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        for b in 0..3 {
            let one = trunk.forward_cls(
                &ids[b * cfg.max_len..(b + 1) * cfg.max_len],
                &valid[b..b + 1],
                cfg.max_len,
                false,
            );
            trunk.clear_cache();
            assert_eq!(one.row(0), batched.row(b), "int8 CLS row {b} not batch invariant");
        }
    }

    #[test]
    fn head_forward_backward_shapes() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(2);
        let mut head = ClassifierHead::new("head", &cfg, &mut rng);
        let cls = Tensor::full(&[4, cfg.d_model], 0.1);
        let logits = head.forward(&cls, true);
        assert_eq!(logits.shape(), &[4, cfg.n_classes]);
        let dcls = head.backward(&Tensor::full(&[4, cfg.n_classes], 0.5));
        assert_eq!(dcls.shape(), &[4, cfg.d_model]);
        let mut names = Vec::new();
        head.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(names.iter().any(|n| n == "head.fc1.w"));
        assert!(names.iter().any(|n| n == "head.fc2.b"));
    }

    #[test]
    fn head_names_follow_prefix() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(3);
        let mut head = ClassifierHead::new("head.private", &cfg, &mut rng);
        let mut names = Vec::new();
        head.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(!names.is_empty());
        for n in &names {
            assert!(n.starts_with("head.private.fc"), "unexpected param name {n}");
        }
    }
}
