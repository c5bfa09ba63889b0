//! Transformer encoder: embeddings + stacked blocks (post-LN, GELU FFN).

use crate::attention::MultiHeadSelfAttention;
use crate::config::ModelConfig;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::QuantizedActivations;
use pragformer_tensor::nn::{
    Activation, ActivationKind, Dropout, Embedding, Layer, LayerNorm, Linear, Param, WeightCache,
};
use pragformer_tensor::Tensor;

/// One encoder block: `LN(x + MHSA(x))` then `LN(x + FFN(x))`.
pub struct EncoderBlock {
    attn: MultiHeadSelfAttention,
    ln1: LayerNorm,
    ff1: Linear,
    act: Activation,
    ff2: Linear,
    ln2: LayerNorm,
}

impl EncoderBlock {
    /// Builds one block.
    pub fn new(name: &str, cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            attn: MultiHeadSelfAttention::new(
                &format!("{name}.attn"),
                cfg.d_model,
                cfg.n_heads,
                rng,
            ),
            ln1: LayerNorm::new(&format!("{name}.ln1"), cfg.d_model),
            ff1: Linear::named(&format!("{name}.ff1"), cfg.d_model, cfg.d_ff, rng),
            act: Activation::new(ActivationKind::Gelu),
            ff2: Linear::named(&format!("{name}.ff2"), cfg.d_ff, cfg.d_model, rng),
            ln2: LayerNorm::new(&format!("{name}.ln2"), cfg.d_model),
        }
    }

    /// Forward over `[batch*seq, d_model]` activations.
    ///
    /// On the int8 tier the whole block runs fused: the attention output
    /// projection folds its residual add into the dequantize epilogue,
    /// `ff1` fuses bias+GELU, and `ff2` fuses bias+residual — each
    /// activation matrix is quantized exactly once for all its GEMM
    /// consumers and the scratch-backed quantized buffers recycle
    /// immediately. The f32 tiers keep the original unfused sequence
    /// bit for bit.
    ///
    /// `train` picks the attention/layer mode: a train forward stores
    /// every backward cache, an inference forward stores none (see the
    /// [`crate::attention`] docs).
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        let res1 = self.attn.forward_residual(x, batch, seq, valid, train);
        let h = self.ln1.forward(&res1, train);
        if self.ff1.is_quantized() {
            let qh = QuantizedActivations::quantize(&h);
            let mid = self.ff1.forward_quant_gelu(&qh);
            qh.recycle();
            let qmid = QuantizedActivations::quantize(&mid);
            pragformer_tensor::scratch::give(mid.into_data());
            let res2 = self.ff2.forward_quant_residual(&qmid, &h);
            qmid.recycle();
            self.ln2.forward(&res2, train)
        } else {
            let ff =
                self.ff2.forward(&self.act.forward(&self.ff1.forward(&h, train), train), train);
            self.ln2.forward(&h.add(&ff), train)
        }
    }

    /// Backward; returns gradient w.r.t. the block input.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d_res2 = self.ln2.backward(dy);
        let d_ff = self.ff1.backward(&self.act.backward(&self.ff2.backward(&d_res2)));
        let dh = d_res2.add(&d_ff);
        let d_res1 = self.ln1.backward(&dh);
        let d_attn = self.attn.backward(&d_res1);
        d_res1.add(&d_attn)
    }

    /// Parameter traversal.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
        self.ln2.visit_params(f);
    }

    /// Attention probabilities of the last forward (for explainability).
    pub fn last_attention(&self) -> Option<&[Tensor]> {
        self.attn.last_probs()
    }

    /// Visits every dense layer in the block (weight-cache management,
    /// weight accounting).
    pub fn for_each_linear(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        self.attn.for_each_linear(f);
        f(&mut self.ff1);
        f(&mut self.ff2);
    }
}

/// Token + position embeddings, embedding LayerNorm/dropout, and the block
/// stack.
pub struct Encoder {
    tok: Embedding,
    pos: Embedding,
    ln: LayerNorm,
    drop: Dropout,
    blocks: Vec<EncoderBlock>,
    cfg: ModelConfig,
}

impl Encoder {
    /// Builds the encoder; panics on an invalid config.
    pub fn new(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        cfg.validate().expect("invalid model config");
        let blocks =
            (0..cfg.n_layers).map(|l| EncoderBlock::new(&format!("enc.{l}"), cfg, rng)).collect();
        Self {
            tok: Embedding::new("emb.tok", cfg.vocab, cfg.d_model, rng),
            pos: Embedding::new("emb.pos", cfg.max_len, cfg.d_model, rng),
            ln: LayerNorm::new("emb.ln", cfg.d_model),
            drop: Dropout::new(cfg.dropout, rng),
            blocks,
            cfg: cfg.clone(),
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Forward over a batch of fixed-length id sequences.
    ///
    /// `ids` is `batch × max_len` flattened; `valid[b]` counts the non-pad
    /// prefix. Returns `[batch*max_len, d_model]` hidden states.
    pub fn forward(&mut self, ids: &[usize], valid: &[usize], train: bool) -> Tensor {
        self.forward_seq(ids, valid, self.cfg.max_len, train)
    }

    /// Forward over a batch padded to an explicit sequence length.
    ///
    /// Like [`Encoder::forward`] but with `seq ≤ max_len` chosen by the
    /// caller: `ids` is `batch × seq` flattened. Because attention masks
    /// every key position past `valid[b]` to an exact probability of 0
    /// and all other sub-layers are row-local, the hidden states of the
    /// valid prefix are **bitwise identical** for every padded length
    /// `seq ≥ valid[b]` — the property `Advisor::advise_batch` exploits to
    /// run short snippets through short (cheaper) forwards without
    /// changing any probability. Returns `[batch*seq, d_model]`.
    pub fn forward_seq(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        train: bool,
    ) -> Tensor {
        assert!(
            (1..=self.cfg.max_len).contains(&seq),
            "seq {seq} outside 1..={}",
            self.cfg.max_len
        );
        assert_eq!(ids.len() % seq, 0, "ids not a whole number of sequences");
        let batch = ids.len() / seq;
        assert_eq!(valid.len(), batch);
        let tok = self.tok.lookup(ids);
        let pos_ids: Vec<usize> = (0..ids.len()).map(|i| i % seq).collect();
        let pos = self.pos.lookup(&pos_ids);
        let summed = tok.add(&pos);
        let normed = self.ln.forward(&summed, train);
        // Dropout draws per *valid* position only, so the mask stream —
        // and therefore the whole training trajectory — is independent of
        // the padded length (the bucketed-training determinism contract).
        let mut h = self.drop.forward_rows(&normed, train, seq, valid);
        for blk in &mut self.blocks {
            let next = blk.forward(&h, batch, seq, valid, train);
            // The consumed activation buffer goes back to the scratch
            // arena; the next batch's embedding gather (and the per-head
            // attention tiles) draw from it instead of the allocator.
            pragformer_tensor::scratch::give(std::mem::replace(&mut h, next).into_data());
        }
        h
    }

    /// Backward from hidden-state gradients into every parameter.
    pub fn backward(&mut self, dh: &Tensor) {
        let mut d = dh.clone();
        for blk in self.blocks.iter_mut().rev() {
            d = blk.backward(&d);
        }
        let d = self.drop.backward(&d);
        let d = self.ln.backward(&d);
        // Token and position tables both receive the summed-embedding grad.
        self.tok.backward_ids(&d);
        self.pos.backward_ids(&d);
    }

    /// Parameter traversal.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok.visit_params(f);
        self.pos.visit_params(f);
        self.ln.visit_params(f);
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
    }

    /// Attention maps of the final block's last forward.
    pub fn last_attention(&self) -> Option<&[Tensor]> {
        self.blocks.last().and_then(EncoderBlock::last_attention)
    }

    /// Makes every weight matrix and embedding table hold the derived
    /// copy `cache` names (see [`WeightCache`]), in one idempotent pass
    /// over the [`Linear`] visitors: an already-built copy is kept, so
    /// calling this per forward rebuilds nothing while the regime stays
    /// put (the pack/quantize counters stay flat in steady state).
    pub fn set_weight_cache(&mut self, cache: WeightCache) {
        self.tok.set_weight_cache(cache);
        self.pos.set_weight_cache(cache);
        for blk in &mut self.blocks {
            blk.for_each_linear(&mut |lin| lin.set_weight_cache(cache));
        }
    }

    /// Whether the int8 weight copies are currently built.
    pub fn int8_active(&self) -> bool {
        self.tok.is_quantized()
    }

    /// Whether the pre-packed weight copies are currently built.
    pub fn packed_active(&self) -> bool {
        self.blocks.first().is_some_and(|blk| blk.ff1.is_packed())
    }

    /// Bytes retained by the attention backward caches across every
    /// block — zero after any inference forward (cache-free mode).
    pub fn retained_attention_bytes(&self) -> usize {
        self.blocks.iter().map(|blk| blk.attn.retained_cache_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_forward_shape() {
        let cfg = ModelConfig::tiny(20);
        let mut rng = SeededRng::new(3);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..2 * cfg.max_len).map(|i| i % 20).collect();
        let h = enc.forward(&ids, &[5, 7], false);
        assert_eq!(h.shape(), &[2 * cfg.max_len, cfg.d_model]);
        assert!(h.all_finite());
    }

    #[test]
    fn shorter_padded_seq_is_bitwise_equal_on_valid_prefix() {
        // The bucketing property: padding a 10-token sequence to seq=16
        // or to seq=max_len must give bit-identical hidden states on the
        // valid prefix (masked keys contribute exact zeros).
        let cfg = ModelConfig::tiny(20);
        let mut rng = SeededRng::new(11);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let valid = 10usize;
        let content: Vec<usize> = (0..valid).map(|i| (i * 5 + 3) % 20).collect();
        let mut short_ids = content.clone();
        short_ids.resize(16, 0);
        let mut long_ids = content;
        long_ids.resize(cfg.max_len, 0);
        let h_short = enc.forward_seq(&short_ids, &[valid], 16, false);
        let h_long = enc.forward_seq(&long_ids, &[valid], cfg.max_len, false);
        for t in 0..valid {
            assert_eq!(
                h_short.row(t),
                h_long.row(t),
                "row {t} differs between seq=16 and seq=max_len"
            );
        }
    }

    #[test]
    fn backward_accumulates_embedding_grads() {
        let cfg = ModelConfig::tiny(20);
        let mut rng = SeededRng::new(4);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..cfg.max_len).map(|i| i % 20).collect();
        let h = enc.forward(&ids, &[cfg.max_len], true);
        enc.backward(&Tensor::full(h.shape(), 0.1));
        let mut tok_grad_norm = 0.0f32;
        enc.visit_params(&mut |p| {
            if p.name == "emb.tok.table" {
                tok_grad_norm = p.grad.norm();
            }
        });
        assert!(tok_grad_norm > 0.0, "token embedding grad missing");
    }

    #[test]
    fn full_encoder_gradcheck_on_embeddings() {
        // End-to-end FD check: perturb one token-embedding weight and
        // compare the loss delta against the accumulated gradient.
        // The sequence is kept short explicitly: central differences in
        // f32 accumulate noise linearly with the number of positions a
        // shared embedding row feeds. Dropout is zeroed so the train-mode
        // forwards (only train forwards retain backward caches) stay
        // deterministic for the FD probes.
        let cfg = ModelConfig { max_len: 16, dropout: 0.0, ..ModelConfig::tiny(12) };
        let mut rng = SeededRng::new(5);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..cfg.max_len).map(|i| (i * 3 + 1) % 12).collect();
        let valid = vec![cfg.max_len];

        let loss = |enc: &mut Encoder| -> f32 {
            let h = enc.forward(&ids, &valid, true);
            h.data().iter().map(|v| v.sin()).sum()
        };

        enc.visit_params(&mut |p| p.zero_grad());
        let h = enc.forward(&ids, &valid, true);
        let dh = h.map(|v| v.cos());
        enc.backward(&dh);

        // Probe three scattered coordinates of the token table.
        let mut analytic = Vec::new();
        enc.visit_params(&mut |p| {
            if p.name == "emb.tok.table" {
                analytic = p.grad.data().to_vec();
            }
        });
        let used_id = ids[1];
        let probe_idx = used_id * cfg.d_model + 2;
        let eps = 1e-2f32;
        let nudge = |enc: &mut Encoder, delta: f32| {
            enc.visit_params(&mut |p| {
                if p.name == "emb.tok.table" {
                    p.value.data_mut()[probe_idx] += delta;
                }
            });
        };
        nudge(&mut enc, eps);
        let fp = loss(&mut enc);
        nudge(&mut enc, -2.0 * eps);
        let fm = loss(&mut enc);
        nudge(&mut enc, eps);
        let num = (fp - fm) / (2.0 * eps);
        let ana = analytic[probe_idx];
        let denom = num.abs().max(ana.abs()).max(1.0);
        assert!(
            ((num - ana) / denom).abs() < 5e-2,
            "embedding grad mismatch: numeric {num} analytic {ana}"
        );
    }

    #[test]
    fn dropout_changes_train_but_not_eval() {
        let mut cfg = ModelConfig::tiny(10);
        cfg.dropout = 0.5;
        let mut rng = SeededRng::new(6);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..cfg.max_len).map(|i| i % 10).collect();
        let e1 = enc.forward(&ids, &[cfg.max_len], false);
        let e2 = enc.forward(&ids, &[cfg.max_len], false);
        assert_eq!(e1, e2, "eval mode must be deterministic");
        let t1 = enc.forward(&ids, &[cfg.max_len], true);
        let t2 = enc.forward(&ids, &[cfg.max_len], true);
        assert_ne!(t1, t2, "train mode should be stochastic under dropout");
    }
}
