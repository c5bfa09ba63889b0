//! Multi-head self-attention with padding masks and an analytic
//! backward.
//!
//! Activations are `[batch*seq, d_model]` tensors; per-sequence valid
//! lengths implement the padding mask: every query row attends only to
//! the first `valid[b]` key positions of its sequence. Rows beyond the
//! valid length still flow through (their queries exist) but nothing
//! downstream reads them — CLS pooling uses row 0 of each sequence.
//!
//! ## Execution model
//!
//! Every forward, train or eval, runs the same three stages:
//!
//! 1. **Projection.** Q, K and V come from three `[batch·seq ×
//!    d_model]` GEMMs through the `wq`/`wk`/`wv` [`Linear`] layers,
//!    regardless of batch size, which is where batching pays. Each
//!    layer runs on whatever weight copy its model chose
//!    ([`pragformer_tensor::nn::WeightCache`]): plain f32 in training,
//!    pre-packed panels for f32 inference (bitwise the plain GEMM), or
//!    int8 copies on the quantized tier — there `x` is quantized
//!    **once** and shared by all three GEMMs (the quantize-once reuse
//!    pinned by the tensor crate's `int8_kernel_proptests`).
//! 2. **Score/context tiles.** The per-`(batch, head)` `[seq, seq]`
//!    score and `[seq, d_head]` context tiles are inherently
//!    block-diagonal, so they are dispatched across the persistent
//!    thread pool ([`pragformer_tensor::parallel`]) — each pair's small
//!    GEMMs run inline on one worker (nested parallel calls don't
//!    re-dispatch). Head tiles gather from the projections by column
//!    offset `h·d_head`, ride [`scratch`] capacity, and go back to the
//!    arena as soon as they are consumed. Scores are scaled by
//!    `1/√d_head`, then masked-softmaxed ([`ops::softmax_rows_uniform`]).
//! 3. **Merge.** Context tiles scatter-add into an **arena-backed**
//!    `[batch·seq, d_model]` output in a fixed serial order, so results
//!    stay bitwise deterministic for any batch size and worker split.
//!
//! ## Mode semantics (Train vs Infer)
//!
//! The `train` flag picks the mode. A **Train** forward stores the
//! backward cache (projected Q/K/V plus the per-`(batch, head)`
//! probability tiles, which [`MultiHeadSelfAttention::last_probs`]
//! exposes to explainability tools). An **Infer** forward is
//! cache-free: it neither clones into nor retains the backward cache (a
//! previous train cache is dropped), and every intermediate —
//! projections, score tiles, context tiles, the merged context — is
//! recycled through the scratch arena, so steady-state inference
//! retains zero attention bytes and allocates nothing. Both modes
//! produce the same bits.

use pragformer_obs as obs;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::QuantizedActivations;
use pragformer_tensor::nn::{Layer, Linear, Param};
use pragformer_tensor::ops;
use pragformer_tensor::parallel::par_map_indexed;
use pragformer_tensor::{scratch, Tensor};
use std::sync::{Arc, OnceLock};

/// Counts one per-`(batch, head)` score/context tile into
/// `pragformer_attn_tile_dispatch_total`.
#[inline]
fn record_tile_dispatch() {
    if !obs::enabled() {
        return;
    }
    static TILES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    TILES
        .get_or_init(|| {
            obs::counter(
                "pragformer_attn_tile_dispatch_total",
                "Per-(batch, head) attention score/context tiles dispatched",
                &[],
            )
        })
        .inc();
}

/// Multi-head self-attention block (projections + scaled dot-product +
/// output projection). See the [module docs](self) for the execution
/// model and the Train/Infer mode semantics.
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    d_model: usize,
    cache: Option<Cache>,
}

struct Cache {
    batch: usize,
    seq: usize,
    /// Projected Q/K/V, `[batch*seq, d_model]`.
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Attention probabilities per (batch, head): `[seq, seq]`.
    probs: Vec<Tensor>,
}

impl MultiHeadSelfAttention {
    /// Creates the four projection layers.
    pub fn new(name: &str, d_model: usize, n_heads: usize, rng: &mut SeededRng) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide into heads");
        Self {
            wq: Linear::named(&format!("{name}.wq"), d_model, d_model, rng),
            wk: Linear::named(&format!("{name}.wk"), d_model, d_model, rng),
            wv: Linear::named(&format!("{name}.wv"), d_model, d_model, rng),
            wo: Linear::named(&format!("{name}.wo"), d_model, d_model, rng),
            n_heads,
            d_model,
            cache: None,
        }
    }

    /// Extracts a `[seq, d_head]` tile of sequence `b` starting at
    /// column `col0` from a `[batch*seq, d_model]` tensor — head `h`
    /// sits at `col0 = h·d_head`. The tile rides on [`scratch`] capacity
    /// (no zero fill); the forward pass gives it back once consumed, so
    /// steady-state tiles allocate nothing.
    fn head_tile(&self, x: &Tensor, b: usize, col0: usize, seq: usize) -> Tensor {
        let dh = self.d_model / self.n_heads;
        let mut data = scratch::take(seq * dh);
        for t in 0..seq {
            let row = x.row(b * seq + t);
            data.extend_from_slice(&row[col0..col0 + dh]);
        }
        Tensor::from_vec(&[seq, dh], data)
    }

    /// Like [`Self::head_tile`] but transposed: `[d_head, seq]`. Score
    /// GEMMs (`Q·Kᵀ` and `dCtx·Vᵀ`) consume the transposed tile so both
    /// operands stream contiguously through the GEMM inner loop.
    fn head_tile_t(&self, x: &Tensor, b: usize, col0: usize, seq: usize) -> Tensor {
        let dh = self.d_model / self.n_heads;
        let mut data = scratch::take(dh * seq);
        for d in 0..dh {
            for t in 0..seq {
                data.push(x.row(b * seq + t)[col0 + d]);
            }
        }
        Tensor::from_vec(&[dh, seq], data)
    }

    /// Adds a `[seq, d_head]` tile back into head `h` of sequence `b`.
    fn add_head_tile(&self, x: &mut Tensor, tile: &Tensor, b: usize, h: usize, seq: usize) {
        let dh = self.d_model / self.n_heads;
        for t in 0..seq {
            let src = tile.row(t);
            let dst = &mut x.row_mut(b * seq + t)[h * dh..(h + 1) * dh];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += *s;
            }
        }
    }

    /// Forward pass.
    ///
    /// `x` is `[batch*seq, d_model]`; `valid[b]` is the non-pad prefix of
    /// sequence `b` (≥ 1, counting CLS). `train` picks the mode (see the
    /// [module docs](self)): only a train forward retains the backward
    /// cache and probabilities.
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        let context = self.context_from(x, batch, seq, valid, train);
        let y = self.wo.forward(&context, train);
        scratch::give(context.into_data());
        y
    }

    /// Forward pass fused with the residual connection: returns
    /// `x + MHSA(x)`.
    ///
    /// On the int8 tier the output projection runs the fused
    /// dequantize+bias+residual epilogue, so the residual add costs no
    /// extra pass over the activations. On the f32 tiers this is exactly
    /// `x.add(&self.forward(..))` — the same bits as the unfused form.
    pub fn forward_residual(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        let context = self.context_from(x, batch, seq, valid, train);
        let out = if self.wo.is_quantized() {
            let qc = QuantizedActivations::quantize(&context);
            let out = self.wo.forward_quant_residual(&qc, x);
            qc.recycle();
            out
        } else {
            x.add(&self.wo.forward(&context, train))
        };
        scratch::give(context.into_data());
        out
    }

    /// Runs the projection stage: three GEMMs, with `x` quantized
    /// **once** for all three when the projection weights hold int8
    /// copies.
    fn project(&mut self, x: &Tensor, train: bool) -> (Tensor, Tensor, Tensor) {
        if self.wq.is_quantized() {
            let qx = QuantizedActivations::quantize(x);
            let qkv = (
                self.wq.forward_quant(&qx),
                self.wk.forward_quant(&qx),
                self.wv.forward_quant(&qx),
            );
            qx.recycle();
            qkv
        } else {
            (self.wq.forward(x, train), self.wk.forward(x, train), self.wv.forward(x, train))
        }
    }

    /// Projects Q/K/V, runs the masked score/context tiles, and returns
    /// the merged `[batch*seq, d_model]` context (pre output-projection)
    /// on arena capacity. Train forwards store the backward cache;
    /// inference forwards recycle every intermediate (see the
    /// [module docs](self)).
    fn context_from(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        assert_eq!(x.rows(), batch * seq, "activation rows");
        assert_eq!(valid.len(), batch, "valid lengths");
        let d = self.d_model;
        let (q, k, v) = self.project(x, train);
        let dh = d / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut context =
            Tensor::from_vec(&[batch * seq, d], scratch::take_zeroed(batch * seq * d));
        // Score/context tiles per (batch, head) pair, computed across the
        // pool. Each pair is independent; the merge below runs serially in
        // a fixed order so results don't depend on scheduling.
        let tiles = par_map_indexed(batch * self.n_heads, 2, |bh| {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            let vb = valid[b].clamp(1, seq);
            record_tile_dispatch();
            let qt = self.head_tile(&q, b, h * dh, seq);
            let ktt = self.head_tile_t(&k, b, h * dh, seq);
            let vt = self.head_tile(&v, b, h * dh, seq);
            // The per-call K/V tiles are too transient to pre-pack:
            // matmul_unpacked runs the simple kernel (bitwise identical
            // to the packed path) with zero pack builds per call.
            let mut scores = ops::matmul_unpacked(&qt, &ktt);
            scores.map_in_place(|s| s * scale);
            ops::softmax_rows_uniform(&mut scores, vb);
            let ctx = ops::matmul_unpacked(&scores, &vt);
            scratch::give(qt.into_data());
            scratch::give(ktt.into_data());
            scratch::give(vt.into_data());
            if train {
                (Some(scores), ctx)
            } else {
                scratch::give(scores.into_data());
                (None, ctx)
            }
        });
        let mut probs = Vec::with_capacity(if train { batch * self.n_heads } else { 0 });
        for (bh, (scores, ctx)) in tiles.into_iter().enumerate() {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            self.add_head_tile(&mut context, &ctx, b, h, seq);
            scratch::give(ctx.into_data());
            if let Some(p) = scores {
                probs.push(p);
            }
        }
        // Train retains the backward cache; inference retains nothing —
        // not even a previous train forward's cache.
        self.cache = if train {
            Some(Cache { batch, seq, q, k, v, probs })
        } else {
            scratch::give(q.into_data());
            scratch::give(k.into_data());
            scratch::give(v.into_data());
            None
        };
        context
    }

    /// Backward pass; returns gradient w.r.t. the input activations.
    /// Requires a preceding **train** forward (inference forwards are
    /// cache-free).
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("attention backward before forward");
        let Cache { batch, seq, q, k, v, probs } = cache;
        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let dcontext = self.wo.backward(dy);
        let mut dq = Tensor::zeros(&[batch * seq, self.d_model]);
        let mut dk = Tensor::zeros(&[batch * seq, self.d_model]);
        let mut dv = Tensor::zeros(&[batch * seq, self.d_model]);
        // Per-(batch, head) gradient tiles across the pool, merged
        // serially (mirrors the forward pass).
        let tiles = par_map_indexed(batch * self.n_heads, 2, |bh| {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            let p = &probs[bh];
            let dctx = self.head_tile(&dcontext, b, h * dh, seq);
            let qt = self.head_tile(&q, b, h * dh, seq);
            let kt = self.head_tile(&k, b, h * dh, seq);
            let vtt = self.head_tile_t(&v, b, h * dh, seq);
            // dV = Pᵀ · dCtx
            let dvt = ops::matmul_tn(p, &dctx);
            // dP = dCtx · Vᵀ
            let dp = ops::matmul(&dctx, &vtt);
            // dS = softmax'(P, dP) (masked cols have P = 0 ⇒ dS = 0)
            let mut ds = ops::softmax_backward(p, &dp);
            ds.map_in_place(|s| s * scale);
            // dQ = dS · K ; dK = dSᵀ · Q
            let dqt = ops::matmul(&ds, &kt);
            let dkt = ops::matmul_tn(&ds, &qt);
            (dqt, dkt, dvt)
        });
        for (bh, (dqt, dkt, dvt)) in tiles.into_iter().enumerate() {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            self.add_head_tile(&mut dq, &dqt, b, h, seq);
            self.add_head_tile(&mut dk, &dkt, b, h, seq);
            self.add_head_tile(&mut dv, &dvt, b, h, seq);
        }
        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }

    /// Visits the four projection layers' parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Visits the four projection layers themselves (weight-cache
    /// management, weight accounting).
    pub fn for_each_linear(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }

    /// Attention probabilities of the last **train** forward, per
    /// `(batch, head)` in row-major order — used by explainability
    /// tools. `None` after an inference forward (cache-free mode).
    pub fn last_probs(&self) -> Option<&[Tensor]> {
        self.cache.as_ref().map(|c| c.probs.as_slice())
    }

    /// Bytes currently retained by this block's backward cache
    /// (projected Q/K/V plus every probability tile). Exactly zero after
    /// an inference forward — the invariant `profile_advise` asserts in
    /// steady state.
    pub fn retained_cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| {
            let probs: usize = c.probs.iter().map(Tensor::len).sum();
            (c.q.len() + c.k.len() + c.v.len() + probs) * 4
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragformer_tensor::nn::WeightCache;

    fn rng() -> SeededRng {
        SeededRng::new(12)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x = Tensor::randn(&[2 * 5, 8], 1.0, &mut r);
        let y = attn.forward(&x, 2, 5, &[5, 3], false);
        assert_eq!(y.shape(), &[10, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn padding_positions_get_zero_attention() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x = Tensor::randn(&[4, 8], 1.0, &mut r);
        // Train mode: probabilities are only retained for backward /
        // explainability there.
        let _ = attn.forward(&x, 1, 4, &[2], true);
        let probs = attn.last_probs().unwrap();
        for p in probs {
            for row in 0..4 {
                assert_eq!(p.at2(row, 2), 0.0);
                assert_eq!(p.at2(row, 3), 0.0);
                let s: f32 = p.row(row).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn inference_forward_is_cache_free_and_bitwise_equal_to_train() {
        // Eval forwards run on pre-packed panels and must reproduce the
        // plain-f32 train forward bit for bit, including for a d_model
        // that is not a multiple of the pack width.
        for (d_model, n_heads, batch, seq) in [(8usize, 2usize, 2usize, 4usize), (12, 3, 1, 7)] {
            let mut r = SeededRng::new(d_model as u64);
            let mut attn = MultiHeadSelfAttention::new("a", d_model, n_heads, &mut r);
            let x = Tensor::randn(&[batch * seq, d_model], 1.0, &mut r);
            let valid: Vec<usize> = (0..batch).map(|b| seq - 2 * b).collect();
            let y_train = attn.forward(&x, batch, seq, &valid, true);
            assert!(attn.last_probs().is_some(), "train forward must retain probs");
            attn.for_each_linear(&mut |lin| lin.set_weight_cache(WeightCache::Packed));
            let y_infer = attn.forward(&x, batch, seq, &valid, false);
            assert_eq!(y_train, y_infer, "mode must not change bits (d={d_model})");
            // An inference forward retains nothing, not even the
            // previous train forward's cache.
            assert!(attn.last_probs().is_none(), "infer forward kept an older train cache");
        }
    }

    #[test]
    fn changing_masked_token_does_not_change_valid_outputs() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x1 = Tensor::randn(&[4, 8], 1.0, &mut r);
        let mut x2 = x1.clone();
        // Perturb the padded position (index 3, valid = 3).
        for d in 0..8 {
            *x2.at2_mut(3, d) += 5.0;
        }
        let y1 = attn.forward(&x1, 1, 4, &[3], false);
        let y2 = attn.forward(&x2, 1, 4, &[3], false);
        for t in 0..3 {
            for d in 0..8 {
                assert!(
                    (y1.at2(t, d) - y2.at2(t, d)).abs() < 1e-5,
                    "valid row {t} affected by padding"
                );
            }
        }
    }

    #[test]
    fn gradcheck_attention_inputs() {
        // Finite-difference check on the input gradient for a tiny shape.
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 4, 2, &mut r);
        let x = Tensor::randn(&[3, 4], 0.5, &mut r);
        let (batch, seq, valid) = (1usize, 3usize, vec![3usize]);

        let loss = |attn: &mut MultiHeadSelfAttention, x: &Tensor| -> f32 {
            let y = attn.forward(x, batch, seq, &valid, true);
            y.data().iter().map(|v| v.sin()).sum()
        };
        let y = attn.forward(&x, batch, seq, &valid, true);
        let dy = y.map(|v| v.cos());
        let dx = attn.backward(&dy);

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = loss(&mut attn, &xp);
            attn.cache = None;
            let fm = loss(&mut attn, &xm);
            attn.cache = None;
            let num = (fp - fm) / (2.0 * eps);
            let ana = dx.data()[i];
            let denom = num.abs().max(ana.abs()).max(1.0);
            assert!(
                ((num - ana) / denom).abs() < 3e-2,
                "input grad mismatch at {i}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn gradcheck_attention_parameters() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 4, 2, &mut r);
        let x = Tensor::randn(&[3, 4], 0.5, &mut r);
        let (batch, seq, valid) = (1usize, 3usize, vec![3usize]);

        let y = attn.forward(&x, batch, seq, &valid, true);
        let dy = y.map(|v| v.cos());
        let _ = attn.backward(&dy);

        let mut grads: Vec<(u64, Tensor)> = Vec::new();
        attn.visit_params(&mut |p| grads.push((p.id, p.grad.clone())));

        let eps = 1e-2f32;
        for (pid, g) in grads {
            for i in [0usize, g.len() / 2, g.len() - 1] {
                let probe = |delta: f32, attn: &mut MultiHeadSelfAttention| {
                    attn.visit_params(&mut |p| {
                        if p.id == pid {
                            p.value.data_mut()[i] += delta;
                        }
                    });
                    let y = attn.forward(&x, batch, seq, &valid, true);
                    attn.cache = None;
                    attn.visit_params(&mut |p| {
                        if p.id == pid {
                            p.value.data_mut()[i] -= delta;
                        }
                    });
                    y.data().iter().map(|v| v.sin()).sum::<f32>()
                };
                let fp = probe(eps, &mut attn);
                let fm = probe(-eps, &mut attn);
                let num = (fp - fm) / (2.0 * eps);
                let ana = g.data()[i];
                let denom = num.abs().max(ana.abs()).max(1.0);
                assert!(
                    ((num - ana) / denom).abs() < 3e-2,
                    "param {pid} grad mismatch at {i}: {num} vs {ana}"
                );
            }
        }
    }
}
