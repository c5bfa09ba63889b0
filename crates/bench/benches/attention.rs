//! Attention-block latency per kernel tier, on an isolated
//! reproduction-scale attention block.
//!
//! Each arm runs eval-mode steady state: weight caches warm (pre-packed
//! panels on the f32 tiers, int8 copies on the quantized tier) and the
//! scratch arena warm, so the arm measures the projection GEMMs, the
//! masked score/context tiles and the merge — the unit the per-layer
//! inference cost decomposes into. JSON records land in
//! `BENCH_attention.json`; take them one arm per process
//! (`BENCH_ONLY=attention/<arm>`).

use criterion::{criterion_group, criterion_main, Criterion};
use pragformer_model::attention::MultiHeadSelfAttention;
use pragformer_model::ModelConfig;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::{self, KernelTier};
use pragformer_tensor::nn::WeightCache;
use pragformer_tensor::Tensor;

const TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Int8];

fn bench_attention(c: &mut Criterion) {
    // The small profile's attention shape: one max_len sequence through
    // one block — the unit the per-layer inference cost decomposes into.
    let cfg = ModelConfig::small(64);
    let (d_model, n_heads, batch) = (cfg.d_model, cfg.n_heads, 1usize);
    let seq = cfg.max_len;
    let mut rng = SeededRng::new(7);
    let mut attn = MultiHeadSelfAttention::new("bench", d_model, n_heads, &mut rng);
    let x = Tensor::randn(&[batch * seq, d_model], 1.0, &mut rng);
    let valid = vec![seq; batch];

    let mut group = c.benchmark_group("attention");
    let prior = kernel::active_tier();
    for tier in TIERS {
        if kernel::set_tier(tier).is_err() {
            eprintln!("(skipping attention twins for {}: unsupported on this CPU)", tier.name());
            continue;
        }
        // Steady-state caches for this arm: int8 copies under the
        // quantized tier, pre-packed panels otherwise; one warm forward
        // settles the scratch arena.
        let cache = if tier == KernelTier::Int8 { WeightCache::Int8 } else { WeightCache::Packed };
        attn.for_each_linear(&mut |lin| lin.set_weight_cache(cache));
        let _ = attn.forward(&x, batch, seq, &valid, false);
        group.bench_function(format!("forward_{}", tier.name()), |b| {
            b.iter(|| attn.forward(std::hint::black_box(&x), batch, seq, &valid, false))
        });
    }
    kernel::set_tier(prior).expect("restore kernel tier");
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_attention
}
criterion_main!(benches);
