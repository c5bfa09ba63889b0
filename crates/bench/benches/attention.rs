//! Attention-block latency per kernel tier, on an isolated
//! reproduction-scale attention block.
//!
//! Each arm runs eval-mode steady state on one plan (`scalar`, `avx2`,
//! `int8`): weight caches warm (pre-packed panels on the f32 plans,
//! int8 copies on the int8 plan) and the
//! scratch arena warm, so the arm measures the projection GEMMs, the
//! masked score/context tiles and the merge — the unit the per-layer
//! inference cost decomposes into. JSON records land in
//! `BENCH_attention.json`; take them one arm per process
//! (`BENCH_ONLY=attention/<arm>`).

use criterion::{criterion_group, criterion_main, Criterion};
use pragformer_model::attention::MultiHeadSelfAttention;
use pragformer_model::ModelConfig;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::InferencePlan;
use pragformer_tensor::nn::WeightCache;
use pragformer_tensor::Tensor;

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
    for name in ["scalar", "avx2", "int8"] {
        let Ok(plan) = InferencePlan::parse(name) else {
            eprintln!("(skipping attention twins for {name}: unsupported on this CPU)");
            continue;
        };
        // Steady-state caches for this arm: int8 copies on the int8
        // plan, pre-packed panels otherwise; one warm forward settles
        // the scratch arena.
        attn.for_each_linear(&mut |lin| lin.set_weight_cache(WeightCache::Infer(plan)));
        let _ = attn.forward(&x, batch, seq, &valid, false);
        group.bench_function(format!("forward_{}", plan.tier().name()), |b| {
            b.iter(|| attn.forward(std::hint::black_box(&x), batch, seq, &valid, false))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_attention
}
criterion_main!(benches);
