//! Wall-clock effect of length-bucketed training (JSON twin:
//! `BENCH_train_throughput.json`).
//!
//! One epoch of gradient steps over a **length-skewed corpus** (mostly
//! short snippets, a thin long tail — the shape of real translation
//! units and of the paper's Table 4 length histogram), identical batch
//! plans in both arms:
//!
//! * `bucketed` — each batch padded to its length bucket (what
//!   `Trainer::fit` / `mlm::pretrain` now do);
//! * `fixed_pad` — each batch padded to `max_len` (the pre-refactor
//!   behavior).
//!
//! Gradients are bitwise identical between the arms (see
//! `crates/model/tests/train_proptests.rs`), so the ratio is pure
//! wall-clock win. `PRAGFORMER_BENCH_SMOKE=1` shrinks everything so CI
//! can keep the JSON twin fresh without paying the full measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pragformer_model::batching::{gather, gather_padded, plan_epoch, plan_epoch_grouped};
use pragformer_model::mlm::{MaskPolicy, MlmModel};
use pragformer_model::trainer::{synthetic_examples, EncodedExample};
use pragformer_model::{ModelConfig, MultiTaskExample, PragFormer, Task};
use pragformer_tensor::init::SeededRng;

use pragformer_bench::bench_smoke as smoke;

/// A length-skewed corpus: ~70% short (bucket 8-16), ~25% medium, ~5%
/// near `max_len`, labels balanced via the hot-token construction.
fn skewed_examples(n: usize, cfg: &ModelConfig, seed: u64) -> Vec<EncodedExample> {
    let mut rng = SeededRng::new(seed);
    let pool = synthetic_examples(n, cfg.max_len, cfg.vocab, 10, seed ^ 0xD00D);
    pool.into_iter()
        .enumerate()
        .map(|(i, mut e)| {
            let target = match i % 20 {
                0 => cfg.max_len - 2 + rng.below(2), // ~5% long tail
                k if k < 6 => 14 + rng.below(10),    // ~25% medium
                _ => 5 + rng.below(8),               // ~70% short
            };
            if e.ids.len() > target {
                e.ids.truncate(target.max(4));
            } else {
                while e.ids.len() < target {
                    let filler = e.ids[1 + rng.below(e.ids.len() - 1)];
                    e.ids.push(filler);
                }
            }
            e
        })
        .collect()
}

fn bench_train_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_throughput");
    group.sample_size(if smoke() { 2 } else { 10 });

    let (cfg, n, batch_size) =
        if smoke() { (ModelConfig::tiny(64), 32, 8) } else { (ModelConfig::small(2048), 128, 16) };
    let examples = skewed_examples(n, &cfg, 5);
    let lens: Vec<usize> = examples.iter().map(|e| e.ids.len()).collect();
    let valid_tokens: u64 = lens.iter().map(|&l| l as u64).sum();
    // One fixed plan shared by both arms: identical batches, identical
    // order — only the padded length differs.
    let plan = plan_epoch(&lens, batch_size, cfg.max_len, &mut SeededRng::new(9));
    let labels_of = |b: &pragformer_model::batching::Batch| -> Vec<usize> {
        b.indices.iter().map(|&i| examples[i].label as usize).collect()
    };
    group.throughput(Throughput::Elements(valid_tokens));

    let mut rng = SeededRng::new(1);
    let mut model = PragFormer::new(&cfg, &mut rng);
    group.bench_with_input(BenchmarkId::new("finetune_epoch", "bucketed"), &(), |b, ()| {
        b.iter(|| {
            let mut total = 0.0f32;
            for idxs in &plan {
                let batch = gather(&examples, idxs, cfg.max_len);
                model.zero_grad();
                total +=
                    model.train_step_seq(&batch.ids, &batch.valid, batch.seq, &labels_of(&batch));
            }
            total
        })
    });
    group.bench_with_input(BenchmarkId::new("finetune_epoch", "fixed_pad"), &(), |b, ()| {
        b.iter(|| {
            let mut total = 0.0f32;
            for idxs in &plan {
                let batch = gather_padded(&examples, idxs, cfg.max_len);
                model.zero_grad();
                total +=
                    model.train_step_seq(&batch.ids, &batch.valid, batch.seq, &labels_of(&batch));
            }
            total
        })
    });

    // Bucketed shuffling (sort within shuffled window): same corpus,
    // fewer remainder batches than the strict per-bucket plan — the gap
    // to `bucketed` is the satellite's win, not a numerics change.
    let windowed_plan =
        plan_epoch_grouped(&lens, None, batch_size, cfg.max_len, 4, &mut SeededRng::new(9));
    group.bench_with_input(BenchmarkId::new("finetune_epoch", "windowed"), &(), |b, ()| {
        b.iter(|| {
            let mut total = 0.0f32;
            for idxs in &windowed_plan {
                let batch = gather(&examples, idxs, cfg.max_len);
                model.zero_grad();
                total +=
                    model.train_step_seq(&batch.ids, &batch.valid, batch.seq, &labels_of(&batch));
            }
            total
        })
    });

    // One multi-task epoch over the same corpus tagged round-robin with
    // the three tasks: per step the trunk does the same work as a
    // single-task epoch (the shared trunk's win is at *inference*), so
    // this arm tracks the multi-task engine's overhead — task-grouped
    // batch formation plus per-batch head dispatch.
    let mt_examples: Vec<MultiTaskExample> = examples
        .iter()
        .enumerate()
        .map(|(i, e)| MultiTaskExample {
            ids: e.ids.clone(),
            label: e.label,
            task: Task::ALL[i % 3],
        })
        .collect();
    let mt_groups: Vec<usize> = mt_examples.iter().map(|e| e.task.index()).collect();
    let mt_plan = plan_epoch_grouped(
        &lens,
        Some(&mt_groups),
        batch_size,
        cfg.max_len,
        0,
        &mut SeededRng::new(9),
    );
    let mut mt_model = PragFormer::multi_task(&cfg, &mut rng);
    group.bench_with_input(BenchmarkId::new("multitask_epoch", "shared_trunk"), &(), |b, ()| {
        b.iter(|| {
            let mut total = 0.0f32;
            for idxs in &mt_plan {
                let batch = gather(&mt_examples, idxs, cfg.max_len);
                let task = mt_examples[batch.indices[0]].task;
                let labels: Vec<usize> =
                    batch.indices.iter().map(|&i| mt_examples[i].label as usize).collect();
                mt_model.zero_grad();
                total += mt_model.train_step_head(
                    task.index(),
                    &batch.ids,
                    &batch.valid,
                    batch.seq,
                    &labels,
                    1.0,
                );
            }
            total
        })
    });

    let policy = MaskPolicy::default();
    let mut mlm = MlmModel::new(&cfg, &mut rng);
    // Reseed the masking RNG every iteration so both arms corrupt the
    // exact same positions — the measured gap is padded length alone
    // (masking is padding-invariant, see `mask_batch`).
    group.bench_with_input(BenchmarkId::new("mlm_epoch", "bucketed"), &(), |b, ()| {
        b.iter(|| {
            let mut mask_rng = SeededRng::new(2);
            let mut total = 0.0f32;
            for idxs in &plan {
                let batch = gather(&examples, idxs, cfg.max_len);
                total += mlm
                    .train_step_seq(&batch.ids, &batch.valid, batch.seq, &policy, &mut mask_rng)
                    .0;
            }
            total
        })
    });
    group.bench_with_input(BenchmarkId::new("mlm_epoch", "fixed_pad"), &(), |b, ()| {
        b.iter(|| {
            let mut mask_rng = SeededRng::new(2);
            let mut total = 0.0f32;
            for idxs in &plan {
                let batch = gather_padded(&examples, idxs, cfg.max_len);
                total += mlm
                    .train_step_seq(&batch.ids, &batch.valid, batch.seq, &policy, &mut mask_rng)
                    .0;
            }
            total
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_train_throughput
}
criterion_main!(benches);
