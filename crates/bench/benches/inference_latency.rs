//! Per-snippet inference latency: PragFormer vs BoW vs the ComPar-style
//! S2S engine (the paper's "negligible inference time (contrary to S2S
//! compilers)" claim, §2.1, and the basis of the advisor use-case), plus
//! the batched-advisor throughput group backing the advise_batch speedup
//! claim (snippets/sec at batch 1/8/64 vs sequential advise calls).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use pragformer_baselines::{analyze_snippet, BowModel, BowTrainConfig, Strictness};
use pragformer_core::{Advisor, Scale};
use pragformer_model::{ModelConfig, PragFormer};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::{default_plan, InferencePlan};
use pragformer_tokenize::{tokens_for, Representation, Vocab};

const SNIPPET: &str =
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x1[i] = x1[i] + A[i][j] * y_1[j];";

fn bench_inference(c: &mut Criterion) {
    let stmts = pragformer_cparse::parse_snippet(SNIPPET).unwrap();
    let tokens = tokens_for(&stmts, Representation::Text);
    let vocab = Vocab::build([tokens.clone()].iter(), 1, 10_000);

    // Reproduction-scale transformer (eval mode).
    let cfg = ModelConfig::small(vocab.len().max(64));
    let mut rng = SeededRng::new(1);
    let mut model = PragFormer::new(&cfg, &mut rng);
    let (ids, valid) = vocab.encode(&tokens, cfg.max_len);

    // Token-trained BoW (weights don't matter for latency).
    let bow = BowModel::train(
        &[tokens.clone(), tokens.clone()],
        &[true, false],
        &BowTrainConfig { epochs: 1, ..Default::default() },
    );

    let mut group = c.benchmark_group("inference_latency");
    group.bench_function("pragformer_forward", |b| {
        b.iter_batched(
            || (ids.clone(), vec![valid]),
            |(ids, valid)| model.predict_proba(&ids, &valid),
            BatchSize::SmallInput,
        )
    });
    // Per-tier twins: the same forward with the model on each tier's
    // plan (`pragformer_forward` above keeps measuring the default
    // plan), then the int8 sub-simd twins: the quantized forward with
    // the integer microkernel on AVX2 (`int8`) vs scalar
    // (`int8-scalar`) — bitwise identical outputs, only the latency
    // differs. One warm forward per arm moves the one-time weight
    // packing or quantization out of the timing loop; plans this CPU
    // cannot run are skipped with a note.
    let arms = [
        ("pragformer_forward_scalar", "scalar"),
        ("pragformer_forward_avx2", "avx2"),
        ("pragformer_forward_int8", "int8"),
        ("pragformer_forward_int8_avx2", "int8"),
        ("pragformer_forward_int8_scalar", "int8-scalar"),
    ];
    for (arm, name) in arms {
        let Ok(plan) = InferencePlan::parse(name) else {
            eprintln!("(skipping {arm}: plan {name} unsupported on this CPU)");
            continue;
        };
        model.set_plan(plan);
        let _ = model.predict_proba(&ids, &[valid]);
        group.bench_function(arm, |b| {
            b.iter_batched(
                || (ids.clone(), vec![valid]),
                |(ids, valid)| model.predict_proba(&ids, &valid),
                BatchSize::SmallInput,
            )
        });
    }
    model.set_plan(default_plan());
    group.bench_function("bow_predict", |b| {
        b.iter(|| bow.predict_proba(std::hint::black_box(&tokens)))
    });
    group.bench_function("compar_analyze", |b| {
        b.iter(|| analyze_snippet(std::hint::black_box(SNIPPET), Strictness::Strict))
    });
    group.bench_function("tokenize_only", |b| {
        b.iter(|| {
            let stmts = pragformer_cparse::parse_snippet(std::hint::black_box(SNIPPET)).unwrap();
            tokens_for(&stmts, Representation::Text)
        })
    });
    group.finish();
}

/// The loop idioms a numerical translation unit keeps repeating.
const TEMPLATES: [&str; 8] = [
    "for (i = 0; i < n; i++) y[i] = alpha * x[i] + y[i];",
    "for (i = 0; i < n; i++) v[i] = v[i] / norm;",
    "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
    "for (i = 0; i < n; i++) { t = a[i]; a[i] = b[i]; b[i] = t; }",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < m; j++)\n    c[i][j] = a[i][j] + b[i][j];",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x1[i] = x1[i] + A[i][j] * y_1[j];",
    "acc = 0.0;\nfor (i = 0; i < n; i++) { acc += in[i]; out[i] = acc; }",
    "for (i = 1; i < n; i++)\n  for (j = 1; j < m; j++)\n    u[i][j] = 0.25 * (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1]);",
];

/// A 64-snippet "translation unit": the eight idioms above, each
/// appearing eight times — the shape of a real codebase sweep, where
/// `advise_batch`'s in-batch deduplication and length bucketing pay.
fn translation_unit_set() -> Vec<String> {
    (0..64).map(|i| TEMPLATES[i % TEMPLATES.len()].to_string()).collect()
}

/// 64 pairwise-distinct snippets (unique identifiers defeat dedup):
/// the worst case for the batch path, isolating pure batching/bucketing
/// gains from dedup gains.
fn distinct_set() -> Vec<String> {
    (0..64)
        .map(|i| TEMPLATES[i % TEMPLATES.len()].replace("[i]", &format!("[i + {}]", i / 8)))
        .collect()
}

/// Batched advisor throughput: one `advise_batch` call over batches of
/// 1 / 8 / 64 snippets, against the sequential baseline of one `advise`
/// call per snippet — on the repeated-idiom translation-unit set and the
/// pairwise-distinct set. The advisor is the shared-trunk multi-task
/// model (one trunk forward + three head projections per unique
/// snippet); its arms keep their `_shared` names so records stay
/// comparable across commits. Throughput is reported in snippets/sec;
/// the JSON twin lands in `BENCH_advise_throughput.json`.
fn bench_batched_throughput(c: &mut Criterion) {
    let mut shared = Advisor::untrained(Scale::Tiny, 1);
    let tu = translation_unit_set();
    let tu_refs: Vec<&str> = tu.iter().map(|s| s.as_str()).collect();
    let distinct = distinct_set();
    let distinct_refs: Vec<&str> = distinct.iter().map(|s| s.as_str()).collect();

    let mut group = c.benchmark_group("advise_throughput");
    for &batch in &[1usize, 8, 64] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(
            BenchmarkId::new("advise_batch_shared", batch),
            &batch,
            |b, &batch| b.iter(|| shared.advise_batch(&tu_refs[..batch])),
        );
    }
    group.throughput(Throughput::Elements(64));
    group.bench_function("advise_batch_shared_distinct/64", |b| {
        b.iter(|| shared.advise_batch(&distinct_refs))
    });
    // Per-tier twins of the shared-trunk distinct batch-64 arm, the
    // advisor on each tier's plan. The distinct set keeps all 64
    // forwards live — the repeated idiom set dedups to a handful of
    // forwards, burying the kernel share under parse/tokenize time.
    for name in ["scalar", "avx2", "int8"] {
        let Ok(plan) = InferencePlan::parse(name) else {
            eprintln!("(skipping advise_batch_shared_distinct_{name}/64: unsupported on this CPU)");
            continue;
        };
        shared.set_plan(plan);
        group.bench_function(format!("advise_batch_shared_distinct_{name}/64"), |b| {
            b.iter(|| shared.advise_batch(&distinct_refs))
        });
    }
    shared.set_plan(default_plan());
    // The baselines the batch path is measured against: the same
    // snippets, one advise() call each.
    group.bench_function("advise_sequential_shared/64", |b| {
        b.iter(|| tu_refs.iter().map(|s| shared.advise(s).expect("snippet parses")).count())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_inference, bench_batched_throughput
}
criterion_main!(benches);
