//! Micro-benchmarks of the tensor-engine kernels that dominate training
//! time (GEMM variants, softmax, LayerNorm) — the numbers behind the
//! train-step throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::{self, QuantizedMatrix};
use pragformer_tensor::nn::{Layer, LayerNorm};
use pragformer_tensor::{kernel, ops, Tensor};

fn bench_kernels(c: &mut Criterion) {
    let simd = kernel::active_simd();
    let mut rng = SeededRng::new(5);
    let mut group = c.benchmark_group("kernels");
    for n in [64usize, 128, 256] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        let flops = 2 * n as u64 * n as u64 * n as u64;
        group.throughput(Throughput::Elements(flops));
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| ops::matmul(simd, std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_nt", n), &n, |bch, _| {
            bch.iter(|| ops::matmul_nt(simd, std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("matmul_tn", n), &n, |bch, _| {
            bch.iter(|| ops::matmul_tn(simd, std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    let x = Tensor::randn(&[512, 128], 1.0, &mut rng);
    group.throughput(Throughput::Elements(x.len() as u64));
    group.bench_function("softmax_rows_512x128", |b| {
        b.iter(|| {
            let mut y = x.clone();
            ops::softmax_rows(&mut y, None);
            y
        })
    });
    let mut ln = LayerNorm::new("ln", 128);
    group.bench_function("layernorm_512x128", |b| {
        b.iter(|| ln.forward(std::hint::black_box(&x), false))
    });
    group.finish();

    // Per-tier GEMM arms: the same 128×128 product on each instruction
    // set this CPU has, plus the int8 path of the default plan's int8
    // twin with B pre-quantized (the trunk's steady state — weights are
    // quantized once, activations per call).
    let mut group = c.benchmark_group("kernel_tier");
    let n = 128usize;
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, n], 1.0, &mut rng);
    group.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    for simd in kernel::available_simds() {
        group.bench_with_input(BenchmarkId::new("matmul", simd.name()), &n, |bch, _| {
            bch.iter(|| ops::matmul(simd, std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    let qb = QuantizedMatrix::quantize(&b);
    let int8 = kernel::default_plan().int8();
    group.bench_with_input(BenchmarkId::new("matmul", "int8"), &n, |bch, _| {
        bch.iter(|| {
            quantize::matmul_quant(int8, std::hint::black_box(&a), std::hint::black_box(&qb))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
