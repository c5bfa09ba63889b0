//! Kernel parity: per-head macro-F1 of f32 trunk inference vs the
//! int8-quantized trunk (`KernelTier::Int8`), on one shared-trunk advisor
//! per seed, scored on the held-out splits through the full advise
//! pipeline.
//!
//! This is the accuracy gate for the int8 tier (the PR's acceptance
//! bound: within ±2 macro-F1 points per head at small scale, trunk weight
//! bytes ≤30% of f32). Single-seed gaps on the small clause splits are
//! noisy, so the comparison trains under `--seeds` seeds (default 3:
//! `--seed`, `+1`, `+2`) and reports per-seed gaps plus the mean. The
//! f32/int8 switch is the advisor's plan
//! ([`pragformer_core::advisor::Advisor::set_plan`]): the default plan's
//! f32 twin against its int8 twin.

use pragformer_bench::{emit, parse_args};
use pragformer_core::experiments::run_int8_parity;
use pragformer_corpus::generate;
use pragformer_eval::report::{f2, Table};

const HEADS: [&str; 3] = ["directive", "private", "reduction"];

fn main() {
    let opts = parse_args();
    println!("{}", pragformer_tensor::kernel::describe());
    let mut per_seed: Vec<[f64; 3]> = Vec::new(); // gap per head, per seed
    let mut mean_f32 = [0.0f64; 3];
    let mut mean_int8 = [0.0f64; 3];
    let mut byte_ratio = 0.0f64;
    let mut bytes = (0usize, 0usize);
    for offset in 0..opts.seeds {
        let seed = opts.seed + offset;
        eprintln!("training shared-trunk advisor ({:?} scale, seed {seed})…", opts.scale);
        let db = generate(&opts.scale.generator(seed));
        let out = run_int8_parity(&db, opts.scale, seed);
        per_seed.push([0, 1, 2].map(|h| out.heads[h].macro_f1_gap_points()));
        for h in 0..3 {
            mean_f32[h] += out.heads[h].f32.macro_f1() / opts.seeds as f64;
            mean_int8[h] += out.heads[h].int8.macro_f1() / opts.seeds as f64;
        }
        byte_ratio = out.byte_ratio(); // pure config arithmetic: identical every seed
        bytes = (out.trunk_f32_bytes, out.trunk_int8_bytes);
    }

    let mut t = Table::new(
        "Kernel parity — per-head macro-F1, f32 vs int8 trunk",
        &["Head", "f32 mean", "int8 mean", "Gap/seed (pts)", "Mean gap (pts)"],
    );
    let mut max_mean_gap = 0.0f64;
    for h in 0..3 {
        let gaps: Vec<String> = per_seed.iter().map(|s| format!("{:+.1}", s[h])).collect();
        let mean_gap = per_seed.iter().map(|s| s[h]).sum::<f64>() / opts.seeds as f64;
        max_mean_gap = max_mean_gap.max(mean_gap.abs());
        t.row(&[
            HEADS[h].to_string(),
            f2(mean_f32[h]),
            f2(mean_int8[h]),
            gaps.join(" "),
            format!("{mean_gap:+.1}"),
        ]);
    }
    emit("kernel_parity", &t);
    println!("largest mean per-head macro-F1 gap: {max_mean_gap:.1} points");
    println!(
        "trunk weight bytes: f32 {} → int8 {} ({:.1}% of f32)",
        bytes.0,
        bytes.1,
        100.0 * byte_ratio
    );
    // The size half of the acceptance gate is deterministic — enforce it
    // here so CI's smoke run trips on any packing regression. (Tiny scale
    // carries proportionally more f32-scale overhead, hence the gate is
    // small/paper only.)
    if opts.scale != pragformer_core::Scale::Tiny {
        assert!(byte_ratio <= 0.30, "int8 trunk must be ≤30% of f32 bytes, got {byte_ratio:.3}");
    }
}
