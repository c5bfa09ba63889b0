//! Backend parity: per-head macro-F1 of the paper-faithful per-head
//! ensemble (three single-task PragFormers, `PerHead`) vs the
//! shared-trunk multi-task advisor (`SharedTrunk`), trained on identical
//! encoded examples and scored on the same held-out splits through the
//! advisor's front end. This binary is the only place the ensemble
//! runs.
//!
//! The shared trunk runs one transformer forward per snippet instead of
//! three; this binary checks the speed did not cost accuracy (the
//! acceptance bound: within ±2 macro-F1 points per head at small scale).
//! Single-seed gaps on the small clause splits are noisy (a few hundred
//! test examples), so the comparison trains both under `--seeds` seeds
//! (default 3: `--seed`, `+1`, `+2`) and reports per-seed gaps plus the
//! mean.

use pragformer_bench::{emit, parse_args};
use pragformer_core::experiments::run_backend_parity;
use pragformer_corpus::generate;
use pragformer_eval::report::{f2, Table};

const HEADS: [&str; 3] = ["directive", "private", "reduction"];

fn main() {
    let opts = parse_args();
    let mut per_seed: Vec<[f64; 3]> = Vec::new(); // gap per head, per seed
    let mut mean_ph = [0.0f64; 3];
    let mut mean_sh = [0.0f64; 3];
    for offset in 0..opts.seeds {
        let seed = opts.seed + offset;
        eprintln!("training both advisor backends ({:?} scale, seed {seed})…", opts.scale);
        let db = generate(&opts.scale.generator(seed));
        let out = run_backend_parity(&db, opts.scale, seed);
        per_seed.push([0, 1, 2].map(|h| out.heads[h].macro_f1_gap_points()));
        for h in 0..3 {
            mean_ph[h] += out.heads[h].per_head.macro_f1() / opts.seeds as f64;
            mean_sh[h] += out.heads[h].shared.macro_f1() / opts.seeds as f64;
        }
    }

    let mut t = Table::new(
        "Backend parity — per-head macro-F1, PerHead vs SharedTrunk",
        &["Head", "PerHead mean", "SharedTrunk mean", "Gap/seed (pts)", "Mean gap (pts)"],
    );
    let mut max_mean_gap = 0.0f64;
    for h in 0..3 {
        let gaps: Vec<String> = per_seed.iter().map(|s| format!("{:+.1}", s[h])).collect();
        let mean_gap = per_seed.iter().map(|s| s[h]).sum::<f64>() / opts.seeds as f64;
        max_mean_gap = max_mean_gap.max(mean_gap.abs());
        t.row(&[
            HEADS[h].to_string(),
            f2(mean_ph[h]),
            f2(mean_sh[h]),
            gaps.join(" "),
            format!("{mean_gap:+.1}"),
        ]);
    }
    emit("backend_parity", &t);
    println!("largest mean per-head macro-F1 gap: {max_mean_gap:.1} points");
}
