//! # pragformer-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation; the table is the experiment ↔ binary index:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table3_corpus_stats` | Table 3 — raw database directive statistics |
//! | `table4_lengths` | Table 4 — snippet length histogram |
//! | `fig3_domains` | Figure 3 — domain distribution |
//! | `table5_datasets` | Table 5 — dataset split sizes |
//! | `table6_representations` | Table 6 — the four code representations |
//! | `table7_vocab` | Table 7 — vocabulary / OOV / length stats |
//! | `fig4_repr_accuracy` | Figures 4-6 — representation training curves |
//! | `table8_directive` | Table 8 — directive task comparison |
//! | `fig7_error_by_length` | Figure 7 — error rate by snippet length |
//! | `table9_private` | Table 9 — private-clause task |
//! | `table10_reduction` | Table 10 — reduction-clause task |
//! | `table11_benchmarks` | Table 11 — PolyBench / SPEC generalization |
//! | `fig8_lime` | Table 12 + Figure 8 — predictions & explanations |
//! | `ablation_pretrain` | Ablation A1 — MLM pre-training benefit |
//! | `ablation_frontend` | Ablation A4 — strict vs lenient front-end |
//! | `run_all` | everything above, in sequence |
//!
//! Every binary accepts `--scale tiny|small|paper` (default `small`) and
//! `--seed N`, prints a formatted table to stdout, and drops a TSV twin
//! under `results/`.
//!
//! Criterion benches (`cargo bench`) cover the performance claims:
//! single-snippet inference latency vs the S2S engine
//! (`inference_latency`), training-step throughput (`train_step`), and
//! parser/dependence-analysis cost vs loop length (`parse_analyze`).

use pragformer_core::Scale;
use pragformer_eval::report::Table;
use std::path::PathBuf;

/// CLI options shared by all harness binaries.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Seed-repeat count for the parity harnesses (`--seeds N`,
    /// default 3: `--seed`, `+1`, `+2`). Most binaries ignore it.
    pub seeds: u64,
}

/// Parses `--scale` / `--seed` / `--seeds` from `std::env::args` with
/// defaults (`small`, 20220404, 3). Unknown flags abort with usage help.
pub fn parse_args() -> HarnessOptions {
    parse_arg_list(std::env::args().skip(1))
}

fn parse_arg_list(args: impl Iterator<Item = String>) -> HarnessOptions {
    let mut opts = HarnessOptions { scale: Scale::Small, seed: 20220404, seeds: 3 };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                opts.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (use tiny|small|paper)");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                opts.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed '{v}'");
                    std::process::exit(2);
                });
            }
            "--seeds" => {
                let v = args.next().unwrap_or_default();
                opts.seeds = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("bad seed count '{v}' (need an integer ≥ 1)");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!("usage: <harness> [--scale tiny|small|paper] [--seed N] [--seeds N]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Prints the table and mirrors it to `results/<name>.tsv`.
pub fn emit(name: &str, table: &Table) {
    println!("{}", table.render());
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.tsv"));
        if let Err(e) = std::fs::write(&path, table.to_tsv()) {
            eprintln!("(could not write {}: {e})", path.display());
        } else {
            eprintln!("(wrote {})", path.display());
        }
    }
}

/// True when `PRAGFORMER_BENCH_SMOKE` asks the criterion benches to run
/// at shrunken sizes (the CI smoke). Also sets `BENCH_NO_JSON` so the
/// criterion shim suppresses its JSON record — shrunken timings must
/// never masquerade as real measurements in the tracked `BENCH_*.json`
/// twins.
pub fn bench_smoke() -> bool {
    let on = std::env::var("PRAGFORMER_BENCH_SMOKE").is_ok_and(|v| v != "0");
    if on {
        std::env::set_var("BENCH_NO_JSON", "1");
    }
    on
}

/// Formats a ratio as a percentage string.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = parse_arg_list(std::iter::empty::<String>());
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.seed, 20220404);
    }

    #[test]
    fn parses_scale_and_seed() {
        let o = parse_arg_list(["--scale", "tiny", "--seed", "99"].iter().map(|s| s.to_string()));
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.seed, 99);
        assert_eq!(o.seeds, 3);
    }

    #[test]
    fn parses_seed_count() {
        let o = parse_arg_list(["--seeds", "1"].iter().map(|s| s.to_string()));
        assert_eq!(o.seeds, 1);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(0, 0), "-");
    }
}
