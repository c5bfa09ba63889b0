//! Ablation A4: how much of the S2S engine's directive-task
//! deficit is the strict front-end vs the conservative analysis?
//!
//! Runs the ComPar engine over the directive test split twice — strict
//! (paper-faithful) and lenient (parse everything the main parser
//! accepts) — and reports both rows next to each other.

use pragformer_baselines::{analyze_snippet, Strictness};
use pragformer_bench::{emit, parse_args};
use pragformer_corpus::{generate, Dataset};
use pragformer_eval::metrics::confusion;
use pragformer_eval::report::{f2, Table};

fn main() {
    let opts = parse_args();
    let db = generate(&opts.scale.generator(opts.seed));
    let ds = Dataset::directive(&db, opts.seed);

    let mut t = Table::new(
        "Ablation A4 — strict vs lenient S2S front-end (directive task)",
        &["Front-end", "Precision", "Recall", "F1", "Accuracy", "Parse failures"],
    );
    for (name, strictness) in
        [("strict (ComPar)", Strictness::Strict), ("lenient", Strictness::Lenient)]
    {
        let mut preds = Vec::new();
        let mut labels = Vec::new();
        let mut failures = 0usize;
        for ex in &ds.split.test {
            let r = analyze_snippet(&db.records()[ex.record].code(), strictness);
            if r.is_parse_failure() {
                failures += 1;
            }
            preds.push(r.predicts_directive());
            labels.push(ex.label);
        }
        let m = confusion(&preds, &labels).metrics();
        t.row(&[
            name.to_string(),
            f2(m.precision),
            f2(m.recall),
            f2(m.f1),
            f2(m.accuracy),
            failures.to_string(),
        ]);
    }
    emit("ablation_frontend", &t);
    println!("reading: the lenient front-end recovers the parse-failure false negatives;");
    println!(
        "the remaining gap to the learned models is the conservative dependence analysis itself."
    );
}
