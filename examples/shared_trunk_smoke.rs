//! End-to-end shared-trunk smoke test for CI: train the multi-task
//! advisor at tiny scale, advise through the one-trunk-forward path, and
//! check the advice contract. Exits non-zero on regression.
//!
//! Run with `cargo run --release --example shared_trunk_smoke`
//! (CI sets `BENCH_NO_JSON=1` so nothing this smoke touches can land in
//! the tracked `BENCH_*.json` twins).

use pragformer_core::{Advisor, Scale};
use pragformer_corpus::generate;

fn main() {
    let start = std::time::Instant::now();
    let db = generate(&Scale::Tiny.generator(21));
    let mut advisor = Advisor::train(&db, Scale::Tiny, 21);
    let trained = start.elapsed();

    let snippets: Vec<&str> = vec![
        "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
        "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
        "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
        "for (i = 0; i < ; i++ {", // parse error mid-batch
    ];
    let advice = advisor.advise_batch(&snippets);
    assert_eq!(advice.len(), snippets.len());
    assert!(advice[3].is_err(), "parse error must surface in its slot");
    for r in advice.iter().take(3) {
        let a = r.as_ref().expect("snippet parses");
        assert!((0.0..=1.0).contains(&a.confidence));
        assert!((0.0..=1.0).contains(&a.private_probability));
        assert!((0.0..=1.0).contains(&a.reduction_probability));
    }

    // The trained directive head must separate corpus records well past
    // chance (aggregate accuracy — single tiny-scale point predictions
    // are too noisy to assert on).
    let probe: Vec<(String, bool)> =
        db.records().iter().step_by(7).take(40).map(|r| (r.code(), r.has_directive())).collect();
    let sources: Vec<&str> = probe.iter().map(|(s, _)| s.as_str()).collect();
    let verdicts = advisor.advise_batch(&sources);
    let mut correct = 0usize;
    let mut scored = 0usize;
    for (v, (_, label)) in verdicts.iter().zip(&probe) {
        if let Ok(a) = v {
            scored += 1;
            if a.needs_directive == *label {
                correct += 1;
            }
        }
    }
    assert!(scored >= 30, "only {scored}/40 probe records parsed");
    let acc = correct as f64 / scored as f64;
    assert!(
        acc > 0.65,
        "shared-trunk directive head near chance on corpus records: {correct}/{scored}"
    );

    // Batch == sequential, bit for bit, through the shared trunk.
    let lone = advisor.advise(snippets[1]).unwrap();
    let batched = advice[1].as_ref().unwrap();
    assert_eq!(
        batched.confidence.to_bits(),
        lone.confidence.to_bits(),
        "shared-trunk batch forward is not bitwise equal to sequential"
    );

    println!(
        "shared-trunk smoke OK: trained tiny multi-task advisor in {trained:.2?}, \
         directive accuracy {correct}/{scored} on corpus probes, advice contract + \
         bitwise batch parity hold ({:.2?} total)",
        start.elapsed()
    );
}
