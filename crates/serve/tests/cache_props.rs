//! Property: whether a request is answered from the source-text cache
//! (on the submit path or by the collector) or advised afresh, the
//! served answer is bit-identical to a direct `Advisor::advise` call,
//! and every advise request counts once as a cache hit or a miss.
//!
//! One server (a small cache, so entries are evicted) runs across all
//! cases; this binary holds this one test, so the counter deltas of a
//! case are the case's own requests.

use pragformer_core::{Advice, Advisor, Scale};
use pragformer_cparse::ParseError;
use pragformer_serve::{AdvisorServer, ServeConfig, ServeError};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Valid and malformed snippets; requests use them verbatim or with
/// whitespace changed, which makes another cache key for the same loop.
const BASE: &[&str] = &[
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x[i] = x[i] + A[i][j] * y[j];",
    "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
    "",
    "for (i = 0; i < ; i++ {",
    "a[i = ;",
];

/// The `variant`-th spelling of `base`.
fn spell(base: &str, variant: usize) -> String {
    match variant {
        0 => base.to_string(),
        1 => format!(" {base}"),
        2 => format!("{base}\n"),
        _ => base.replace(" = ", "  =  "),
    }
}

struct Fixture {
    server: AdvisorServer,
    direct: Mutex<Advisor>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture {
        server: AdvisorServer::start(
            Advisor::untrained(Scale::Tiny, 41),
            ServeConfig {
                deadline: Duration::from_millis(1),
                max_batch: 4,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
        ),
        direct: Mutex::new(Advisor::untrained(Scale::Tiny, 41)),
    })
}

fn same_answer(served: &Result<Advice, ServeError>, direct: &Result<Advice, ParseError>) -> bool {
    match (served, direct) {
        (Ok(a), Ok(b)) => {
            a.needs_directive == b.needs_directive
                && a.confidence.to_bits() == b.confidence.to_bits()
                && a.private_probability.to_bits() == b.private_probability.to_bits()
                && a.reduction_probability.to_bits() == b.reduction_probability.to_bits()
                && a.compar_agrees == b.compar_agrees
                && a.suggestion.as_ref().map(|d| d.to_string())
                    == b.suggestion.as_ref().map(|d| d.to_string())
        }
        (Err(ServeError::Parse(a)), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn served_answers_match_direct_advise_hit_or_miss(
        picks in prop::collection::vec((0..BASE.len(), 0usize..4), 1..24)
    ) {
        let f = fixture();
        let client = f.server.client();
        let sources: Vec<String> = picks.iter().map(|&(b, v)| spell(BASE[b], v)).collect();
        let before = f.server.stats();
        // All in flight at once: repeats of a text meet the cache on the
        // submit path, again in the collector, or in the same batch.
        let pending: Vec<_> =
            sources.iter().map(|s| client.submit(s).expect("server is running")).collect();
        let served: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        let after = f.server.stats();
        let mut direct = f.direct.lock().unwrap();
        for (source, served) in sources.iter().zip(&served) {
            let want = direct.advise(source);
            prop_assert!(same_answer(served, &want), "{source:?}: {served:?} vs {want:?}");
        }
        let n = sources.len() as u64;
        prop_assert_eq!(after.requests - before.requests, n);
        prop_assert_eq!(
            (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses),
            n
        );
    }
}
