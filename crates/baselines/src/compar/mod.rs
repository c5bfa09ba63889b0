//! ComPar-style source-to-source auto-parallelizer.
//!
//! Pipeline (§1.1 of the paper): front-end → dependence analysis →
//! directive generation. The engine is deterministic and conservative:
//! when in doubt it refuses, which reproduces ComPar's high-precision /
//! low-recall profile on the reduction task and its low overall score on
//! directive identification.

mod analysis;
mod frontend;

pub use analysis::{analyze_loop, LoopAnalysis};
pub use frontend::{check_frontend, check_tokens, Strictness};

use pragformer_cparse::omp::{OmpClause, OmpDirective};
use pragformer_cparse::{parse_snippet, Stmt};

/// Why a loop was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reason {
    /// Loop is not in canonical `for (i = L; i < U; i += c)` form.
    NonCanonicalLoop,
    /// A call to a function with unknown side effects.
    UnknownCall(String),
    /// An I/O routine inside the body.
    IoCall(String),
    /// Memory management inside the body.
    AllocCall(String),
    /// `break`/`return`/`goto` escapes the loop.
    EarlyExit,
    /// A loop-carried dependence on the named array.
    CarriedDependence(String),
    /// A scalar with cross-iteration flow that is not a reduction.
    ScalarDependence(String),
    /// Write through a pointer/struct the analysis cannot disambiguate.
    OpaqueWrite,
    /// Constant trip count too small to pay for threads.
    LowTripCount(i64),
    /// No loop statement found in the snippet.
    NoLoop,
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reason::NonCanonicalLoop => write!(f, "non-canonical loop"),
            Reason::UnknownCall(name) => write!(f, "call to unknown function '{name}'"),
            Reason::IoCall(name) => write!(f, "I/O call '{name}'"),
            Reason::AllocCall(name) => write!(f, "allocator call '{name}'"),
            Reason::EarlyExit => write!(f, "early exit from loop"),
            Reason::CarriedDependence(arr) => {
                write!(f, "loop-carried dependence on '{arr}'")
            }
            Reason::ScalarDependence(s) => write!(f, "scalar dependence on '{s}'"),
            Reason::OpaqueWrite => write!(f, "opaque pointer/struct write"),
            Reason::LowTripCount(n) => write!(f, "trip count {n} too small"),
            Reason::NoLoop => write!(f, "no for-loop in snippet"),
        }
    }
}

/// Outcome of running the S2S engine on a snippet.
#[derive(Clone, Debug, PartialEq)]
pub enum ComparResult {
    /// The front-end could not handle the input (the paper: 221/1,274
    /// test snippets; `register` and typedef casts on SPEC).
    ParseFailure(String),
    /// Analyzed but refused, with the blocking reasons.
    NotParallelizable(Vec<Reason>),
    /// A directive was generated.
    Parallelized(OmpDirective),
}

impl ComparResult {
    /// The binary prediction used in Table 8's evaluation: positive iff a
    /// directive was emitted. Parse failures fall back to negative
    /// (the paper's "fall-back strategy that considers these cases as a
    /// negative outcome").
    pub fn predicts_directive(&self) -> bool {
        matches!(self, ComparResult::Parallelized(_))
    }

    /// Positive iff the emitted directive carries a `private` clause.
    pub fn predicts_private(&self) -> bool {
        match self {
            ComparResult::Parallelized(d) => d.has_private(),
            _ => false,
        }
    }

    /// Positive iff the emitted directive carries a `reduction` clause.
    pub fn predicts_reduction(&self) -> bool {
        match self {
            ComparResult::Parallelized(d) => d.has_reduction(),
            _ => false,
        }
    }

    /// True when the front-end rejected the input outright.
    pub fn is_parse_failure(&self) -> bool {
        matches!(self, ComparResult::ParseFailure(_))
    }
}

/// Trip counts at or below this are refused (threads cost more than the
/// loop body; mirrors Cetus profitability heuristics the paper observed).
pub const MIN_PROFITABLE_TRIP: i64 = 16;

/// Runs the engine on a C snippet.
pub fn analyze_snippet(source: &str, strictness: Strictness) -> ComparResult {
    if let Err(reason) = check_frontend(source, strictness) {
        return ComparResult::ParseFailure(reason);
    }
    let stmts = match parse_snippet(source) {
        Ok(s) => s,
        Err(e) => return ComparResult::ParseFailure(e.to_string()),
    };
    analyze_stmts(&stmts)
}

/// Runs the engine on pre-parsed statements (skipping the front-end
/// strictness gate — used by the lenient ablation).
pub fn analyze_stmts(stmts: &[Stmt]) -> ComparResult {
    // Find the first for-loop; declarations before it are scope context.
    let loop_stmt = stmts.iter().find_map(|s| match s {
        Stmt::For { .. } => Some(s),
        Stmt::Pragma { stmt, .. } if matches!(stmt.as_ref(), Stmt::For { .. }) => {
            Some(stmt.as_ref())
        }
        _ => None,
    });
    let Some(loop_stmt) = loop_stmt else {
        return ComparResult::NotParallelizable(vec![Reason::NoLoop]);
    };
    let analysis = analyze_loop(loop_stmt, stmts);
    if !analysis.blockers.is_empty() {
        return ComparResult::NotParallelizable(analysis.blockers);
    }
    // Directive generation. Unlike developers, the deterministic engine
    // always lists the loop variable in `private` (the behaviour the paper
    // blames for ComPar's poor precision on the private task, §5.3).
    let mut directive = OmpDirective::parallel_for();
    let mut private_vars = vec![analysis.loop_var.clone()];
    private_vars.extend(analysis.private.iter().cloned());
    directive = directive.with(OmpClause::Private(private_vars));
    for (op, var) in &analysis.reductions {
        directive = directive.with(OmpClause::Reduction { op: *op, vars: vec![var.clone()] });
    }
    // Deterministic engines cannot judge imbalance: schedule stays the
    // implicit static default (§1.1 example #2).
    ComparResult::Parallelized(directive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> ComparResult {
        analyze_snippet(src, Strictness::Strict)
    }

    #[test]
    fn parallelizes_independent_loop() {
        let r = run("for (i = 0; i < n; i++) a[i] = b[i] + 1;");
        match r {
            ComparResult::Parallelized(d) => {
                assert!(d.parallel && d.for_loop);
                assert_eq!(d.private_vars(), vec!["i"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detects_sum_reduction() {
        let r = run("s = 0.0;\nfor (i = 0; i < n; i++) s += a[i];");
        match r {
            ComparResult::Parallelized(d) => assert!(d.has_reduction(), "{d}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn refuses_loop_carried_flow() {
        let r = run("for (i = 1; i < n; i++) a[i] = a[i - 1] + b[i];");
        match r {
            ComparResult::NotParallelizable(reasons) => {
                assert!(
                    reasons.iter().any(|x| matches!(x, Reason::CarriedDependence(_))),
                    "{reasons:?}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn refuses_io() {
        let r = run("for (i = 0; i < n; i++) printf(\"%d\", a[i]);");
        assert!(
            matches!(r, ComparResult::NotParallelizable(ref v)
            if v.iter().any(|x| matches!(x, Reason::IoCall(_)))),
            "{r:?}"
        );
    }

    #[test]
    fn refuses_unknown_call_but_accepts_math() {
        let unknown = run("for (i = 0; i < n; i++) y[i] = mystery(x[i]);");
        assert!(
            matches!(unknown, ComparResult::NotParallelizable(ref v)
            if v.iter().any(|x| matches!(x, Reason::UnknownCall(_)))),
            "{unknown:?}"
        );
        let math = run("for (i = 0; i < n; i++) y[i] = sqrt(x[i]);");
        assert!(math.predicts_directive(), "{math:?}");
    }

    #[test]
    fn refuses_small_trip_counts() {
        let r = run("for (i = 0; i < 4; i++) a[i] = i;");
        assert!(
            matches!(r, ComparResult::NotParallelizable(ref v)
            if v.iter().any(|x| matches!(x, Reason::LowTripCount(4)))),
            "{r:?}"
        );
    }

    #[test]
    fn register_keyword_is_a_parse_failure_in_strict_mode() {
        let src = "register int i;\nfor (i = 0; i < n; i++) a[i] = i;";
        assert!(run(src).is_parse_failure());
        // Lenient mode (the ablation) analyzes it fine.
        let lenient = analyze_snippet(src, Strictness::Lenient);
        assert!(lenient.predicts_directive(), "{lenient:?}");
    }

    #[test]
    fn early_break_is_refused() {
        let r = run("for (i = 0; i < n; i++) { if (a[i] == t) break; }");
        assert!(
            matches!(r, ComparResult::NotParallelizable(ref v)
            if v.contains(&Reason::EarlyExit)),
            "{r:?}"
        );
    }

    #[test]
    fn prediction_helpers() {
        let pos = run("for (i = 0; i < n; i++) s += a[i];");
        assert!(pos.predicts_directive());
        assert!(pos.predicts_reduction());
        assert!(pos.predicts_private()); // private(i) is always emitted
        let neg = ComparResult::ParseFailure("x".into());
        assert!(!neg.predicts_directive());
        assert!(!neg.predicts_private());
    }

    #[test]
    fn no_loop_snippet() {
        let r = run("x = 1; y = x + 2;");
        assert!(matches!(r, ComparResult::NotParallelizable(ref v)
            if v.contains(&Reason::NoLoop)));
    }

    #[test]
    fn pragma_in_input_is_ignored_for_analysis() {
        // The engine re-derives the directive; an existing pragma on the
        // loop must not confuse it.
        let r = run("#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = i;");
        assert!(r.predicts_directive(), "{r:?}");
    }
}
