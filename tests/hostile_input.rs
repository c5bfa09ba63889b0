//! Hostile snippet text gets a typed error, never a process abort.
//!
//! The parser is recursive descent, so unbounded nesting used to
//! overflow the stack: 10,000 nested `(` aborted the whole process on a
//! 2 MiB thread — the default stack of pool workers and serving
//! threads, where `catch_unwind` cannot help. Every check here runs on
//! such a thread.

use pragformer_core::{Advisor, Scale};
use pragformer_cparse::{parse_snippet, MAX_NESTING_DEPTH};

/// The default stack of spawned Rust threads.
const STACK_BYTES: usize = 2 << 20;

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(f)
        .expect("spawn small-stack thread")
        .join()
        .expect("small-stack thread panicked")
}

/// Snippets nesting `n` levels of each recursive form: parentheses,
/// blocks, unary operators and chained assignments.
fn nested(n: usize) -> Vec<(&'static str, String)> {
    vec![
        ("parentheses", format!("x = {}1{};", "(".repeat(n), ")".repeat(n))),
        ("braces", format!("{}x = 1;{}", "{".repeat(n), "}".repeat(n))),
        ("unary minus", format!("x = {}1;", "- ".repeat(n))),
        ("assignments", format!("{}1;", "x = ".repeat(n))),
    ]
}

#[test]
fn deep_nesting_is_a_parse_error_not_an_abort() {
    let mut advisor = Advisor::untrained(Scale::Tiny, 1);
    on_small_stack(move || {
        for (form, src) in nested(10_000) {
            let err = parse_snippet(&src).expect_err(form);
            assert!(err.msg.contains("nesting deeper than"), "{form}: {err}");
            assert!(advisor.advise(&src).is_err(), "{form}: advise accepted the input");
        }
        // The advisor keeps serving afterwards, and its eval-only
        // forwards retain no attention cache.
        advisor.advise("for (i = 0; i < n; i++) a[i] = b[i] + c[i];").expect("plain loop");
        assert_eq!(advisor.retained_attention_bytes(), 0);
    });
}

#[test]
fn nesting_at_the_limit_still_gets_advice() {
    // The deepest each form can go: the statement, its assignment and
    // the assignment's right side take three levels, the innermost
    // operand one more, and a parenthesis costs two.
    let deepest = [
        MAX_NESTING_DEPTH / 2 - 2,
        MAX_NESTING_DEPTH - 4,
        MAX_NESTING_DEPTH - 4,
        MAX_NESTING_DEPTH - 3,
    ];
    let mut advisor = Advisor::untrained(Scale::Tiny, 1);
    on_small_stack(move || {
        for (i, &n) in deepest.iter().enumerate() {
            let (form, src) = nested(n).swap_remove(i);
            parse_snippet(&src).unwrap_or_else(|e| panic!("{form} at depth {n}: {e}"));
            advisor.advise(&src).unwrap_or_else(|e| panic!("{form} at depth {n}: {e}"));
            let (_, deeper) = nested(n + 1).swap_remove(i);
            assert!(parse_snippet(&deeper).is_err(), "{form} accepted depth {}", n + 1);
        }
    });
}
