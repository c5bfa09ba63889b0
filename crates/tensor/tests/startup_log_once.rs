//! The kernel startup line is logged at most once per process.
//!
//! Reads the process-global `pragformer_log_lines_total` counter, so it
//! runs in a test binary of its own: no sibling test can log a
//! `tensor.kernel` line while it reads.

use pragformer_tensor::kernel::{active_tier, default_plan, describe};

#[test]
fn startup_log_line_is_emitted_at_most_once() {
    if !pragformer_obs::log_enabled(pragformer_obs::Level::Info) || !pragformer_obs::enabled() {
        return; // counter only advances when logging + registry are live
    }
    let lines = pragformer_obs::counter(
        "pragformer_log_lines_total",
        "NDJSON log lines emitted to stderr",
        &[("level", "info"), ("target", "tensor.kernel")],
    );
    let _ = active_tier();
    let after_first = lines.get();
    assert!(after_first <= 1, "startup line must log at most once, saw {after_first}");
    // Re-reads through every accessor must not log again.
    let _ = default_plan();
    let _ = describe();
    let _ = active_tier();
    assert_eq!(lines.get(), after_first, "tier reads/switches must not re-log");
}
