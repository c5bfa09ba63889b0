//! Structured NDJSON logging to stderr, plus process-unique trace ids.
//!
//! One log call emits one JSON object per line:
//! `{"ts":1712345678,"level":"info","target":"tensor.kernel","msg":"…",…}`
//! with caller-supplied key/value pairs appended. The threshold comes
//! from `PRAGFORMER_LOG` (`debug` | `info` | `warn` | `error` | `off`,
//! default `info`); [`set_log_level`] overrides it in-process. Every
//! emitted line also increments
//! `pragformer_log_lines_total{level,target}` when the metric registry
//! is enabled.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ascending. `Off` is a threshold only — nothing logs at
/// `Off`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-request detail (trace ids, wire lines).
    Debug = 0,
    /// One-off configuration facts (kernel tier, server bind).
    Info = 1,
    /// Recoverable anomalies.
    Warn = 2,
    /// Failures.
    Error = 3,
    /// Disables all logging when used as the threshold.
    Off = 4,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
            Level::Off => "off",
        }
    }

    fn from_env(s: &str) -> Level {
        match s {
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" => Level::Warn,
            "error" => Level::Error,
            "off" | "0" | "false" => Level::Off,
            _ => Level::Info,
        }
    }
}

/// 0 = uninitialized; otherwise `Level as u8 + 1`.
static LOG_LEVEL: AtomicU8 = AtomicU8::new(0);

fn threshold() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        0 => init_threshold(),
        v => decode(v),
    }
}

fn decode(v: u8) -> Level {
    match v - 1 {
        0 => Level::Debug,
        1 => Level::Info,
        2 => Level::Warn,
        3 => Level::Error,
        _ => Level::Off,
    }
}

#[cold]
fn init_threshold() -> Level {
    let level = match std::env::var("PRAGFORMER_LOG") {
        Ok(v) => Level::from_env(&v),
        Err(_) => Level::Info,
    };
    // First writer wins; racing initializers agree on the env value.
    let _ = LOG_LEVEL.compare_exchange(0, level as u8 + 1, Ordering::Relaxed, Ordering::Relaxed);
    decode(LOG_LEVEL.load(Ordering::Relaxed))
}

/// Overrides the log threshold in-process (tests, examples).
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8 + 1, Ordering::Relaxed);
}

/// Whether a message at `level` would be emitted — guard expensive
/// formatting with this.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && level >= threshold()
}

/// A process-unique, monotonically increasing trace id. The serve
/// front-end stamps every wire request with one so a request's log lines
/// can be correlated across threads.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn escape_json_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Emits one NDJSON log line to stderr: timestamp, level, target,
/// message. Values in `kv` are written as JSON strings (pre-format
/// numbers with `format!`). No-op below the threshold.
pub fn log_kv(level: Level, target: &str, msg: &str, kv: &[(&str, &str)]) {
    if !log_enabled(level) {
        return;
    }
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let mut line = String::with_capacity(96 + msg.len());
    line.push_str("{\"ts\":");
    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{ts}"));
    line.push_str(",\"level\":\"");
    line.push_str(level.as_str());
    line.push_str("\",\"target\":\"");
    escape_json_into(target, &mut line);
    line.push_str("\",\"msg\":\"");
    escape_json_into(msg, &mut line);
    line.push('"');
    for (k, v) in kv {
        line.push_str(",\"");
        escape_json_into(k, &mut line);
        line.push_str("\":\"");
        escape_json_into(v, &mut line);
        line.push('"');
    }
    line.push_str("}\n");
    // One write_all call per line keeps concurrent lines whole.
    let _ = std::io::stderr().write_all(line.as_bytes());
    if crate::enabled() {
        crate::counter(
            "pragformer_log_lines_total",
            "NDJSON log lines emitted to stderr",
            &[("level", level.as_str()), ("target", target)],
        )
        .inc();
    }
}

/// [`log_kv`] without extra key/value pairs.
pub fn log(level: Level, target: &str, msg: &str) {
    log_kv(level, target, msg, &[]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Held by every test that sets the process-global log level.
    static LOG_LEVEL: Mutex<()> = Mutex::new(());

    #[test]
    fn level_ordering_and_threshold() {
        let _serial = LOG_LEVEL.lock().unwrap_or_else(|e| e.into_inner());
        set_log_level(Level::Warn);
        assert!(!log_enabled(Level::Debug));
        assert!(!log_enabled(Level::Info));
        assert!(log_enabled(Level::Warn));
        assert!(log_enabled(Level::Error));
        set_log_level(Level::Off);
        assert!(!log_enabled(Level::Error));
        set_log_level(Level::Info);
    }

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(b > a);
    }

    #[test]
    fn log_lines_counter_advances() {
        let _serial = LOG_LEVEL.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        set_log_level(Level::Info);
        let c = crate::counter(
            "pragformer_log_lines_total",
            "NDJSON log lines emitted to stderr",
            &[("level", "info"), ("target", "obs.test")],
        );
        let before = c.get();
        log_kv(Level::Info, "obs.test", "hello", &[("k", "v")]);
        assert_eq!(c.get(), before + 1);
        // Below threshold: no line, no count.
        log_kv(Level::Debug, "obs.test", "quiet", &[]);
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn json_escaping_covers_specials() {
        let mut out = String::new();
        escape_json_into("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
