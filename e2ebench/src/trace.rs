//! Benchmark-side tracing: spans recorded around each call into a layer,
//! kept in memory and written out when the run ends.
//!
//! A span has a name, start, end, parent and request id. Self time is a
//! span's duration minus the time its children cover. Spans inside the
//! program itself are out of scope; these bracket public entry points.

use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// A per-thread span recorder. When disabled every call is a no-op, so
/// untraced runs carry no tracing cost.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(SpanRec { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end_ns = end_ns;
    }

    /// Records an already-timed top-level span (for events timed on
    /// another clock path, such as a request's due and answer times).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(SpanRec { name, start_ns, end_ns, parent: None, req });
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration and self time of every span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 * 1e-9;
            e.1 += dur.saturating_sub(child) as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// Total duration of spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.0)
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
