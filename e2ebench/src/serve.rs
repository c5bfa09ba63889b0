//! `serve_zipf`: NDJSON traffic over loopback TCP against an
//! `AdvisorServer` + `TcpServer` on the default `ServeConfig`.
//!
//! Requests draw snippets Zipf-distributed over a universe four times the
//! 4096-entry advice cache, so hits, misses and evictions all occur.
//! Every request pays the front end (`prepare_batch` runs before the
//! cache lookup) and only misses pay a forward, so scheduler, cache, wire
//! and front-end changes show here; kernel changes show only through the
//! misses.
//!
//! One process drives all load: at most `nproc` generator threads, each
//! owning one connection and reading answers between sends (it sleeps in
//! `ppoll` until an answer arrives or the next send falls due; no thread
//! spins). Every sample counts; no window is discarded.
//!
//! - The light phase is an open loop: Poisson arrivals at a fixed light
//!   rate give `p50_ms` and `tail_ms`. Latency is timed from each
//!   request's due time, so a late generator is charged to the server,
//!   and how late the generator ran is reported as `serve.gen_lag_ms`.
//! - The heavy phase is a closed loop: each connection keeps a fixed
//!   window of requests in flight, refilling it with one write as
//!   answers arrive, and `rate_per_s` is the median over the phase's
//!   seconds of the answers received in each. An open-loop
//!   rate ladder (the highest rate meeting a p99 limit) was tried first
//!   and read 2431–3743/s across ten runs of the same code: near
//!   capacity the TCP handler answers a pipelined burst only once all of
//!   it is done, so one slow burst grows the next, and a probe's verdict
//!   flips between runs. The window bounds the bursts, so the closed
//!   loop measures capacity without that feedback.

use crate::gen::{Corpus, Rng, Snippet, Zipf};
use crate::stats::{
    delta, deltas, median, obs_snapshot, quantile, ratio, window_median, Digest, Outcome,
};
use crate::trace::Tracer;
use crate::{front_end_sample, setup_metrics, ADVISOR_SEED, SETUP_REPS};
use pragformer_core::{Advisor, Scale};
use pragformer_serve::{wire, AdvisorServer, ServeConfig, ServeError, TcpServer};
use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Distinct snippets requests draw from: four times the default cache.
const UNIVERSE: usize = 16_384;
/// Records of the input corpus, the paper's Table 3 size: enough for a
/// universe of distinct snippets at the corpus's own length mix.
const CORPUS_RECORDS: usize = 17_013;
/// Popularity skew of the requests. No trace of advisor requests exists;
/// the nearest measured analogue is web request popularity, which six
/// proxy traces put at Zipf-like exponents of 0.64 to 0.83 (Breslau et
/// al., "Web Caching and Zipf-like Distributions: Evidence and
/// Implications", INFOCOM 1999). The benchmark takes 0.8.
const ZIPF_EXPONENT: f64 = 0.8;
/// The light rate `p50_ms` and `tail_ms` are measured at (requests/s):
/// about a fifth of the closed-loop capacity, so queueing adds little.
const LIGHT_RATE: f64 = 200.0;
/// Latency percentile for `tail_ms`.
const TAIL_Q: f64 = 0.99;
/// Light-phase requests per window of `tail_ms` (about three seconds):
/// `tail_ms` is the median over the phase's windows of each window's p99,
/// so a spell of host noise moves one window and not the run's figure.
/// A 40-second run's light phase gives about 4800 samples, eight windows
/// and forty-eight samples beyond p99.
const TAIL_WINDOW: usize = 600;
/// Requests each connection keeps in flight in the heavy phase: one full
/// collector batch (`ServeConfig::max_batch`) each, so a batch is always
/// waiting while the other connection's answers travel.
const WINDOW: usize = 64;
/// Share of the run spent in the light phase; the heavy phase gets the
/// rest.
const LIGHT_SHARE: f64 = 0.6;
/// How long a phase waits for outstanding answers after its last send.
const DRAIN: Duration = Duration::from_secs(5);

/// How a generator thread sends.
#[derive(Clone, Copy)]
enum Mode {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// This many requests in flight, the next sent as an answer arrives.
    Closed(usize),
}

struct Served {
    tcp: TcpServer,
    server: AdvisorServer,
}

/// What a user starts before the first answer: the advisor, the
/// collector and the bound listener.
fn start() -> Served {
    let advisor = Advisor::untrained(Scale::Paper, ADVISOR_SEED);
    let cfg = ServeConfig::default();
    let server = AdvisorServer::start(advisor, cfg.clone());
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), cfg.tcp_workers)
        .expect("bind a loopback port");
    Served { tcp, server }
}

/// One universe entry, pre-escaped for the request line.
struct Entry {
    snippet: Snippet,
    code_json: String,
}

/// The result of one phase.
#[derive(Default)]
struct Phase {
    lat: Vec<f64>,
    /// When each `lat` sample's request was due, in seconds from the
    /// phase's start.
    due_at: Vec<f64>,
    /// When each answer received before sending stopped arrived, in
    /// seconds from the phase's start.
    done_at: Vec<f64>,
    lag: Vec<f64>,
    sent: u64,
    failed: u64,
    /// Answers received before sending stopped.
    answered_in_time: u64,
    /// `(universe index, request id, response line)` kept for checks.
    samples: Vec<(usize, u64, String)>,
    tracer: Option<Tracer>,
}

impl Phase {
    fn merge(&mut self, o: Phase) {
        self.lat.extend(o.lat);
        self.due_at.extend(o.due_at);
        self.done_at.extend(o.done_at);
        self.lag.extend(o.lag);
        self.sent += o.sent;
        self.failed += o.failed;
        self.answered_in_time += o.answered_in_time;
        self.samples.extend(o.samples);
        if let Some(t) = o.tracer {
            match self.tracer.as_mut() {
                Some(mine) => mine.absorb(t),
                None => self.tracer = Some(t),
            }
        }
    }

    fn p99_ms(&self) -> f64 {
        quantile(&self.lat, 0.99) * 1e3
    }

    /// Latencies in the order their requests fell due, across every
    /// connection.
    fn lat_in_due_order(&self) -> Vec<f64> {
        let mut by_due: Vec<(f64, f64)> =
            self.due_at.iter().copied().zip(self.lat.iter().copied()).collect();
        by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_due.into_iter().map(|p| p.1).collect()
    }

    /// The median over the phase's whole seconds of the answers received
    /// in each: a spell of host noise moves the seconds it falls in, not
    /// the phase's figure.
    fn rate_per_s(&self, secs: f64) -> f64 {
        let mut per_second = vec![0.0; (secs as usize).max(1)];
        for &t in &self.done_at {
            if let Some(n) = per_second.get_mut(t as usize) {
                *n += 1.0;
            }
        }
        median(&per_second)
    }
}

/// Parses the id and `ok` flag of a response line without the wire
/// decoder, so the generator stays cheap.
fn response_head(line: &str) -> Option<(u64, bool)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(',')?;
    let id = rest[..end].parse().ok()?;
    Some((id, rest[end..].starts_with(",\"ok\":true")))
}

/// What every phase of one run shares.
struct Load<'a> {
    addr: SocketAddr,
    universe: &'a [Entry],
    zipf: &'a Zipf,
    seed: u64,
    /// Clock origin of the run's spans; `None` in untraced runs.
    trace_origin: Option<Instant>,
}

/// One generator thread: a connection, requests sent as `mode` says
/// until `until`, and reads between sends. Request ids start at
/// `id_base`, which is never 0 (the id of unsolicited error lines).
fn generator(
    load: &Load,
    mode: Mode,
    (start, until): (Instant, Instant),
    seed: u64,
    id_base: u64,
) -> Phase {
    let universe = load.universe;
    let mut ph =
        Phase { tracer: load.trace_origin.map(|o| Tracer::new(true, o)), ..Phase::default() };
    let mut stream = match TcpStream::connect(load.addr) {
        Ok(s) => s,
        Err(_) => {
            ph.failed = 1;
            ph.sent = 1;
            return ph;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut rng = Rng::new(seed);
    let mut next_due = match mode {
        Mode::Open(rate) => Instant::now() + Duration::from_secs_f64(rng.exp(1.0 / rate)),
        Mode::Closed(_) => Instant::now(),
    };
    let mut inflight: VecDeque<(u64, Instant, usize)> = VecDeque::new();
    let mut sampled: HashSet<usize> = HashSet::new();
    let mut pending: Vec<u8> = Vec::new();
    // Request lines not yet written: a closed loop refills its window
    // with one write, as a client pipelining a burst would.
    let mut outbox = String::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut sending = true;
    let mut seq = 0u64;
    let mut drain_until = until + DRAIN;
    loop {
        let now = Instant::now();
        if sending && next_due.max(now) >= until {
            sending = false;
            drain_until = now + DRAIN;
        }
        let send_now = match mode {
            Mode::Open(_) => sending && next_due <= now,
            Mode::Closed(window) => sending && inflight.len() < window,
        };
        if send_now {
            let idx = load.zipf.sample(&mut rng);
            let id = id_base + seq;
            seq += 1;
            outbox.push_str(&format!("{{\"id\":{id},\"code\":\"{}\"}}\n", universe[idx].code_json));
            ph.sent += 1;
            let due = match mode {
                Mode::Open(rate) => {
                    ph.lag.push(now.duration_since(next_due).as_secs_f64());
                    let due = next_due;
                    next_due += Duration::from_secs_f64(rng.exp(1.0 / rate));
                    due
                }
                Mode::Closed(_) => now,
            };
            inflight.push_back((id, due, idx));
            continue;
        }
        if !outbox.is_empty() {
            if stream.write_all(outbox.as_bytes()).is_err() {
                ph.failed += inflight.len() as u64;
                return ph;
            }
            outbox.clear();
        }
        if !sending && (inflight.is_empty() || now >= drain_until) {
            ph.failed += inflight.len() as u64;
            return ph;
        }
        let wake = match (sending, mode) {
            (true, Mode::Open(_)) => next_due,
            (true, Mode::Closed(_)) => until,
            (false, _) => drain_until,
        };
        if !crate::sys::wait_readable(&stream, wake.saturating_duration_since(now)) {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                ph.failed += inflight.len() as u64;
                return ph;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                ph.failed += inflight.len() as u64;
                return ph;
            }
        };
        let got = Instant::now();
        pending.extend_from_slice(&chunk[..n]);
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            let Some((id, ok)) = response_head(&line) else {
                ph.failed += 1;
                continue;
            };
            let Some(&(want, due, idx)) = inflight.front() else {
                ph.failed += 1;
                continue;
            };
            if id != want {
                // An unsolicited line (e.g. a capacity refusal, id 0).
                ph.failed += 1;
                continue;
            }
            inflight.pop_front();
            ph.lat.push(got.duration_since(due).as_secs_f64());
            ph.due_at.push(due.saturating_duration_since(start).as_secs_f64());
            if sending {
                ph.answered_in_time += 1;
                ph.done_at.push(got.duration_since(start).as_secs_f64());
            }
            if let Some(t) = ph.tracer.as_mut() {
                t.record("serve.request", id, due, got);
            }
            let malformed = universe[idx].snippet.malformed;
            if ok == malformed {
                ph.failed += 1;
            }
            if (ph.samples.len() < 16 || malformed && ph.samples.len() < 24) && sampled.insert(idx)
            {
                ph.samples.push((idx, id, line));
            }
        }
    }
}

/// Runs one phase for `secs` over up to `nproc` connections; an open
/// loop's rate is split evenly among them.
fn phase(load: &Load, mode: Mode, secs: f64, phase_no: u64) -> Phase {
    let conns = crate::sys::nproc().clamp(1, 2);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns as u64)
            .map(|c| {
                let thread_seed = load.seed ^ (phase_no << 32) ^ (c << 56) ^ 0x5EED;
                let id_base = (phase_no << 40) | (c << 32) | 1;
                let mode = match mode {
                    Mode::Open(rate) => Mode::Open(rate / conns as f64),
                    closed => closed,
                };
                s.spawn(move || generator(load, mode, (start, until), thread_seed, id_base))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut all = Phase::default();
    for p in parts {
        all.merge(p);
    }
    all
}

pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let corpus = Corpus::generate(seed, CORPUS_RECORDS);
    println!("serve_zipf: corpus length classes {:?}", corpus.histogram());
    let universe: Vec<Entry> = corpus
        .universe(&mut Rng::new(seed), UNIVERSE)
        .into_iter()
        .map(|snippet| Entry { code_json: wire::escape_json(&snippet.src), snippet })
        .collect();
    drop(corpus);
    let zipf = Zipf::new(UNIVERSE, ZIPF_EXPONENT);

    let (served, setup_times) = crate::sys::timed_setups(SETUP_REPS, start);
    setup_metrics(&mut out, &setup_times, trace);
    let addr = served.tcp.local_addr();

    // Fill the cache with the most popular snippets, in-process and
    // untimed, so the timed phases start near a steady hit ratio.
    let client = served.server.client();
    let capacity = ServeConfig::default().cache_capacity.min(UNIVERSE);
    for chunk in universe[..capacity].chunks(64) {
        let pending: Vec<_> =
            chunk.iter().map(|e| client.submit(&e.snippet.src).expect("server running")).collect();
        for p in pending {
            let _ = p.wait();
        }
    }

    let stats_before = served.server.stats();
    let obs_before = obs_snapshot();
    let load = Load {
        addr,
        universe: &universe,
        zipf: &zipf,
        seed,
        trace_origin: trace.then(Instant::now),
    };
    let mut light = phase(&load, Mode::Open(LIGHT_RATE), seconds * LIGHT_SHARE, 1);
    let heavy_secs = seconds * (1.0 - LIGHT_SHARE);
    let mut heavy = phase(&load, Mode::Closed(WINDOW), heavy_secs, 2);
    let stats_after = served.server.stats();
    let obs_after = obs_snapshot();
    let rate = heavy.rate_per_s(heavy_secs);
    let light_qs: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.2}", q * 100.0, quantile(&light.lat, q) * 1e3))
        .collect();
    println!(
        "serve_zipf light phase: {LIGHT_RATE}/s open loop, {} samples, {} windows for p{:.0}, latency ms {}, generator lag p99 {:.3} ms",
        light.lat.len(),
        (light.lat.len() / TAIL_WINDOW).max(1),
        TAIL_Q * 100.0,
        light_qs.join(" "),
        quantile(&light.lag, 0.99) * 1e3
    );
    println!(
        "serve_zipf heavy phase: closed loop, {WINDOW} in flight per connection, {:.0} answers/s over the phase, p50 {:.1} ms, p99 {:.1} ms over {} samples",
        heavy.answered_in_time as f64 / heavy_secs,
        median(&heavy.lat) * 1e3,
        heavy.p99_ms(),
        heavy.lat.len()
    );

    out.attempted = light.sent + heavy.sent;
    out.failed = light.failed + heavy.failed;
    let samples: Vec<(usize, u64, String)> =
        light.samples.iter().chain(&heavy.samples).cloned().collect();
    if !trace {
        out.metric("peak_rss_mb", crate::sys::peak_rss_mb(), "MiB");
        out.metric("rate_per_s", rate, "1/s");
        out.metric("p50_ms", median(&light.lat) * 1e3, "ms");
        let tail = window_median(&light.lat_in_due_order(), TAIL_WINDOW, |w| quantile(w, TAIL_Q));
        out.metric("tail_ms", tail * 1e3, "ms");
    } else {
        for part in [light.tracer.take(), heavy.tracer.take()].into_iter().flatten() {
            tracer.absorb(part);
        }
        let (s0, s1) = (stats_before, stats_after);
        let d = |a: u64, b: u64| (b - a) as f64;
        let reqs = d(s0.requests, s1.requests);
        let batches = d(s0.batches, s1.batches);
        let hits = d(s0.cache_hits, s1.cache_hits);
        let misses = d(s0.cache_misses, s1.cache_misses);
        out.metric("serve.batch_mean", ratio(reqs, batches), "requests");
        out.metric(
            "serve.flush_full_frac",
            ratio(d(s0.batches_full, s1.batches_full), batches),
            "frac",
        );
        let od = |n: &str| delta(&obs_before, &obs_after, n);
        let wait = ratio(
            od("pragformer_serve_deadline_wait_seconds_sum"),
            od("pragformer_serve_deadline_wait_seconds_count"),
        );
        out.metric("serve.deadline_wait_ms", wait * 1e3, "ms");
        out.metric("serve.queue_hwm", s1.queue_hwm as f64, "requests");
        out.metric("serve.cache_hit_ratio", ratio(hits, hits + misses), "frac");
        out.metric(
            "serve.evictions_per_req",
            ratio(d(s0.cache_evictions, s1.cache_evictions), reqs),
            "frac",
        );
        out.metric("serve.gen_lag_ms", quantile(&light.lag, 0.99) * 1e3, "ms");
        out.metric("serve.heavy_p99_ms", heavy.p99_ms(), "ms");
        // Seconds the program's own `advise.*` span histograms recorded.
        let span = |name: &str| {
            let label = format!("span=\"{name}\"");
            obs_after
                .keys()
                .filter(|k| k.starts_with("pragformer_span_seconds_sum{") && k.contains(&label))
                .map(|k| od(k))
                .sum::<f64>()
        };
        // The scheduler assembles advice outside any span, so the share
        // is of the front end, bucketing and forward.
        let (fwd, prep, bucket) =
            (span("advise.forward"), span("advise.prepare"), span("advise.bucket"));
        out.metric("core.forward_us", ratio(fwd, misses) * 1e6, "us");
        out.metric("core.forward_share", ratio(fwd, fwd + prep + bucket), "frac");
        crate::tensor_metrics(&mut out, &deltas(&obs_before, &obs_after), &obs_after, misses, fwd);
    }

    served.tcp.shutdown();
    let mut advisor = served.server.shutdown();
    if trace {
        wire_timings(&mut out, &mut advisor, &universe);
        front_end_sample(
            &mut out,
            &advisor,
            universe.iter().map(|e| &e.snippet).take(256),
            true,
            tracer,
        );
    }
    checks(&mut out, &mut advisor, &universe, &samples);
    out
}

/// Times the wire decoder and encoder on sampled request and response
/// lines, per line.
fn wire_timings(out: &mut Outcome, advisor: &mut Advisor, universe: &[Entry]) {
    let sample = &universe[..512];
    let requests: Vec<String> = sample
        .iter()
        .enumerate()
        .map(|(i, e)| format!("{{\"id\":{i},\"code\":\"{}\"}}", e.code_json))
        .collect();
    let results: Vec<_> =
        sample.iter().map(|e| advisor.advise(&e.snippet.src).map_err(ServeError::Parse)).collect();
    let reps = 4;
    let t0 = Instant::now();
    for _ in 0..reps {
        for r in &requests {
            std::hint::black_box(wire::parse_request(r).is_ok());
        }
    }
    let parse_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        for (i, r) in results.iter().enumerate() {
            std::hint::black_box(wire::format_response(i as u64, r));
        }
    }
    let format_s = t0.elapsed().as_secs_f64();
    let n = (reps * sample.len()) as f64;
    out.metric("serve.wire_parse_us", parse_s / n * 1e6, "us");
    out.metric("serve.wire_format_us", format_s / n * 1e6, "us");
}

/// Correctness: every sampled served line equals the line direct
/// `advise` gives after the wire round trip, malformed snippets got an
/// error line, and a digest of the answers for the most popular snippets.
fn checks(
    out: &mut Outcome,
    advisor: &mut Advisor,
    universe: &[Entry],
    samples: &[(usize, u64, String)],
) {
    let mut mismatches = Vec::new();
    let mut malformed = 0;
    for (idx, id, line) in samples {
        let e = &universe[*idx];
        malformed += usize::from(e.snippet.malformed);
        let direct =
            wire::format_response(*id, &advisor.advise(&e.snippet.src).map_err(ServeError::Parse));
        if &direct != line {
            mismatches.push(*idx);
        }
    }
    out.check(
        "served_equals_direct",
        mismatches.is_empty() && !samples.is_empty(),
        format!("{} compared, mismatching universe entries: {mismatches:?}", samples.len()),
    );
    out.check(
        "malformed_get_error_line",
        malformed > 0 && mismatches.is_empty(),
        format!("{malformed} malformed snippets among the compared answers"),
    );
    let mut digest = Digest::default();
    for e in &universe[..256] {
        let r = advisor.advise(&e.snippet.src).map_err(ServeError::Parse);
        digest.feed(wire::format_response(0, &r).as_bytes());
    }
    out.check("advice_digest", true, digest.hex());
}
