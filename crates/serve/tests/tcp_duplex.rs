//! The full-duplex TCP connection: request order over bursts larger
//! than the read buffer, the request-line cap, and the per-connection
//! bounds against a peer that never reads, whether it floods advice or
//! `metrics` lines.
//!
//! These tests live in their own binary, apart from
//! `serve_integration`'s scrape test: the metrics registry is
//! process-global, and the flood here churns gauges and histograms
//! that a concurrent scrape would see.
//!
//! Like `serve_integration`, they use an **untrained** tiny advisor:
//! seeded random weights give deterministic probabilities without a
//! training run.

use pragformer_core::{Advice, Advisor, Scale};
use pragformer_serve::{AdvisorServer, ServeConfig, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DOT: &str = "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];";
const MATVEC: &str =
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x[i] = x[i] + A[i][j] * y[j];";

/// Field-by-field bit equality of a wire answer with direct advice.
fn assert_wire_bits_eq(resp: &pragformer_serve::WireResponse, want: &Advice, ctx: &str) {
    assert!(resp.ok, "{ctx}: advice expected, got {:?}", resp.error);
    assert_eq!(resp.needs_directive, want.needs_directive, "{ctx}: verdict");
    assert_eq!(resp.confidence.to_bits(), want.confidence.to_bits(), "{ctx}: confidence bits");
    assert_eq!(
        resp.private_probability.to_bits(),
        want.private_probability.to_bits(),
        "{ctx}: private bits"
    );
    assert_eq!(
        resp.reduction_probability.to_bits(),
        want.reduction_probability.to_bits(),
        "{ctx}: reduction bits"
    );
    assert_eq!(resp.compar_agrees, want.compar_agrees, "{ctx}: compar");
    assert_eq!(
        resp.suggestion,
        want.suggestion.as_ref().map(|d| d.to_string()),
        "{ctx}: suggestion"
    );
}

fn advise_line(id: u64, code: &str) -> String {
    format!("{{\"id\": {id}, \"code\": \"{}\"}}\n", pragformer_serve::wire::escape_json(code))
}

fn read_response_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "connection closed mid-answer: {line:?}");
    line
}

/// One burst well over the 8 KiB read buffer — ~200 advice lines mixed
/// with malformed lines, a blank line, `stats` and `metrics` — comes back
/// in request order, with advice bits equal to direct `advise` and each
/// `stats` answer counting every advice request ahead of it.
#[test]
fn tcp_large_mixed_burst_answers_in_request_order() {
    enum Want {
        Advice(u64, usize),
        Error,
        Stats(u64, u64),
        Metrics(u64),
    }
    let mut advisor = Advisor::untrained(Scale::Tiny, 31);
    let codes: Vec<String> = (0..200)
        .map(|k| match k % 4 {
            0 => format!("for (i = 0; i < n; i++) a[i] = b[i] + {k} * c[i];"),
            1 => format!("s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i] + {k};"),
            2 => format!("for (i = 0; i < n; i++) printf(\"%d\\n\", a[i] + {k});"),
            _ => format!("for (i = 0; i < n; i++)\n  for (j = 0; j < m; j++)\n    x[i] += A[i][j] * y[j] + {k};"),
        })
        .collect();
    let direct: Vec<Advice> =
        codes.iter().map(|c| advisor.advise(c).expect("snippet parses")).collect();

    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(2), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");

    let mut burst = String::new();
    let mut wants = Vec::new();
    let mut advised = 0u64;
    for (k, code) in codes.iter().enumerate() {
        let id = 1000 + k as u64;
        burst.push_str(&advise_line(id, code));
        wants.push(Want::Advice(id, k));
        advised += 1;
        if k % 40 == 17 {
            burst.push_str("this line is not json\n");
            wants.push(Want::Error);
        }
        if k == 60 {
            burst.push('\n'); // blank: ignored, no answer
        }
        if k == 99 {
            burst.push_str("{\"id\": 5, \"stats\": true}\n");
            wants.push(Want::Stats(5, advised));
        }
    }
    burst.push_str("{\"id\": 6, \"code\": \"for (i = 0; i < ; i++ {\"}\n"); // parse error
    wants.push(Want::Error);
    advised += 1;
    burst.push_str("{\"id\": 7, \"stats\": true}\n");
    wants.push(Want::Stats(7, advised));
    burst.push_str("{\"id\": 8, \"metrics\": true}\n");
    wants.push(Want::Metrics(8));
    assert!(burst.len() > 2 * 8192, "burst must span several read buffers");

    let stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(burst.as_bytes()).unwrap();

    for (n, want) in wants.iter().enumerate() {
        let line = read_response_line(&mut reader);
        match *want {
            Want::Advice(id, k) => {
                let resp = pragformer_serve::wire::parse_response(&line).expect("advice line");
                assert_eq!(resp.id, id, "answer {n} out of order");
                assert_wire_bits_eq(&resp, &direct[k], &format!("answer {n}"));
            }
            Want::Error => {
                let resp = pragformer_serve::wire::parse_response(&line).expect("error line");
                assert!(!resp.ok && resp.error.is_some(), "answer {n} must be an error: {line}");
            }
            Want::Stats(id, ahead) => {
                let (got, stats) =
                    pragformer_serve::wire::parse_stats_response(&line).expect("stats line");
                assert_eq!(got, id, "answer {n} out of order");
                assert!(
                    stats.requests >= ahead,
                    "stats {id} counts {} requests, {ahead} were ahead of it",
                    stats.requests
                );
                if id == 7 {
                    assert_eq!(stats.requests, ahead, "nothing else was submitted");
                }
            }
            Want::Metrics(id) => {
                let (got, _) =
                    pragformer_serve::wire::parse_metrics_response(&line).expect("metrics line");
                assert_eq!(got, id, "answer {n} out of order");
            }
        }
    }

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}

/// A request line over `MAX_LINE_BYTES` gets one error answer in its
/// place and the connection keeps serving; a line of exactly the cap is
/// still accepted.
#[test]
fn tcp_overlong_line_is_rejected_in_place() {
    use pragformer_serve::tcp::MAX_LINE_BYTES;
    let mut advisor = Advisor::untrained(Scale::Tiny, 37);
    let probe = DOT;
    let direct = advisor.advise(probe).expect("probe parses");
    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 2).expect("bind loopback");

    let stream = TcpStream::connect(tcp.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A request padded with trailing blanks to `len` bytes plus newline.
    let padded = |id: u64, len: usize| -> String {
        let mut line = advise_line(id, probe);
        line.pop();
        assert!(line.len() <= len);
        line.push_str(&" ".repeat(len - line.len()));
        line.push('\n');
        line
    };
    let huge = format!("{{\"id\": 1, \"code\": \"{}\"}}\n", "x".repeat(2 << 20));
    for line in [
        huge,
        advise_line(2, probe),
        padded(3, MAX_LINE_BYTES),
        padded(4, MAX_LINE_BYTES + 1),
        advise_line(5, probe),
    ] {
        writer.write_all(line.as_bytes()).unwrap();
    }

    let responses: Vec<pragformer_serve::WireResponse> = (0..5)
        .map(|_| pragformer_serve::wire::parse_response(&read_response_line(&mut reader)).unwrap())
        .collect();
    for (n, resp) in responses.iter().enumerate() {
        if n == 0 || n == 3 {
            assert!(!resp.ok, "answer {n} must reject its line");
            assert_eq!(resp.id, 0, "an overlong line carries no readable id");
            assert!(resp.error.as_deref().unwrap_or("").contains("request line too long"));
        } else {
            assert_eq!(resp.id, n as u64 + 1, "answer {n} out of order");
            assert_wire_bits_eq(resp, &direct, &format!("answer {n}"));
        }
    }

    if pragformer_obs::enabled() {
        let exposition = pragformer_obs::render_prometheus();
        let rejected = exposition
            .lines()
            .find_map(|l| l.strip_prefix("pragformer_serve_rejected_lines_total "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .expect("rejected-lines counter exported");
        assert!(rejected >= 2.0, "two rejections counted, got {rejected}");
    }

    drop(writer);
    drop(reader);
    tcp.shutdown();
    let _ = server.shutdown();
}

/// A peer that writes `chunk` over and over until told to stop and never
/// reads: partial writes resume mid-chunk, so every line stays whole.
/// `written` counts the bytes the server has taken so far.
struct Flood {
    stop: Arc<AtomicBool>,
    written: Arc<AtomicUsize>,
    thread: std::thread::JoinHandle<()>,
}

impl Flood {
    fn start(addr: std::net::SocketAddr, chunk: String) -> Flood {
        let stop = Arc::new(AtomicBool::new(false));
        let written = Arc::new(AtomicUsize::new(0));
        let mut flood = TcpStream::connect(addr).expect("connect");
        flood.set_write_timeout(Some(Duration::from_millis(50))).unwrap();
        let thread = {
            let (stop, written) = (Arc::clone(&stop), Arc::clone(&written));
            std::thread::spawn(move || {
                let mut off = 0;
                while !stop.load(Ordering::Relaxed) {
                    match flood.write(&chunk.as_bytes()[off..]) {
                        Ok(n) => {
                            written.fetch_add(n, Ordering::Relaxed);
                            off = (off + n) % chunk.len();
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => break,
                    }
                }
            })
        };
        Flood { stop, written, thread }
    }

    fn written(&self) -> usize {
        self.written.load(Ordering::Relaxed)
    }

    /// Stops the flood; returns the bytes the server took.
    fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        let Flood { written, thread, .. } = self;
        thread.join().expect("flood thread");
        written.load(Ordering::Relaxed)
    }
}

/// Polls `progress` every 200 ms until, at `floor` or above, it holds
/// still for `still` polls in a row (at most a minute); returns whether
/// it did and its last value.
fn wait_until_still(floor: u64, still: usize, mut progress: impl FnMut() -> u64) -> (bool, u64) {
    let mut last = progress();
    let mut unchanged = 0;
    for _ in 0..300 {
        std::thread::sleep(Duration::from_millis(200));
        let now = progress();
        unchanged = if now == last && now >= floor { unchanged + 1 } else { 0 };
        last = now;
        if unchanged >= still {
            return (true, now);
        }
    }
    (false, last)
}

/// Sends one advice request on a fresh connection and checks its bits.
fn assert_served_beside(addr: std::net::SocketAddr, probe: &str, direct: &Advice, ctx: &str) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(advise_line(77, probe).as_bytes()).unwrap();
    let resp = pragformer_serve::wire::parse_response(&read_response_line(&mut reader)).unwrap();
    assert_eq!(resp.id, 77);
    assert_wire_bits_eq(&resp, direct, ctx);
}

/// A peer that pipelines far more requests than `MAX_IN_FLIGHT` and never
/// reads stalls only itself: the scheduler queue stays bounded, another
/// connection is still answered with direct-`advise` bits, and shutdown
/// does not wait out the grace period on the stalled connection.
#[test]
fn tcp_non_reading_peer_is_bounded_and_shutdown_is_prompt() {
    use pragformer_serve::tcp::{MAX_IN_FLIGHT, SHUTDOWN_GRACE};
    let mut advisor = Advisor::untrained(Scale::Tiny, 41);
    let probe = MATVEC;
    let direct = advisor.advise(probe).expect("probe parses");
    let config = ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() };
    let capacity = config.queue_capacity as u64;
    let server = AdvisorServer::start(advisor, config);
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 4).expect("bind loopback");
    let addr = tcp.local_addr();

    let chunk = [DOT, MATVEC].iter().map(|s| advise_line(1, s)).collect::<String>().repeat(32);
    let flood = Flood::start(addr, chunk);

    // Wait until the flood's answers stop being produced: its writer is
    // blocked on the unread socket and its reader on the full FIFO.
    let (stalled, answered) = wait_until_still(MAX_IN_FLIGHT as u64, 1, || server.stats().requests);
    assert!(stalled, "the non-reading peer's requests never stopped ({answered} answered)");
    assert!(!flood.thread.is_finished(), "the flood must still be blocked on its own sends");
    let stats = server.stats();
    assert!(
        stats.queue_hwm <= capacity,
        "queue high-water mark {} exceeds queue_capacity {capacity}",
        stats.queue_hwm
    );

    assert_served_beside(addr, probe, &direct, "second connection beside a stalled peer");

    let started = std::time::Instant::now();
    tcp.shutdown();
    let took = started.elapsed();
    assert!(took < SHUTDOWN_GRACE, "shutdown waited {took:?} on the stalled connection");

    assert!(flood.finish() > 0);
    let _ = server.shutdown();
}

/// Answers that need no scheduler work still stall a peer that never
/// reads: a flood of `metrics` lines, each answered with a whole
/// exposition, stops being taken once the writer is blocked on the unread
/// socket, instead of piling answers up in server memory.
#[test]
fn tcp_non_reading_metrics_flood_stalls_its_sender() {
    use pragformer_serve::tcp::SHUTDOWN_GRACE;
    let mut advisor = Advisor::untrained(Scale::Tiny, 43);
    let probe = DOT;
    let direct = advisor.advise(probe).expect("probe parses");
    let server = AdvisorServer::start(
        advisor,
        ServeConfig { deadline: Duration::from_millis(1), ..ServeConfig::default() },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client(), 4).expect("bind loopback");
    let addr = tcp.local_addr();

    let flood = Flood::start(addr, "{\"id\":1,\"metrics\":true}\n".repeat(256));
    // A second of no progress: the reader, not only a scheduling hiccup,
    // has stopped taking lines.
    let (stalled, taken) = wait_until_still(1, 5, || flood.written() as u64);
    assert!(stalled, "the server kept taking the metrics flood ({taken} bytes)");
    assert!(!flood.thread.is_finished(), "the flood must still be blocked on its own sends");

    assert_served_beside(addr, probe, &direct, "second connection beside a metrics flood");

    let started = std::time::Instant::now();
    tcp.shutdown();
    let took = started.elapsed();
    assert!(took < SHUTDOWN_GRACE, "shutdown waited {took:?} on the stalled connection");

    assert!(flood.finish() > 0);
    let _ = server.shutdown();
}
