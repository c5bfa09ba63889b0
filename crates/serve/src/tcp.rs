//! std-TCP front-end speaking the newline-delimited JSON protocol.
//!
//! [`TcpServer::bind`] takes a scheduler [`Client`] and serves it over a
//! `TcpListener`. At most `max_connections` connections (the
//! `ServeConfig::tcp_workers` knob) are served at once; a connection over
//! the cap is answered with an `ok:false` line and closed immediately, so
//! an army of idle peers can never starve new arrivals. Every request
//! goes through the shared `Client`, where the collector coalesces
//! snippets *across connections* into batched forwards, and every
//! request line gets one response line, in request order.
//!
//! **Full duplex.** Each connection runs two threads joined by a bounded
//! FIFO:
//!
//! * the *reader* submits each request line to the scheduler
//!   ([`Client::submit`]) as soon as the line is complete and queues the
//!   in-flight answer in the FIFO. It never waits for an answer, so a
//!   pipelined burst reaches the collector line by line while earlier
//!   answers are still being written, and collector batches fill across
//!   bursts and connections;
//! * the *writer* answers in request order. It appends every answer
//!   that is already done ([`Pending::try_wait`]), writes each such run
//!   with one write, and blocks only on the oldest answer still pending.
//!   A run is also written once it holds [`MAX_RUN_BYTES`], so answers
//!   that need no scheduler work (`metrics`, `stats`, errors) cannot
//!   pile up unwritten while the reader keeps the FIFO full.
//!
//! Stats and metrics lines are resolved when the writer reaches them,
//! after every earlier answer on the connection has arrived; the
//! collector publishes its counters before it replies, so a pipelined
//! `stats` line counts every request ahead of it.
//!
//! **In-flight bound.** The FIFO holds [`MAX_IN_FLIGHT`] answers. A peer
//! that pipelines requests and never reads its answers stalls its writer
//! first (TCP flow control, at most [`MAX_RUN_BYTES`] gathered), then its
//! reader (FIFO full), then its own sends; it never has more than about
//! `MAX_IN_FLIGHT` requests in the scheduler, the memory it holds stays
//! bounded, and other connections keep being served.
//!
//! **Nagle off.** Accepted sockets set `TCP_NODELAY`. With Nagle's
//! algorithm on, an answer written while the previous one is still
//! unacknowledged waits for the peer's delayed ACK, about 40 ms on Linux,
//! and that wait set the p99 of lightly loaded traffic. The writer
//! already gathers every ready answer into one write, so Nagle has
//! nothing left to coalesce.
//!
//! **Limits and errors.** A request line longer than [`MAX_LINE_BYTES`]
//! gets one `ok:false` "request line too long" answer in its place in
//! the order; the reader discards bytes up to the next newline and keeps
//! the connection, so a connection never holds more than the cap of line
//! data. Rejections are counted in
//! `pragformer_serve_rejected_lines_total`. A malformed line never kills
//! a connection either: it is answered with an `ok:false` error response
//! (id 0 when the line was too broken to carry one). Connections close
//! when the peer closes.
//!
//! **Prometheus scraping.** The same listener speaks just enough
//! HTTP/1.1 for a scrape: a connection whose first line starts with
//! `GET ` is treated as an HTTP request — `GET /metrics` answers with
//! the registry's text exposition (status 200,
//! `Content-Type: text/plain; version=0.0.4`), any other path gets a
//! 404, and the connection closes after one response. NDJSON peers are
//! unaffected; scrapes are counted in
//! `pragformer_serve_http_requests_total{path}` (label values limited to
//! `/metrics` and `other` to bound cardinality).
//!
//! When `PRAGFORMER_LOG=debug`, each parsed request is stamped with a
//! process-unique trace id and logged as one structured NDJSON line on
//! stderr (`target="serve.tcp"`), correlating wire traffic with
//! scheduler activity.
//!
//! [`TcpServer::shutdown`] (and `Drop`) stops accepting, wakes the
//! accept loop with a loopback connect, and waits up to
//! [`SHUTDOWN_GRACE`] for connections to wind down. Sockets carry short
//! read and write timeouts, so both connection threads re-check a stop
//! flag while they wait on the peer: neither an idle peer nor one that
//! stops reading can pin a connection past shutdown.

use crate::scheduler::{Client, Pending};
use crate::wire;
use pragformer_obs as obs;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Answers one connection may queue between its reader and its writer.
/// Four full collector batches at the default `max_batch` of 64: a peer
/// pipelining a batch or more never stalls its reader, and the default
/// 4 connections × 256 match the default 1024-entry submit queue.
pub const MAX_IN_FLIGHT: usize = 256;

/// Longest request line accepted, in bytes without the newline. Longer
/// lines are answered with an error and their bytes discarded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most answer bytes the writer gathers before writing them, even when
/// more answers are ready: bounds a connection's unwritten output, and
/// lets a peer that never reads stall the writer (and through the FIFO
/// the reader) however cheap its requests are to answer.
pub const MAX_RUN_BYTES: usize = 64 << 10;

/// How long shutdown waits for connections to wind down.
pub const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How often a connection thread blocked on its socket re-checks the
/// stop flag (the socket's read and write timeout).
const POLL: Duration = Duration::from_millis(100);

/// A running TCP front-end. Dropping it shuts the listener down.
pub struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connection-handler threads (they detach themselves on exit).
    active: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving requests against `client`, allowing at most
    /// `max_connections` concurrent connections.
    pub fn bind(addr: &str, client: Client, max_connections: usize) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let max_connections = max_connections.max(1);

        let stop2 = Arc::clone(&stop);
        let active2 = Arc::clone(&active);
        let accept_thread = std::thread::Builder::new()
            .name("pragformer-serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if active2.load(Ordering::Relaxed) >= max_connections {
                        // Refuse rather than queue: a queued-but-unserved
                        // socket looks like a hang to the peer.
                        let mut s = stream;
                        let _ = s.write_all(
                            wire::format_error(0, "server at connection capacity").as_bytes(),
                        );
                        let _ = s.write_all(b"\n");
                        continue;
                    }
                    active2.fetch_add(1, Ordering::Relaxed);
                    let client = client.clone();
                    let stop = Arc::clone(&stop2);
                    let active = Arc::clone(&active2);
                    let spawned = std::thread::Builder::new()
                        .name("pragformer-serve-conn".to_string())
                        .spawn(move || {
                            handle_connection(stream, &client, &stop);
                            active.fetch_sub(1, Ordering::Relaxed);
                        });
                    if spawned.is_err() {
                        active2.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            })
            .expect("failed to spawn accept thread");

        if obs::log_enabled(obs::Level::Info) {
            obs::log_kv(
                obs::Level::Info,
                "serve.tcp",
                "listener bound",
                &[("addr", &local_addr.to_string())],
            );
        }
        Ok(TcpServer { local_addr, stop, active, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of currently-open connections.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Stops accepting and waits (at most [`SHUTDOWN_GRACE`]) for open
    /// connections to wind down.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Connection threads poll the stop flag at POLL granularity;
        // give them a bounded grace period to drain.
        let deadline = std::time::Instant::now() + SHUTDOWN_GRACE;
        while self.active.load(Ordering::Relaxed) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Per-socket setup of an accepted connection: Nagle off, so an answer
/// leaves as soon as the writer writes it, and [`POLL`] read and write
/// timeouts, so neither connection thread blocks on the peer without
/// re-checking the stop flag.
fn configure_socket(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(POLL))
}

/// Serves one connection until the peer closes or the server stops:
/// this thread reads and submits request lines, a scoped writer thread
/// answers them in request order.
fn handle_connection(stream: TcpStream, client: &Client, stop: &AtomicBool) {
    if configure_socket(&stream).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let first = read_line(&mut reader, &mut line, stop);

    // An HTTP request line on the NDJSON port means a Prometheus scrape
    // (or a stray browser): answer one HTTP response and close, leaving
    // JSON peers untouched.
    if first == Line::Complete && line.starts_with(b"GET ") {
        handle_http(&mut reader, &mut writer, &line, stop);
        return;
    }

    let (fifo, answers) = sync_channel(MAX_IN_FLIGHT);
    std::thread::scope(|s| {
        let spawned = std::thread::Builder::new()
            .name("pragformer-serve-write".to_string())
            .spawn_scoped(s, move || write_answers(answers, &mut writer, client, stop));
        if spawned.is_ok() {
            read_requests(&mut reader, &mut line, first, fifo, client, stop);
        }
    });
}

/// The reader: submits every request line as it completes and queues
/// its answer for the writer, until the peer closes, the writer hangs
/// up or the server stops. `read` is the outcome of the line already in
/// `line`. Dropping `fifo` on return lets the writer finish.
fn read_requests(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    mut read: Line,
    fifo: SyncSender<Submitted>,
    client: &Client,
    stop: &AtomicBool,
) {
    loop {
        let submitted = match read {
            Line::Closed => return,
            Line::TooLong => {
                record_rejected_line();
                let msg = format!("request line too long (over {MAX_LINE_BYTES} bytes)");
                Some(Submitted::Immediate(wire::format_error(0, &msg)))
            }
            Line::Complete => submit_line(client, line),
        };
        if let Some(submitted) = submitted {
            if fifo.send(submitted).is_err() {
                return;
            }
        }
        read = read_line(reader, line, stop);
    }
}

/// The writer: answers in request order, one write per run of answers
/// that are ready (cut at [`MAX_RUN_BYTES`]), until the reader hangs up
/// and the FIFO is drained, the peer goes away or the server stops.
fn write_answers(
    answers: Receiver<Submitted>,
    stream: &mut impl Write,
    client: &Client,
    stop: &AtomicBool,
) {
    let mut out = String::new();
    loop {
        let next = match answers.try_recv() {
            Ok(next) => next,
            Err(TryRecvError::Empty) => {
                // Nothing more is queued: send the run, then wait.
                if !write_run(stream, &mut out, stop) {
                    return;
                }
                match answers.recv() {
                    Ok(next) => next,
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match next {
            Submitted::Pending(id, pending) => {
                let answer = match pending.try_wait() {
                    Ok(answer) => answer,
                    Err(pending) => {
                        // The oldest answer is still pending: send what
                        // is ready before blocking on it.
                        if !write_run(stream, &mut out, stop) {
                            return;
                        }
                        pending.wait()
                    }
                };
                out.push_str(&wire::format_response(id, &answer));
            }
            Submitted::Immediate(response) => out.push_str(&response),
            Submitted::Stats(id) => out.push_str(&wire::format_stats(id, &client.stats())),
            Submitted::Metrics(id) => {
                out.push_str(&wire::format_metrics(id, &obs::render_prometheus()))
            }
        }
        out.push('\n');
        if out.len() >= MAX_RUN_BYTES && !write_run(stream, &mut out, stop) {
            return;
        }
    }
    write_run(stream, &mut out, stop);
}

/// Writes and clears the gathered answers; false once the connection is
/// done.
fn write_run(stream: &mut impl Write, out: &mut String, stop: &AtomicBool) -> bool {
    let ok = out.is_empty() || write_polling(stream, out.as_bytes(), stop);
    out.clear();
    ok
}

/// Writes all of `bytes`, re-checking the stop flag each time the peer
/// leaves the socket unwritable for a [`POLL`] interval. False when the
/// peer went away or the server is stopping.
fn write_polling(stream: &mut impl Write, mut bytes: &[u8], stop: &AtomicBool) -> bool {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => bytes = &bytes[n..],
            Err(e) if is_poll_timeout(&e) => {
                if stop.load(Ordering::Relaxed) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// Whether a socket error only means "nothing happened within [`POLL`]".
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// What [`read_line`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Line {
    /// A line (without its newline) is in the buffer.
    Complete,
    /// A line longer than [`MAX_LINE_BYTES`] was read and discarded.
    TooLong,
    /// The peer closed, the connection failed or the server is stopping.
    Closed,
}

/// Reads the next line into `line`, without its newline, keeping at most
/// [`MAX_LINE_BYTES`] of it. Lines are gathered as raw bytes, so a read
/// timeout mid-line keeps the partial bytes with no UTF-8 guard that
/// could discard a prefix cut mid-character. A last line without a
/// newline still counts.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>, stop: &AtomicBool) -> Line {
    line.clear();
    let mut too_long = false;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Line::Closed;
        }
        let (used, done) = match reader.fill_buf() {
            Ok([]) if too_long => return Line::TooLong,
            Ok([]) if line.is_empty() => return Line::Closed,
            Ok([]) => return Line::Complete,
            Ok(buf) => {
                let end = buf.iter().position(|&b| b == b'\n');
                let body = &buf[..end.unwrap_or(buf.len())];
                if too_long || line.len() + body.len() > MAX_LINE_BYTES {
                    too_long = true;
                    line.clear();
                } else {
                    line.extend_from_slice(body);
                }
                (end.map_or(buf.len(), |e| e + 1), end.is_some())
            }
            Err(e) if is_poll_timeout(&e) => continue,
            Err(_) => return Line::Closed,
        };
        reader.consume(used);
        if done {
            return if too_long { Line::TooLong } else { Line::Complete };
        }
    }
}

/// A request line after submission: in flight on the scheduler, already
/// answered (blank line, malformed JSON, server closed), or a
/// stats/metrics probe resolved when its turn to answer comes.
enum Submitted {
    Pending(u64, Pending),
    Immediate(String),
    Stats(u64),
    Metrics(u64),
}

/// Logs one parsed request as a structured NDJSON stderr line with a
/// fresh trace id (debug level only — the id allocation and formatting
/// cost nothing when the level is off).
fn trace_request(kind: &str, id: u64) {
    if !obs::log_enabled(obs::Level::Debug) {
        return;
    }
    let trace = obs::next_trace_id();
    obs::log_kv(
        obs::Level::Debug,
        "serve.tcp",
        "request",
        &[("trace", &trace.to_string()), ("kind", kind), ("id", &id.to_string())],
    );
}

/// Parses and submits one request line without waiting for the answer.
/// Blank lines are ignored (`None`); invalid UTF-8 is a bad request.
fn submit_line(client: &Client, line: &[u8]) -> Option<Submitted> {
    let Ok(line) = std::str::from_utf8(line) else {
        return Some(Submitted::Immediate(wire::format_error(0, "bad request: invalid UTF-8")));
    };
    if line.trim().is_empty() {
        return None;
    }
    Some(match wire::parse_request(line) {
        Ok(wire::WireRequest::Advise { id, code }) => {
            trace_request("advise", id);
            match client.submit(&code) {
                Ok(pending) => Submitted::Pending(id, pending),
                Err(e) => Submitted::Immediate(wire::format_error(id, &e.to_string())),
            }
        }
        // Stats and metrics never enter the scheduler queue — scraping
        // them is free even under backpressure; the snapshot is taken
        // when the writer reaches this line so it covers the
        // connection's earlier requests.
        Ok(wire::WireRequest::Stats { id }) => {
            trace_request("stats", id);
            Submitted::Stats(id)
        }
        Ok(wire::WireRequest::Metrics { id }) => {
            trace_request("metrics", id);
            Submitted::Metrics(id)
        }
        Err(msg) => Submitted::Immediate(wire::format_error(0, &format!("bad request: {msg}"))),
    })
}

/// Counts one request line rejected for exceeding [`MAX_LINE_BYTES`] in
/// `pragformer_serve_rejected_lines_total`.
fn record_rejected_line() {
    if !obs::enabled() {
        return;
    }
    static CELL: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    CELL.get_or_init(|| {
        obs::counter(
            "pragformer_serve_rejected_lines_total",
            "Request lines rejected for exceeding the line-length cap.",
            &[],
        )
    })
    .inc();
}

/// Counts one HTTP request in
/// `pragformer_serve_http_requests_total{path}`; `path_idx` 0 is
/// `/metrics`, 1 is everything else (cardinality stays bounded no matter
/// what peers request).
fn record_http(path_idx: usize) {
    if !obs::enabled() {
        return;
    }
    static CELLS: [OnceLock<Arc<obs::Counter>>; 2] = [const { OnceLock::new() }; 2];
    const PATHS: [&str; 2] = ["/metrics", "other"];
    let counter = CELLS[path_idx].get_or_init(|| {
        obs::counter(
            "pragformer_serve_http_requests_total",
            "HTTP requests served on the NDJSON listener, by path class.",
            &[("path", PATHS[path_idx])],
        )
    });
    counter.inc();
}

/// Answers one HTTP/1.1 request on a connection that opened with `GET `:
/// drains the header block, serves `/metrics` (or a 404), and closes.
/// Only the subset a Prometheus scraper needs is implemented.
fn handle_http(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_line: &[u8],
    stop: &AtomicBool,
) {
    // "GET /metrics HTTP/1.1\r\n" → "/metrics".
    let path = std::str::from_utf8(request_line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();

    // Drain headers until the blank line so well-behaved clients don't
    // see a response racing their request. Header lines share the
    // request-line cap.
    let mut header: Vec<u8> = Vec::new();
    loop {
        match read_line(reader, &mut header, stop) {
            Line::Complete if header.is_empty() || header == b"\r" => break,
            Line::Complete | Line::TooLong => {}
            Line::Closed => break,
        }
    }
    if stop.load(Ordering::Relaxed) {
        return;
    }

    let (status, content_type, body) = if path == "/metrics" {
        record_http(0);
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", obs::render_prometheus())
    } else {
        record_http(1);
        ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    write_polling(writer, response.as_bytes(), stop);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_disable_nagle_and_poll() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        assert!(!accepted.nodelay().unwrap(), "a fresh socket keeps Nagle on");
        configure_socket(&accepted).expect("configure");
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(POLL));
        assert_eq!(accepted.write_timeout().unwrap(), Some(POLL));
    }

    /// Records the size of every write it takes.
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A FIFO that never runs empty still gets written in runs of at
    /// most `MAX_RUN_BYTES` (plus the answer that crossed it), so a
    /// reader that outpaces the writer cannot grow the gathered output.
    #[test]
    fn writer_cuts_runs_at_max_run_bytes() {
        let server = crate::AdvisorServer::start(
            pragformer_core::Advisor::untrained(pragformer_core::Scale::Tiny, 1),
            crate::ServeConfig::default(),
        );
        let answer = wire::format_error(0, &"x".repeat(1000));
        let count = 4 * MAX_RUN_BYTES / answer.len();
        let (fifo, answers) = sync_channel(count);
        for _ in 0..count {
            fifo.send(Submitted::Immediate(answer.clone())).unwrap();
        }
        drop(fifo);

        let mut writes = Writes(Vec::new());
        write_answers(answers, &mut writes, &server.client(), &AtomicBool::new(false));
        assert_eq!(writes.0.iter().sum::<usize>(), count * (answer.len() + 1));
        assert!(writes.0.len() >= 4, "{} writes for {count} answers", writes.0.len());
        for &n in &writes.0 {
            assert!(n < MAX_RUN_BYTES + answer.len() + 1, "a run of {n} bytes");
        }
        let _ = server.shutdown();
    }
}
