//! Deadline-coalescing micro-batch scheduler with a submit-path cache.
//!
//! Concurrent callers submit one snippet each through a [`Client`]. A
//! snippet whose text is already in the shared [`AdviceCache`] is
//! answered inside [`Client::submit`] and never queues. Every other
//! request goes to a dedicated **collector thread**, which coalesces
//! requests into batched `Advisor::advise_batch` calls. The batching
//! policy is the classic latency/throughput trade:
//!
//! * the collector blocks until a first request arrives, then keeps
//!   accepting more until either [`ServeConfig::max_batch`] requests are
//!   in hand or [`ServeConfig::deadline`] has elapsed since the first —
//!   the deadline bounds the extra latency coalescing can ever add;
//! * with `deadline == 0` the collector still drains whatever is already
//!   queued (opportunistic batching under load, zero added latency);
//! * the submit queue is **bounded** ([`ServeConfig::queue_capacity`]):
//!   when the collector falls behind, `Client::advise` blocks in `send`
//!   instead of growing an unbounded backlog (backpressure).
//!
//! The collector looks each request of a batch up again, since an
//! earlier batch may have answered the same text while the request
//! waited, runs **one** `advise_batch` over the requests that still
//! miss, caches every answer and replies per request. Parse errors
//! travel back only to the request that submitted the bad snippet, and
//! are cached like advice. One mutex guards the cache; it is held for a
//! lookup or an insert, never across a forward.
//!
//! A panic while a batch is advised is caught: that batch's unanswered
//! requests get [`ServeError::Internal`], nothing from the batch is
//! cached, the panic is counted in `pragformer_serve_panics_total`, and
//! the collector goes on serving.
//!
//! ## Determinism
//!
//! Caching and coalescing never change an answer. Advice is a pure
//! function of the source text: head probabilities are bitwise
//! row-deterministic regardless of batch composition (see
//! `pragformer_tensor::ops`), and the ComPar analysis reads only the
//! text. So the cached answer of a text is the one `Advisor::advise`
//! gives it, and `advise_batch` over a coalesced batch gives the same
//! bits as `advise` per snippet. A response is therefore bit-identical
//! to what a direct `Advisor::advise` call on the same snippet returns.
//!
//! ## Counting
//!
//! Every advise request is counted once in
//! [`ServerStats::cache_hits`] or [`ServerStats::cache_misses`], by
//! whichever of the submit path and the collector answered it, and once
//! in [`ServerStats::requests`].
//!
//! ## Shutdown
//!
//! [`AdvisorServer::shutdown`] (and `Drop`) marks the server closed and
//! sends a control message; the collector finishes the batch it is
//! building, drains every request already in the queue, answers them
//! all, and exits. Requests submitted after shutdown observe
//! [`ServeError::Closed`], cached snippets included.

use crate::cache::{AdviceCache, Answer};
use pragformer_core::{Advice, Advisor};
use pragformer_cparse::ParseError;
use pragformer_obs as obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the advisory server.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// How long the collector may wait after the first request of a batch
    /// for more requests to coalesce. Zero means "never wait": only
    /// already-queued requests are batched together.
    pub deadline: Duration,
    /// Largest batch the collector will form.
    pub max_batch: usize,
    /// Capacity of the cross-request advice cache (entries; 0 disables).
    pub cache_capacity: usize,
    /// Bound on the submit queue; full-queue submits block (backpressure).
    pub queue_capacity: usize,
    /// Maximum concurrent connections in the TCP front-end; connections
    /// beyond the cap are refused with an error response rather than
    /// queued behind busy ones. Each connection runs two threads, a
    /// reader and a writer.
    pub tcp_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            deadline: Duration::from_millis(2),
            max_batch: 64,
            cache_capacity: 4096,
            queue_capacity: 1024,
            tcp_workers: 4,
        }
    }
}

/// Why a served request failed.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The submitted snippet did not parse; only the submitting request
    /// sees this.
    Parse(ParseError),
    /// The server shut down before (or while) the request was in flight.
    Closed,
    /// Advising the request's batch panicked. Only that batch's requests
    /// see this; the server goes on serving.
    Internal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::Closed => write!(f, "advisory server is shut down"),
            ServeError::Internal => write!(f, "internal error while advising this request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One queued request: the snippet plus the channel its answer goes back
/// on. Dropping the reply sender (server exit) surfaces as
/// [`ServeError::Closed`] on the client side.
struct Request {
    source: String,
    reply: std::sync::mpsc::Sender<Result<Advice, ServeError>>,
}

/// Messages flowing into the collector.
enum Msg {
    Request(Request),
    /// Finish the current batch, drain the queue, then exit.
    Shutdown,
}

/// State shared by the clients, the collector and the server handle.
struct Shared {
    stats: StatsInner,
    /// The one advice cache. Locked only for a lookup or an insert.
    cache: Mutex<AdviceCache>,
    /// Set by shutdown before the shutdown message is sent, so a later
    /// submit is refused even when its answer is cached.
    closed: AtomicBool,
}

impl Shared {
    fn cache(&self) -> MutexGuard<'_, AdviceCache> {
        // No code panics while holding the lock, so a poisoned lock still
        // guards a consistent cache.
        self.cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Cheap, cloneable handle for submitting snippets to a running
/// [`AdvisorServer`]. Used in-process by tests and benches, and by the
/// TCP front-end's connection handlers.
#[derive(Clone)]
pub struct Client {
    tx: SyncSender<Msg>,
    shared: Arc<Shared>,
}

impl Client {
    /// Current serving counters (same snapshot as
    /// [`AdvisorServer::stats`]) — lets front-ends answer `stats` wire
    /// requests without a scheduler round-trip.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }
    /// Submits one snippet and blocks until its advice (or error) comes
    /// back. Blocks earlier — in the submit itself — when the bounded
    /// queue is full (backpressure).
    pub fn advise(&self, source: &str) -> Result<Advice, ServeError> {
        self.submit(source)?.wait()
    }

    /// Enqueues one snippet without waiting for the answer.
    ///
    /// A snippet whose text is cached is answered here: the returned
    /// `Pending` is already ready, and the request never queues. Any
    /// other snippet goes to the collector. Lets a single caller put
    /// several requests in flight at once — they land in the same
    /// collector batch and coalesce into one forward, exactly like
    /// requests from distinct clients. The TCP front-end submits every
    /// request line this way as soon as it arrives. Blocks only for
    /// queue space (backpressure), never for the model.
    pub fn submit(&self, source: &str) -> Result<Pending, ServeError> {
        let shared = &*self.shared;
        if shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        let hit = shared.cache().get(source);
        if let Some(answer) = hit {
            // Counted before the answer is handed out, as the collector
            // counts a batch before replying.
            shared.stats.cache_hits.inc();
            shared.stats.requests.inc();
            return Ok(Pending(Reply::Ready(answer.map_err(ServeError::Parse))));
        }
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // Count the request as queued before the (possibly blocking) send
        // so the depth gauge covers requests waiting for queue space too.
        let depth = shared.stats.queue_depth.add(1.0);
        shared.stats.queue_hwm.set_max(depth);
        match self.tx.send(Msg::Request(Request { source: source.to_string(), reply: reply_tx })) {
            Ok(()) => Ok(Pending(Reply::Queued(reply_rx))),
            Err(_) => {
                shared.stats.queue_depth.add(-1.0);
                Err(ServeError::Closed)
            }
        }
    }
}

/// A submitted request whose answer has not been awaited yet.
#[must_use = "a Pending holds a reply slot; call wait() to get the advice"]
pub struct Pending(Reply);

/// Where a [`Pending`]'s answer comes from.
enum Reply {
    /// Answered on the submit path from the cache.
    Ready(Result<Advice, ServeError>),
    /// Queued for the collector, which answers on this channel.
    Queued(Receiver<Result<Advice, ServeError>>),
}

impl Pending {
    /// Blocks until the collector answers this request.
    pub fn wait(self) -> Result<Advice, ServeError> {
        match self.0 {
            Reply::Ready(answer) => answer,
            Reply::Queued(rx) => rx.recv().unwrap_or(Err(ServeError::Closed)),
        }
    }

    /// The answer if it is already there, without blocking; the
    /// `Pending` itself back while the request is still in flight.
    pub fn try_wait(self) -> Result<Result<Advice, ServeError>, Pending> {
        match self.0 {
            Reply::Ready(answer) => Ok(answer),
            Reply::Queued(rx) => match rx.try_recv() {
                Ok(answer) => Ok(answer),
                Err(TryRecvError::Empty) => Err(Pending(Reply::Queued(rx))),
                Err(TryRecvError::Disconnected) => Ok(Err(ServeError::Closed)),
            },
        }
    }
}

/// Aggregate serving counters (monotonic since server start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered (including parse errors).
    pub requests: u64,
    /// Batches formed by the collector.
    pub batches: u64,
    /// Batches closed because they reached [`ServeConfig::max_batch`].
    pub batches_full: u64,
    /// Batches closed by deadline expiry (or queue exhaustion).
    pub batches_deadline: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// High-water mark of the submit queue depth.
    pub queue_hwm: u64,
    /// Advise requests answered from the cache, on the submit path or
    /// by the collector.
    pub cache_hits: u64,
    /// Advise requests the cache could not answer; the collector advised
    /// them. Hits plus misses count every advise request once.
    pub cache_misses: u64,
    /// Cache entries evicted to make room.
    pub cache_evictions: u64,
}

/// The metrics behind [`ServerStats`], shared between clients, the
/// collector thread and the registry.
///
/// Every handle lives in the global `pragformer_obs` registry under the
/// `pragformer_serve_*` families, labeled `server="<N>"` with a
/// process-unique instance number — several servers in one process
/// (integration tests) never share counters. When observability is
/// disabled the handles are detached metrics instead: the `stats` wire
/// request and [`AdvisorServer::stats`] keep working, nothing is
/// registered or scraped.
struct StatsInner {
    requests: Arc<obs::Counter>,
    batches: Arc<obs::Counter>,
    batches_full: Arc<obs::Counter>,
    batches_deadline: Arc<obs::Counter>,
    max_batch: Arc<obs::Gauge>,
    queue_depth: Arc<obs::Gauge>,
    queue_hwm: Arc<obs::Gauge>,
    cache_hits: Arc<obs::Counter>,
    cache_misses: Arc<obs::Counter>,
    cache_evictions: Arc<obs::Counter>,
    panics: Arc<obs::Counter>,
    batch_size: Arc<obs::Histogram>,
    deadline_wait: Arc<obs::Histogram>,
}

impl StatsInner {
    fn new() -> StatsInner {
        static NEXT_SERVER: AtomicU64 = AtomicU64::new(0);
        let n = NEXT_SERVER.fetch_add(1, Ordering::Relaxed).to_string();
        let server = [("server", n.as_str())];
        if obs::enabled() {
            StatsInner {
                requests: obs::counter(
                    "pragformer_serve_requests_total",
                    "Requests answered (including parse errors)",
                    &server,
                ),
                batches: obs::counter(
                    "pragformer_serve_batches_total",
                    "Batches formed by the collector",
                    &server,
                ),
                batches_full: obs::counter(
                    "pragformer_serve_batch_flush_total",
                    "Batches closed, by cause",
                    &[("server", n.as_str()), ("cause", "full")],
                ),
                batches_deadline: obs::counter(
                    "pragformer_serve_batch_flush_total",
                    "Batches closed, by cause",
                    &[("server", n.as_str()), ("cause", "deadline")],
                ),
                max_batch: obs::gauge(
                    "pragformer_serve_max_batch",
                    "Largest batch observed",
                    &server,
                ),
                queue_depth: obs::gauge(
                    "pragformer_serve_queue_depth",
                    "Requests submitted but not yet collected",
                    &server,
                ),
                queue_hwm: obs::gauge(
                    "pragformer_serve_queue_hwm",
                    "High-water mark of the submit queue depth",
                    &server,
                ),
                cache_hits: obs::counter(
                    "pragformer_serve_cache_hits_total",
                    "Advise requests answered from the advice cache",
                    &server,
                ),
                cache_misses: obs::counter(
                    "pragformer_serve_cache_misses_total",
                    "Advise requests the advice cache could not answer",
                    &server,
                ),
                cache_evictions: obs::counter(
                    "pragformer_serve_cache_evictions_total",
                    "Advice-cache entries evicted to make room",
                    &server,
                ),
                panics: obs::counter(
                    "pragformer_serve_panics_total",
                    "Collector batches whose advising panicked",
                    &server,
                ),
                batch_size: obs::histogram(
                    "pragformer_serve_batch_size",
                    "Requests per collector batch",
                    &server,
                    &obs::SIZE_BUCKETS,
                ),
                deadline_wait: obs::histogram(
                    "pragformer_serve_deadline_wait_seconds",
                    "Wait from a batch's first request to its dispatch",
                    &server,
                    &obs::LATENCY_BUCKETS,
                ),
            }
        } else {
            StatsInner {
                requests: Arc::new(obs::Counter::new()),
                batches: Arc::new(obs::Counter::new()),
                batches_full: Arc::new(obs::Counter::new()),
                batches_deadline: Arc::new(obs::Counter::new()),
                max_batch: Arc::new(obs::Gauge::new()),
                queue_depth: Arc::new(obs::Gauge::new()),
                queue_hwm: Arc::new(obs::Gauge::new()),
                cache_hits: Arc::new(obs::Counter::new()),
                cache_misses: Arc::new(obs::Counter::new()),
                cache_evictions: Arc::new(obs::Counter::new()),
                panics: Arc::new(obs::Counter::new()),
                batch_size: Arc::new(obs::Histogram::new(&obs::SIZE_BUCKETS)),
                deadline_wait: Arc::new(obs::Histogram::new(&obs::LATENCY_BUCKETS)),
            }
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.get(),
            batches: self.batches.get(),
            batches_full: self.batches_full.get(),
            batches_deadline: self.batches_deadline.get(),
            max_batch: self.max_batch.get() as u64,
            queue_hwm: self.queue_hwm.get() as u64,
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_evictions: self.cache_evictions.get(),
        }
    }
}

/// A running advisory server: one collector thread owning the advisor,
/// and the cross-request cache it shares with every client. Construct
/// with [`AdvisorServer::start`], submit through [`AdvisorServer::client`]
/// handles.
pub struct AdvisorServer {
    tx: SyncSender<Msg>,
    collector: Option<JoinHandle<Advisor>>,
    shared: Arc<Shared>,
}

impl AdvisorServer {
    /// Takes ownership of a trained advisor and starts the collector.
    pub fn start(advisor: Advisor, config: ServeConfig) -> AdvisorServer {
        let (tx, rx) = sync_channel::<Msg>(config.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            stats: StatsInner::new(),
            cache: Mutex::new(AdviceCache::new(config.cache_capacity)),
            closed: AtomicBool::new(false),
        });
        let shared2 = Arc::clone(&shared);
        let collector = std::thread::Builder::new()
            .name("pragformer-serve-collector".to_string())
            .spawn(move || collector_loop(advisor, config, rx, &shared2))
            .expect("failed to spawn collector thread");
        AdvisorServer { tx, collector: Some(collector), shared }
    }

    /// A new submit handle. Handles stay valid until shutdown; submits
    /// after shutdown return [`ServeError::Closed`].
    pub fn client(&self) -> Client {
        Client { tx: self.tx.clone(), shared: Arc::clone(&self.shared) }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Stops the collector after it drains and answers every request
    /// already submitted, returning the advisor for reuse.
    pub fn shutdown(mut self) -> Advisor {
        self.stop();
        self.collector.take().expect("collector joined once").join().expect("collector panic")
    }

    /// Refuses further submits, then tells the collector to drain.
    fn stop(&self) {
        self.shared.closed.store(true, Ordering::Release);
        let _ = self.tx.send(Msg::Shutdown);
    }
}

impl Drop for AdvisorServer {
    fn drop(&mut self) {
        if let Some(handle) = self.collector.take() {
            self.stop();
            let _ = handle.join();
        }
    }
}

/// The collector: form batches under the deadline, process, repeat.
fn collector_loop(
    mut advisor: Advisor,
    config: ServeConfig,
    rx: Receiver<Msg>,
    shared: &Shared,
) -> Advisor {
    let stats = &shared.stats;
    let max_batch = config.max_batch.max(1);
    // Every received request leaves the submit queue here, so the depth
    // gauge decrements at each receive site.
    let take = |r: Request| -> Request {
        stats.queue_depth.add(-1.0);
        r
    };
    'serve: loop {
        // Block for the first request of the next batch.
        let first = match rx.recv() {
            Ok(Msg::Request(r)) => take(r),
            Ok(Msg::Shutdown) | Err(_) => break 'serve,
        };
        let formed = Instant::now();
        let mut batch = vec![first];
        let mut shutting_down = false;
        let deadline = formed + config.deadline;
        // Grow the batch until full, past-deadline, or shutdown.
        while batch.len() < max_batch {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                match rx.try_recv() {
                    Ok(Msg::Request(r)) => batch.push(take(r)),
                    Ok(Msg::Shutdown) => {
                        shutting_down = true;
                        break;
                    }
                    Err(_) => break,
                }
            } else {
                match rx.recv_timeout(remaining) {
                    Ok(Msg::Request(r)) => batch.push(take(r)),
                    Ok(Msg::Shutdown) => {
                        shutting_down = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        shutting_down = true;
                        break;
                    }
                }
            }
        }
        let wait = formed.elapsed().as_secs_f64();
        process_batch(&mut advisor, shared, batch, max_batch, Some(wait));
        if shutting_down {
            break 'serve;
        }
    }
    // Shutdown drain: answer everything already queued, in max_batch
    // chunks, so no accepted request is dropped.
    loop {
        let mut batch = Vec::new();
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(Msg::Request(r)) => batch.push(take(r)),
                Ok(Msg::Shutdown) => continue,
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        // Drain batches never waited on a deadline; their wait is not a
        // meaningful latency sample.
        process_batch(&mut advisor, shared, batch, max_batch, None);
    }
    advisor
}

/// A batch holding this exact text panics while it is advised, as a
/// fault in the front end or the forward would.
#[cfg(test)]
const PANIC_SOURCE: &str = "/* injected collector panic */";

/// Answers one coalesced batch: cache lookup → one `advise_batch` over
/// the misses → cache inserts → per-request replies. `wait_secs` is the
/// first-request-to-dispatch wait (`None` for shutdown-drain batches,
/// which never waited on a deadline).
fn process_batch(
    advisor: &mut Advisor,
    shared: &Shared,
    batch: Vec<Request>,
    max_batch: usize,
    wait_secs: Option<f64>,
) {
    let stats = &shared.stats;
    // An earlier batch may have answered a text while its request waited.
    let mut answers: Vec<Option<Answer>> = {
        let mut cache = shared.cache();
        batch.iter().map(|r| cache.get(&r.source)).collect()
    };
    let misses: Vec<usize> = (0..batch.len()).filter(|&i| answers[i].is_none()).collect();

    if !misses.is_empty() {
        let sources: Vec<&str> = misses.iter().map(|&i| batch[i].source.as_str()).collect();
        let advised = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if sources.contains(&PANIC_SOURCE) {
                panic!("injected collector panic");
            }
            advisor.advise_batch(&sources)
        }));
        match advised {
            Ok(fresh) => {
                let mut cache = shared.cache();
                for (&i, answer) in misses.iter().zip(fresh) {
                    cache.insert(&batch[i].source, answer.clone());
                    answers[i] = Some(answer);
                }
                stats.cache_evictions.set(cache.evictions());
            }
            // The misses stay unanswered and nothing is cached.
            Err(_) => stats.panics.inc(),
        }
    }

    // Publish counters BEFORE replying: a client that has its answer in
    // hand must observe stats covering its own batch.
    stats.requests.add(batch.len() as u64);
    stats.cache_hits.add((batch.len() - misses.len()) as u64);
    stats.cache_misses.add(misses.len() as u64);
    stats.batches.inc();
    if batch.len() >= max_batch {
        stats.batches_full.inc();
    } else {
        stats.batches_deadline.inc();
    }
    stats.max_batch.set_max(batch.len() as f64);
    stats.batch_size.observe(batch.len() as f64);
    if let Some(w) = wait_secs {
        stats.deadline_wait.observe(w);
    }

    // Reply per request; a dropped receiver (client gone) is ignored.
    for (req, answer) in batch.iter().zip(answers) {
        let response = match answer {
            Some(answer) => answer.map_err(ServeError::Parse),
            None => Err(ServeError::Internal),
        };
        let _ = req.reply.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragformer_core::Scale;

    const GOOD: &str = "for (i = 0; i < n; i++) a[i] = b[i] + c[i];";

    fn assert_same_bits(a: &Advice, b: &Advice) {
        assert_eq!(a.needs_directive, b.needs_directive);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.private_probability.to_bits(), b.private_probability.to_bits());
        assert_eq!(a.reduction_probability.to_bits(), b.reduction_probability.to_bits());
        assert_eq!(a.compar_agrees, b.compar_agrees);
        assert_eq!(
            a.suggestion.as_ref().map(|d| d.to_string()),
            b.suggestion.as_ref().map(|d| d.to_string())
        );
    }

    #[test]
    fn collector_panic_answers_its_batch_and_keeps_serving() {
        let mut advisor = Advisor::untrained(Scale::Tiny, 3);
        let direct = advisor.advise(GOOD).expect("snippet parses");
        // Both submits below fill one batch: the long deadline never
        // closes it first.
        let server = AdvisorServer::start(
            advisor,
            ServeConfig {
                deadline: Duration::from_secs(30),
                max_batch: 2,
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let faulty = client.submit(PANIC_SOURCE).expect("server is running");
        let neighbor = client.submit(GOOD).expect("server is running");
        assert!(matches!(faulty.wait(), Err(ServeError::Internal)));
        assert!(matches!(neighbor.wait(), Err(ServeError::Internal)));
        assert_eq!(server.shared.stats.panics.get(), 1);
        assert!(server.shared.cache().is_empty(), "a panicked batch caches nothing");

        // The collector goes on serving; the snippet is advised afresh.
        let later = client.submit(GOOD).expect("server is running");
        let next = client.submit(GOOD).expect("server is running");
        assert_same_bits(&later.wait().expect("answered after the panic"), &direct);
        assert_same_bits(&next.wait().expect("answered after the panic"), &direct);
        let stats = server.stats();
        assert_eq!((stats.requests, stats.cache_hits, stats.cache_misses), (4, 0, 4));
        assert_eq!(server.shared.stats.panics.get(), 1);
        let _ = server.shutdown();
    }
}
