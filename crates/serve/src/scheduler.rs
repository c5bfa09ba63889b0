//! Deadline-coalescing micro-batch scheduler.
//!
//! Concurrent callers submit one snippet each through a [`Client`]; a
//! dedicated **collector thread** coalesces them into `advise_batch`-style
//! batched forwards, which PR 1 made ~8× cheaper than per-snippet calls.
//! The batching policy is the classic latency/throughput trade:
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
//! Each batch runs the cheap front-end (parse/tokenize/encode + S2S
//! analysis, parallel on the persistent pool), consults the cross-request
//! [`AdviceCache`] keyed on encoded ids, runs **one batched forward over
//! the misses only**, and replies per request. Parse errors travel back
//! only to the request that submitted the bad snippet; the rest of the
//! batch is unaffected.
//!
//! ## Determinism
//!
//! Coalescing and caching never change an answer: head probabilities are
//! bitwise row-deterministic regardless of batch composition (see
//! `pragformer_tensor::ops`), the cache stores exactly those
//! probabilities, and the per-source dependence analysis re-runs on every
//! request. A response is therefore bit-identical to what a direct
//! `Advisor::advise` call on the same snippet would return.
//!
//! ## Shutdown
//!
//! [`AdvisorServer::shutdown`] (and `Drop`) sends a control message; the
//! collector finishes the batch it is building, drains every request
//! already in the queue, answers them all, and exits. Requests submitted
//! after the drain observe [`ServeError::Closed`].

use crate::cache::{AdviceCache, CacheStats};
use pragformer_core::{Advice, Advisor, HeadProbs, PreparedSnippet};
use pragformer_cparse::ParseError;
use pragformer_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
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
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::Closed => write!(f, "advisory server is shut down"),
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

/// Cheap, cloneable handle for submitting snippets to a running
/// [`AdvisorServer`]. Used in-process by tests and benches, and by the
/// TCP front-end's connection handlers.
#[derive(Clone)]
pub struct Client {
    tx: SyncSender<Msg>,
    stats: Arc<StatsInner>,
}

impl Client {
    /// Current serving counters (same snapshot as
    /// [`AdvisorServer::stats`]) — lets front-ends answer `stats` wire
    /// requests without a scheduler round-trip.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }
    /// Submits one snippet and blocks until its advice (or error) comes
    /// back. Blocks earlier — in the submit itself — when the bounded
    /// queue is full (backpressure).
    pub fn advise(&self, source: &str) -> Result<Advice, ServeError> {
        self.submit(source)?.wait()
    }

    /// Enqueues one snippet without waiting for the answer.
    ///
    /// Lets a single caller put several requests in flight at once —
    /// they land in the same collector batch and coalesce into one
    /// forward, exactly like requests from distinct clients. The TCP
    /// front-end submits every request line this way as soon as it
    /// arrives. Blocks only for queue space (backpressure), never for
    /// the model.
    pub fn submit(&self, source: &str) -> Result<Pending, ServeError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // Count the request as queued before the (possibly blocking) send
        // so the depth gauge covers requests waiting for queue space too.
        let depth = self.stats.queue_depth.add(1.0);
        self.stats.queue_hwm.set_max(depth);
        match self.tx.send(Msg::Request(Request { source: source.to_string(), reply: reply_tx })) {
            Ok(()) => Ok(Pending { rx: reply_rx }),
            Err(_) => {
                self.stats.queue_depth.add(-1.0);
                Err(ServeError::Closed)
            }
        }
    }
}

/// A submitted request whose answer has not been awaited yet.
#[must_use = "a Pending holds a reply slot; call wait() to get the advice"]
pub struct Pending {
    rx: std::sync::mpsc::Receiver<Result<Advice, ServeError>>,
}

impl Pending {
    /// Blocks until the collector answers this request.
    pub fn wait(self) -> Result<Advice, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// The answer if the collector has already sent it, without
    /// blocking; the `Pending` itself back while the request is still in
    /// flight.
    pub fn try_wait(self) -> Result<Result<Advice, ServeError>, Pending> {
        match self.rx.try_recv() {
            Ok(answer) => Ok(answer),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => Ok(Err(ServeError::Closed)),
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
    /// Cache lookups that skipped the model forward.
    pub cache_hits: u64,
    /// Cache lookups that required a forward.
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
                    "Advice-cache lookups that skipped the model forward",
                    &server,
                ),
                cache_misses: obs::counter(
                    "pragformer_serve_cache_misses_total",
                    "Advice-cache lookups that required a forward",
                    &server,
                ),
                cache_evictions: obs::counter(
                    "pragformer_serve_cache_evictions_total",
                    "Advice-cache entries evicted to make room",
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

/// A running advisory server: one collector thread owning the advisor
/// and the cross-request cache. Construct with [`AdvisorServer::start`],
/// submit through [`AdvisorServer::client`] handles.
pub struct AdvisorServer {
    tx: SyncSender<Msg>,
    collector: Option<JoinHandle<Advisor>>,
    stats: Arc<StatsInner>,
}

impl AdvisorServer {
    /// Takes ownership of a trained advisor and starts the collector.
    pub fn start(advisor: Advisor, config: ServeConfig) -> AdvisorServer {
        let (tx, rx) = sync_channel::<Msg>(config.queue_capacity.max(1));
        let stats = Arc::new(StatsInner::new());
        let stats2 = Arc::clone(&stats);
        let collector = std::thread::Builder::new()
            .name("pragformer-serve-collector".to_string())
            .spawn(move || collector_loop(advisor, config, rx, stats2))
            .expect("failed to spawn collector thread");
        AdvisorServer { tx, collector: Some(collector), stats }
    }

    /// A new submit handle. Handles stay valid until shutdown; submits
    /// after shutdown return [`ServeError::Closed`].
    pub fn client(&self) -> Client {
        Client { tx: self.tx.clone(), stats: Arc::clone(&self.stats) }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Stops the collector after it drains and answers every request
    /// already submitted, returning the advisor for reuse.
    pub fn shutdown(mut self) -> Advisor {
        let _ = self.tx.send(Msg::Shutdown);
        self.collector.take().expect("collector joined once").join().expect("collector panic")
    }
}

impl Drop for AdvisorServer {
    fn drop(&mut self) {
        if let Some(handle) = self.collector.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = handle.join();
        }
    }
}

/// The collector: form batches under the deadline, process, repeat.
fn collector_loop(
    mut advisor: Advisor,
    config: ServeConfig,
    rx: Receiver<Msg>,
    stats: Arc<StatsInner>,
) -> Advisor {
    let mut cache = AdviceCache::new(config.cache_capacity);
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
        process_batch(&mut advisor, &mut cache, &stats, batch, max_batch, Some(wait));
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
        process_batch(&mut advisor, &mut cache, &stats, batch, max_batch, None);
    }
    advisor
}

/// Answers one coalesced batch: front-end → cache → one forward over the
/// misses → per-request replies. `wait_secs` is the first-request-to-
/// dispatch wait (`None` for shutdown-drain batches, which never waited
/// on a deadline).
fn process_batch(
    advisor: &mut Advisor,
    cache: &mut AdviceCache,
    stats: &StatsInner,
    batch: Vec<Request>,
    max_batch: usize,
    wait_secs: Option<f64>,
) {
    let sources: Vec<&str> = batch.iter().map(|r| r.source.as_str()).collect();
    let prepared: Vec<Result<PreparedSnippet, ParseError>> = advisor.prepare_batch(&sources);

    // Consult the cache once per distinct encoded key; collect the
    // snippets that genuinely need a model forward.
    let keys: Vec<Option<Vec<usize>>> =
        prepared.iter().map(|p| p.as_ref().ok().map(|p| p.cache_key())).collect();
    let mut resolved: HashMap<&[usize], HeadProbs> = HashMap::new();
    let mut pending: std::collections::HashSet<&[usize]> = std::collections::HashSet::new();
    let mut miss_refs: Vec<&PreparedSnippet> = Vec::new();
    let mut miss_keys: Vec<&[usize]> = Vec::new();
    for (p, key) in prepared.iter().zip(&keys) {
        let (Ok(p), Some(key)) = (p, key) else { continue };
        let key = key.as_slice();
        if resolved.contains_key(key) || pending.contains(key) {
            continue;
        }
        match cache.get(key) {
            Some(probs) => {
                resolved.insert(key, probs);
            }
            None => {
                pending.insert(key);
                miss_keys.push(key);
                miss_refs.push(p);
            }
        }
    }

    // One bucketed, batched forward over the cache misses only.
    if !miss_refs.is_empty() {
        let fresh = advisor.head_probs_batch(&miss_refs);
        for (key, probs) in miss_keys.iter().zip(&fresh) {
            cache.insert(key.to_vec(), *probs);
            resolved.insert(key, *probs);
        }
    }

    // Publish counters BEFORE replying: a client that has its answer in
    // hand must observe stats covering its own batch.
    stats.requests.add(batch.len() as u64);
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
    let CacheStats { hits, misses, evictions } = cache.stats();
    stats.cache_hits.set(hits);
    stats.cache_misses.set(misses);
    stats.cache_evictions.set(evictions);

    // Reply per request; a dropped receiver (client gone) is ignored.
    for (req, (p, key)) in batch.iter().zip(prepared.iter().zip(&keys)) {
        let response = match (p, key) {
            (Ok(p), Some(key)) => {
                let probs = resolved[key.as_slice()];
                Ok(Advisor::advice_from_parts(probs, p.compar()))
            }
            (Err(e), _) => Err(ServeError::Parse(e.clone())),
            (Ok(_), None) => unreachable!("parsed snippets always carry a key"),
        };
        let _ = req.reply.send(response);
    }
}
