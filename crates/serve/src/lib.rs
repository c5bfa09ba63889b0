//! # pragformer-serve
//!
//! The advisory **service**: turns the batched advisor
//! (`pragformer_core::Advisor::advise_batch`, PR 1) into a concurrent
//! server — the deployment the paper envisions in §2.1, "an immediate
//! 'advisor' for developers", scaled from one caller to many. Built on
//! std only (threads + channels + `TcpListener`), like the rest of the
//! workspace.
//!
//! Three layers:
//!
//! 1. **[`scheduler`]** — a deadline-coalescing micro-batch scheduler.
//!    Concurrent callers submit snippets through cloneable [`Client`]
//!    handles; a collector thread coalesces them into one batched
//!    forward per batch, waiting at most [`ServeConfig::deadline`] past
//!    the first request and never exceeding [`ServeConfig::max_batch`].
//!    The submit queue is bounded (backpressure), parse errors reach
//!    only the submitting request, and shutdown drains every accepted
//!    request.
//! 2. **[`cache`]** — a cross-request LRU [`AdviceCache`] keyed on the
//!    encoded id sequence, generalizing `advise_batch`'s in-batch dedup
//!    map across requests: repeated snippets skip the model forward
//!    entirely. Hit/miss/eviction counters feed [`ServerStats`].
//! 3. **[`tcp`]** + **[`wire`]** — a std-TCP front-end speaking
//!    newline-delimited JSON (one request/response per line, hand-rolled
//!    serde). Connections (capped by [`ServeConfig::tcp_workers`]) are
//!    full duplex: a reader thread submits each request line the moment
//!    it arrives ([`Client::submit`]), and a writer thread streams the
//!    answers back in request order as they finish, so batches form
//!    *across* connections and across one connection's pipelined
//!    lines. Sockets set `TCP_NODELAY`; request lines are capped at
//!    [`tcp::MAX_LINE_BYTES`], a connection's in-flight answers at
//!    [`tcp::MAX_IN_FLIGHT`] and its unwritten output at
//!    [`tcp::MAX_RUN_BYTES`].
//!
//! ## The contract
//!
//! A coalesced or cache-hit response is **bitwise identical** to what a
//! direct `Advisor::advise` call on the same snippet returns. This
//! follows from the kernel row-determinism contract
//! (`pragformer_tensor::ops`): head probabilities depend only on the
//! encoded ids, never on batch composition or padding, so they can be
//! shared across a batch and cached across requests without changing a
//! single bit. The integration tests assert it end to end, including
//! over the TCP wire (shortest-roundtrip float formatting).
//!
//! ## Quickstart
//!
//! ```no_run
//! use pragformer_core::{Advisor, Scale};
//! use pragformer_serve::{AdvisorServer, ServeConfig, TcpServer};
//!
//! let advisor = Advisor::train_from_scratch(Scale::Small, 42);
//! let server = AdvisorServer::start(advisor, ServeConfig::default());
//!
//! // In-process: clone clients into worker threads.
//! let client = server.client();
//! let advice = client.advise("for (i = 0; i < n; i++) a[i] = b[i];").unwrap();
//! println!("parallelize? {}", advice.needs_directive);
//!
//! // Over TCP: newline-delimited JSON on a loopback port.
//! let tcp = TcpServer::bind("127.0.0.1:8477", server.client(), 4).unwrap();
//! println!("serving on {}", tcp.local_addr());
//! ```

pub mod cache;
pub mod scheduler;
pub mod tcp;
pub mod wire;

pub use cache::{AdviceCache, CacheStats};
pub use scheduler::{AdvisorServer, Client, Pending, ServeConfig, ServeError, ServerStats};
pub use tcp::TcpServer;
pub use wire::{WireRequest, WireResponse};
