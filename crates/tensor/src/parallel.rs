//! Persistent worker pool for the engine's data-parallel hot loops.
//!
//! The engine's hot loops (GEMM, attention heads, batched advisor
//! pipelines) are embarrassingly parallel across rows/items. Earlier
//! revisions spawned fresh OS threads per kernel call via scoped threads,
//! which cost tens of microseconds per GEMM — fatal for the advisor's
//! "negligible inference time" claim once batching multiplies the call
//! count. This module replaces that with a **lazily-initialized,
//! process-wide worker pool**:
//!
//! * `worker_count() - 1` OS threads are spawned on first use and then
//!   **reused for every subsequent parallel call** (the caller's thread
//!   participates as the final worker, so total parallelism equals
//!   [`worker_count`]);
//! * work is described as an index range `0..n`; items are claimed from a
//!   shared atomic counter, which load-balances ragged workloads (e.g.
//!   attention rows) for free;
//! * jobs are *broadcast* over per-worker channels; the caller blocks on a
//!   latch until **every worker has finished with the job**, which is what
//!   makes lending stack borrows to the workers sound (see Safety below);
//! * nested parallel calls (a parallel attention head invoking a parallel
//!   GEMM) run inline on the worker that issued them, so the pool can
//!   never deadlock on itself and inner kernels don't fight the outer
//!   parallelism for cores;
//! * the pool shuts down cleanly on [`Pool::drop`]: channels disconnect,
//!   workers exit, threads are joined. The global pool lives for the
//!   process lifetime; `Pool` is only dropped in tests.
//!
//! # Safety
//!
//! The job closure is lent to worker threads through a raw pointer with an
//! erased lifetime. This is sound because `run_tasks` does not return
//! until every worker has acknowledged the job (a counting latch), and it
//! acknowledges *after* its last access to the shared job state. Panics
//! inside tasks are caught, the latch still fires, and the panic is
//! re-raised on the caller's thread once all workers are done — so the
//! borrow can never dangle, even on unwind.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of logical workers to use, capped by available parallelism.
///
/// Cached after the first call: `available_parallelism` inspects cgroup
/// quotas on Linux (micro*seconds* per query), far too slow to sit on the
/// per-GEMM dispatch path.
pub fn worker_count() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            CACHED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

thread_local! {
    /// Set while a pool worker (or a caller participating in a job) is
    /// executing tasks; nested parallel calls check it and run inline.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Shared per-job state, allocated on the caller's stack for the duration
/// of one parallel call.
struct Job<'a> {
    /// The task body; receives the task index.
    f: &'a (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of tasks.
    n: usize,
    /// Workers (including the caller) that have not yet acknowledged.
    pending: AtomicUsize,
    /// First panic payload raised by a task, re-raised on the caller so
    /// pooled dispatch panics exactly like the inline path.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Latch the caller blocks on until `pending` reaches zero.
    done: Mutex<bool>,
    /// Wakes the caller when the latch fires.
    cv: Condvar,
}

impl Job<'_> {
    /// Claims and runs tasks until the counter is exhausted. Panics in
    /// task bodies are recorded, not propagated, so the claim loop always
    /// completes.
    fn run_claims(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                let mut slot = self.panic_payload.lock().unwrap();
                slot.get_or_insert(payload);
            }
        }
    }

    /// Acknowledges that one participant is completely done touching this
    /// job; the last acknowledgement releases the caller.
    fn acknowledge(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut guard = self.done.lock().unwrap();
            *guard = true;
            self.cv.notify_all();
        }
    }
}

/// Type-erased pointer to a [`Job`] living on a caller's stack.
///
/// Safety: see the module docs — the pointee outlives all worker accesses
/// because the caller blocks until every worker acknowledges.
struct JobPtr(*const ());
unsafe impl Send for JobPtr {}

/// A handle to a set of persistent worker threads.
///
/// The process-wide instance is created lazily by `global` and reused by
/// every parallel call. Dropping a `Pool` disconnects the job channels,
/// which makes each worker exit its receive loop, and then joins the
/// threads.
pub struct Pool {
    senders: Vec<Sender<JobPtr>>,
    handles: Vec<JoinHandle<()>>,
}

/// Total OS threads ever spawned for the *global* pool; used by tests to
/// assert that kernels never spawn threads after warm-up. (Private pools
/// constructed in tests are deliberately not counted.)
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Global-pool threads spawned since process start. Stable across
/// repeated kernel calls once the pool exists — the acceptance property
/// of the persistent-pool design.
pub fn threads_spawned_total() -> usize {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

impl Pool {
    /// Spawns `threads` workers (0 is allowed: all work runs inline).
    pub fn new(threads: usize) -> Pool {
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for idx in 0..threads {
            let (tx, rx): (Sender<JobPtr>, Receiver<JobPtr>) = channel();
            let handle = std::thread::Builder::new()
                .name(format!("pragformer-pool-{idx}"))
                .spawn(move || worker_loop(rx))
                .expect("failed to spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        Pool { senders, handles }
    }

    /// Number of worker threads owned by this pool (excluding callers).
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Disconnect all channels; workers exit their recv loops.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: Receiver<JobPtr>) {
    while let Ok(job) = rx.recv() {
        // Safety: the caller keeps the job alive until we acknowledge.
        let job: &Job<'_> = unsafe { &*job.0.cast::<Job<'_>>() };
        IN_PARALLEL.with(|flag| flag.set(true));
        job.run_claims();
        IN_PARALLEL.with(|flag| flag.set(false));
        job.acknowledge();
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use with `worker_count() - 1`
/// threads (the calling thread is the missing worker).
fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let pool = Pool::new(worker_count().saturating_sub(1));
        THREADS_SPAWNED.fetch_add(pool.thread_count(), Ordering::Relaxed);
        pool
    })
}

/// Forces pool creation; useful before latency-sensitive sections and in
/// thread-accounting tests.
pub fn warm_up() {
    let _ = global();
}

/// Number of OS threads the global pool owns. Calling this creates the
/// pool if it does not exist yet; the result is 0 exactly on single-core
/// machines (where every parallel call runs inline).
pub fn pool_thread_count() -> usize {
    global().thread_count()
}

/// Runs tasks `f(0), …, f(n-1)` across the global pool, blocking until
/// all have completed. Never spawns threads; reuses the persistent pool.
/// Runs everything inline when the pool is empty or when already inside
/// a parallel region (nested calls).
fn run_tasks(n: usize, f: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let nested = IN_PARALLEL.with(|flag| flag.get());
    run_tasks_on(global(), nested, n, f);
}

/// Records one job dispatch into
/// `pragformer_pool_dispatch_total{path}` (`path` 0 = `inline`, 1 =
/// `pooled`). Handles are cached after the first call per path.
#[inline]
fn record_dispatch(path: usize) {
    if !pragformer_obs::enabled() {
        return;
    }
    static CELLS: [std::sync::OnceLock<std::sync::Arc<pragformer_obs::Counter>>; 2] =
        [const { std::sync::OnceLock::new() }; 2];
    CELLS[path]
        .get_or_init(|| {
            pragformer_obs::counter(
                "pragformer_pool_dispatch_total",
                "Worker-pool job dispatches by execution path",
                &[("path", if path == 0 { "inline" } else { "pooled" })],
            )
        })
        .inc();
}

/// Pool-explicit core of `run_tasks`; tests drive it with a private
/// pool so the cross-thread dispatch machinery (worker loop, latch,
/// erased-lifetime job pointer, panic forwarding) executes even on
/// single-core machines where the global pool is empty.
fn run_tasks_on(pool: &Pool, nested: bool, n: usize, f: &(dyn Fn(usize) + Sync)) {
    if nested || pool.thread_count() == 0 || n == 1 {
        record_dispatch(0);
        for i in 0..n {
            f(i);
        }
        return;
    }
    record_dispatch(1);
    // With fewer tasks than workers, waking the whole pool costs more
    // than it saves: enlist only enough workers that everyone (including
    // the caller) could claim at least one task.
    let helpers = pool.thread_count().min(n - 1);
    let job = Job {
        f,
        next: AtomicUsize::new(0),
        n,
        pending: AtomicUsize::new(helpers + 1),
        panic_payload: Mutex::new(None),
        done: Mutex::new(false),
        cv: Condvar::new(),
    };
    // Safety: `job` outlives every worker access — we block on the latch
    // below before returning (and before unwinding).
    let ptr = JobPtr(std::ptr::from_ref(&job).cast::<()>());
    for tx in &pool.senders[..helpers] {
        tx.send(JobPtr(ptr.0)).expect("pool worker disappeared");
    }
    // The caller participates as the last worker.
    IN_PARALLEL.with(|flag| flag.set(true));
    job.run_claims();
    IN_PARALLEL.with(|flag| flag.set(false));
    job.acknowledge();
    // Wait for every worker to finish with `job` before it leaves scope.
    let mut guard = job.done.lock().unwrap();
    while !*guard {
        guard = job.cv.wait(guard).unwrap();
    }
    drop(guard);
    // Re-raise the first task panic with its original payload, so pooled
    // and inline execution fail identically.
    let payload = job.panic_payload.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Raw pointer wrapper so disjoint writes can cross the closure boundary.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `f(chunk_start, chunk)` over disjoint chunks of `data`, in
/// parallel on the persistent pool.
///
/// `min_per_thread` guards against dispatching tiny workloads: when
/// `data.len() < 2 * min_per_thread` the closure runs inline on the
/// caller's thread. The closure receives the chunk's offset within `data`
/// so callers can recover absolute indices.
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], min_per_thread: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let workers = worker_count();
    if workers <= 1 || n < 2 * min_per_thread.max(1) {
        f(0, data);
        return;
    }
    let chunks = workers.min(n / min_per_thread.max(1)).max(1);
    let chunk_len = n.div_ceil(chunks);
    let base = SendPtr(data.as_mut_ptr());
    run_tasks(chunks, &|ci| {
        let start = ci * chunk_len;
        let end = (start + chunk_len).min(n);
        if start >= end {
            return;
        }
        // Safety: chunks are disjoint by construction and `data` outlives
        // the call (run_tasks blocks until completion).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(start, chunk);
    });
}

/// Row-aligned variant of [`par_chunks_mut`] for matrix buffers.
///
/// Splits `data` (a row-major `rows × cols` buffer) at row boundaries and
/// calls `f(first_row, rows_chunk)` on each piece, so kernels can assume a
/// chunk always starts exactly at a row start.
pub fn par_rows_mut<F>(data: &mut [f32], cols: usize, min_rows_per_thread: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if cols == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0, "buffer not a whole number of rows");
    let rows = data.len() / cols;
    let workers = worker_count();
    let min_rows = min_rows_per_thread.max(1);
    if workers <= 1 || rows < 2 * min_rows {
        f(0, data);
        return;
    }
    let chunks = workers.min(rows / min_rows).max(1);
    let rows_per_chunk = rows.div_ceil(chunks);
    let base = SendPtr(data.as_mut_ptr());
    run_tasks(chunks, &|ci| {
        let row0 = ci * rows_per_chunk;
        let row_end = (row0 + rows_per_chunk).min(rows);
        if row0 >= row_end {
            return;
        }
        // Safety: row ranges are disjoint by construction and the buffer
        // outlives the call.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(row0 * cols), (row_end - row0) * cols)
        };
        f(row0, chunk);
    });
}

/// Parallel iteration over the index range `0..n` with dynamic scheduling.
///
/// Items are handed out one at a time from a shared atomic counter, which
/// balances loads whose per-item cost varies (e.g. ragged attention rows).
/// For `n < 2 * min_per_thread` the loop runs inline.
pub fn par_for<F>(n: usize, min_per_thread: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = worker_count();
    if workers <= 1 || n < 2 * min_per_thread.max(1) {
        for i in 0..n {
            f(i);
        }
        return;
    }
    run_tasks(n, &f);
}

/// Parallel map over `0..n` collecting results in index order.
///
/// Like [`par_for`] but each task produces a value; the result vector is
/// assembled without locks (each task writes its own slot). Used by the
/// batched attention path (per-`(batch, head)` tiles) and the advisor's
/// parallel parse/tokenize stage.
pub fn par_map_indexed<T, F>(n: usize, min_per_thread: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count();
    if workers <= 1 || n < 2 * min_per_thread.max(1) {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let base = SendPtr(out.as_mut_ptr());
    run_tasks(n, &|i| {
        // Safety: every task writes a distinct slot.
        unsafe { *base.get().add(i) = Some(f(i)) };
    });
    out.into_iter().map(|v| v.expect("par_map_indexed slot not filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut v = vec![0u32; 10_000];
        par_chunks_mut(&mut v, 8, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (start + i) as u32;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_small_input_runs_inline() {
        let mut v = vec![1u8; 3];
        par_chunks_mut(&mut v, 1000, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert_eq!(v, vec![2, 2, 2]);
    }

    #[test]
    fn par_for_visits_each_index_once() {
        let n = 5000;
        let sum = AtomicU64::new(0);
        par_for(n, 4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn par_for_zero_items_is_noop() {
        par_for(0, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = par_map_indexed(1000, 1, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        // Inline path (small n) agrees.
        assert_eq!(par_map_indexed(3, 100, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        let sum = AtomicU64::new(0);
        par_for(64, 1, |_| {
            // Inner call must not deadlock waiting on busy workers.
            par_for(64, 1, |j| {
                sum.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 64 * (63 * 64 / 2));
    }

    #[test]
    fn panics_propagate_after_all_workers_finish() {
        let result = std::panic::catch_unwind(|| {
            par_for(128, 1, |i| {
                if i == 17 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "panic in a task must propagate");
        // The pool must still be usable afterwards.
        let sum = AtomicU64::new(0);
        par_for(128, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 127 * 128 / 2);
    }

    #[test]
    fn dropping_a_private_pool_joins_its_threads() {
        let pool = Pool::new(2);
        assert_eq!(pool.thread_count(), 2);
        drop(pool); // must not hang
    }

    /// Drives the cross-thread dispatch machinery (worker loop, latch,
    /// job-pointer handoff) through a private pool, so it executes even
    /// on single-core machines where the global pool is empty and every
    /// public entry point runs inline.
    #[test]
    fn pooled_dispatch_runs_every_task_exactly_once() {
        let pool = Pool::new(3);
        for _ in 0..50 {
            let n = 257;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            run_tasks_on(&pool, false, n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}");
            }
        }
    }

    /// A panic inside a pooled task must re-raise on the caller with the
    /// ORIGINAL payload (same observable behavior as the inline path).
    #[test]
    fn pooled_dispatch_preserves_panic_payload() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_tasks_on(&pool, false, 64, &|i| {
                assert!(i != 13, "task 13 exploded");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("task 13 exploded"), "payload lost: {msg:?}");
        // The pool must still be usable afterwards.
        run_tasks_on(&pool, false, 64, &|_| {});
    }
}
