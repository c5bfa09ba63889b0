//! A per-thread reusable `Vec<f32>` arena for forward-pass scratch.
//!
//! The inference hot loop needs many short-lived f32 buffers — GEMM pack
//! panels, attention head tiles, embedding gathers. Allocating each one
//! fresh puts the allocator on the per-request path; this module keeps a
//! small per-thread pool of returned buffers and hands their capacity
//! back out instead:
//!
//! * [`take`] returns an **empty** `Vec` with at least the requested
//!   capacity (callers overwrite by `extend`/`push`, so no zero fill is
//!   paid — the fix for the gather-then-overwrite pattern);
//! * [`take_zeroed`] returns a zero-filled `Vec` of an exact length (for
//!   buffers with write-sparse padding, like zero-padded pack panels);
//! * [`give`] parks a finished buffer back in the current thread's pool
//!   for the next [`take`] — *any* `Vec<f32>` is accepted, so callers
//!   can recycle tensors they own (`Tensor::into_data`) even when the
//!   buffer was not born here.
//!
//! The int8 tier keeps a parallel **i8 lane** ([`take_i8`] / [`give_i8`])
//! for quantized-activation buffers, so dynamic requantization also
//! allocates nothing at steady state.
//!
//! Pools are `thread_local`, so the persistent worker pool
//! ([`crate::parallel`]) reuses buffers without any cross-thread
//! synchronization; each pool keeps at most `MAX_POOLED` buffers and
//! prefers retaining the largest ones, so steady-state forward passes
//! stop allocating once the pools have seen one warm-up pass.
//!
//! ## Accounting
//!
//! [`retained_bytes`] is the total capacity currently parked across all
//! pools (both lanes, byte-accurate per element type);
//! [`high_water_bytes`] its process-lifetime maximum, mirrored to
//! the `pragformer_scratch_high_water_bytes` gauge. A stable high-water
//! mark across repeated forwards is the observable "zero heap growth"
//! signal (`examples/profile.rs` asserts it after warm-up).

use pragformer_obs as obs;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Buffers each thread's pool retains before [`give`] starts evicting.
const MAX_POOLED: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static POOL_I8: RefCell<Vec<Vec<i8>>> = const { RefCell::new(Vec::new()) };
}

/// Total capacity (bytes) parked across all per-thread pools.
static RETAINED: AtomicUsize = AtomicUsize::new(0);
/// Process-lifetime maximum of [`RETAINED`].
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Raises the high-water mark (and its gauge) to the current retained
/// total if it grew.
fn note_high_water() {
    let total = RETAINED.load(Ordering::Relaxed);
    let mut cur = HIGH_WATER.load(Ordering::Relaxed);
    while total > cur {
        match HIGH_WATER.compare_exchange_weak(cur, total, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
    if obs::enabled() {
        static GAUGE: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
        GAUGE
            .get_or_init(|| {
                obs::gauge(
                    "pragformer_scratch_high_water_bytes",
                    "High-water mark of bytes retained by the scratch arena",
                    &[],
                )
            })
            .set_max(HIGH_WATER.load(Ordering::Relaxed) as f64);
    }
}

/// Best-fit take from one pool lane; `elem_bytes` keeps the retained
/// byte accounting exact per element type.
fn take_from<T>(pool: &RefCell<Vec<Vec<T>>>, min_capacity: usize, elem_bytes: usize) -> Vec<T> {
    let reused = {
        let mut pool = pool.borrow_mut();
        let mut best: Option<usize> = None;
        for i in 0..pool.len() {
            let c = pool[i].capacity();
            if c >= min_capacity && best.is_none_or(|j| c < pool[j].capacity()) {
                best = Some(i);
            }
        }
        best.map(|i| pool.swap_remove(i))
    };
    if let Some(mut buf) = reused {
        RETAINED.fetch_sub(buf.capacity() * elem_bytes, Ordering::Relaxed);
        buf.clear();
        return buf;
    }
    Vec::with_capacity(min_capacity)
}

/// Largest-wins give into one pool lane (see [`give`] for the policy).
fn give_to<T>(pool: &RefCell<Vec<Vec<T>>>, buf: Vec<T>, elem_bytes: usize) {
    if buf.capacity() == 0 {
        return;
    }
    // How many elements of retained capacity the pool gained: the whole
    // buffer when there was room, the capacity difference when it
    // displaced a smaller parked buffer, zero when rejected.
    let gained = {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED {
            let cap = buf.capacity();
            pool.push(buf);
            cap
        } else {
            let smallest = (0..pool.len()).min_by_key(|&i| pool[i].capacity()).unwrap();
            if pool[smallest].capacity() < buf.capacity() {
                let old = std::mem::replace(&mut pool[smallest], buf);
                pool[smallest].capacity() - old.capacity()
            } else {
                0
            }
        }
    };
    if gained > 0 {
        RETAINED.fetch_add(gained * elem_bytes, Ordering::Relaxed);
        note_high_water();
    }
}

/// An **empty** `Vec<f32>` with at least `min_capacity` capacity —
/// reused from the current thread's pool when a large-enough buffer is
/// parked (best fit), freshly allocated otherwise. Pair with [`give`].
pub fn take(min_capacity: usize) -> Vec<f32> {
    POOL.with(|cell| take_from(cell, min_capacity, 4))
}

/// A zero-filled `Vec<f32>` of exactly `len` elements on reused (or
/// fresh) capacity. Pair with [`give`].
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.resize(len, 0.0);
    buf
}

/// Parks `buf`'s capacity in the current thread's pool for the next
/// [`take`]. When the pool is full, the smallest buffer (incoming or
/// parked) is dropped, so pools converge on the largest working-set
/// buffers. Accepts any `Vec<f32>`, not just ones born from [`take`].
pub fn give(buf: Vec<f32>) {
    POOL.with(|cell| give_to(cell, buf, 4));
}

/// The i8 lane of [`take`]: an **empty** `Vec<i8>` with at least
/// `min_capacity` capacity, reused from the current thread's i8 pool
/// when possible. Quantized-activation buffers ride this lane so int8
/// inference allocates nothing at steady state. Pair with [`give_i8`].
pub fn take_i8(min_capacity: usize) -> Vec<i8> {
    POOL_I8.with(|cell| take_from(cell, min_capacity, 1))
}

/// The i8 lane of [`give`]: parks an `i8` buffer for the next
/// [`take_i8`], same largest-wins policy and shared byte accounting.
pub fn give_i8(buf: Vec<i8>) {
    POOL_I8.with(|cell| give_to(cell, buf, 1));
}

/// Total bytes currently parked across all per-thread pools.
pub fn retained_bytes() -> usize {
    RETAINED.load(Ordering::Relaxed)
}

/// Process-lifetime high-water mark of [`retained_bytes`].
pub fn high_water_bytes() -> usize {
    HIGH_WATER.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_given_capacity() {
        let mut buf = take(1024);
        assert!(buf.capacity() >= 1024);
        assert!(buf.is_empty());
        buf.extend(std::iter::repeat_n(1.5f32, 100));
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        give(buf);
        let again = take(cap);
        assert_eq!(again.as_ptr(), ptr, "same-thread take must reuse the parked buffer");
        assert!(again.is_empty(), "reused buffers come back cleared");
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut buf = take(64);
        buf.extend(std::iter::repeat_n(7.0f32, 64));
        give(buf);
        let z = take_zeroed(64);
        assert_eq!(z.len(), 64);
        assert!(z.iter().all(|&v| v == 0.0), "reused capacity must be re-zeroed");
        give(z);
    }

    #[test]
    fn high_water_is_monotone_and_tracks_retained() {
        let before = high_water_bytes();
        give(Vec::with_capacity(4096));
        let after = high_water_bytes();
        assert!(after >= before);
        assert!(high_water_bytes() >= retained_bytes().min(after));
        // Draining the pool lowers retained but never the high-water.
        let _drain = take(1);
        assert!(high_water_bytes() >= after);
    }

    #[test]
    fn i8_lane_reuses_and_accounts_bytes() {
        let mut buf = take_i8(512);
        assert!(buf.capacity() >= 512);
        buf.extend(std::iter::repeat_n(-3i8, 512));
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        give_i8(buf);
        // Parking i8 capacity must register in the (monotone) high-water
        // mark; exact retained deltas race with concurrent tests.
        assert!(high_water_bytes() >= cap);
        let again = take_i8(cap);
        assert_eq!(again.as_ptr(), ptr, "same-thread take_i8 must reuse the parked buffer");
        assert!(again.is_empty(), "reused i8 buffers come back cleared");
        give_i8(again);
    }

    #[test]
    fn pool_is_bounded() {
        // Give far more buffers than the pool cap; retained bytes must
        // stay bounded by MAX_POOLED × the largest capacity.
        for _ in 0..4 * MAX_POOLED {
            give(Vec::with_capacity(128));
        }
        let mut held = Vec::new();
        for _ in 0..MAX_POOLED + 1 {
            held.push(take(1));
        }
        // At most MAX_POOLED of those takes can have been pool hits.
        let fresh = held.iter().filter(|b| b.capacity() < 128).count();
        assert!(fresh >= 1, "pool must not retain unboundedly many buffers");
        for b in held {
            give(b);
        }
    }
}
