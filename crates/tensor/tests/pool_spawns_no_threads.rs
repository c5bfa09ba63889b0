//! The pool's no-spawn property in a test binary of its own: its
//! sampler counts every OS thread of the process, so no sibling test may
//! start threads while it runs.

use pragformer_tensor::parallel::{
    par_for, par_map_indexed, par_rows_mut, threads_spawned_total, warm_up,
};
use std::sync::atomic::Ordering;

/// The acceptance property of the pool refactor: after warm-up, no
/// parallel call spawns OS threads — repeated kernels reuse the pool.
///
/// Two independent checks: the pool's own spawn accounting, and (on
/// Linux) a sampler thread watching `/proc/self/status` *while* the
/// kernels run — which would catch even a spawn-then-join regression
/// (e.g. scoped threads per GEMM) that joins before returning.
#[test]
fn no_threads_spawned_after_warm_up() {
    warm_up();
    // Run one job so lazily-created state (if any) settles.
    par_for(1024, 1, |_| {});
    let before = threads_spawned_total();

    #[cfg(target_os = "linux")]
    let (stop, sampler, baseline) = {
        fn os_threads() -> usize {
            std::fs::read_to_string("/proc/self/status")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find_map(|l| l.strip_prefix("Threads:"))
                        .and_then(|v| v.trim().parse().ok())
                })
                .unwrap_or(0)
        }
        let baseline = os_threads();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        // Sampler runs concurrently with the kernel loop below; its
        // own thread is part of the baseline it measures against.
        let sampler = std::thread::spawn(move || {
            let mut max = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                max = max.max(os_threads());
                std::thread::yield_now();
            }
            max
        });
        (stop, sampler, baseline)
    };

    for _ in 0..64 {
        let mut v = vec![0.0f32; 16 * 1024];
        par_rows_mut(&mut v, 16, 1, |_, chunk| {
            for x in chunk {
                *x += 1.0;
            }
        });
        par_for(4096, 1, |_| {});
        let _ = par_map_indexed(512, 1, |i| i);
    }

    let after = threads_spawned_total();
    assert_eq!(
        before, after,
        "parallel calls spawned OS threads ({before} -> {after}); \
         the persistent pool must be reused"
    );

    #[cfg(target_os = "linux")]
    {
        stop.store(true, Ordering::Relaxed);
        let max_seen = sampler.join().unwrap();
        // +1 for the sampler itself; allow slack for unrelated
        // harness threads starting up, but a spawn-per-call kernel
        // (hundreds of transient threads above baseline) must trip.
        assert!(
            max_seen <= baseline + 4,
            "thread count ballooned during kernels: baseline {baseline}, peak {max_seen}"
        );
    }
}
