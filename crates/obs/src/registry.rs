//! The global metric registry: `(name, sorted labels)` → metric.
//!
//! Registration locks a `Mutex<BTreeMap>`; callers cache the returned
//! `Arc` handles so steady-state updates never take the lock. The map is
//! a `BTreeMap` so iteration (and therefore [`crate::render_prometheus`]
//! output) is deterministic: families sorted by name, series sorted by
//! label set within a family.
//!
//! When the registry is [disabled](crate::enabled), the lookup functions
//! return process-shared *null* metrics without touching the map — no
//! lock, no allocation beyond an `Arc` refcount bump —
//! which is what the `PRAGFORMER_OBS=off` zero-allocation test pins via
//! [`registry_len`].

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, LATENCY_BUCKETS};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Canonicalized label pairs: sorted by key.
pub(crate) type Labels = Vec<(String, String)>;

/// One registered metric.
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

pub(crate) struct Entry {
    pub(crate) help: String,
    pub(crate) metric: Metric,
}

type Registry = BTreeMap<(String, Labels), Entry>;

pub(crate) fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn canonical(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels.iter().map(|(k, v)| (String::from(*k), String::from(*v))).collect();
    v.sort();
    v
}

/// Number of registered `(name, labels)` series — the observable the
/// `PRAGFORMER_OBS=off` tests pin to prove the hot path allocates
/// nothing in the registry.
pub fn registry_len() -> usize {
    registry().lock().unwrap().len()
}

fn null_counter() -> Arc<Counter> {
    static NULL: OnceLock<Arc<Counter>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(Counter::new())))
}

fn null_gauge() -> Arc<Gauge> {
    static NULL: OnceLock<Arc<Gauge>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(Gauge::new())))
}

fn null_histogram() -> Arc<Histogram> {
    static NULL: OnceLock<Arc<Histogram>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(Histogram::new(&LATENCY_BUCKETS))))
}

/// Looks up (registering on first use) the counter `name{labels}`.
/// Returns a shared detached null when the registry is disabled. Panics
/// if the same `(name, labels)` was registered as a different type.
pub fn counter(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    if !crate::enabled() {
        return null_counter();
    }
    let key = (name.to_string(), canonical(labels));
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(key)
        .or_insert_with(|| Entry {
            help: help.to_string(),
            metric: Metric::Counter(Arc::new(Counter::new())),
        })
        .metric
    {
        Metric::Counter(ref c) => Arc::clone(c),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Looks up (registering on first use) the gauge `name{labels}`.
pub fn gauge(name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    if !crate::enabled() {
        return null_gauge();
    }
    let key = (name.to_string(), canonical(labels));
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(key)
        .or_insert_with(|| Entry {
            help: help.to_string(),
            metric: Metric::Gauge(Arc::new(Gauge::new())),
        })
        .metric
    {
        Metric::Gauge(ref g) => Arc::clone(g),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Looks up (registering on first use) the histogram `name{labels}` with
/// the given bucket bounds. An existing registration keeps its original
/// bounds — callers of one family must agree on them.
pub fn histogram(
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    bounds: &[f64],
) -> Arc<Histogram> {
    if !crate::enabled() {
        return null_histogram();
    }
    let key = (name.to_string(), canonical(labels));
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(key)
        .or_insert_with(|| Entry {
            help: help.to_string(),
            metric: Metric::Histogram(Arc::new(Histogram::new(bounds))),
        })
        .metric
    {
        Metric::Histogram(ref h) => Arc::clone(h),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Point-in-time copies of every registered histogram (name, labels,
/// count, sum, cumulative buckets) — the data behind
/// `examples/profile.rs`'s per-stage breakdown.
pub fn histogram_snapshots() -> Vec<HistogramSnapshot> {
    let reg = registry().lock().unwrap();
    reg.iter()
        .filter_map(|((name, labels), entry)| match &entry.metric {
            Metric::Histogram(h) => Some(HistogramSnapshot {
                name: name.clone(),
                labels: labels.clone(),
                count: h.count(),
                sum: h.sum(),
                buckets: h.cumulative_buckets(),
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_instance() {
        crate::set_enabled(true);
        let a = counter("test_registry_shared_total", "h", &[("x", "1")]);
        a.add(3);
        let b = counter("test_registry_shared_total", "h", &[("x", "1")]);
        assert_eq!(b.get(), 3, "second lookup must alias the first");
        // Label order must not matter.
        let c = counter("test_registry_shared_total", "h", &[("y", "2"), ("x", "1")]);
        let d = counter("test_registry_shared_total", "h", &[("x", "1"), ("y", "2")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    fn histogram_snapshots_cover_registered_histograms() {
        crate::set_enabled(true);
        let h = histogram("test_registry_snap_seconds", "h", &[("who", "me")], &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        let snap = histogram_snapshots()
            .into_iter()
            .find(|s| s.name == "test_registry_snap_seconds")
            .expect("registered histogram must appear in snapshots");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.label("who"), Some("me"));
        assert_eq!(snap.buckets, vec![(1.0, 1), (10.0, 2)]);
        assert!((snap.mean() - 2.75).abs() < 1e-12);
    }
}
