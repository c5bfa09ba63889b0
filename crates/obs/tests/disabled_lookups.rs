//! The disabled-registry contract in a test binary of its own: it turns
//! the process-global registry off and counts its series, so no sibling
//! test may enable it or register series meanwhile.

use pragformer_obs::{counter, gauge, histogram, registry_len, set_enabled, LATENCY_BUCKETS};

#[test]
fn disabled_lookups_touch_nothing() {
    set_enabled(true);
    let _seed = gauge("test_registry_disabled", "h", &[]);
    set_enabled(false);
    let len = registry_len();
    let c = counter("test_registry_never_registered_total", "h", &[]);
    let g = gauge("test_registry_never_registered", "h", &[]);
    let h = histogram("test_registry_never_registered_seconds", "h", &[], &LATENCY_BUCKETS);
    c.inc();
    g.set(1.0);
    h.observe(0.5);
    assert_eq!(registry_len(), len, "disabled lookups must not register");
    set_enabled(true);
}
