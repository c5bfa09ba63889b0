//! The disabled-span contract in a test binary of its own: it turns the
//! process-global registry off and counts its series, so no sibling test
//! may enable it or register series meanwhile.

use pragformer_obs::{observe_span, registry_len, set_enabled, span, span_histogram, span_with};

#[test]
fn disabled_spans_are_inert_and_register_nothing() {
    set_enabled(true);
    let _warm = span_histogram("test.lib_disabled", &[]);
    set_enabled(false);
    let len = registry_len();
    {
        let _guard = span("test.lib_disabled_other");
        let _also = span_with("test.lib_disabled_third", &[("a", "b")]);
    }
    observe_span("test.lib_disabled_fourth", &[], 1.0);
    assert_eq!(registry_len(), len, "disabled spans must not register metrics");
    set_enabled(true);
}
