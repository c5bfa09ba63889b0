//! Packed-weight byte accounting in a test binary of its own: the total
//! is process-global, so no sibling test may pack or drop weights
//! between its reads.

use pragformer_tensor::init::SeededRng;
use pragformer_tensor::ops::{live_packed_weight_bytes, PackedWeights};
use pragformer_tensor::Tensor;

#[test]
fn packed_weight_bytes_track_live_instances() {
    let mut rng = SeededRng::new(23);
    let b = Tensor::randn(&[48, 96], 1.0, &mut rng);
    let before = live_packed_weight_bytes();
    let pw = PackedWeights::pack(&b);
    let live = live_packed_weight_bytes();
    assert!(live >= before + pw.bytes(), "{live} vs {before} + {}", pw.bytes());
    let bytes = pw.bytes();
    drop(pw);
    let after = live_packed_weight_bytes();
    // Only this test's own delta is pinned.
    assert!(after + bytes >= live, "drop must subtract exactly the packed bytes");
}
