//! Property tests for eval-mode trunk forwards — the model-level
//! oracle for zero-repack inference.
//!
//! An eval forward runs on pre-packed f32 panels, retains no backward
//! cache and clamps the padded length to the batch's longest valid
//! prefix; a train forward at `dropout: 0.0` runs plain `matmul` at
//! the caller's padding. The contract: both produce **bitwise** the
//! same CLS representations, and eval rows are invariant to batch
//! split and padding. Randomized over model seeds, batch sizes, per-row
//! valid lengths and padded lengths; each trunk is set to the default
//! plan's f32 twin, so the default plan (swept by CI's
//! `PRAGFORMER_KERNEL` jobs) never puts it on int8.

use pragformer_model::{ModelConfig, Trunk};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::default_plan;
use proptest::prelude::*;

const VOCAB: usize = 18;

fn tiny_cfg(max_len: usize) -> ModelConfig {
    ModelConfig {
        vocab: VOCAB,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_len,
        dropout: 0.0,
        n_classes: 2,
    }
}

/// Random id block (`batch × seq`) with per-row valid prefixes ≥ 1.
fn random_batch(batch: usize, seq: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let mut ids = Vec::with_capacity(batch * seq);
    let mut valid = Vec::with_capacity(batch);
    for _ in 0..batch {
        let v = 1 + rng.below(seq);
        for t in 0..seq {
            ids.push(if t < v { rng.below(VOCAB) } else { 0 });
        }
        valid.push(v);
    }
    (ids, valid)
}

fn bits_of(t: &pragformer_tensor::Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Eval CLS bits (packed panels, length-clamped) equal train-mode
    /// CLS bits (plain f32 GEMMs, caller padding) at `dropout: 0.0`.
    #[test]
    fn eval_cls_is_bitwise_train_cls(
        batch in 1usize..4,
        seq in 2usize..12,
        pad_extra in 0usize..5,
        model_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
    ) {
        let cfg = tiny_cfg(16);
        let mut rng = SeededRng::new(model_seed);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        trunk.set_plan(default_plan().float());
        let (mut ids, valid) = random_batch(batch, seq, data_seed);
        // Extra padding the eval clamp must cut and the train forward
        // must run through.
        let wider = seq + pad_extra;
        if pad_extra > 0 {
            ids = ids.chunks(seq).flat_map(|r| r.iter().copied().chain(vec![0; pad_extra])).collect();
        }
        let train = trunk.forward_cls(&ids, &valid, wider, true);
        trunk.clear_cache();
        prop_assert!(!trunk.encoder().packed_active());
        let eval = trunk.forward_cls(&ids, &valid, wider, false);
        trunk.clear_cache();
        prop_assert!(trunk.encoder().packed_active());
        prop_assert_eq!(bits_of(&train), bits_of(&eval), "eval CLS bits diverged from train");
    }

    /// Eval forwards keep the row-determinism contract: each CLS row of
    /// a batched forward is bitwise the row of a batch-of-1 forward, and
    /// longer padding never moves valid bits.
    #[test]
    fn eval_cls_rows_are_batch_and_padding_invariant(
        batch in 2usize..4,
        seq in 2usize..10,
        pad_extra in 1usize..6,
        model_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
    ) {
        let cfg = tiny_cfg(16);
        let mut rng = SeededRng::new(model_seed);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        trunk.set_plan(default_plan().float());
        let (ids, valid) = random_batch(batch, seq, data_seed);
        let batched = trunk.forward_cls(&ids, &valid, seq, false);
        trunk.clear_cache();
        for b in 0..batch {
            // Batch split: the same sequence alone.
            let one = trunk.forward_cls(
                &ids[b * seq..(b + 1) * seq],
                &valid[b..b + 1],
                seq,
                false,
            );
            trunk.clear_cache();
            prop_assert_eq!(
                bits_of(&one.slice_rows(0, 1)),
                bits_of(&batched.slice_rows(b, 1)),
                "CLS row {} not batch invariant", b
            );
            // Padding split: the same sequence padded further.
            let wider = (seq + pad_extra).min(cfg.max_len);
            let mut long_ids = ids[b * seq..(b + 1) * seq].to_vec();
            long_ids.resize(wider, 0);
            let padded = trunk.forward_cls(&long_ids, &valid[b..b + 1], wider, false);
            trunk.clear_cache();
            prop_assert_eq!(
                bits_of(&padded.slice_rows(0, 1)),
                bits_of(&batched.slice_rows(b, 1)),
                "CLS row {} not padding invariant", b
            );
        }
    }

    /// Mode hygiene under random train/eval interleavings: eval forwards
    /// retain zero attention bytes, train forwards restore the backward
    /// caches, and the interleaving never changes eval bits.
    #[test]
    fn interleaved_train_eval_keeps_eval_bits_and_drops_caches(
        flips in proptest::collection::vec(any::<bool>(), 1..6),
        model_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
    ) {
        let cfg = tiny_cfg(12);
        let mut rng = SeededRng::new(model_seed);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        trunk.set_plan(default_plan().float());
        let (ids, valid) = random_batch(2, 8, data_seed);
        let baseline = trunk.forward_cls(&ids, &valid, 8, false);
        trunk.clear_cache();
        for &train in &flips {
            let _ = trunk.forward_cls(&ids, &valid, 8, train);
            trunk.clear_cache();
            if train {
                prop_assert!(
                    trunk.retained_attention_bytes() > 0,
                    "train forward retained no attention cache"
                );
            } else {
                prop_assert_eq!(
                    trunk.retained_attention_bytes(), 0,
                    "eval forward retained attention bytes"
                );
            }
        }
        let after = trunk.forward_cls(&ids, &valid, 8, false);
        trunk.clear_cache();
        prop_assert_eq!(bits_of(&baseline), bits_of(&after), "interleaving moved eval bits");
    }
}
