//! Property tests: `checkpoint → serialize → restore` preserves trainer
//! state bit-for-bit, through both the in-memory and the on-disk store.

use std::collections::BTreeMap;

use dynmo_pipeline::StageAssignment;
use dynmo_resilience::{
    Checkpoint, CheckpointStore, DiskCheckpointStore, LayerState, MemoryCheckpointStore,
    TrainerState,
};
use proptest::prelude::*;

/// Build a structurally valid state from free-form generated inputs.
fn build_state(
    iteration: u64,
    stages: usize,
    per_layer: &[Vec<f32>],
    mask_seed: u64,
    metrics: &[f64],
) -> TrainerState {
    let num_layers = per_layer.len().max(1);
    let layers: Vec<LayerState> = (0..num_layers)
        .map(|layer_id| {
            let weights = per_layer.get(layer_id).cloned().unwrap_or_default();
            let optimizer: Vec<f32> = weights.iter().map(|w| w * -0.5 + 0.125).collect();
            let pruning_mask: Vec<bool> = (0..weights.len())
                .map(|i| (mask_seed >> (i % 64)) & 1 == 0)
                .collect();
            LayerState {
                layer_id,
                weights,
                optimizer,
                pruning_mask,
                frozen: layer_id % 3 == 0,
                rng_state: mask_seed.wrapping_mul(layer_id as u64 + 1),
            }
        })
        .collect();
    let mut named = BTreeMap::new();
    for (i, &value) in metrics.iter().enumerate() {
        named.insert(format!("metric_{i}"), value);
    }
    TrainerState {
        iteration,
        world_size: stages,
        assignment: StageAssignment::uniform(num_layers, stages),
        layers,
        metrics: named,
        engine: None,
    }
}

/// Equality plus explicit bit-level comparison of every float, so the
/// "bit-for-bit" claim does not hide behind `PartialEq` edge cases
/// (e.g. `-0.0 == 0.0`).
fn assert_bit_identical(a: &TrainerState, b: &TrainerState) {
    assert_eq!(a, b);
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&la.weights), bits(&lb.weights));
        assert_eq!(bits(&la.optimizer), bits(&lb.optimizer));
        assert_eq!(la.rng_state, lb.rng_state);
    }
    for (ka, va) in &a.metrics {
        assert_eq!(va.to_bits(), b.metrics[ka].to_bits(), "metric {ka}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_store_round_trip_is_bit_for_bit(
        iteration in 0u64..1_000_000,
        stages in 1usize..9,
        flat in prop::collection::vec(-1.0e6f32..1.0e6, 8..96),
        layer_count in 1usize..13,
        mask_seed in 0u64..u64::MAX,
        metrics in prop::collection::vec(-1.0e9f64..1.0e9, 0..5),
    ) {
        let chunk = (flat.len() / layer_count).max(1);
        let per_layer: Vec<Vec<f32>> = (0..layer_count)
            .map(|l| flat.iter().copied().skip(l * chunk).take(chunk).collect())
            .collect();
        let state = build_state(iteration, stages, &per_layer, mask_seed, &metrics);
        let checkpoint = Checkpoint::new(state.clone()).unwrap();

        let mut store = MemoryCheckpointStore::new();
        store.save(&checkpoint).unwrap();
        let restored = store.load(iteration).unwrap();
        let restored_state = restored.verify().unwrap();
        assert_bit_identical(&state, restored_state);

        // The latest() path must agree with the direct load.
        let latest = store.latest().unwrap().unwrap();
        assert_bit_identical(&state, latest.verify().unwrap());
    }

    #[test]
    fn json_text_round_trip_is_bit_for_bit(
        iteration in 0u64..1_000_000,
        stages in 1usize..5,
        weights in prop::collection::vec(-1.0e12f32..1.0e12, 1..48),
        mask_seed in 0u64..u64::MAX,
    ) {
        let state = build_state(iteration, stages, &[weights], mask_seed, &[0.25]);
        let checkpoint = Checkpoint::new(state.clone()).unwrap();
        let text = checkpoint.to_json().unwrap();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_bit_identical(&state, back.verify().unwrap());
    }
}

proptest! {
    // Each case decodes every strict prefix and every valid-UTF-8 single-bit
    // flip of its checkpoint text, thousands of decodes in all.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn truncated_or_bit_flipped_json_is_rejected_or_decodes_identically(
        iteration in 0u64..1_000_000,
        stages in 1usize..4,
        weights in prop::collection::vec(-1.0e6f32..1.0e6, 1..8),
        mask_seed in 0u64..u64::MAX,
    ) {
        let state = build_state(iteration, stages, &[weights], mask_seed, &[0.25]);
        let text = Checkpoint::new(state.clone()).unwrap().to_json().unwrap();
        for len in 0..text.len() {
            if let Some(prefix) = text.get(..len) {
                assert_rejected_or_identical(prefix, &state, &format!("prefix of {len} bytes"));
            }
        }
        let mut bytes = text.into_bytes();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    assert_rejected_or_identical(flipped, &state, &format!("bit {bit} of byte {at}"));
                }
                bytes[at] ^= 1 << bit;
            }
        }
    }
}

/// Decode damaged checkpoint text: the decoder must not panic, and whatever
/// it accepts must be the original state bit for bit.
fn assert_rejected_or_identical(text: &str, original: &TrainerState, damage: &str) {
    let decoded = std::panic::catch_unwind(|| {
        Checkpoint::from_json(text).and_then(|checkpoint| checkpoint.verify().cloned())
    });
    match decoded {
        Err(_) => panic!("decoder panicked on {damage}"),
        Ok(Ok(state)) => assert_bit_identical(original, &state),
        Ok(Err(_)) => {}
    }
}

#[test]
fn disk_store_round_trip_is_bit_for_bit() {
    let dir =
        std::env::temp_dir().join(format!("dynmo-resilience-proptest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DiskCheckpointStore::open(&dir).unwrap();
    // Awkward values on purpose: subnormal-adjacent, huge, tiny, negative.
    let weights = vec![1.1754944e-38f32, -3.4e38, 1.0e-7, -0.015625, 123456.78];
    let state = build_state(
        77,
        3,
        &[weights.clone(), weights],
        0xdead_beef,
        &[1.0 / 3.0],
    );
    let checkpoint = Checkpoint::new(state.clone()).unwrap();
    store.save(&checkpoint).unwrap();
    let restored = store.load(77).unwrap();
    assert_bit_identical(&state, restored.verify().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
