//! The artifact-determinism contract of the scoped parallel map.
//!
//! Every sweep fans its grid across rayon and writes the rows to a JSON
//! artifact.  Those artifacts must not depend on the machine's core count:
//! a run under the real multi-thread pool has to be *byte-identical* —
//! same row order, same float bits, same serialized string — to a forced
//! single-thread run.  The rayon shim guarantees this by making every
//! parallel iterator index-addressable (result `i` always lands in slot
//! `i`); these tests pin the guarantee end-to-end through the actual sweep
//! entry points.

use dynmo_bench::serving::{run_serving_sweep, ServingSweepConfig};
use dynmo_bench::sweep::{run_sweep, SweepConfig};
use dynmo_bench::{run_composite_sweep, ExperimentScale};
use proptest::prelude::*;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction cannot fail")
}

/// Serialize exactly like `dump_json` does, so equality here is equality
/// of the artifact bytes on disk.
fn artifact<T: serde::Serialize>(rows: &T) -> String {
    serde_json::to_string_pretty(rows).expect("sweep rows serialize")
}

#[test]
fn pipeline_sweep_is_byte_identical_across_thread_counts() {
    let config = SweepConfig::for_scale(ExperimentScale::Smoke);
    let single = pool(1).install(|| run_sweep(&config));
    let multi = pool(4).install(|| run_sweep(&config));
    assert_eq!(multi, single, "rows differ between 1 and 4 threads");
    assert_eq!(artifact(&multi), artifact(&single));
}

#[test]
fn serving_sweep_is_byte_identical_across_thread_counts() {
    let config = ServingSweepConfig::for_scale(ExperimentScale::Smoke);
    let single = pool(1).install(|| run_serving_sweep(&config));
    let multi = pool(4).install(|| run_serving_sweep(&config));
    assert_eq!(multi, single, "rows differ between 1 and 4 threads");
    assert_eq!(artifact(&multi), artifact(&single));
}

/// Composite cells embed real wall-clock — the balancer's measured
/// `algorithm_time` feeds `overhead_fraction` and `tokens_per_second` — so
/// those two fields differ even between two sequential runs.  Everything
/// the simulation itself computes (row order, bubble ratios, imbalance,
/// rebalance counts, trajectory checksums, recovery equivalence) must
/// still be exactly identical across thread counts.
#[test]
fn composite_sweep_simulated_fields_are_identical_across_thread_counts() {
    let single = pool(1).install(|| run_composite_sweep(ExperimentScale::Smoke));
    let multi = pool(4).install(|| run_composite_sweep(ExperimentScale::Smoke));
    assert_eq!(multi.len(), single.len());
    for (m, s) in multi.iter().zip(single.iter()) {
        assert_eq!(m.stack, s.stack);
        assert_eq!(m.balancer, s.balancer);
        assert_eq!(m.schedule, s.schedule);
        assert_eq!(m.model, s.model);
        assert_eq!(m.stages, s.stages);
        assert_eq!(m.iterations, s.iterations);
        assert_eq!(m.bubble_ratio.to_bits(), s.bubble_ratio.to_bits());
        assert_eq!(m.average_idleness.to_bits(), s.average_idleness.to_bits());
        assert_eq!(m.mean_imbalance.to_bits(), s.mean_imbalance.to_bits());
        assert_eq!(m.rebalance_events, s.rebalance_events);
        assert_eq!(m.trajectory_checksum, s.trajectory_checksum);
        assert_eq!(m.killed_at, s.killed_at);
        assert_eq!(m.resumed_from, s.resumed_from);
        assert_eq!(m.recovery_bit_identical, s.recovery_bit_identical);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random sub-grids of the pipeline sweep (random axis subsets and
    /// thread counts) stay byte-identical too — determinism is a property
    /// of the pool, not of one blessed grid shape.
    #[test]
    fn random_pipeline_subgrids_are_byte_identical(
        stage_pick in prop::collection::vec(0usize..3, 1..3),
        mb_pick in prop::collection::vec(0usize..2, 1..3),
        imbalance_pick in 0usize..2,
        threads in 2usize..6,
    ) {
        let base = SweepConfig::for_scale(ExperimentScale::Smoke);
        let mut config = base.clone();
        config.stage_counts = stage_pick
            .iter()
            .map(|&i| base.stage_counts[i])
            .collect();
        config.microbatch_counts = mb_pick
            .iter()
            .map(|&i| base.microbatch_counts[i])
            .collect();
        config.imbalance_factors = vec![base.imbalance_factors[imbalance_pick]];
        let single = pool(1).install(|| run_sweep(&config));
        let multi = pool(threads).install(|| run_sweep(&config));
        prop_assert_eq!(&multi, &single);
        prop_assert_eq!(artifact(&multi), artifact(&single));
    }
}
