//! Centralized contiguous partitioning (paper §3.3, first balancer).
//!
//! "The first is centralized parameter-based partitioning that balances
//! partitions based on the number of parameters.  The load balancing
//! algorithm is built on top of DeepSpeed's load balancing utility functions
//! for partitioning in model parallelism" — i.e. DeepSpeed's
//! `partition_balanced`, which finds the contiguous split of the layer
//! sequence that minimizes the heaviest stage.  DynMo runs the same
//! algorithm on either parameter counts or measured layer times.
//!
//! The implementation is the textbook "minimize the maximum contiguous
//! partition sum": binary search on the bottleneck value with a greedy
//! feasibility probe, which is exactly binary search + linear probing as
//! described in the paper's §5.

use dynmo_pipeline::StageAssignment;

use super::{BalanceOutcome, BalanceRequest, LoadBalancer};

/// The centralized partitioning balancer.
#[derive(Debug, Clone, Default)]
pub struct PartitionBalancer;

impl PartitionBalancer {
    /// Create a partition balancer.
    pub fn new() -> Self {
        PartitionBalancer
    }
}

/// Greedy probe: can `weights` be split into contiguous groups, one per
/// entry of `speeds`, such that every stage `s` carries at most
/// `limit · speeds[s]` weight (i.e. at most `limit` *time*)?  When the next
/// layer overflows the current stage, the walk moves on to the first later
/// stage whose cap holds that layer alone, leaving any slower stage in
/// between empty.  With every speed 1.0 all caps are equal, no stage is
/// ever skipped, and this is the textbook homogeneous probe.
fn feasible(weights: &[f64], speeds: &[f64], limit: f64) -> bool {
    let mut stage = 0usize;
    let mut cap = limit * speeds[0];
    let mut current = 0.0f64;
    for &w in weights {
        if current + w > cap {
            loop {
                stage += 1;
                if stage >= speeds.len() {
                    return false;
                }
                cap = limit * speeds[stage];
                if w <= cap {
                    break;
                }
            }
            current = 0.0;
        }
        current += w;
    }
    true
}

/// Split `weights` into `speeds.len()` contiguous groups minimizing the
/// maximum *stage time* `sum(group) / speeds[s]`; returns per-group counts.
/// DeepSpeed's `partition_balanced` is the all-1.0-speeds case: `x / 1.0`
/// and `x * 1.0` are exact, so unit speeds reproduce its bisection and split
/// bit for bit.
pub fn partition_balanced(weights: &[f64], speeds: &[f64]) -> Vec<usize> {
    let parts = speeds.len();
    assert!(parts > 0, "need at least one part");
    assert!(
        speeds.iter().all(|&s| s > 0.0),
        "stage speeds must be positive"
    );
    if weights.is_empty() {
        return vec![0; parts];
    }
    let total: f64 = weights.iter().sum();
    let max_single = weights.iter().copied().fold(0.0, f64::max);
    let max_speed = speeds.iter().copied().fold(0.0, f64::max);
    let min_speed = speeds.iter().copied().fold(f64::INFINITY, f64::min);
    let sum_speeds: f64 = speeds.iter().sum();
    // Binary search on the bottleneck *time*.  `total / min_speed` (all
    // layers on the slowest stage) is always feasible; the biggest layer on
    // the fastest stage and the perfectly-spread time bound it below.
    let mut lo = (max_single / max_speed).max(total / sum_speeds);
    let mut hi = total / min_speed;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if feasible(weights, speeds, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let limit = hi * (1.0 + 1e-12);
    // Greedy assignment under the found bottleneck.  Trailing stages may
    // stay empty: they correspond to workers left idle, which re-packing
    // later releases.
    let mut counts = vec![0usize; parts];
    let mut stage = 0usize;
    let mut current = 0.0f64;
    for &w in weights {
        loop {
            let cap = limit * speeds[stage];
            let can_close = stage < parts - 1;
            if counts[stage] > 0 && current + w > cap && can_close {
                stage += 1;
                current = 0.0;
                continue;
            }
            if counts[stage] == 0
                && w > cap
                && can_close
                && speeds[stage + 1..].iter().any(|&s| w <= limit * s)
            {
                stage += 1;
                current = 0.0;
                continue;
            }
            counts[stage] += 1;
            current += w;
            break;
        }
    }
    counts
}

impl LoadBalancer for PartitionBalancer {
    fn name(&self) -> String {
        "partition".to_string()
    }

    fn rebalance(&self, request: &BalanceRequest<'_>) -> BalanceOutcome {
        let weights: Vec<f64> = (0..request.loads.len())
            .map(|l| request.weight(l))
            .collect();
        let mut counts = partition_balanced(&weights, &request.stage_speeds);

        // Memory feasibility pass: if the weight-balanced split blows a
        // worker's memory budget, fall back to partitioning by memory bytes
        // (feasibility dominates optimality, as in the paper's "subject to
        // the constraints of memory capacity per worker").  A layer's stage
        // — and with it the schedule's per-stage in-flight depth — is not
        // known until after the split, so each layer is priced at the
        // *worst-case* in-flight depth across stages, consistent with the
        // per-stage accounting `stage_memory` applies afterwards: a split
        // balanced under the worst case can only over-provision, never
        // overflow a deep stage the way pricing every layer at stage 0's
        // depth did (1F1B/ZB-H1 depths vary per stage, and after an elastic
        // re-scale stage 0 need not be the deepest).
        if !memory_ok(request, &counts) {
            let worst_inflight = request.inflight.iter().copied().max().unwrap_or(1) as u64;
            let mem_weights: Vec<f64> = (0..request.loads.len())
                .map(|l| {
                    (request.loads[l].static_bytes
                        + request.loads[l].activation_bytes * worst_inflight)
                        as f64
                })
                .collect();
            // Each stage gets a byte cap proportional to its capacity: the
            // capacities, normalised by the largest, act as the probe's
            // speeds (exactly 1.0 everywhere on a uniform cluster).
            let max_capacity = request.stage_capacities.iter().copied().max().unwrap_or(0) as f64;
            let capacity_speeds: Vec<f64> = request
                .stage_capacities
                .iter()
                .map(|&c| c as f64 / max_capacity)
                .collect();
            counts = partition_balanced(&mem_weights, &capacity_speeds);
        }

        BalanceOutcome {
            assignment: StageAssignment::from_counts(&counts),
            rounds: 1,
            bottleneck: stage_bottleneck(&weights, &request.stage_speeds, &counts),
        }
    }
}

/// Max per-stage *time* (`sum of weights / speed`) of a split.
fn stage_bottleneck(weights: &[f64], speeds: &[f64], counts: &[usize]) -> f64 {
    let mut best = 0.0f64;
    let mut idx = 0usize;
    for (stage, &c) in counts.iter().enumerate() {
        let sum: f64 = weights[idx..idx + c].iter().sum();
        best = best.max(sum / speeds[stage]);
        idx += c;
    }
    best
}

fn memory_ok(request: &BalanceRequest<'_>, counts: &[usize]) -> bool {
    let mut idx = 0usize;
    for (stage, &c) in counts.iter().enumerate() {
        let layers: Vec<usize> = (idx..idx + c).collect();
        if request.stage_memory(stage, &layers) > request.stage_capacities[stage] {
            return false;
        }
        idx += c;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::super::test_support::loads_from_times;
    use super::super::{stage_weights, BalanceObjective};
    use super::*;
    use crate::imbalance::load_imbalance;

    #[test]
    fn feasibility_probe_matches_hand_cases() {
        let w = [1.0, 2.0, 3.0, 4.0];
        assert!(feasible(&w, &[1.0; 2], 6.0));
        assert!(!feasible(&w, &[1.0; 2], 5.9));
        assert!(feasible(&w, &[1.0; 4], 4.0));
        assert!(!feasible(&w, &[1.0], 9.9));
        assert!(feasible(&w, &[1.0], 10.0));
    }

    #[test]
    fn partition_minimizes_the_bottleneck_on_uniform_weights() {
        let weights = vec![1.0; 24];
        let counts = partition_balanced(&weights, &[1.0; 4]);
        assert_eq!(counts, vec![6, 6, 6, 6]);
    }

    #[test]
    fn partition_handles_skewed_weights() {
        // One huge layer: it must sit alone on a stage.
        let mut weights = vec![1.0; 7];
        weights.push(10.0);
        let counts = partition_balanced(&weights, &[1.0; 3]);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        let bottleneck = stage_bottleneck(&weights, &[1.0; 3], &counts);
        assert_eq!(bottleneck, 10.0); // cannot do better than the single big layer
    }

    #[test]
    fn partition_with_more_parts_than_layers_pads_empty_stages() {
        let weights = vec![5.0, 5.0];
        let counts = partition_balanced(&weights, &[1.0; 4]);
        assert_eq!(counts.iter().sum::<usize>(), 2);
        assert_eq!(counts.len(), 4);
        assert_eq!(stage_bottleneck(&weights, &[1.0; 4], &counts), 5.0);
    }

    #[test]
    fn partition_of_empty_weights_is_all_empty() {
        assert_eq!(partition_balanced(&[], &[1.0; 3]), vec![0, 0, 0]);
    }

    #[test]
    fn rebalance_reduces_imbalance_versus_uniform_split() {
        // Strongly decaying layer times (an early-exit-like profile).
        let times: Vec<f64> = (0..24).map(|i| 1.0 / (1.0 + i as f64 * 0.2)).collect();
        let loads = loads_from_times(&times);
        let request = BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime);
        let outcome = PartitionBalancer::new().rebalance(&request);
        assert!(outcome.assignment.is_contiguous());
        assert_eq!(outcome.assignment.num_layers(), 24);
        assert_eq!(outcome.rounds, 1);

        let uniform = dynmo_pipeline::StageAssignment::uniform(24, 4);
        let uniform_imb =
            load_imbalance(&stage_weights(&uniform, &loads, BalanceObjective::ByTime));
        let balanced_imb = load_imbalance(&stage_weights(
            &outcome.assignment,
            &loads,
            BalanceObjective::ByTime,
        ));
        assert!(
            balanced_imb < uniform_imb * 0.5,
            "balanced {balanced_imb} vs uniform {uniform_imb}"
        );
    }

    #[test]
    fn by_param_and_by_time_objectives_can_differ() {
        // Times skewed toward late layers, params uniform.
        let mut loads = loads_from_times(&[1.0; 12]);
        for (i, load) in loads.iter_mut().enumerate() {
            load.fwd_time = (i as f64 + 1.0) / 3.0;
            load.bwd_time = 2.0 * (i as f64 + 1.0) / 3.0;
            load.param_count = 1_000_000;
        }
        let by_time = PartitionBalancer::new().rebalance(&BalanceRequest::new(
            &loads,
            3,
            u64::MAX,
            BalanceObjective::ByTime,
        ));
        let by_param = PartitionBalancer::new().rebalance(&BalanceRequest::new(
            &loads,
            3,
            u64::MAX,
            BalanceObjective::ByParams,
        ));
        // By-param sees uniform weights → even 4/4/4 split.
        assert_eq!(by_param.assignment.counts(), vec![4, 4, 4]);
        // By-time puts fewer (heavy) layers on later stages.
        let counts = by_time.assignment.counts();
        assert!(counts[0] > counts[2], "counts {counts:?}");
    }

    #[test]
    fn memory_constraint_falls_back_to_memory_partitioning() {
        // Layer times are extremely skewed toward the first layer, but the
        // memory budget cannot hold more than 3 layers per stage.
        let mut loads = loads_from_times(&[1.0; 8]);
        for (i, load) in loads.iter_mut().enumerate() {
            load.fwd_time = if i == 0 { 100.0 } else { 0.001 };
            load.bwd_time = 0.0;
            load.static_bytes = 1_000;
            load.activation_bytes = 0;
        }
        // By time, the optimizer would put layers 1..7 all on stage 1 (7
        // layers × 1000 bytes = 7000 > 3500 capacity).
        let request = BalanceRequest::new(&loads, 2, 3_500, BalanceObjective::ByTime)
            .with_inflight(vec![0, 0]);
        let outcome = PartitionBalancer::new().rebalance(&request);
        let counts = outcome.assignment.counts();
        // The memory fallback gives a 4/4 split that fits.
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts.iter().all(|&c| c <= 4), "counts {counts:?}");
    }

    #[test]
    fn memory_fallback_prices_layers_at_the_worst_case_inflight_depth() {
        // Regression: the fallback used to weight every layer with stage
        // 0's in-flight count (`request.inflight.first()`).  In-flight
        // depth varies per stage (1F1B/ZB-H1 taper it; after an elastic
        // re-scale the deep stage need not be stage 0), so pricing
        // activation-heavy layers at a shallow stage's depth packs them
        // onto a deep stage and overflows it.
        //
        // Layers 0..3 are static-heavy (4000 B, no activations); layers
        // 4..7 are activation-heavy (1000 B per in-flight micro-batch).
        // Stage 1 holds 4 in-flight micro-batches, stage 0 only 1.
        let mut loads = loads_from_times(&[1.0; 8]);
        for (i, load) in loads.iter_mut().enumerate() {
            load.fwd_time = if i == 7 { 10.0 } else { 1.0 };
            load.bwd_time = 0.0;
            if i < 4 {
                load.static_bytes = 4_000;
                load.activation_bytes = 0;
            } else {
                load.static_bytes = 0;
                load.activation_bytes = 1_000;
            }
        }
        let capacity = 17_000;
        let request = BalanceRequest::new(&loads, 2, capacity, BalanceObjective::ByTime)
            .with_inflight(vec![1, 4]);

        // The by-time split ([7, 1]) blows stage 0's budget, so the memory
        // fallback must engage.
        let time_weights: Vec<f64> = (0..8).map(|l| request.weight(l)).collect();
        assert_eq!(partition_balanced(&time_weights, &[1.0; 2]), vec![7, 1]);
        assert!(!memory_ok(&request, &[7, 1]));

        // Old behaviour, reproduced inline: weighting by stage 0's
        // in-flight depth (1) splits [3, 5] and overflows the *late* deep
        // stage — 4000 B static + 4 × 4 × 1000 B activations = 20 kB > 17 kB.
        let stage0_inflight = *request.inflight.first().unwrap() as u64;
        let old_weights: Vec<f64> = loads
            .iter()
            .map(|l| (l.static_bytes + l.activation_bytes * stage0_inflight) as f64)
            .collect();
        let old_counts = partition_balanced(&old_weights, &[1.0; 2]);
        assert_eq!(old_counts, vec![3, 5]);
        assert!(
            !memory_ok(&request, &old_counts),
            "the old weighting must overflow the deep late stage for this regression test"
        );

        // The fixed fallback prices every layer at the worst-case depth,
        // splits [4, 4], and both stages fit.
        let outcome = PartitionBalancer::new().rebalance(&request);
        assert_eq!(outcome.assignment.counts(), vec![4, 4]);
        assert!(memory_ok(&request, &outcome.assignment.counts()));
    }

    #[test]
    fn balancer_name_is_stable() {
        assert_eq!(PartitionBalancer::new().name(), "partition");
    }

    #[test]
    fn weighted_partition_gives_fast_stages_more_layers() {
        let weights = vec![1.0; 24];
        // Stage 0 is 3× faster than stage 2.
        let speeds = vec![3.0, 2.0, 1.0];
        let counts = partition_balanced(&weights, &speeds);
        assert_eq!(counts.iter().sum::<usize>(), 24);
        assert!(counts[0] > counts[2], "counts {counts:?}");
        // The weighted bottleneck beats the speed-blind even split's time on
        // the slow stage (8 layers / speed 1.0 = 8.0).
        let t = stage_bottleneck(&weights, &speeds, &counts);
        assert!(t < 8.0, "bottleneck {t}");
    }

    #[test]
    fn weighted_probe_can_leave_a_slow_stage_empty() {
        // One layer that only fits the fast stage: the probe must skip the
        // slow stage rather than fail.
        let weights = vec![10.0];
        let speeds = vec![0.1, 1.0];
        assert!(feasible(&weights, &speeds, 10.0));
        assert!(!feasible(&weights, &speeds, 9.0));
        let counts = partition_balanced(&weights, &speeds);
        assert_eq!(counts, vec![0, 1]);
    }

    #[test]
    fn hetero_request_routes_through_the_weighted_partition() {
        let loads = loads_from_times(&[1.0; 12]);
        let slow_last = BalanceRequest::new(&loads, 3, u64::MAX, BalanceObjective::ByTime)
            .with_stage_speeds(vec![1.0, 1.0, 0.25]);
        let outcome = PartitionBalancer::new().rebalance(&slow_last);
        let counts = outcome.assignment.counts();
        assert_eq!(counts.iter().sum::<usize>(), 12);
        assert!(counts[2] < counts[0], "counts {counts:?}");
    }

    #[test]
    fn per_stage_capacities_bound_the_memory_fallback() {
        // All layers identical; stage 1's memory is a quarter of stage 0's,
        // so the fallback must shift layers onto stage 0.
        let mut loads = loads_from_times(&[1.0; 8]);
        for load in loads.iter_mut() {
            load.static_bytes = 1_000;
            load.activation_bytes = 0;
        }
        let request = BalanceRequest::new(&loads, 2, 8_000, BalanceObjective::ByTime)
            .with_inflight(vec![0, 0])
            .with_stage_capacities(vec![8_000, 2_000]);
        let outcome = PartitionBalancer::new().rebalance(&request);
        let counts = outcome.assignment.counts();
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts[1] <= 2, "counts {counts:?}");
        assert!(memory_ok(&request, &counts));
    }
}
