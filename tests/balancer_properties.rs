//! Property-based tests (proptest) for DynMo's core invariants:
//! the partition and diffusion balancers, the re-packing pass, and the
//! sparse-tensor primitives used by global pruning.
//!
//! The balancers have one code path each, with per-stage speeds and
//! capacities as plain data.  The homogeneous arithmetic they replaced
//! lives on here as oracles: [`oracle_partition`] (DeepSpeed's speed-free
//! `partition_balanced`) and [`oracle_diffusion`] (the diffusion loop with a
//! full O(p²) potential recompute per candidate move).  On a uniform
//! request both balancers must match them bit for bit.

use dynmo::core::balancer::diffusion::potential;
use dynmo::core::balancer::partition::partition_balanced;
use dynmo::core::balancer::{
    stage_weights, BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer,
    PartitionBalancer,
};
use dynmo::core::load_imbalance;
use dynmo::core::repack::{plan_repack, RepackConfig};
use dynmo::model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo::pipeline::{
    CommCostModel, LayerLoad, PipelineSimulator, ScheduleKind, StageAssignment, StageLoad,
};
use dynmo::sparse::{prune_to_sparsity, spmm, CsrMatrix, DenseMatrix};
use proptest::prelude::*;

fn loads_from_times(times: &[f64]) -> Vec<LayerLoad> {
    times
        .iter()
        .enumerate()
        .map(|(id, &t)| LayerLoad {
            layer_id: id,
            fwd_time: t / 3.0,
            bwd_time: 2.0 * t / 3.0,
            param_count: (t * 1.0e6) as u64 + 1,
            static_bytes: ((t * 1.0e6) as u64 + 1) * 16,
            activation_bytes: 1_000,
            migration_bytes: ((t * 1.0e6) as u64 + 1) * 16,
        })
        .collect()
}

/// Homogeneous greedy probe: can `weights` be split into at most `parts`
/// contiguous groups each of sum ≤ `limit`?
fn oracle_feasible(weights: &[f64], parts: usize, limit: f64) -> bool {
    let mut used = 1usize;
    let mut current = 0.0f64;
    for &w in weights {
        if w > limit {
            return false;
        }
        if current + w > limit {
            used += 1;
            current = w;
            if used > parts {
                return false;
            }
        } else {
            current += w;
        }
    }
    true
}

/// The homogeneous `partition_balanced`: split `weights` into exactly
/// `parts` contiguous groups minimizing the maximum group sum (bisection on
/// the bottleneck plus a greedy walk); returns per-group counts.
fn oracle_partition(weights: &[f64], parts: usize) -> Vec<usize> {
    if weights.is_empty() {
        return vec![0; parts];
    }
    let total: f64 = weights.iter().sum();
    let max_single = weights.iter().copied().fold(0.0, f64::max);
    let mut lo = max_single.max(total / parts as f64);
    let mut hi = total;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if oracle_feasible(weights, parts, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let limit = hi * (1.0 + 1e-12);
    let mut counts = Vec::with_capacity(parts);
    let mut current = 0.0f64;
    let mut count = 0usize;
    for &w in weights {
        if count > 0 && current + w > limit && counts.len() < parts - 1 {
            counts.push(count);
            count = 0;
            current = 0.0;
        }
        count += 1;
        current += w;
    }
    counts.push(count);
    counts.resize(parts, 0);
    counts
}

/// Max per-group sum of a split.
fn oracle_bottleneck(weights: &[f64], counts: &[usize]) -> f64 {
    let mut best = 0.0f64;
    let mut idx = 0usize;
    for &c in counts {
        best = best.max(weights[idx..idx + c].iter().sum());
        idx += c;
    }
    best
}

/// The homogeneous diffusion balancer on a request without memory limits:
/// raw stage weights as loads, `(w, w)` moves, and φ recomputed in full for
/// every candidate.  Returns (assignment, rounds, bottleneck).
fn oracle_diffusion(request: &BalanceRequest<'_>) -> (StageAssignment, u64, f64) {
    let balancer = DiffusionBalancer::new();
    let num_layers = request.loads.len();
    let mut assignment = match request.current {
        Some(current)
            if current.num_stages() == request.num_stages && current.num_layers() == num_layers =>
        {
            current.clone()
        }
        _ => StageAssignment::uniform(num_layers, request.num_stages),
    };
    let weights: Vec<f64> = (0..num_layers).map(|l| request.weight(l)).collect();
    let total: f64 = weights.iter().sum();
    let gamma = balancer.gamma_fraction * total;
    let mut loads = stage_weights(&assignment, request.loads, request.objective);
    let mut phi = potential(&loads);
    let mut rounds = 0u64;
    let evaluate =
        |assignment: &StageAssignment, loads: &[f64], phi: f64, from: usize, to: usize| {
            let layers = assignment.layers_of(from);
            let layer = if to < from {
                *layers.first()?
            } else {
                *layers.last()?
            };
            let w = weights[layer];
            let mut new_loads = loads.to_vec();
            new_loads[from] -= w;
            new_loads[to] += w;
            let new_phi = potential(&new_loads);
            (new_phi < phi - 1e-15).then_some((layer, new_phi, w))
        };
    let ordered = |loads: &[f64], s: usize| {
        if loads[s] >= loads[s + 1] {
            (s, s + 1)
        } else {
            (s + 1, s)
        }
    };
    while rounds < balancer.max_rounds && phi > gamma {
        rounds += 1;
        let mut best: Option<(usize, f64)> = None;
        for s in 0..request.num_stages.saturating_sub(1) {
            let gap = (loads[s] - loads[s + 1]).abs();
            if best.is_none_or(|(_, g)| gap > g) {
                best = Some((s, gap));
            }
        }
        let Some((left, _)) = best else {
            break;
        };
        let (from, to) = ordered(&loads, left);
        let mut committed = evaluate(&assignment, &loads, phi, from, to).map(|m| (m, from, to));
        if committed.is_none() {
            for s in 0..request.num_stages.saturating_sub(1) {
                let (from, to) = ordered(&loads, s);
                if let Some(m) = evaluate(&assignment, &loads, phi, from, to) {
                    committed = Some((m, from, to));
                    break;
                }
            }
        }
        let Some(((layer, new_phi, w), from, to)) = committed else {
            break;
        };
        assignment.move_layer(layer, to).expect("valid move");
        loads[from] -= w;
        loads[to] += w;
        phi = new_phi;
    }
    let bottleneck = loads.iter().copied().fold(0.0, f64::max);
    (assignment, rounds, bottleneck)
}

fn arbitrary_times() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..5.0, 4..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The partition balancer covers every layer exactly once, keeps the
    /// assignment contiguous, and never does worse than the uniform split.
    #[test]
    fn partition_balancer_invariants(times in arbitrary_times(), stages in 2usize..12) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime);
        let outcome = PartitionBalancer::new().rebalance(&request);

        prop_assert_eq!(outcome.assignment.num_layers(), loads.len());
        prop_assert!(outcome.assignment.is_contiguous());
        prop_assert_eq!(outcome.assignment.num_stages(), stages);
        // Every layer appears exactly once (counts sum to the layer count).
        prop_assert_eq!(outcome.assignment.counts().iter().sum::<usize>(), loads.len());

        // Bottleneck is never worse than the uniform split's bottleneck.
        let uniform = StageAssignment::uniform(loads.len(), stages);
        let uniform_bottleneck = stage_weights(&uniform, &loads, BalanceObjective::ByTime)
            .into_iter()
            .fold(0.0f64, f64::max);
        prop_assert!(outcome.bottleneck <= uniform_bottleneck + 1e-9);

        // Bottleneck can never go below the theoretical lower bound
        // max(total/stages, heaviest layer).
        let total: f64 = times.iter().sum();
        let heaviest = times.iter().copied().fold(0.0f64, f64::max);
        let lower = (total / stages as f64).max(heaviest);
        prop_assert!(outcome.bottleneck >= lower - 1e-9);
    }

    /// The diffusion balancer improves (or preserves) the imbalance of its
    /// starting assignment, preserves every layer, stays contiguous, and
    /// finishes within the Lemma 2 round bound.
    #[test]
    fn diffusion_balancer_invariants(times in arbitrary_times(), stages in 2usize..10) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
            .with_current(&current);
        let balancer = DiffusionBalancer::new();
        let outcome = balancer.rebalance(&request);

        prop_assert_eq!(outcome.assignment.num_layers(), loads.len());
        prop_assert!(outcome.assignment.is_contiguous());
        prop_assert_eq!(outcome.assignment.counts().iter().sum::<usize>(), loads.len());

        let before = load_imbalance(&stage_weights(&current, &loads, BalanceObjective::ByTime));
        let after = load_imbalance(&stage_weights(
            &outcome.assignment,
            &loads,
            BalanceObjective::ByTime,
        ));
        prop_assert!(after <= before + 1e-9, "imbalance got worse: {} -> {}", before, after);

        let total: f64 = times.iter().sum();
        let bound = balancer.lemma2_round_bound(stages, total);
        prop_assert!((outcome.rounds as f64) <= bound);
    }

    /// Re-packing never loses a layer, never violates the memory budget on
    /// the destination workers, and never increases the active worker count.
    #[test]
    fn repack_invariants(
        times in arbitrary_times(),
        stages in 2usize..10,
        budget_scale in 1.0f64..6.0,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let assignment = StageAssignment::uniform(loads.len(), stages);
        let inflight = vec![2usize; stages];
        // Budget between one stage's worth and several stages' worth.
        let per_stage: u64 = loads.iter().map(|l| l.static_bytes + 2 * l.activation_bytes).sum::<u64>()
            / stages as u64;
        let config = RepackConfig {
            max_memory: ((per_stage as f64) * budget_scale) as u64 + 1,
            target_num_workers: 1,
            utilization_cap: 1.0,
        };
        let plan = plan_repack(&assignment, &loads, &inflight, &config);

        // No layer lost or duplicated, and every layer maps to a real stage.
        prop_assert_eq!(plan.new_assignment.num_layers(), loads.len());
        for layer in 0..loads.len() {
            prop_assert!(plan.new_assignment.stage_of(layer) < stages);
        }

        // Re-packing never pushes a worker over the budget *by merging*: a
        // worker may only exceed the budget if its original (pre-repack)
        // load already did, since Algorithm 2 never splits a worker's load.
        let memory_before: Vec<u64> = (0..stages)
            .map(|s| {
                assignment
                    .layers_of(s)
                    .iter()
                    .map(|&l| loads[l].static_bytes + loads[l].activation_bytes * 2)
                    .sum()
            })
            .collect();
        for (stage, &bytes) in plan.memory_after.iter().enumerate() {
            prop_assert!(
                bytes <= config.max_memory.max(memory_before[stage]),
                "stage {} holds {} bytes over budget {} (was {} before)",
                stage, bytes, config.max_memory, memory_before[stage]
            );
        }

        // Active workers never increase, and released + active partitions
        // the original actives.
        prop_assert!(plan.active_workers.len() <= stages);
        for worker in &plan.released_workers {
            prop_assert!(!plan.active_workers.contains(worker));
        }
    }

    /// CSR round-trips and SpMM agrees with the dense reference.
    #[test]
    fn csr_spmm_matches_dense(
        rows in 1usize..12,
        inner in 1usize..12,
        cols in 1usize..8,
        values in prop::collection::vec(-2.0f32..2.0, 1..144),
        mask in prop::collection::vec(0u8..4, 1..144),
    ) {
        let a_data: Vec<f32> = (0..rows * inner)
            .map(|i| {
                let v = values[i % values.len()];
                if mask[i % mask.len()] == 0 { 0.0 } else { v }
            })
            .collect();
        let b_data: Vec<f32> = (0..inner * cols)
            .map(|i| values[(i * 7 + 3) % values.len()])
            .collect();
        let a = DenseMatrix::from_vec(rows, inner, a_data);
        let b = DenseMatrix::from_vec(inner, cols, b_data);
        let csr = CsrMatrix::from_dense(&a);
        // Round trip.
        prop_assert_eq!(csr.to_dense(), a.clone());
        // SpMM vs dense GEMM.
        let sparse_result = spmm(&csr, &b);
        let dense_result = a.matmul(&b);
        prop_assert!(sparse_result.max_abs_diff(&dense_result) < 1e-3);
    }

    /// Global magnitude pruning hits its sparsity target (within rounding)
    /// and only ever zeroes the smallest-magnitude entries.
    #[test]
    fn pruning_hits_target_and_keeps_largest(
        values in prop::collection::vec(-5.0f32..5.0, 8..256),
        sparsity in 0.0f64..1.0,
    ) {
        let mut pruned = values.clone();
        let achieved = prune_to_sparsity(&mut pruned, sparsity);
        let expected_zeros = (sparsity * values.len() as f64).round() as usize;
        let zeros = pruned.iter().filter(|v| **v == 0.0).count();
        let original_zeros = values.iter().filter(|v| **v == 0.0).count();
        // Achieved zero count is within 1 of the target (ties / existing
        // zeros can push it slightly over).
        prop_assert!(zeros + 1 >= expected_zeros.max(original_zeros));
        prop_assert!((achieved - zeros as f64 / values.len() as f64).abs() < 1e-9);
        // Every surviving value has magnitude >= every pruned (non-zero
        // originally) value's magnitude... checked via threshold ordering.
        let kept_min = pruned
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| v.abs())
            .fold(f32::INFINITY, f32::min);
        for (original, now) in values.iter().zip(pruned.iter()) {
            if *now == 0.0 && *original != 0.0 {
                prop_assert!(original.abs() <= kept_min + 1e-6);
            }
        }
    }

    /// Partition conservation: whatever the objective, the per-stage layer
    /// counts always sum to the model size and the assignment stays
    /// contiguous.  Empty stages are allowed by design (idle workers that
    /// re-packing later releases) but only ever as a trailing suffix.
    #[test]
    fn partition_conserves_layers_across_objectives(
        times in arbitrary_times(),
        stages in 2usize..12,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        for objective in [BalanceObjective::ByTime, BalanceObjective::ByParams] {
            let request = BalanceRequest::new(&loads, stages, u64::MAX, objective);
            let outcome = PartitionBalancer::new().rebalance(&request);
            let counts = outcome.assignment.counts();
            prop_assert_eq!(counts.iter().sum::<usize>(), loads.len());
            prop_assert!(outcome.assignment.is_contiguous());
            let first_empty = counts.iter().position(|&c| c == 0).unwrap_or(counts.len());
            prop_assert!(
                counts[first_empty..].iter().all(|&c| c == 0),
                "non-trailing empty stage in {:?}", counts
            );
        }
    }

    /// Rebalancing moves work around but never creates or destroys it: the
    /// stage weights of any balanced assignment sum to the per-layer total.
    #[test]
    fn balancers_conserve_total_stage_weight(
        times in arbitrary_times(),
        stages in 2usize..12,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
            .with_current(&current);
        let expected: f64 = times.iter().sum();
        for outcome in [
            PartitionBalancer::new().rebalance(&request),
            DiffusionBalancer::new().rebalance(&request),
        ] {
            let total: f64 = stage_weights(&outcome.assignment, &loads, BalanceObjective::ByTime)
                .iter()
                .sum();
            prop_assert!(
                (total - expected).abs() <= 1e-6 * expected.max(1.0),
                "stage weights sum to {} but layers sum to {}", total, expected
            );
        }
    }

    /// Applying the diffusion balancer repeatedly is monotone: each round
    /// starts from the previous assignment and the imbalance never
    /// increases from one application to the next.
    #[test]
    fn diffusion_is_monotone_over_repeated_applications(
        times in arbitrary_times(),
        stages in 2usize..10,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let balancer = DiffusionBalancer::new();
        let mut assignment = StageAssignment::uniform(loads.len(), stages);
        let mut last = load_imbalance(&stage_weights(&assignment, &loads, BalanceObjective::ByTime));
        for round in 0..4 {
            let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
                .with_current(&assignment);
            let outcome = balancer.rebalance(&request);
            let now = load_imbalance(&stage_weights(
                &outcome.assignment,
                &loads,
                BalanceObjective::ByTime,
            ));
            prop_assert!(
                now <= last + 1e-9,
                "imbalance increased on application {}: {} -> {}", round, last, now
            );
            last = now;
            assignment = outcome.assignment;
        }
    }

    /// The O(p) incremental potential update is bit-equal to the O(p²)
    /// full recompute whenever the loads are exactly representable
    /// (integer-valued f64s keep every sum and difference exact), for any
    /// move of any weight between any two stages.
    #[test]
    fn incremental_potential_is_bit_equal_to_full_recompute(
        loads in prop::collection::vec(0u32..10_000, 2..64),
        from_index in 0usize..64,
        to_index in 0usize..64,
        weight in 0u32..5_000,
    ) {
        let loads: Vec<f64> = loads.into_iter().map(f64::from).collect();
        let from = from_index % loads.len();
        // The shim has no prop_assume: fold the degenerate from == to case
        // into a neighbouring pair instead of skipping it.
        let to = if to_index % loads.len() == from {
            (from + 1) % loads.len()
        } else {
            to_index % loads.len()
        };
        let phi = dynmo::core::balancer::diffusion::potential(&loads);
        let w = f64::from(weight);
        let incremental = dynmo::core::balancer::diffusion::potential_after_asymmetric_move(
            &loads, phi, from, to, w, w,
        );
        let mut moved = loads.clone();
        moved[from] -= w;
        moved[to] += w;
        let full = dynmo::core::balancer::diffusion::potential(&moved);
        prop_assert_eq!(
            incremental.to_bits(),
            full.to_bits(),
            "incremental {} vs full {}",
            incremental,
            full
        );
    }

    /// An explicit cluster of all-equal `DeviceSpec`s simulates the same
    /// makespan bit-for-bit as the implicit uniform cluster under all four
    /// pipeline schedules, for the assignments both balancers produce.
    /// (That a uniform request balances exactly like the speed-free
    /// arithmetic is pinned by the oracle properties below.)
    #[test]
    fn equal_device_hetero_path_matches_homogeneous_bit_for_bit(
        times in arbitrary_times(),
        stages in 2usize..8,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
            .with_current(&current);

        let homogeneous_cluster =
            ClusterConfig::homogeneous(2, stages, 1, DeviceSpec::h100_sxm5());
        let explicit_cluster = homogeneous_cluster
            .clone()
            .with_devices(vec![DeviceSpec::h100_sxm5(); stages]);

        for outcome in [
            PartitionBalancer::new().rebalance(&request),
            DiffusionBalancer::new().rebalance(&request),
        ] {
            // Same assignment simulated on the homogeneous cluster and on
            // the explicit equal-device cluster: identical makespans under
            // every schedule.
            let mut stage_loads = vec![StageLoad::default(); stages];
            for (layer, &stage) in outcome.assignment.layer_to_stage().iter().enumerate() {
                stage_loads[stage].add_layer(&loads[layer]);
            }
            let model = ModelConfig::gpt(loads.len());
            for schedule in [
                ScheduleKind::GPipe,
                ScheduleKind::OneFOneB,
                ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
                ScheduleKind::ZeroBubbleH1,
            ] {
                let on_homogeneous = PipelineSimulator::new(
                    CommCostModel::new(homogeneous_cluster.clone()),
                    schedule,
                )
                .simulate(&model, &stage_loads, 2 * stages);
                let on_explicit = PipelineSimulator::new(
                    CommCostModel::new(explicit_cluster.clone()),
                    schedule,
                )
                .simulate(&model, &stage_loads, 2 * stages);
                prop_assert_eq!(
                    on_homogeneous.makespan.to_bits(),
                    on_explicit.makespan.to_bits(),
                    "schedule {:?}: homogeneous {} vs explicit equal-device {}",
                    schedule,
                    on_homogeneous.makespan,
                    on_explicit.makespan
                );
            }
        }
    }

    /// The diffusion balancer on a uniform request commits exactly the
    /// moves of the homogeneous full-recompute oracle: identical
    /// assignments, round counts, and bottleneck bits on arbitrary
    /// workloads.
    #[test]
    fn diffusion_incremental_path_matches_full_path(
        times in arbitrary_times(),
        stages in 2usize..12,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
            .with_current(&current);
        let outcome = DiffusionBalancer::new().rebalance(&request);
        let (assignment, rounds, bottleneck) = oracle_diffusion(&request);
        prop_assert_eq!(outcome.assignment, assignment);
        prop_assert_eq!(outcome.rounds, rounds);
        prop_assert_eq!(outcome.bottleneck.to_bits(), bottleneck.to_bits());
    }

    /// The partition balancer on a uniform request equals the homogeneous
    /// `partition_balanced` oracle in assignment and bottleneck bits, under
    /// both objectives, including more stages than layers; so does the bare
    /// `partition_balanced` with unit speeds.
    #[test]
    fn partition_matches_the_homogeneous_oracle(
        times in arbitrary_times(),
        stages in 1usize..80,
        zeroed in prop::collection::vec(0usize..64, 0..4),
    ) {
        let mut loads = loads_from_times(&times);
        // Zero-weight layers (fully pruned or released) are legal input.
        for &z in &zeroed {
            let layer = z % loads.len();
            loads[layer].fwd_time = 0.0;
            loads[layer].bwd_time = 0.0;
        }
        for objective in [BalanceObjective::ByTime, BalanceObjective::ByParams] {
            let request = BalanceRequest::new(&loads, stages, u64::MAX, objective);
            let weights: Vec<f64> = (0..loads.len()).map(|l| request.weight(l)).collect();
            let expected = oracle_partition(&weights, stages);
            prop_assert_eq!(&partition_balanced(&weights, &vec![1.0; stages]), &expected);
            let outcome = PartitionBalancer::new().rebalance(&request);
            prop_assert_eq!(outcome.assignment.counts(), expected.clone());
            prop_assert_eq!(
                outcome.bottleneck.to_bits(),
                oracle_bottleneck(&weights, &expected).to_bits()
            );
        }
        prop_assert_eq!(oracle_partition(&[], stages), vec![0; stages]);
        prop_assert_eq!(partition_balanced(&[], &vec![1.0; stages]), vec![0; stages]);
    }

    /// When the weight-balanced split does not fit in memory, the partition
    /// balancer re-splits by bytes.  With equal capacities that is the
    /// homogeneous oracle over the memory weights; with mixed capacities it
    /// is the same split as passing the raw byte capacities as speeds.
    #[test]
    fn memory_fallback_matches_the_oracle_and_raw_capacity_split(
        times in arbitrary_times(),
        stages in 2usize..12,
        generations in prop::collection::vec(0usize..5, 12..13),
        inflight in 1usize..5,
        slack in 0.8f64..1.3,
    ) {
        const GIB: u64 = 1 << 30;
        let sizes = [80 * GIB, 40 * GIB, 32 * GIB, 24 * GIB, 20 * GIB];
        let stages = stages.min(times.len());
        let total_time: f64 = times.iter().sum();
        for capacities in [
            vec![sizes[generations[0]]; stages],
            (0..stages).map(|s| sizes[generations[s]]).collect::<Vec<u64>>(),
        ] {
            // Layer bytes proportional to layer time, summing to `slack`
            // times the cluster's memory, so the by-time split often
            // overflows some stage and the fallback engages.
            let budget = capacities.iter().sum::<u64>() as f64 * slack;
            let loads: Vec<LayerLoad> = loads_from_times(&times)
                .into_iter()
                .zip(&times)
                .map(|(mut l, &t)| {
                    l.static_bytes = (t / total_time * budget) as u64;
                    l.activation_bytes = 1 << 20;
                    l
                })
                .collect();
            let mem_bytes: Vec<u64> = loads
                .iter()
                .map(|l| l.static_bytes + l.activation_bytes * inflight as u64)
                .collect();
            let mem_weights: Vec<f64> = mem_bytes.iter().map(|&b| b as f64).collect();
            let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
                .with_inflight(vec![inflight; stages])
                .with_stage_capacities(capacities.clone());
            let time_weights: Vec<f64> = (0..loads.len()).map(|l| request.weight(l)).collect();
            let by_time = partition_balanced(&time_weights, &vec![1.0; stages]);
            let mut first = 0usize;
            let fits = by_time.iter().zip(&capacities).all(|(&count, &capacity)| {
                let bytes: u64 = mem_bytes[first..first + count].iter().sum();
                first += count;
                bytes <= capacity
            });
            let expected = if fits {
                by_time
            } else if capacities.iter().all(|&c| c == capacities[0]) {
                oracle_partition(&mem_weights, stages)
            } else {
                let raw: Vec<f64> = capacities.iter().map(|&c| c as f64).collect();
                partition_balanced(&mem_weights, &raw)
            };
            let outcome = PartitionBalancer::new().rebalance(&request);
            prop_assert_eq!(outcome.assignment.counts(), expected);
        }
    }
}
