//! The rebalance controller: when to rebalance, and what one rebalance
//! event does (paper §3.1 steps 3–5 and §3.3.1).
//!
//! DynMo rebalances "at regular fixed intervals, without any knowledge of
//! whether the model has changed" — the controller therefore only looks at
//! the iteration counter (via [`RebalancePolicy`]) and, when due, runs:
//! profile → balance → (optionally re-pack) → migrate, returning the new
//! assignment together with the time spent in each phase so the trainer can
//! charge the overhead the way the paper's Figure 4 does.

use dynmo_dynamics::RebalanceFrequency;
use dynmo_pipeline::{CommCostModel, LayerLoad, StageAssignment};
use dynmo_telemetry::Stopwatch;
use serde::{Deserialize, Serialize};

use crate::balancer::{BalanceObjective, BalanceRequest, LoadBalancer};
use crate::migration::MigrationPlan;
use crate::repack::{plan_repack, RepackConfig};

/// Fraction of the layer-migration time that is *exposed* (not hidden behind
/// the backward pass).  The paper couples layer migration with the pipeline's
/// backward-pass communication (§3.3.1, §4.2.1), so most of the transfer is
/// overlapped; the remainder is charged as overhead.
pub const MIGRATION_EXPOSED_FRACTION: f64 = 0.3;

/// When and how the controller intervenes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalancePolicy {
    /// Whether dynamic rebalancing is enabled at all (disabled = static
    /// baseline behaviour).
    pub enabled: bool,
    /// Rebalancing cadence.  `None` defers to the dynamism engine's own
    /// recommended frequency.
    pub frequency: Option<RebalanceFrequency>,
    /// Re-packing configuration; `None` disables consolidation.
    pub repack: Option<RepackConfig>,
}

impl RebalancePolicy {
    /// Dynamic rebalancing at the engine-recommended cadence, no re-packing.
    pub fn dynamic() -> Self {
        RebalancePolicy {
            enabled: true,
            frequency: None,
            repack: None,
        }
    }

    /// Dynamic rebalancing with re-packing enabled under the given config.
    pub fn dynamic_with_repack(repack: RepackConfig) -> Self {
        RebalancePolicy {
            enabled: true,
            frequency: None,
            repack: Some(repack),
        }
    }

    /// A static policy: never rebalance after the initial split.
    pub fn disabled() -> Self {
        RebalancePolicy {
            enabled: false,
            frequency: None,
            repack: None,
        }
    }
}

/// The result of one rebalance event.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The new layer→stage assignment (over `active_workers` stages).
    pub assignment: StageAssignment,
    /// Number of workers that remain active after the event.
    pub active_workers: usize,
    /// Workers released by re-packing during this event (empty without
    /// re-packing).
    pub released_workers: Vec<usize>,
    /// The migration plan from the previous assignment.
    pub migration: MigrationPlan,
    /// Wall-clock seconds the balancing algorithm itself took (measured).
    pub algorithm_time: f64,
    /// Wall-clock seconds spent planning the layer migration (measured;
    /// feeds `OverheadBreakdown.measured`, never simulated results).
    pub planning_time: f64,
    /// Simulated migration time (from the communication model).
    pub migration_time: f64,
    /// Rounds used by the balancer (diffusion) or 1 (partition).
    pub rounds: u64,
}

/// Drives rebalancing and re-packing decisions for the trainer.
pub struct RebalanceController {
    balancer: Box<dyn LoadBalancer + Send>,
    objective: BalanceObjective,
    policy: RebalancePolicy,
}

impl RebalanceController {
    /// Create a controller around a balancer implementation.
    pub fn new(
        balancer: Box<dyn LoadBalancer + Send>,
        objective: BalanceObjective,
        policy: RebalancePolicy,
    ) -> Self {
        RebalanceController {
            balancer,
            objective,
            policy,
        }
    }

    /// The controller's policy.
    pub fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }

    /// The balancer's display name, e.g. `diffusion/by-time`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.balancer.name(), self.objective.label())
    }

    /// Whether a rebalance is due at `iteration`, given the engine's
    /// recommended cadence.
    pub fn is_due(&self, iteration: u64, engine_frequency: RebalanceFrequency) -> bool {
        if !self.policy.enabled || iteration == 0 {
            return false;
        }
        self.policy
            .frequency
            .unwrap_or(engine_frequency)
            .is_due(iteration)
    }

    /// Execute one rebalance event.
    ///
    /// * `current` — the assignment in effect (over the currently active
    ///   workers).
    /// * `loads` — the freshly profiled per-layer loads.
    /// * `inflight` — in-flight micro-batches per active stage.
    /// * `comm` — communication model for migration cost.
    /// * `min_workers` — never consolidate below this many workers.
    /// * `num_microbatches` — micro-batches per iteration, used to weigh the
    ///   expected per-iteration benefit of a move against its migration cost.
    /// * `stage_speeds` — per-stage effective speeds (device generation times
    ///   any straggler downgrade; all 1.0 on a healthy uniform cluster).
    /// * `stage_capacities` — per-stage memory budgets in bytes.
    ///
    /// `inflight`, `stage_speeds` and `stage_capacities` are fitted to the
    /// active workers the same way: truncated, or extended by repeating the
    /// last entry.
    #[allow(clippy::too_many_arguments)]
    pub fn rebalance(
        &self,
        current: &StageAssignment,
        loads: &[LayerLoad],
        inflight: &[usize],
        comm: &CommCostModel,
        min_workers: usize,
        num_microbatches: usize,
        stage_speeds: &[f64],
        stage_capacities: &[u64],
    ) -> RebalanceOutcome {
        let started = Stopwatch::start();
        let mut active_workers = current.num_stages();
        let mut released_workers = Vec::new();

        // Step 1: re-packing decision (Algorithm 2) to find how many workers
        // the shrunken workload actually needs.
        if let Some(repack) = &self.policy.repack {
            let plan = plan_repack(current, loads, inflight, repack);
            let feasible_workers = plan
                .active_workers
                .len()
                .max(repack.target_num_workers)
                .max(min_workers);
            if feasible_workers < active_workers {
                released_workers = (feasible_workers..active_workers).collect();
                active_workers = feasible_workers;
            }
        }

        // Step 2: balance the layers over the (possibly reduced) worker set.
        let request = BalanceRequest {
            loads,
            num_stages: active_workers,
            inflight: fit_to_stages(inflight, active_workers, 1),
            current: Some(current),
            objective: self.objective,
            stage_speeds: fit_to_stages(stage_speeds, active_workers, 1.0),
            stage_capacities: fit_to_stages(stage_capacities, active_workers, u64::MAX),
        };
        let outcome = self.balancer.rebalance(&request);
        let algorithm_time = started.elapsed_seconds();

        // Step 3: migration plan and its exposed cost (most of the transfer
        // is overlapped with the backward pass, per §3.3.1).
        let (migration, planning_time) =
            Stopwatch::time(|| MigrationPlan::between(current, &outcome.assignment, loads));
        let migration_time = migration.cost(comm) * MIGRATION_EXPOSED_FRACTION;

        // Step 4: cost/benefit gate.  Rebalancing chases per-iteration noise
        // in cases like MoE routing; a move is only worth taking when the
        // expected per-iteration time saved exceeds the exposed migration
        // cost.  Worker releases are always applied (they are the point of
        // re-packing), so the gate only applies to pure rebalances.
        if released_workers.is_empty() && !migration.is_empty() {
            let stage_time = |assignment: &StageAssignment, stages: usize| -> f64 {
                let mut totals = vec![0.0f64; stages];
                for (layer, &stage) in assignment.layer_to_stage().iter().enumerate() {
                    if stage < stages {
                        totals[stage] += loads[layer].total_time();
                    }
                }
                for (s, total) in totals.iter_mut().enumerate() {
                    *total /= stage_speeds.get(s).copied().unwrap_or(1.0);
                }
                totals.into_iter().fold(0.0, f64::max)
            };
            let old_bottleneck = stage_time(current, current.num_stages());
            let new_bottleneck = stage_time(&outcome.assignment, active_workers);
            let benefit = (old_bottleneck - new_bottleneck).max(0.0) * num_microbatches as f64;
            if benefit < migration_time {
                return RebalanceOutcome {
                    assignment: current.clone(),
                    active_workers: current.num_stages(),
                    released_workers: Vec::new(),
                    migration: MigrationPlan::default(),
                    algorithm_time,
                    planning_time,
                    migration_time: 0.0,
                    rounds: outcome.rounds,
                };
            }
        }

        RebalanceOutcome {
            assignment: outcome.assignment,
            active_workers,
            released_workers,
            migration,
            algorithm_time,
            planning_time,
            migration_time,
            rounds: outcome.rounds,
        }
    }
}

/// A per-stage vector fitted to `stages` entries: truncated, or extended by
/// repeating its last entry (`empty` when it has none).
fn fit_to_stages<T: Copy>(values: &[T], stages: usize, empty: T) -> Vec<T> {
    let last = values.last().copied().unwrap_or(empty);
    values
        .iter()
        .copied()
        .chain(std::iter::repeat(last))
        .take(stages)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::PartitionBalancer;
    use dynmo_model::{ClusterConfig, DeviceSpec};

    fn loads(times: &[f64], bytes: u64) -> Vec<LayerLoad> {
        times
            .iter()
            .enumerate()
            .map(|(id, &t)| LayerLoad {
                layer_id: id,
                fwd_time: t,
                bwd_time: 2.0 * t,
                param_count: 1000,
                static_bytes: bytes,
                activation_bytes: 0,
                migration_bytes: bytes,
            })
            .collect()
    }

    fn comm() -> CommCostModel {
        CommCostModel::new(ClusterConfig::homogeneous(8, 8, 1, DeviceSpec::h100_sxm5()))
    }

    fn controller(policy: RebalancePolicy) -> RebalanceController {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            policy,
        )
    }

    #[test]
    fn due_logic_respects_policy_and_engine_frequency() {
        let c = controller(RebalancePolicy::dynamic());
        assert!(!c.is_due(0, RebalanceFrequency::EveryIteration));
        assert!(c.is_due(1, RebalanceFrequency::EveryIteration));
        assert!(c.is_due(1000, RebalanceFrequency::EveryN(1000)));
        assert!(!c.is_due(1001, RebalanceFrequency::EveryN(1000)));

        let disabled = controller(RebalancePolicy::disabled());
        assert!(!disabled.is_due(1, RebalanceFrequency::EveryIteration));

        let fixed = controller(RebalancePolicy {
            enabled: true,
            frequency: Some(RebalanceFrequency::EveryN(7)),
            repack: None,
        });
        assert!(fixed.is_due(7, RebalanceFrequency::EveryIteration));
        assert!(!fixed.is_due(8, RebalanceFrequency::EveryIteration));
    }

    #[test]
    fn rebalance_without_repack_keeps_all_workers() {
        let c = controller(RebalancePolicy::dynamic());
        let current = StageAssignment::uniform(16, 4);
        let loads = loads(
            &(0..16).map(|i| 1.0 + i as f64 * 0.2).collect::<Vec<_>>(),
            100,
        );
        let outcome = c.rebalance(
            &current,
            &loads,
            &[1; 4],
            &comm(),
            1,
            32,
            &[1.0; 4],
            &[u64::MAX; 4],
        );
        assert_eq!(outcome.active_workers, 4);
        assert!(outcome.released_workers.is_empty());
        assert_eq!(outcome.assignment.num_layers(), 16);
        assert!(outcome.algorithm_time >= 0.0);
        assert!(outcome.planning_time >= 0.0);
        assert!(outcome.rounds >= 1);
        // The skewed load profile forces some migration.
        assert!(!outcome.migration.is_empty());
        assert!(outcome.migration_time > 0.0);
    }

    #[test]
    fn rebalance_with_repack_releases_idle_workers() {
        // Tiny memory footprint: everything fits on one worker, but the
        // repack target floor is 2.
        let repack = RepackConfig {
            max_memory: 1_000_000,
            target_num_workers: 2,
            utilization_cap: 1.0,
        };
        let c = controller(RebalancePolicy::dynamic_with_repack(repack));
        let current = StageAssignment::uniform(16, 8);
        let loads = loads(&[0.5; 16], 10);
        let outcome = c.rebalance(
            &current,
            &loads,
            &[1; 8],
            &comm(),
            1,
            32,
            &[1.0; 8],
            &[u64::MAX; 8],
        );
        assert_eq!(outcome.active_workers, 2);
        assert_eq!(outcome.released_workers, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(outcome.assignment.num_stages(), 2);
        assert_eq!(outcome.assignment.num_layers(), 16);
    }

    #[test]
    fn min_workers_floor_is_respected() {
        let repack = RepackConfig {
            max_memory: u64::MAX / 2,
            target_num_workers: 1,
            utilization_cap: 1.0,
        };
        let c = controller(RebalancePolicy::dynamic_with_repack(repack));
        let current = StageAssignment::uniform(8, 4);
        let loads = loads(&[0.5; 8], 10);
        let outcome = c.rebalance(
            &current,
            &loads,
            &[1; 4],
            &comm(),
            3,
            32,
            &[1.0; 4],
            &[u64::MAX; 4],
        );
        assert_eq!(outcome.active_workers, 3);
    }

    #[test]
    fn controller_name_includes_balancer_and_objective() {
        let c = controller(RebalancePolicy::dynamic());
        assert_eq!(c.name(), "partition/by-time");
    }
}
