//! DynMo's load balancers (paper §3.3).
//!
//! Two families, both proven in the paper to converge to the optimal
//! balance:
//!
//! * [`PartitionBalancer`] — centralized contiguous partitioning in the
//!   style of DeepSpeed's `partition_balanced` utility (binary search on the
//!   bottleneck + greedy feasibility probing), driven either by parameter
//!   counts (`Partition: by Param`) or by measured layer execution times
//!   (`Partition: by Time`).
//! * [`DiffusionBalancer`] — a decentralized, iterative scheme that moves
//!   boundary layers from overloaded stages to underloaded neighbors,
//!   monotonically decreasing the potential function φ of Lemma 2 until it
//!   γ-converges.
//!
//! Both operate on profiled [`LayerLoad`]s and respect per-worker memory
//! capacity constraints.

pub mod diffusion;
pub mod partition;

use dynmo_pipeline::{LayerLoad, StageAssignment};
use serde::{Deserialize, Serialize};

pub use diffusion::DiffusionBalancer;
pub use partition::PartitionBalancer;

/// What quantity the balancer equalizes across stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalanceObjective {
    /// Balance the number of parameters per stage (DeepSpeed's `param`
    /// method; requires only memory profiling).
    ByParams,
    /// Balance the measured layer execution time per stage (requires the
    /// timing profile; the paper finds this consistently better).
    ByTime,
}

impl BalanceObjective {
    /// The weight of one layer under this objective.
    pub fn weight(&self, load: &LayerLoad) -> f64 {
        match self {
            BalanceObjective::ByParams => load.param_count as f64,
            BalanceObjective::ByTime => load.total_time(),
        }
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            BalanceObjective::ByParams => "by-param",
            BalanceObjective::ByTime => "by-time",
        }
    }
}

/// Everything a balancer needs to produce a new assignment.
///
/// Heterogeneity is data, not a mode: every request carries one effective
/// speed and one memory capacity per stage.  A uniform cluster has every
/// speed exactly 1.0, where the balancers' time arithmetic (`w / 1.0`,
/// `limit * 1.0`) is exact and so reproduces the speed-free results bit for
/// bit.
#[derive(Debug, Clone)]
pub struct BalanceRequest<'a> {
    /// Profiled per-layer loads (model order).
    pub loads: &'a [LayerLoad],
    /// Number of pipeline stages (workers) available.
    pub num_stages: usize,
    /// In-flight micro-batches per stage (for activation memory accounting);
    /// must have `num_stages` entries.
    pub inflight: Vec<usize>,
    /// The assignment currently in effect (used as the starting point by
    /// the diffusion balancer; `None` means start from a uniform split).
    pub current: Option<&'a StageAssignment>,
    /// The balancing objective.
    pub objective: BalanceObjective,
    /// Per-stage effective speed relative to the reference device
    /// (`num_stages` positive entries).  A layer of weight `w` costs
    /// `w / stage_speeds[s]` time on stage `s`.
    pub stage_speeds: Vec<f64>,
    /// Per-stage memory capacity in bytes (`num_stages` entries).
    pub stage_capacities: Vec<u64>,
}

impl<'a> BalanceRequest<'a> {
    /// A request over `num_stages` equal stages (speed 1.0, `memory_capacity`
    /// bytes each) with a conservative in-flight estimate of
    /// `min(num_stages, 4)` micro-batches for every stage.
    pub fn new(
        loads: &'a [LayerLoad],
        num_stages: usize,
        memory_capacity: u64,
        objective: BalanceObjective,
    ) -> Self {
        BalanceRequest {
            loads,
            num_stages,
            inflight: vec![num_stages.min(4); num_stages],
            current: None,
            objective,
            stage_speeds: vec![1.0; num_stages],
            stage_capacities: vec![memory_capacity; num_stages],
        }
    }

    /// Set the current assignment (builder style).
    pub fn with_current(mut self, current: &'a StageAssignment) -> Self {
        self.current = Some(current);
        self
    }

    /// Set per-stage in-flight micro-batch counts (builder style).
    pub fn with_inflight(mut self, inflight: Vec<usize>) -> Self {
        assert_eq!(inflight.len(), self.num_stages);
        self.inflight = inflight;
        self
    }

    /// Set per-stage effective speeds (builder style).
    pub fn with_stage_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(speeds.len(), self.num_stages);
        assert!(
            speeds.iter().all(|&v| v > 0.0),
            "stage speeds must be positive"
        );
        self.stage_speeds = speeds;
        self
    }

    /// Set per-stage memory capacities (builder style).
    pub fn with_stage_capacities(mut self, capacities: Vec<u64>) -> Self {
        assert_eq!(capacities.len(), self.num_stages);
        self.stage_capacities = capacities;
        self
    }

    /// The weight of layer `l` under the request's objective.
    pub fn weight(&self, l: usize) -> f64 {
        self.objective.weight(&self.loads[l])
    }

    /// Memory bytes stage `s` would need to host the given layers.
    pub fn stage_memory(&self, stage: usize, layers: &[usize]) -> u64 {
        let inflight = *self.inflight.get(stage).unwrap_or(&1) as u64;
        layers
            .iter()
            .map(|&l| self.loads[l].static_bytes + self.loads[l].activation_bytes * inflight)
            .sum()
    }
}

/// The result of a balancing decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceOutcome {
    /// The new layer→stage assignment.
    pub assignment: StageAssignment,
    /// Rounds the algorithm used (1 for the centralized partitioner; the
    /// diffusion balancer reports its iteration count, which the Lemma 2
    /// bound is checked against).
    pub rounds: u64,
    /// The bottleneck (max per-stage weight) of the produced assignment.
    pub bottleneck: f64,
}

/// A pipeline-stage load balancer.
pub trait LoadBalancer {
    /// Name for reports, e.g. `partition/by-time`.
    fn name(&self) -> String;

    /// Compute a new assignment for the given request.
    fn rebalance(&self, request: &BalanceRequest<'_>) -> BalanceOutcome;
}

/// Per-stage total weight of an assignment under an objective — shared by
/// the balancer implementations and their tests.
pub fn stage_weights(
    assignment: &StageAssignment,
    loads: &[LayerLoad],
    objective: BalanceObjective,
) -> Vec<f64> {
    let mut weights = vec![0.0; assignment.num_stages()];
    for (layer, &stage) in assignment.layer_to_stage().iter().enumerate() {
        weights[stage] += objective.weight(&loads[layer]);
    }
    weights
}

#[cfg(test)]
pub(crate) mod test_support {
    use dynmo_pipeline::LayerLoad;

    /// Build a synthetic layer-load vector from per-layer times; parameters
    /// are proportional to time so both objectives see the same shape unless
    /// a test overrides them.
    pub fn loads_from_times(times: &[f64]) -> Vec<LayerLoad> {
        times
            .iter()
            .enumerate()
            .map(|(id, &t)| LayerLoad {
                layer_id: id,
                fwd_time: t / 3.0,
                bwd_time: 2.0 * t / 3.0,
                param_count: (t * 1.0e6) as u64,
                static_bytes: (t * 1.0e6) as u64 * 16,
                activation_bytes: 1_000,
                migration_bytes: (t * 1.0e6) as u64 * 16,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::loads_from_times;
    use super::*;

    #[test]
    fn objective_weight_selects_the_right_field() {
        let loads = loads_from_times(&[1.0, 2.0]);
        assert_eq!(BalanceObjective::ByTime.weight(&loads[1]), 2.0);
        assert_eq!(BalanceObjective::ByParams.weight(&loads[1]), 2.0e6);
        assert_eq!(BalanceObjective::ByTime.label(), "by-time");
        assert_eq!(BalanceObjective::ByParams.label(), "by-param");
    }

    #[test]
    fn request_builder_sets_fields() {
        let loads = loads_from_times(&[1.0, 1.0, 1.0, 1.0]);
        let current = StageAssignment::uniform(4, 2);
        let request = BalanceRequest::new(&loads, 2, u64::MAX, BalanceObjective::ByTime)
            .with_current(&current)
            .with_inflight(vec![2, 1]);
        assert_eq!(request.num_stages, 2);
        assert!(request.current.is_some());
        assert_eq!(request.inflight, vec![2, 1]);
        assert_eq!(request.weight(0), 1.0);
    }

    #[test]
    fn stage_memory_includes_activations_times_inflight() {
        let loads = loads_from_times(&[1.0, 1.0]);
        let request = BalanceRequest::new(&loads, 2, u64::MAX, BalanceObjective::ByTime)
            .with_inflight(vec![4, 1]);
        let mem_stage0 = request.stage_memory(0, &[0]);
        let mem_stage1 = request.stage_memory(1, &[0]);
        assert_eq!(mem_stage0 - mem_stage1, 3 * 1_000);
    }

    #[test]
    fn stage_weights_sums_per_stage() {
        let loads = loads_from_times(&[1.0, 2.0, 3.0, 4.0]);
        let assignment = StageAssignment::from_counts(&[1, 3]);
        let w = stage_weights(&assignment, &loads, BalanceObjective::ByTime);
        assert_eq!(w, vec![1.0, 9.0]);
    }
}
