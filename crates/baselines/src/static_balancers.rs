//! Static partitioning baselines: Megatron-LM and DeepSpeed.
//!
//! "Production distributed training frameworks typically apply static load
//! balancing at the start of training and maintain the same distribution
//! throughout.  Megatron-LM evenly splits transformer layers across
//! accelerators.  DeepSpeed offers three partitioning strategies: uniform
//! (equal number of layers), param (equal number of parameters), and regex
//! (grouping layers by name patterns)."  (paper §1)
//!
//! Both are exposed as [`LoadBalancer`] implementations (so they can be
//! plugged into the same controller machinery as DynMo's balancers) and as
//! one-shot initial-assignment helpers for the static-baseline trainer runs.

use dynmo_core::balancer::partition::partition_balanced;
use dynmo_core::balancer::{BalanceObjective, BalanceOutcome, BalanceRequest, LoadBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_model::Model;
use dynmo_pipeline::StageAssignment;
use serde::{Deserialize, Serialize};

/// Megatron-LM's static policy: an equal number of layers per stage,
/// regardless of their cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct MegatronUniformBalancer;

impl MegatronUniformBalancer {
    /// Create the balancer.
    pub fn new() -> Self {
        MegatronUniformBalancer
    }
}

impl LoadBalancer for MegatronUniformBalancer {
    fn name(&self) -> String {
        "static-megatron".to_string()
    }

    fn rebalance(&self, request: &BalanceRequest<'_>) -> BalanceOutcome {
        let assignment = StageAssignment::uniform(request.loads.len(), request.num_stages);
        let bottleneck = assignment
            .counts()
            .iter()
            .scan(0usize, |offset, &count| {
                let sum: f64 = (*offset..*offset + count).map(|l| request.weight(l)).sum();
                *offset += count;
                Some(sum)
            })
            .fold(0.0, f64::max);
        BalanceOutcome {
            assignment,
            rounds: 1,
            bottleneck,
        }
    }
}

/// The three partitioning methods of DeepSpeed's `PipelineModule`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeepSpeedMethod {
    /// `uniform`: equal number of layers per stage.
    Uniform,
    /// `parameters`: equal number of parameters per stage.
    Parameters,
    /// `regex`: distribute only the layers whose name contains the pattern
    /// (e.g. `transformer`), pinning the rest to the nearest such stage.
    Regex(String),
}

/// DeepSpeed's static partitioner.
#[derive(Debug, Clone)]
pub struct DeepSpeedBalancer {
    method: DeepSpeedMethod,
}

impl DeepSpeedBalancer {
    /// Create a balancer using the given partitioning method.
    pub fn new(method: DeepSpeedMethod) -> Self {
        DeepSpeedBalancer { method }
    }

    /// The method in use.
    pub fn method(&self) -> &DeepSpeedMethod {
        &self.method
    }
}

impl LoadBalancer for DeepSpeedBalancer {
    fn name(&self) -> String {
        match &self.method {
            DeepSpeedMethod::Uniform => "static-deepspeed-uniform".to_string(),
            DeepSpeedMethod::Parameters => "static-deepspeed-param".to_string(),
            DeepSpeedMethod::Regex(p) => format!("static-deepspeed-regex({p})"),
        }
    }

    fn rebalance(&self, request: &BalanceRequest<'_>) -> BalanceOutcome {
        let counts = match &self.method {
            DeepSpeedMethod::Uniform => {
                return MegatronUniformBalancer::new().rebalance(request);
            }
            DeepSpeedMethod::Parameters => {
                let weights: Vec<f64> =
                    request.loads.iter().map(|l| l.param_count as f64).collect();
                partition_balanced(&weights, &vec![1.0; request.num_stages])
            }
            DeepSpeedMethod::Regex(_) => {
                // The regex method balances the *matching* layers uniformly;
                // without layer names in the load vector the closest faithful
                // behaviour is a uniform split of all layers, which is what
                // DeepSpeed produces when every transformer layer matches.
                return MegatronUniformBalancer::new().rebalance(request);
            }
        };
        let assignment = StageAssignment::from_counts(&counts);
        let bottleneck = assignment
            .counts()
            .iter()
            .scan(0usize, |offset, &count| {
                let sum: f64 = (*offset..*offset + count).map(|l| request.weight(l)).sum();
                *offset += count;
                Some(sum)
            })
            .fold(0.0, f64::max);
        BalanceOutcome {
            assignment,
            rounds: 1,
            bottleneck,
        }
    }
}

/// The initial assignment Megatron-LM would use for `model` on
/// `num_stages` pipeline stages: the *transformer* layers are distributed
/// evenly, the embedding rides with the first stage and the LM head with the
/// last stage (Megatron's standard placement).
pub fn megatron_initial_assignment(model: &Model, num_stages: usize) -> StageAssignment {
    let transformer = model.transformer_layer_ids();
    if transformer.is_empty() {
        return StageAssignment::uniform(model.num_layers(), num_stages);
    }
    let body = StageAssignment::uniform(transformer.len(), num_stages);
    let mut layer_to_stage = vec![0usize; model.num_layers()];
    for (pos, &layer) in transformer.iter().enumerate() {
        layer_to_stage[layer] = body.stage_of(pos);
    }
    // Embedding (everything before the first transformer layer) goes to the
    // first stage; the head (everything after the last) to the last stage
    // actually holding layers.
    let first = *transformer.first().unwrap();
    let last = *transformer.last().unwrap();
    for layer in 0..first {
        layer_to_stage[layer] = layer_to_stage[first];
    }
    for layer in (last + 1)..model.num_layers() {
        layer_to_stage[layer] = layer_to_stage[last];
    }
    StageAssignment::new(num_stages, layer_to_stage).expect("stages in range")
}

/// The initial assignment DeepSpeed would use for `model` under the given
/// partitioning method (computed on the *dense* model, since static systems
/// have no knowledge of upcoming dynamism).
pub fn deepspeed_initial_assignment(
    model: &Model,
    num_stages: usize,
    method: &DeepSpeedMethod,
) -> StageAssignment {
    match method {
        DeepSpeedMethod::Uniform => StageAssignment::uniform(model.num_layers(), num_stages),
        DeepSpeedMethod::Parameters => {
            let weights: Vec<f64> = model
                .layers()
                .iter()
                .map(|l| l.param_count as f64)
                .collect();
            StageAssignment::from_counts(&partition_balanced(&weights, &vec![1.0; num_stages]))
        }
        DeepSpeedMethod::Regex(pattern) => {
            // Layers whose name matches the pattern are distributed evenly;
            // non-matching layers are attached to the stage of the nearest
            // preceding matching layer (or stage 0).
            let matching: Vec<usize> = model
                .layers()
                .iter()
                .filter(|l| l.name.contains(pattern.as_str()))
                .map(|l| l.id)
                .collect();
            if matching.is_empty() {
                return StageAssignment::uniform(model.num_layers(), num_stages);
            }
            let matched_assignment = StageAssignment::uniform(matching.len(), num_stages);
            let mut layer_to_stage = vec![0usize; model.num_layers()];
            let mut current_stage = 0usize;
            let mut match_idx = 0usize;
            for (layer, stage_slot) in layer_to_stage.iter_mut().enumerate() {
                if match_idx < matching.len() && matching[match_idx] == layer {
                    current_stage = matched_assignment.stage_of(match_idx);
                    match_idx += 1;
                }
                *stage_slot = current_stage;
            }
            StageAssignment::new(num_stages, layer_to_stage).expect("stages in range")
        }
    }
}

/// The controller used for every static baseline: whatever the initial
/// assignment was, never rebalance during training.
pub fn static_controller() -> RebalanceController {
    RebalanceController::new(
        Box::new(MegatronUniformBalancer::new()),
        BalanceObjective::ByParams,
        RebalancePolicy::disabled(),
    )
}

/// The pipeline schedule the paper's strongest static baseline runs: the
/// "almost zero-bubble" scheme of Figure 1, modeled as the ZB-H1 split
/// backward schedule.  The bench harness gives every SoTA comparison row
/// this schedule (see `dynmo-bench`'s `run_configuration`), keeping the
/// comparison honest — DynMo's wins must come from removing the *dynamic*
/// imbalance bubble, not from a weaker baseline schedule.
pub fn zero_bubble_baseline_schedule() -> dynmo_pipeline::ScheduleKind {
    dynmo_pipeline::ScheduleKind::ZeroBubbleH1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;
    use dynmo_pipeline::LayerLoad;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    fn loads(n: usize) -> Vec<LayerLoad> {
        (0..n)
            .map(|i| LayerLoad {
                layer_id: i,
                fwd_time: 1.0 + i as f64,
                bwd_time: 2.0,
                param_count: if i == 0 { 50_000 } else { 1_000 },
                static_bytes: 100,
                activation_bytes: 10,
                migration_bytes: 100,
            })
            .collect()
    }

    #[test]
    fn megatron_splits_layers_evenly_regardless_of_cost() {
        let loads = loads(16);
        let request = BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime);
        let outcome = MegatronUniformBalancer::new().rebalance(&request);
        assert_eq!(outcome.assignment.counts(), vec![4, 4, 4, 4]);
        assert_eq!(outcome.rounds, 1);
        assert!(outcome.bottleneck > 0.0);
        assert_eq!(MegatronUniformBalancer::new().name(), "static-megatron");
    }

    #[test]
    fn deepspeed_param_method_balances_parameters_not_time() {
        let loads = loads(16);
        let request = BalanceRequest::new(&loads, 4, u64::MAX, BalanceObjective::ByTime);
        let outcome = DeepSpeedBalancer::new(DeepSpeedMethod::Parameters).rebalance(&request);
        // Layer 0 has 50× the parameters of everyone else, so it sits alone.
        assert_eq!(outcome.assignment.stage_of(0), 0);
        assert_eq!(outcome.assignment.layers_of(0), vec![0]);
        assert_eq!(outcome.assignment.num_layers(), 16);
    }

    #[test]
    fn deepspeed_uniform_and_regex_fall_back_to_even_layer_split() {
        let loads = loads(12);
        let request = BalanceRequest::new(&loads, 3, u64::MAX, BalanceObjective::ByTime);
        for method in [
            DeepSpeedMethod::Uniform,
            DeepSpeedMethod::Regex("nonexistent".into()),
        ] {
            let outcome = DeepSpeedBalancer::new(method).rebalance(&request);
            assert_eq!(outcome.assignment.counts(), vec![4, 4, 4]);
        }
    }

    #[test]
    fn initial_assignments_cover_all_layers() {
        let model = gpt();
        for stages in [4, 8, 24] {
            let megatron = megatron_initial_assignment(&model, stages);
            assert_eq!(megatron.num_layers(), model.num_layers());
            assert_eq!(megatron.num_stages(), stages);
            assert!(megatron.is_contiguous());
            // Transformer layers are split evenly; embedding rides with the
            // first stage and the head with the last.
            assert_eq!(megatron.stage_of(0), 0);
            assert_eq!(megatron.stage_of(model.num_layers() - 1), stages - 1);
            let counts = megatron.counts();
            let tfm_per_stage = 24 / stages;
            assert!(counts.iter().all(|&c| c >= tfm_per_stage));

            for method in [
                DeepSpeedMethod::Uniform,
                DeepSpeedMethod::Parameters,
                DeepSpeedMethod::Regex("transformer".into()),
            ] {
                let ds = deepspeed_initial_assignment(&model, stages, &method);
                assert_eq!(ds.num_layers(), model.num_layers());
                assert!(ds.is_contiguous(), "{method:?} must stay contiguous");
            }
        }
    }

    #[test]
    fn deepspeed_param_initial_assignment_isolates_the_embedding() {
        // The embedding table dominates the parameter count of a small GPT,
        // so the `parameters` method gives it (nearly) its own stage while
        // `uniform` does not.
        let model = gpt();
        let param = deepspeed_initial_assignment(&model, 8, &DeepSpeedMethod::Parameters);
        let uniform = deepspeed_initial_assignment(&model, 8, &DeepSpeedMethod::Uniform);
        assert!(param.layers_of(0).len() < uniform.layers_of(0).len());
    }

    #[test]
    fn regex_method_groups_non_matching_layers_with_their_neighbors() {
        let model = gpt();
        let regex =
            deepspeed_initial_assignment(&model, 4, &DeepSpeedMethod::Regex("transformer".into()));
        // The embedding (layer 0, no match) stays on stage 0 with the first
        // transformer layers; the head rides with the last stage.
        assert_eq!(regex.stage_of(0), 0);
        assert_eq!(regex.stage_of(model.num_layers() - 1), 3);
    }

    #[test]
    fn static_controller_never_rebalances() {
        let controller = static_controller();
        assert!(!controller.is_due(100, dynmo_dynamics::RebalanceFrequency::EveryIteration));
        assert!(!controller.policy().enabled);
    }

    #[test]
    fn deepspeed_names_identify_the_method() {
        assert_eq!(
            DeepSpeedBalancer::new(DeepSpeedMethod::Parameters).name(),
            "static-deepspeed-param"
        );
        assert!(DeepSpeedBalancer::new(DeepSpeedMethod::Regex("x".into()))
            .name()
            .contains("regex"));
        assert_eq!(
            *DeepSpeedBalancer::new(DeepSpeedMethod::Uniform).method(),
            DeepSpeedMethod::Uniform
        );
    }
}
