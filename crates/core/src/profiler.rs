//! The profiling step of DynMo (paper §3.1 and §4).
//!
//! "The first iteration after each dynamism operation is used for profiling
//! the time it takes to execute each layer in the altered model and the
//! memory usage of all workers."  In the paper this is implemented by
//! extending Megatron's built-in timers and reading PyTorch CUDA memory
//! statistics; here the same information is derived from the analytical
//! cost/memory models scaled by the dynamism engine's current
//! [`LoadUpdate`].  The result is the per-layer [`LayerLoad`] vector that
//! both balancer families and the re-packer consume.

use dynmo_dynamics::LoadUpdate;
use dynmo_model::{DeviceSpec, Model};
use dynmo_pipeline::LayerLoad;

/// Produces per-layer load snapshots from a model and the current dynamism
/// state.
#[derive(Debug, Clone)]
pub struct Profiler {
    device: DeviceSpec,
}

impl Profiler {
    /// Create a profiler that converts FLOPs to time using `device`.
    pub fn new(device: DeviceSpec) -> Self {
        Profiler { device }
    }

    /// The device spec used for time conversion.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Profile every layer of `model` under the dynamism state `update`.
    pub fn profile(&self, model: &Model, update: &LoadUpdate) -> Vec<LayerLoad> {
        profile_layers(model, update, &self.device)
    }

    /// The wall-clock cost of profiling itself.  The paper reuses a regular
    /// training iteration for measurement (Megatron's built-in timers plus
    /// PyTorch CUDA memory statistics), so the only extra work is reading
    /// the timers and memory counters for every layer — a per-layer constant,
    /// not an extra pass over the model.
    pub fn profiling_cost(&self, loads: &[LayerLoad]) -> f64 {
        const TIMER_READOUT_PER_LAYER: f64 = 50.0e-6;
        loads.len() as f64 * TIMER_READOUT_PER_LAYER
    }
}

/// Ratio of observed to expected stage time above which an observation
/// counts as "slow".  Transient jitter below this never registers, so the
/// detector only reacts to sustained degradation (thermal throttling, a
/// failing NIC, a noisy neighbour on a shared node).
pub const STRAGGLER_THRESHOLD: f64 = 1.2;

/// Consecutive slow observations required before a stage is confirmed as a
/// *persistent* straggler and its effective speed is downgraded.
pub const STRAGGLER_MIN_HITS: u32 = 3;

/// Detects persistent stragglers from the profiler's per-stage timings.
///
/// Every iteration the trainer feeds the observed per-stage compute times
/// next to the times the device specs predict.  A stage whose ratio exceeds
/// [`STRAGGLER_THRESHOLD`] for [`STRAGGLER_MIN_HITS`] consecutive
/// observations is *confirmed*: its effective speed (expected/observed,
/// capped at 1.0) is recorded and fed to the balancer as a per-stage speed
/// downgrade, so subsequent rebalances shift layers off the slow worker.
/// Confirmation is sticky — a straggler that looks healthy again after the
/// balancer unloaded it stays downgraded.
#[derive(Debug, Clone)]
pub struct StragglerDetector {
    threshold: f64,
    min_hits: u32,
    hits: Vec<u32>,
    /// Confirmed effective speed per stage; exactly 1.0 = healthy.
    speeds: Vec<f64>,
}

impl StragglerDetector {
    /// A detector over `num_stages` stages with the default sensitivity.
    pub fn new(num_stages: usize) -> Self {
        Self::with_params(num_stages, STRAGGLER_THRESHOLD, STRAGGLER_MIN_HITS)
    }

    /// A detector with explicit sensitivity parameters.
    pub fn with_params(num_stages: usize, threshold: f64, min_hits: u32) -> Self {
        assert!(threshold > 1.0, "threshold must exceed 1.0");
        assert!(min_hits >= 1, "min_hits must be at least 1");
        StragglerDetector {
            threshold,
            min_hits,
            hits: vec![0; num_stages],
            speeds: vec![1.0; num_stages],
        }
    }

    /// Feed one round of per-stage timings (`observed[s]` measured,
    /// `expected[s]` predicted by the device specs).  Shorter slices than
    /// the detector's stage count are fine — a re-packed pipeline simply
    /// stops reporting the released stages.  Returns the stages *newly
    /// confirmed* this round as `(stage, effective_speed)` pairs.
    pub fn observe(&mut self, observed: &[f64], expected: &[f64]) -> Vec<(usize, f64)> {
        assert_eq!(observed.len(), expected.len());
        let mut confirmed = Vec::new();
        for s in 0..observed.len().min(self.hits.len()) {
            if expected[s] <= 0.0 {
                self.hits[s] = 0;
                continue;
            }
            let ratio = observed[s] / expected[s];
            if ratio >= self.threshold {
                self.hits[s] = self.hits[s].saturating_add(1);
                if self.hits[s] == self.min_hits && self.speeds[s] == 1.0 {
                    self.speeds[s] = (expected[s] / observed[s]).clamp(f64::MIN_POSITIVE, 1.0);
                    confirmed.push((s, self.speeds[s]));
                }
            } else if self.speeds[s] == 1.0 {
                // Unconfirmed stages must be *consecutively* slow; confirmed
                // ones keep their downgrade even when they look healthy
                // (the balancer unloading them is exactly what we expect).
                self.hits[s] = 0;
            }
        }
        confirmed
    }

    /// Whether `stage` has been confirmed as a straggler.
    pub fn is_straggler(&self, stage: usize) -> bool {
        self.speeds.get(stage).is_some_and(|&v| v < 1.0)
    }

    /// Per-stage effective-speed downgrades, one per stage: exactly 1.0 for
    /// a healthy stage, so multiplying them into the device speeds leaves a
    /// straggler-free run's speeds bit-for-bit unchanged.
    pub fn downgrades(&self) -> &[f64] {
        &self.speeds
    }
}

/// Free-function form of [`Profiler::profile`].
pub fn profile_layers(model: &Model, update: &LoadUpdate, device: &DeviceSpec) -> Vec<LayerLoad> {
    assert_eq!(
        update.num_layers(),
        model.num_layers(),
        "LoadUpdate must cover every model layer"
    );
    let memory = model.memory_model();
    model
        .layers()
        .iter()
        .map(|layer| {
            let l = layer.id;
            let fwd_time = device.compute_time(layer.flops_fwd * update.fwd_scale[l]);
            let bwd_time = if update.bwd_scale[l] > 0.0 {
                device.compute_time(layer.flops_bwd * update.bwd_scale[l])
            } else {
                0.0
            };
            let retention = update.param_retention[l];
            let param_count = (layer.param_count as f64 * retention) as u64;
            let dense_static = memory.layer_static_bytes(layer, 1.0);
            let static_bytes = (dense_static as f64 * update.memory_scale[l]) as u64;
            let activation_bytes = memory.layer_activation_bytes(layer);
            // Migration moves weights + optimizer state (+ sparse indices),
            // i.e. the static footprint, not the activations.
            let migration_bytes = static_bytes;
            LayerLoad {
                layer_id: l,
                fwd_time,
                bwd_time,
                param_count,
                static_bytes,
                activation_bytes,
                migration_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    #[test]
    fn identity_update_reproduces_baseline_costs() {
        let model = gpt();
        let device = DeviceSpec::h100_sxm5();
        let profiler = Profiler::new(device);
        let loads = profiler.profile(&model, &LoadUpdate::identity(model.num_layers()));
        assert_eq!(loads.len(), model.num_layers());
        for (load, layer) in loads.iter().zip(model.layers().iter()) {
            assert_eq!(load.layer_id, layer.id);
            assert_eq!(load.param_count, layer.param_count);
            assert!((load.fwd_time - device.compute_time(layer.flops_fwd)).abs() < 1e-12);
            assert!((load.bwd_time - device.compute_time(layer.flops_bwd)).abs() < 1e-12);
            assert!(load.static_bytes > 0);
            assert!(load.activation_bytes > 0);
        }
    }

    #[test]
    fn scales_are_applied_per_layer() {
        let model = gpt();
        let profiler = Profiler::new(DeviceSpec::h100_sxm5());
        let mut update = LoadUpdate::identity(model.num_layers());
        let target = model.transformer_layer_ids()[3];
        update.fwd_scale[target] = 0.5;
        update.bwd_scale[target] = 0.0; // e.g. frozen
        update.memory_scale[target] = 0.25;
        update.param_retention[target] = 0.25;
        let loads = profiler.profile(&model, &update);
        let baseline = profiler.profile(&model, &LoadUpdate::identity(model.num_layers()));
        assert!(loads[target].fwd_time < baseline[target].fwd_time);
        assert_eq!(loads[target].bwd_time, 0.0);
        assert!(loads[target].static_bytes < baseline[target].static_bytes);
        assert!(loads[target].param_count < baseline[target].param_count);
        // Other layers are untouched.
        let other = model.transformer_layer_ids()[5];
        assert_eq!(loads[other], baseline[other]);
    }

    #[test]
    fn profiling_cost_is_a_cheap_timer_readout() {
        let model = gpt();
        let profiler = Profiler::new(DeviceSpec::h100_sxm5());
        let loads = profiler.profile(&model, &LoadUpdate::identity(model.num_layers()));
        let cost = profiler.profiling_cost(&loads);
        // Reading out per-layer timers is far cheaper than executing the
        // model: well under a millisecond per layer, and much smaller than
        // one forward+backward pass.
        let full_pass: f64 = loads.iter().map(|l| l.fwd_time + l.bwd_time).sum();
        assert!(cost > 0.0);
        assert!(cost < full_pass);
        assert!(cost < 1.0e-3 * loads.len() as f64);
    }

    #[test]
    #[should_panic(expected = "every model layer")]
    fn mismatched_update_length_panics() {
        let model = gpt();
        let profiler = Profiler::new(DeviceSpec::h100_sxm5());
        let _ = profiler.profile(&model, &LoadUpdate::identity(3));
    }

    #[test]
    fn transient_spikes_never_confirm_a_straggler() {
        let mut detector = StragglerDetector::new(4);
        let expected = [1.0, 1.0, 1.0, 1.0];
        // Two slow rounds, then a healthy one, repeatedly: the consecutive
        // counter resets and stage 2 is never confirmed.
        for _ in 0..5 {
            assert!(detector
                .observe(&[1.0, 1.0, 2.0, 1.0], &expected)
                .is_empty());
            assert!(detector
                .observe(&[1.0, 1.0, 2.0, 1.0], &expected)
                .is_empty());
            assert!(detector
                .observe(&[1.0, 1.0, 1.0, 1.0], &expected)
                .is_empty());
        }
        assert!(!detector.is_straggler(2));
        assert_eq!(detector.downgrades(), [1.0; 4]);
    }

    #[test]
    fn persistent_slowdown_confirms_once_with_the_estimated_speed() {
        let mut detector = StragglerDetector::new(4);
        let expected = [1.0, 1.0, 1.0, 1.0];
        let observed = [1.0, 1.0, 2.0, 1.0];
        assert!(detector.observe(&observed, &expected).is_empty());
        assert!(detector.observe(&observed, &expected).is_empty());
        let confirmed = detector.observe(&observed, &expected);
        assert_eq!(confirmed, vec![(2, 0.5)]);
        // Further slow rounds do not re-confirm.
        assert!(detector.observe(&observed, &expected).is_empty());
        assert!(detector.is_straggler(2));
        assert_eq!(detector.downgrades(), [1.0, 1.0, 0.5, 1.0]);
        // A confirmed straggler that looks healthy again (the balancer
        // unloaded it) keeps its downgrade.
        assert!(detector.observe(&expected, &expected).is_empty());
        assert!(detector.is_straggler(2));
    }

    #[test]
    fn shrunken_pipelines_report_fewer_stages() {
        let mut detector = StragglerDetector::new(8);
        // Only 2 active stages after re-packing; must not panic or confirm.
        for _ in 0..10 {
            assert!(detector.observe(&[1.0, 1.0], &[1.0, 1.0]).is_empty());
        }
        assert_eq!(detector.downgrades(), [1.0; 8]);
    }

    #[test]
    fn slower_device_produces_longer_times() {
        let model = gpt();
        let update = LoadUpdate::identity(model.num_layers());
        let h100 = profile_layers(&model, &update, &DeviceSpec::h100_sxm5());
        let a100 = profile_layers(&model, &update, &DeviceSpec::a100_sxm4());
        assert!(a100[1].fwd_time > h100[1].fwd_time);
    }
}
