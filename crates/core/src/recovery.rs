//! Failure recovery and live world re-scaling for elastic training.
//!
//! This module closes the loop the paper leaves open in §3.4.2: the
//! elastic-release path there *shrinks* a healthy job, but nothing can
//! survive a rank failure.  Here, a [`RecoveryCoordinator`] ties together
//! the pieces the workspace already has:
//!
//! 1. **Detect** — `dynmo-runtime`'s failure detector poisons every
//!    collective on a communicator containing a dead rank, so all survivors
//!    observe [`RuntimeError::RankFailed`] promptly.
//! 2. **Re-form** — the world communicator is rebuilt over the survivors
//!    (`Communicator::rebuild_survivors`, the fault-tolerant sibling of
//!    `ncclCommSplit`).
//! 3. **Re-balance** — the Partition balancer re-runs for the new world
//!    size over layer loads reconstructed from the checkpoint.
//! 4. **Replay** — trainer state is restored from the last checkpoint in a
//!    [`CheckpointStore`] and the lost iterations are re-executed.
//! 5. **Account** — every checkpoint write and recovery is charged to the
//!    `recovery` bucket of [`OverheadBreakdown`], next to the paper's
//!    profiling/algorithm/migration buckets.
//!
//! [`run_resilient`] drives an actual multi-rank training loop on the
//! simulated fabric under a [`FaultPlan`], and [`run_elastic_rescale`] does
//! the voluntary version: shrink the world mid-run, hand the GPUs back to
//! the job manager, and grow back — with layer-assignment conservation
//! checked at every step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynmo_dynamics::rng::Prng;
use dynmo_pipeline::{LayerLoad, StageAssignment};
use dynmo_resilience::{
    Checkpoint, CheckpointCostModel, CheckpointStore, LayerState, MemoryCheckpointStore,
    TimedStore, TrainerState,
};
use dynmo_runtime::{
    launch, Communicator, FaultInjector, FaultPlan, Payload, RankCtx, RuntimeError,
    SPOT_WARNING_ITERATIONS,
};
use dynmo_telemetry::{MarkerKind, NullRecorder, Recorder};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::balancer::{BalanceObjective, BalanceRequest, LoadBalancer, PartitionBalancer};
use crate::elastic::{FleetEvent, JobManager, MockJobManager};
use crate::overhead::OverheadBreakdown;

/// Knobs of the resilience machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Take a checkpoint every this many iterations (0 disables periodic
    /// checkpoints; the initial checkpoint is always taken).
    pub checkpoint_interval: u64,
    /// Keep at most this many checkpoints in the store.
    pub keep_checkpoints: usize,
    /// Cost model for checkpoint writes and restores.
    pub cost_model: CheckpointCostModel,
    /// Simulated seconds one training iteration costs, used to price the
    /// replayed iterations of a recovery.
    pub iteration_cost: f64,
    /// Simulated seconds to re-form the communicator world after a failure
    /// (`ncclCommSplit` + bootstrap exchange).
    pub rebuild_cost: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 25,
            keep_checkpoints: 2,
            cost_model: CheckpointCostModel::default(),
            iteration_cost: 0.25,
            rebuild_cost: 0.5,
        }
    }
}

/// Re-plans the job after a failure or an elastic re-scale: re-runs the
/// Partition balancer (by time) over loads rebuilt from a checkpoint and
/// prices the recovery.
pub struct RecoveryCoordinator {
    config: RecoveryConfig,
}

impl RecoveryCoordinator {
    /// The coordinator: Partition balancer, time objective.
    pub fn partition_by_time(config: RecoveryConfig) -> Self {
        RecoveryCoordinator { config }
    }

    /// The coordinator's configuration.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Re-run the balancer for a new world size, deriving per-layer loads
    /// from the checkpointed state (retained parameters weigh compute;
    /// frozen layers only run forward).
    pub fn replan(&self, state: &TrainerState, new_world_size: usize) -> StageAssignment {
        let loads: Vec<LayerLoad> = state
            .layers
            .iter()
            .map(|layer| {
                let params = layer.weights.len().max(1) as f64 * layer.retention();
                let fwd = params.max(1e-9);
                let bwd = if layer.frozen { 0.0 } else { 2.0 * fwd };
                LayerLoad {
                    layer_id: layer.layer_id,
                    fwd_time: fwd,
                    bwd_time: bwd,
                    param_count: params as u64,
                    static_bytes: (params as u64) * 16,
                    activation_bytes: 0,
                    migration_bytes: (params as u64) * 16,
                }
            })
            .collect();
        let request =
            BalanceRequest::new(&loads, new_world_size, u64::MAX, BalanceObjective::ByTime)
                .with_inflight(vec![1; new_world_size]);
        PartitionBalancer::new().rebalance(&request).assignment
    }

    /// Simulated cost of writing one checkpoint of `state`.
    pub fn checkpoint_cost(&self, state: &TrainerState) -> f64 {
        self.config.cost_model.write_cost(state.size_bytes())
    }

    /// Simulated cost of one recovery: restore read + communicator rebuild
    /// + `replayed` re-executed iterations.
    pub fn recovery_cost(&self, state: &TrainerState, replayed: u64) -> f64 {
        self.config.cost_model.read_cost(state.size_bytes())
            + self.config.rebuild_cost
            + replayed as f64 * self.config.iteration_cost
    }
}

/// The synthetic-but-deterministic training workload the multi-rank
/// harness executes: per-layer proxy weights updated by a fixed rule, with
/// optional layer freezing and magnitude pruning so the checkpoint carries
/// every kind of state the paper's dynamism mechanisms produce.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of model layers.
    pub num_layers: usize,
    /// Proxy weights per layer.
    pub weights_per_layer: usize,
    /// Seed for the deterministic initialization and noise streams.
    pub seed: u64,
    /// Freeze layer `l` at iteration `(l + 1) * freeze_every` (None = no
    /// freezing).
    pub freeze_every: Option<u64>,
    /// Magnitude-prune 10% of each layer's remaining weights every this
    /// many iterations (None = no pruning).
    pub prune_every: Option<u64>,
}

impl WorkloadConfig {
    /// A small default workload exercising freezing and pruning.
    pub fn small(num_layers: usize, seed: u64) -> Self {
        WorkloadConfig {
            num_layers,
            weights_per_layer: 16,
            seed,
            freeze_every: Some(40),
            prune_every: Some(30),
        }
    }
}

/// Configuration of one fault-injected resilient run.
#[derive(Debug, Clone)]
pub struct ResilientTrainingConfig {
    /// Initial world size (one pipeline stage per rank).
    pub world_size: usize,
    /// Iterations to complete.
    pub iterations: u64,
    /// The synthetic workload.
    pub workload: WorkloadConfig,
    /// Scheduled rank deaths.
    pub fault_plan: FaultPlan,
    /// Resilience knobs.
    pub recovery: RecoveryConfig,
}

impl ResilientTrainingConfig {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.world_size == 0 {
            return Err("world_size must be positive".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.workload.num_layers < self.world_size {
            return Err("need at least one layer per worker".into());
        }
        let dead: std::collections::BTreeSet<usize> = self
            .fault_plan
            .kills()
            .iter()
            .map(|k| k.rank)
            .chain(self.fault_plan.evictions().iter().map(|e| e.rank))
            .collect();
        if dead.len() >= self.world_size {
            return Err("fault plan kills the entire world".into());
        }
        for kill in self.fault_plan.kills() {
            if kill.rank >= self.world_size {
                return Err(format!("fault plan kills unknown rank {}", kill.rank));
            }
        }
        for eviction in self.fault_plan.evictions() {
            if eviction.rank >= self.world_size {
                return Err(format!("fault plan evicts unknown rank {}", eviction.rank));
            }
        }
        Ok(())
    }
}

/// One recovery episode observed during a resilient run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Iteration at which the survivors detected the failure.
    pub detected_at: u64,
    /// Global ranks that were dead at detection time.
    pub failed_ranks: Vec<usize>,
    /// Iteration of the checkpoint the survivors resumed from.
    pub resumed_from: u64,
    /// Iterations re-executed because of the rollback.
    pub replayed: u64,
    /// World size after the communicator was rebuilt.
    pub world_size_after: usize,
    /// Simulated recovery cost in seconds (restore + rebuild + replay).
    pub cost: f64,
}

/// Outcome of a fault-injected resilient run.
#[derive(Debug, Clone)]
pub struct ResilientRunReport {
    /// World size the job started with.
    pub initial_world_size: usize,
    /// World size at completion (initial minus failed ranks).
    pub final_world_size: usize,
    /// Iterations completed (equals the configured count: the job finishes
    /// despite failures).
    pub iterations: u64,
    /// Final training loss (sum over layers of mean |w|).
    pub final_loss: f64,
    /// Load imbalance ΔL (Eq. 2 of the paper) of the final assignment over
    /// the final per-layer loads.
    pub final_imbalance: f64,
    /// Layer→stage assignment in effect at the end.
    pub final_assignment: StageAssignment,
    /// FNV-1a checksum over the final per-layer state (weights, optimizer,
    /// masks, frozen flags), for exact cross-run comparison.
    pub weights_checksum: u64,
    /// Checkpoints written (including the initial one).
    pub checkpoints_taken: u64,
    /// Total iterations re-executed across all recoveries.
    pub replayed_iterations: u64,
    /// Every recovery episode, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Overhead accounting; resilience costs land in the `recovery` bucket.
    pub overhead: OverheadBreakdown,
    /// Fleet accounting events (failed ranks are released to the manager).
    pub fleet_events: Vec<FleetEvent>,
}

/// Shared bookkeeping the ranks update through locks/atomics, standing in
/// for the control plane (job manager + metrics store) of a real cluster.
struct SharedState {
    store: Mutex<TimedStore<MemoryCheckpointStore>>,
    job_manager: Mutex<MockJobManager>,
    overhead: Mutex<OverheadBreakdown>,
    recoveries: Mutex<Vec<RecoveryEvent>>,
    checkpoints_taken: AtomicU64,
    replayed_iterations: AtomicU64,
    recorder: Arc<dyn Recorder>,
}

impl SharedState {
    fn new(world_size: usize, recorder: Arc<dyn Recorder>) -> Self {
        SharedState {
            store: Mutex::new(TimedStore::new(MemoryCheckpointStore::new())),
            job_manager: Mutex::new(MockJobManager::new(world_size)),
            overhead: Mutex::new(OverheadBreakdown::new()),
            recoveries: Mutex::new(Vec::new()),
            checkpoints_taken: AtomicU64::new(0),
            replayed_iterations: AtomicU64::new(0),
            recorder,
        }
    }

    /// The overhead accounting with the store's measured wall-clock I/O
    /// folded into the diagnostic companion; the modeled `recovery` bucket
    /// is untouched.
    fn overhead_with_io(&self) -> OverheadBreakdown {
        let mut overhead = *self.overhead.lock();
        let store = self.store.lock();
        overhead.measured.checkpoint_io_seconds += store.io_seconds();
        overhead.measured.samples += store.io_ops();
        overhead
    }
}

/// Per-rank result of the harness.
struct RankOutcome {
    loss: f32,
    world_size: usize,
    assignment: StageAssignment,
    weights_checksum: u64,
    imbalance: f64,
}

/// ΔL (Eq. 2) of `assignment` over the compute proxy of `layers`: how much
/// the bottleneck stage exceeds the mean stage load.
fn assignment_imbalance(assignment: &StageAssignment, layers: &[LayerState]) -> f64 {
    let stages = assignment.num_stages();
    let mut totals = vec![0.0f64; stages.max(1)];
    for layer in layers {
        let weight = layer.weights.len().max(1) as f64
            * layer.retention()
            * if layer.frozen { 1.0 / 3.0 } else { 1.0 };
        let stage = assignment.stage_of(layer.layer_id);
        totals[stage] += weight;
    }
    crate::imbalance::load_imbalance(&totals)
}

fn ckpt_err(e: dynmo_resilience::CheckpointError) -> RuntimeError {
    RuntimeError::InvalidArgument(format!("checkpoint failure: {e}"))
}

/// Deterministic per-layer initialization: identical on every rank.
fn init_layers(workload: &WorkloadConfig) -> Vec<LayerState> {
    (0..workload.num_layers)
        .map(|layer_id| {
            let mut rng = Prng::seed_from(
                workload
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(layer_id as u64),
            );
            let weights: Vec<f32> = (0..workload.weights_per_layer)
                .map(|_| (rng.next_f64() as f32 - 0.5) * 2.0)
                .collect();
            LayerState {
                layer_id,
                optimizer: vec![0.0; weights.len()],
                pruning_mask: vec![true; weights.len()],
                frozen: false,
                rng_state: rng.state(),
                weights,
            }
        })
        .collect()
}

/// Apply the freeze/prune schedules due at `iteration` to one layer.
/// Deterministic in `(layer, iteration)` regardless of which rank hosts the
/// layer, so replays after recovery reproduce the original run exactly.
fn apply_schedules(layer: &mut LayerState, iteration: u64, workload: &WorkloadConfig) {
    if let Some(freeze_every) = workload.freeze_every {
        if freeze_every > 0 && iteration == (layer.layer_id as u64 + 1) * freeze_every {
            layer.frozen = true;
        }
    }
    if let Some(prune_every) = workload.prune_every {
        if prune_every > 0
            && iteration > 0
            && iteration.is_multiple_of(prune_every)
            && !layer.frozen
        {
            // Magnitude-prune 10% of the *remaining* weights, layer-locally.
            let mut kept: Vec<usize> = (0..layer.weights.len())
                .filter(|&i| layer.pruning_mask[i])
                .collect();
            let drop = kept.len() / 10;
            if drop > 0 {
                kept.sort_by(|&a, &b| {
                    layer.weights[a]
                        .abs()
                        .partial_cmp(&layer.weights[b].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for &i in kept.iter().take(drop) {
                    layer.pruning_mask[i] = false;
                    layer.weights[i] = 0.0;
                    layer.optimizer[i] = 0.0;
                }
            }
        }
    }
}

/// One deterministic SGD-with-momentum-style update on a layer's proxy
/// weights.  The noise stream lives in the layer itself (not the rank), so
/// ownership changes and replays do not perturb the trajectory.
fn train_step(layer: &mut LayerState, iteration: u64) {
    if layer.frozen {
        return;
    }
    let mut rng = Prng::from_state(layer.rng_state);
    let lr = 0.05 / (1.0 + iteration as f64 / 200.0);
    for i in 0..layer.weights.len() {
        if !layer.pruning_mask[i] {
            continue;
        }
        let noise = (rng.next_f64() as f32 - 0.5) * 0.02;
        let grad = layer.weights[i] * 0.1 + noise;
        layer.optimizer[i] = 0.9 * layer.optimizer[i] + 0.1 * grad;
        layer.weights[i] -= lr as f32 * layer.optimizer[i];
    }
    layer.rng_state = rng.state();
}

/// A layer's contribution to the training loss: mean |w| over retained
/// weights (decays as training pulls weights toward zero).
fn layer_loss(layer: &LayerState) -> f32 {
    let kept: Vec<f32> = layer
        .weights
        .iter()
        .zip(&layer.pruning_mask)
        .filter(|(_, &m)| m)
        .map(|(w, _)| w.abs())
        .collect();
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f32>() / kept.len() as f32
    }
}

/// FNV-1a over the bit-exact content of every layer.
fn weights_checksum(layers: &[LayerState]) -> u64 {
    let mut buffer = Vec::new();
    for layer in layers {
        buffer.extend_from_slice(&(layer.layer_id as u64).to_le_bytes());
        for w in &layer.weights {
            buffer.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        for o in &layer.optimizer {
            buffer.extend_from_slice(&o.to_bits().to_le_bytes());
        }
        buffer.extend(layer.pruning_mask.iter().map(|&m| u8::from(m)));
        buffer.push(u8::from(layer.frozen));
    }
    dynmo_resilience::fnv1a(buffer)
}

/// Update the layers this rank owns under `assignment` for `iteration`, then
/// all-reduce the training loss over `comm`.
fn train_owned_layers(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &mut [LayerState],
    iteration: u64,
    workload: &WorkloadConfig,
) -> Result<f32, RuntimeError> {
    let owned = assignment.layers_of(comm.rank());
    for &l in &owned {
        apply_schedules(&mut layers[l], iteration, workload);
        train_step(&mut layers[l], iteration);
    }
    let partial: f32 = owned.iter().map(|&l| layer_loss(&layers[l])).sum();
    Ok(comm.allreduce_sum_f32(&[partial])?[0])
}

/// Gather every stage's fresh layer states onto local rank 0 and assemble
/// the full [`TrainerState`].  Returns `Some` on rank 0, `None` elsewhere.
fn gather_full_state(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &[LayerState],
    iteration: u64,
    loss: f32,
) -> Result<Option<TrainerState>, RuntimeError> {
    let mine: Vec<&LayerState> = assignment
        .layers_of(comm.rank())
        .into_iter()
        .map(|l| &layers[l])
        .collect();
    let text = serde_json::to_string(&mine)
        .map_err(|e| RuntimeError::InvalidArgument(format!("serialize layers: {e}")))?;
    let payload = Payload::Bytes(bytes::Bytes::from(text.into_bytes()));
    let gathered = comm.gather(0, payload)?;
    let Some(parts) = gathered else {
        return Ok(None);
    };
    let mut all: Vec<LayerState> = Vec::with_capacity(layers.len());
    for part in parts {
        let raw = part.into_bytes()?;
        let text = std::str::from_utf8(&raw)
            .map_err(|e| RuntimeError::PayloadMismatch(format!("layer payload utf8: {e}")))?;
        let states: Vec<LayerState> = serde_json::from_str(text)
            .map_err(|e| RuntimeError::PayloadMismatch(format!("layer payload parse: {e}")))?;
        all.extend(states);
    }
    all.sort_by_key(|layer| layer.layer_id);
    let mut metrics = std::collections::BTreeMap::new();
    metrics.insert("loss".to_string(), f64::from(loss));
    Ok(Some(TrainerState {
        iteration,
        world_size: comm.size(),
        assignment: assignment.clone(),
        layers: all,
        metrics,
        engine: None,
    }))
}

/// Conclude a run: rank 0 of `comm` assembles the final state, hashes it,
/// and broadcasts the checksum so every member reports the same value.
fn conclude(
    comm: &Communicator,
    assignment: StageAssignment,
    layers: &[LayerState],
    iteration: u64,
    loss: f32,
) -> Result<RankOutcome, RuntimeError> {
    let final_state = gather_full_state(comm, &assignment, layers, iteration, loss)?;
    let summary_payload = if let Some(state) = &final_state {
        Payload::U64(vec![
            weights_checksum(&state.layers),
            assignment_imbalance(&assignment, &state.layers).to_bits(),
        ])
    } else {
        Payload::Empty
    };
    let summary = comm.broadcast(0, summary_payload)?.into_u64()?;
    Ok(RankOutcome {
        loss,
        world_size: comm.size(),
        assignment,
        weights_checksum: summary[0],
        imbalance: f64::from_bits(summary[1]),
    })
}

/// Save `state` (rank 0 only), pricing the write into the recovery bucket.
fn save_checkpoint(
    state: TrainerState,
    coordinator: &RecoveryCoordinator,
    shared: &SharedState,
) -> Result<(), RuntimeError> {
    let cost = coordinator.checkpoint_cost(&state);
    let checkpoint = Checkpoint::new(state).map_err(ckpt_err)?;
    let mut store = shared.store.lock();
    store.save(&checkpoint).map_err(ckpt_err)?;
    store.retain_last(coordinator.config.keep_checkpoints.max(1));
    drop(store);
    shared.overhead.lock().record_recovery(cost);
    shared.checkpoints_taken.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Run a fault-injected, checkpointed training job on the simulated
/// multi-rank runtime and recover from every scheduled failure.
///
/// Returns an error only for structural problems (bad config, checkpoint
/// corruption); scheduled rank deaths are *handled*, not propagated.
pub fn run_resilient(config: &ResilientTrainingConfig) -> Result<ResilientRunReport, RuntimeError> {
    run_resilient_recorded(config, Arc::new(NullRecorder))
}

/// [`run_resilient`] with a telemetry sink: spot-eviction advance warnings
/// surface as [`MarkerKind::EvictionWarning`] instants so a trace viewer
/// shows the warning → checkpoint → eviction → recovery sequence.
pub fn run_resilient_recorded(
    config: &ResilientTrainingConfig,
    recorder: Arc<dyn Recorder>,
) -> Result<ResilientRunReport, RuntimeError> {
    config.validate().map_err(RuntimeError::InvalidArgument)?;
    let coordinator = RecoveryCoordinator::partition_by_time(config.recovery);
    let shared = Arc::new(SharedState::new(config.world_size, recorder));

    // Initial checkpoint: every rank derives the same state, rank 0 writes
    // it before any rank starts, so recovery always has a floor.
    {
        let layers = init_layers(&config.workload);
        let assignment = StageAssignment::uniform(config.workload.num_layers, config.world_size);
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("loss".to_string(), 0.0);
        let state = TrainerState {
            iteration: 0,
            world_size: config.world_size,
            assignment,
            layers,
            metrics,
            engine: None,
        };
        save_checkpoint(state, &coordinator, &shared)?;
    }

    let shared_for_ranks = Arc::clone(&shared);
    let coordinator = Arc::new(coordinator);
    let config_owned = config.clone();
    let results: Vec<Result<Option<RankOutcome>, RuntimeError>> =
        launch(config.world_size, move |ctx| {
            rank_body(&ctx, &config_owned, &coordinator, &shared_for_ranks)
        })?;

    let mut outcome: Option<RankOutcome> = None;
    for result in results {
        match result {
            Ok(Some(rank_outcome)) => {
                if outcome.is_none() {
                    outcome = Some(rank_outcome);
                }
            }
            Ok(None) => {}
            Err(err) => return Err(err),
        }
    }
    let outcome = outcome.ok_or_else(|| {
        RuntimeError::InvalidArgument("no rank survived the resilient run".to_string())
    })?;

    // `launch` dropped the rank closure, the only other owner, before it
    // returned.
    let shared = Arc::into_inner(shared).expect("rank closure released the shared state");
    let overhead = shared.overhead_with_io();
    Ok(ResilientRunReport {
        initial_world_size: config.world_size,
        final_world_size: outcome.world_size,
        iterations: config.iterations,
        final_loss: f64::from(outcome.loss),
        final_imbalance: outcome.imbalance,
        final_assignment: outcome.assignment,
        weights_checksum: outcome.weights_checksum,
        checkpoints_taken: shared.checkpoints_taken.load(Ordering::SeqCst),
        replayed_iterations: shared.replayed_iterations.load(Ordering::SeqCst),
        recoveries: shared.recoveries.into_inner(),
        overhead,
        fleet_events: shared.job_manager.into_inner().events().to_vec(),
    })
}

/// The per-rank training loop with failure handling.
fn rank_body(
    ctx: &RankCtx,
    config: &ResilientTrainingConfig,
    coordinator: &RecoveryCoordinator,
    shared: &SharedState,
) -> Result<Option<RankOutcome>, RuntimeError> {
    let me = ctx.rank();
    let injector = FaultInjector::new(config.fault_plan.clone(), ctx.fabric().detector().clone());
    let mut comm = ctx.world();
    let mut assignment = StageAssignment::uniform(config.workload.num_layers, config.world_size);
    let mut layers = init_layers(&config.workload);
    let mut iteration: u64 = 0;
    let mut loss: f32 = 0.0;

    while iteration < config.iterations {
        match run_iteration(
            &comm,
            &assignment,
            &mut layers,
            iteration,
            &injector,
            config,
            coordinator,
            shared,
        ) {
            Ok(iteration_loss) => {
                loss = iteration_loss;
                iteration += 1;
            }
            Err(RuntimeError::RankFailed { rank }) if rank == me => {
                // This rank was killed by the fault plan: simulate the
                // crash by dropping out of the job entirely.
                return Ok(None);
            }
            Err(RuntimeError::RankFailed { .. }) => {
                // A peer died.  Re-form the world, roll back, replay.
                // Recovery itself can observe *another* death (two ranks
                // dying at the same iteration surface one at a time to a
                // survivor whose rebuilt communicator still contains the
                // second victim): retry with the updated failed set until
                // the rendezvous succeeds on a fully-live survivor world.
                loop {
                    match recover(&comm, iteration, coordinator, shared) {
                        Ok((new_comm, new_assignment, new_layers, resumed_from)) => {
                            comm = new_comm;
                            assignment = new_assignment;
                            layers = new_layers;
                            iteration = resumed_from;
                            break;
                        }
                        Err(RuntimeError::RankFailed { rank }) if rank == me => {
                            return Ok(None);
                        }
                        Err(RuntimeError::RankFailed { .. }) => continue,
                        Err(other) => return Err(other),
                    }
                }
            }
            Err(other) => return Err(other),
        }
    }

    conclude(&comm, assignment, &layers, iteration, loss).map(Some)
}

/// One training iteration: fault tick, schedules, local updates, global
/// loss, periodic checkpoint.
#[allow(clippy::too_many_arguments)]
fn run_iteration(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &mut [LayerState],
    iteration: u64,
    injector: &FaultInjector,
    config: &ResilientTrainingConfig,
    coordinator: &RecoveryCoordinator,
    shared: &SharedState,
) -> Result<f32, RuntimeError> {
    injector.tick(comm.my_global_rank(), iteration)?;
    let loss = train_owned_layers(comm, assignment, layers, iteration, &config.workload)?;

    // Checkpoint after every `interval` *completed* iterations.  The stored
    // `iteration` field is the next iteration to execute, so a restore
    // never re-applies an update the snapshot already contains.
    let interval = coordinator.config.checkpoint_interval;
    let periodic = interval > 0 && (iteration + 1).is_multiple_of(interval);

    // Spot-eviction advance warning: when any live member of this
    // communicator was just warned, checkpoint immediately so the imminent
    // eviction rolls back at most `SPOT_WARNING_ITERATIONS` iterations
    // instead of a whole checkpoint interval.  Every member of the
    // communicator computes the same predicate from the shared fault plan,
    // so the collective gather below stays aligned.
    let members = comm.members();
    let warned_here: Vec<usize> = config
        .fault_plan
        .warned_at(iteration)
        .into_iter()
        .filter(|rank| members.contains(rank))
        .collect();

    if periodic || !warned_here.is_empty() {
        if let Some(state) = gather_full_state(comm, assignment, layers, iteration + 1, loss)? {
            save_checkpoint(state, coordinator, shared)?;
        }
    }
    if comm.rank() == 0 {
        for rank in &warned_here {
            shared.recorder.instant(
                0,
                MarkerKind::EvictionWarning,
                &format!("rank {rank}"),
                iteration as f64,
                &[
                    ("iteration", iteration.to_string()),
                    ("rank", rank.to_string()),
                    ("evicts_in", SPOT_WARNING_ITERATIONS.to_string()),
                ],
            );
        }
    }
    Ok(loss)
}

/// Survivor-side recovery: rebuild the communicator, reload the newest
/// checkpoint, re-balance for the shrunken world, and report the rollback.
fn recover(
    comm: &Communicator,
    detected_at: u64,
    coordinator: &RecoveryCoordinator,
    shared: &SharedState,
) -> Result<(Communicator, StageAssignment, Vec<LayerState>, u64), RuntimeError> {
    // Only the ranks that died *out of this communicator* are new: ranks
    // handled by an earlier recovery are no longer members, so they are
    // neither re-released to the fleet nor re-reported in the event.
    let detector = comm.fabric().detector();
    let failed_now: Vec<usize> = comm
        .members()
        .iter()
        .copied()
        .filter(|&rank| detector.is_failed(rank))
        .collect();
    let new_comm = comm.rebuild_survivors()?.ok_or(RuntimeError::RankFailed {
        rank: comm.my_global_rank(),
    })?;
    // Rendezvous on the new communicator before touching the store, so no
    // survivor reads the checkpoint while another is still writing one.
    new_comm.barrier()?;

    let checkpoint = shared
        .store
        .lock()
        .latest()
        .map_err(ckpt_err)?
        .ok_or_else(|| {
            RuntimeError::InvalidArgument("no checkpoint available for recovery".to_string())
        })?;
    let state = checkpoint.verify().map_err(ckpt_err)?.clone();
    let assignment = coordinator.replan(&state, new_comm.size());
    let resumed_from = state.iteration;
    let replayed = detected_at.saturating_sub(resumed_from);

    if new_comm.rank() == 0 {
        // Release the dead GPUs back to the fleet and account the episode.
        let mut job_manager = shared.job_manager.lock();
        job_manager.set_iteration(detected_at);
        job_manager.release(&failed_now);
        drop(job_manager);
        let cost = coordinator.recovery_cost(&state, replayed);
        shared.overhead.lock().record_recovery(cost);
        shared
            .replayed_iterations
            .fetch_add(replayed, Ordering::SeqCst);
        shared.recoveries.lock().push(RecoveryEvent {
            detected_at,
            failed_ranks: failed_now,
            resumed_from,
            replayed,
            world_size_after: new_comm.size(),
            cost,
        });
    }

    Ok((new_comm, assignment, state.layers, resumed_from))
}

/// Configuration of a voluntary shrink→grow session.
#[derive(Debug, Clone)]
pub struct ElasticRescaleConfig {
    /// Full world size.
    pub world_size: usize,
    /// Total iterations to run.
    pub iterations: u64,
    /// The synthetic workload.
    pub workload: WorkloadConfig,
    /// Iteration at which the world shrinks.
    pub shrink_at: u64,
    /// World size during the shrunken phase.
    pub shrink_to: usize,
    /// Iteration at which the world grows back to full size.
    pub grow_at: u64,
    /// Resilience knobs (checkpoints carry state across re-scales).
    pub recovery: RecoveryConfig,
}

impl ElasticRescaleConfig {
    /// Validate phase ordering and sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.world_size == 0 || self.shrink_to == 0 {
            return Err("world sizes must be positive".into());
        }
        if self.shrink_to >= self.world_size {
            return Err("shrink_to must be smaller than world_size".into());
        }
        if !(self.shrink_at < self.grow_at && self.grow_at < self.iterations) {
            return Err("phases must satisfy shrink_at < grow_at < iterations".into());
        }
        if self.workload.num_layers < self.world_size {
            return Err("need at least one layer per worker".into());
        }
        Ok(())
    }
}

/// Outcome of [`run_elastic_rescale`].
#[derive(Debug, Clone)]
pub struct ElasticRescaleReport {
    /// World size in each phase: `[full, shrunken, full]`.
    pub phase_world_sizes: Vec<usize>,
    /// Whether every phase's assignment covered each layer exactly once,
    /// contiguously, within the phase's world size.
    pub layers_conserved: bool,
    /// Final training loss.
    pub final_loss: f64,
    /// Checksum of the final per-layer state.
    pub weights_checksum: u64,
    /// Fleet accounting: the shrink releases GPUs, the grow re-acquires
    /// them.
    pub fleet_events: Vec<FleetEvent>,
    /// Average GPUs allocated over the run (the paper's Figure 4 metric).
    pub average_allocated: f64,
    /// Overhead accounting (checkpoints + re-scale costs in `recovery`).
    pub overhead: OverheadBreakdown,
}

/// Check that `assignment` covers exactly the workload's layers, one stage
/// each, contiguously — the conservation invariant of every re-scale.
fn assignment_conserves_layers(assignment: &StageAssignment, num_layers: usize) -> bool {
    assignment.num_layers() == num_layers
        && assignment.is_contiguous()
        && assignment.counts().iter().sum::<usize>() == num_layers
}

/// Run a voluntary shrink→grow session: train on the full world, release
/// part of it mid-run (checkpoint + `comm_split` + re-balance), train on
/// the shrunken world, then grow back and finish on the full world.
pub fn run_elastic_rescale(
    config: &ElasticRescaleConfig,
) -> Result<ElasticRescaleReport, RuntimeError> {
    config.validate().map_err(RuntimeError::InvalidArgument)?;
    let coordinator = Arc::new(RecoveryCoordinator::partition_by_time(config.recovery));
    let shared = Arc::new(SharedState::new(config.world_size, Arc::new(NullRecorder)));
    let conserved = Arc::new(Mutex::new(true));

    let shared_for_ranks = Arc::clone(&shared);
    let coordinator_for_ranks = Arc::clone(&coordinator);
    let conserved_for_ranks = Arc::clone(&conserved);
    let config_owned = config.clone();
    let results: Vec<Result<RankOutcome, RuntimeError>> = launch(config.world_size, move |ctx| {
        elastic_rank_body(
            &ctx,
            &config_owned,
            &coordinator_for_ranks,
            &shared_for_ranks,
            &conserved_for_ranks,
        )
    })?;

    let mut first: Option<RankOutcome> = None;
    for result in results {
        let outcome = result?;
        if first.is_none() {
            first = Some(outcome);
        }
    }
    let outcome = first.expect("world_size >= 1 rank reported");

    let job_manager = shared.job_manager.lock().clone();
    let average_allocated = job_manager.average_allocated(config.iterations);
    let layers_conserved = *conserved.lock();
    let overhead = shared.overhead_with_io();
    Ok(ElasticRescaleReport {
        phase_world_sizes: vec![config.world_size, config.shrink_to, config.world_size],
        layers_conserved,
        final_loss: f64::from(outcome.loss),
        weights_checksum: outcome.weights_checksum,
        fleet_events: job_manager.events().to_vec(),
        average_allocated,
        overhead,
    })
}

/// Per-rank body of the shrink→grow session.
fn elastic_rank_body(
    ctx: &RankCtx,
    config: &ElasticRescaleConfig,
    coordinator: &RecoveryCoordinator,
    shared: &SharedState,
    conserved: &Mutex<bool>,
) -> Result<RankOutcome, RuntimeError> {
    let world = ctx.world();
    let me = ctx.rank();
    let workload = &config.workload;
    let mut layers = init_layers(workload);
    let mut loss: f32 = 0.0;

    let check_conservation = |assignment: &StageAssignment| {
        if !assignment_conserves_layers(assignment, config.workload.num_layers) {
            *conserved.lock() = false;
        }
    };

    // Phase 1: full world.
    let assignment = StageAssignment::uniform(config.workload.num_layers, config.world_size);
    check_conservation(&assignment);
    for iteration in 0..config.shrink_at {
        loss = train_owned_layers(&world, &assignment, &mut layers, iteration, workload)?;
    }
    // Checkpoint at the shrink boundary, then split off the released ranks.
    if let Some(state) = gather_full_state(&world, &assignment, &layers, config.shrink_at, loss)? {
        save_checkpoint(state, coordinator, shared)?;
    }
    world.barrier()?;
    if me == 0 {
        let mut job_manager = shared.job_manager.lock();
        job_manager.set_iteration(config.shrink_at);
        let released: Vec<usize> = (config.shrink_to..config.world_size).collect();
        job_manager
            .try_release(&released)
            .map_err(|e| RuntimeError::InvalidArgument(format!("elastic release: {e}")))?;
        shared
            .overhead
            .lock()
            .record_recovery(coordinator.config.rebuild_cost);
    }
    let active_ranks: Vec<usize> = (0..config.shrink_to).collect();
    let active = world.split_subset(&active_ranks)?;

    // Phase 2: shrunken world (released ranks idle until the grow barrier).
    if let Some(active) = &active {
        let checkpoint = shared
            .store
            .lock()
            .latest()
            .map_err(ckpt_err)?
            .expect("shrink checkpoint was just written");
        let state = checkpoint.verify().map_err(ckpt_err)?.clone();
        let shrunken_assignment = coordinator.replan(&state, config.shrink_to);
        check_conservation(&shrunken_assignment);
        layers = state.layers;
        for iteration in config.shrink_at..config.grow_at {
            loss = train_owned_layers(
                active,
                &shrunken_assignment,
                &mut layers,
                iteration,
                workload,
            )?;
        }
        if let Some(state) =
            gather_full_state(active, &shrunken_assignment, &layers, config.grow_at, loss)?
        {
            save_checkpoint(state, coordinator, shared)?;
        }
    }

    // Grow rendezvous: released ranks have been waiting here; active ranks
    // arrive once the shrunken phase is checkpointed.
    world.barrier()?;
    if me == 0 {
        let mut job_manager = shared.job_manager.lock();
        job_manager.set_iteration(config.grow_at);
        // Grow re-acquires the exact workers the shrink released; the
        // strict by-id path rejects any double acquire.
        let reacquired: Vec<usize> = (config.shrink_to..config.world_size).collect();
        job_manager
            .try_acquire(&reacquired)
            .map_err(|e| RuntimeError::InvalidArgument(format!("elastic acquire: {e}")))?;
        shared
            .overhead
            .lock()
            .record_recovery(coordinator.config.rebuild_cost);
    }

    // Phase 3: full world again, restored from the grow-point checkpoint.
    let checkpoint = shared
        .store
        .lock()
        .latest()
        .map_err(ckpt_err)?
        .expect("grow checkpoint was just written");
    let state = checkpoint.verify().map_err(ckpt_err)?.clone();
    let grown_assignment = coordinator.replan(&state, config.world_size);
    check_conservation(&grown_assignment);
    layers = state.layers;
    for iteration in config.grow_at..config.iterations {
        loss = train_owned_layers(&world, &grown_assignment, &mut layers, iteration, workload)?;
    }

    conclude(&world, grown_assignment, &layers, config.iterations, loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(world: usize, iterations: u64, plan: FaultPlan) -> ResilientTrainingConfig {
        ResilientTrainingConfig {
            world_size: world,
            iterations,
            workload: WorkloadConfig::small(world * 3, 42),
            fault_plan: plan,
            recovery: RecoveryConfig {
                checkpoint_interval: 10,
                ..RecoveryConfig::default()
            },
        }
    }

    #[test]
    fn failure_free_run_completes_with_checkpoints() {
        let report = run_resilient(&base_config(4, 35, FaultPlan::none())).unwrap();
        assert_eq!(report.final_world_size, 4);
        assert_eq!(report.iterations, 35);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.replayed_iterations, 0);
        // Initial + iterations 10, 20, 30.
        assert_eq!(report.checkpoints_taken, 4);
        assert!(report.overhead.recovery > 0.0);
        assert_eq!(report.overhead.recovery_events, 4);
        assert!(report.final_loss > 0.0);
        assert!(report.fleet_events.is_empty());
        // The timed store measured real wall-clock seconds for the four
        // checkpoint writes (diagnostic only — not in the modeled total).
        assert!(report.overhead.measured.samples >= 4);
        assert!(report.overhead.measured.checkpoint_io_seconds >= 0.0);
        assert!(report.overhead.measured.balancer_seconds == 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_resilient(&base_config(3, 25, FaultPlan::none())).unwrap();
        let b = run_resilient(&base_config(3, 25, FaultPlan::none())).unwrap();
        assert_eq!(a.weights_checksum, b.weights_checksum);
        assert_eq!(a.final_loss, b.final_loss);
    }

    #[test]
    fn killed_rank_triggers_recovery_and_the_job_finishes() {
        let config = base_config(4, 40, FaultPlan::none().kill(2, 17));
        let report = run_resilient(&config).unwrap();
        assert_eq!(report.final_world_size, 3);
        assert_eq!(report.recoveries.len(), 1);
        let recovery = &report.recoveries[0];
        assert_eq!(recovery.failed_ranks, vec![2]);
        assert_eq!(recovery.resumed_from, 10);
        assert!(recovery.detected_at >= 17);
        assert!(recovery.replayed >= 7);
        assert_eq!(recovery.world_size_after, 3);
        assert!(recovery.cost > 0.0);
        assert!(report.replayed_iterations >= 7);
        // The failed GPU was released back to the fleet.
        assert_eq!(report.fleet_events.len(), 1);
        assert_eq!(report.fleet_events[0].delta, 1);
        assert_eq!(report.fleet_events[0].allocated_after, 3);
        // The final assignment covers every layer over the survivor world.
        assert!(assignment_conserves_layers(
            &report.final_assignment,
            config.workload.num_layers
        ));
        assert!(report.final_assignment.num_stages() <= 3);
    }

    #[test]
    fn recovered_run_matches_failure_free_run_bit_for_bit() {
        // The per-layer updates are deterministic in (layer, iteration), so
        // replaying from the checkpoint must reproduce the exact same final
        // weights the uninterrupted run produces.
        let clean = run_resilient(&base_config(4, 40, FaultPlan::none())).unwrap();
        let faulty = run_resilient(&base_config(4, 40, FaultPlan::none().kill(1, 23))).unwrap();
        assert_eq!(clean.weights_checksum, faulty.weights_checksum);
        let relative = (clean.final_loss - faulty.final_loss).abs() / clean.final_loss.max(1e-12);
        assert!(relative < 1e-3, "loss drift {relative}");
    }

    #[test]
    fn two_failures_are_survived() {
        let config = base_config(5, 45, FaultPlan::none().kill(4, 12).kill(1, 31));
        let report = run_resilient(&config).unwrap();
        assert_eq!(report.final_world_size, 3);
        assert_eq!(report.recoveries.len(), 2);
        assert_eq!(report.recoveries[1].world_size_after, 3);
        let clean = run_resilient(&base_config(5, 45, FaultPlan::none())).unwrap();
        assert_eq!(report.weights_checksum, clean.weights_checksum);
    }

    #[test]
    fn simultaneous_failures_at_the_same_iteration_are_survived() {
        // Regression: when two victims die in the same iteration, a
        // survivor can observe the deaths one at a time — its first
        // rebuilt communicator still contains the second victim and the
        // recovery rendezvous is poisoned.  The recovery retry loop must
        // absorb that and converge (this aborted the whole run before).
        // Interleaving-dependent, hence several trials.
        let clean = run_resilient(&base_config(5, 40, FaultPlan::none())).unwrap();
        for trial in 0..10 {
            let config = base_config(5, 40, FaultPlan::none().kill(1, 13).kill(3, 13));
            let report =
                run_resilient(&config).unwrap_or_else(|e| panic!("trial {trial} failed: {e}"));
            assert_eq!(report.final_world_size, 3);
            assert_eq!(report.weights_checksum, clean.weights_checksum);
            // No rank is ever double-released, even across overlapping
            // recoveries.
            let released: i64 = report.fleet_events.iter().map(|e| e.delta).sum();
            assert_eq!(released, 2);
        }
    }

    #[test]
    fn sequential_failures_release_each_rank_exactly_once() {
        // The second recovery must only release the newly-dead rank, not
        // re-release the one handled earlier (which would pollute the
        // rejection counters the job manager keeps).
        let config = base_config(5, 45, FaultPlan::none().kill(4, 12).kill(1, 31));
        let report = run_resilient(&config).unwrap();
        assert_eq!(report.recoveries.len(), 2);
        assert_eq!(report.recoveries[0].failed_ranks, vec![4]);
        assert_eq!(report.recoveries[1].failed_ranks, vec![1]);
        assert_eq!(report.fleet_events.len(), 2);
        assert!(report.fleet_events.iter().all(|e| e.delta == 1));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = base_config(2, 10, FaultPlan::none().kill(0, 1).kill(1, 2));
        assert!(run_resilient(&config).is_err(), "whole world killed");
        config.fault_plan = FaultPlan::none().kill(7, 1);
        assert!(run_resilient(&config).is_err(), "unknown rank");
        config.fault_plan = FaultPlan::none().evict(7, 1, 4);
        assert!(run_resilient(&config).is_err(), "unknown evicted rank");
        config.fault_plan = FaultPlan::none().kill(0, 5).evict(1, 2, 5);
        assert!(
            run_resilient(&config).is_err(),
            "whole world evicted+killed"
        );
        config.fault_plan = FaultPlan::none();
        config.world_size = 0;
        assert!(run_resilient(&config).is_err());
    }

    #[test]
    fn eviction_warning_checkpoints_immediately_and_emits_a_marker() {
        use dynmo_telemetry::{Event, MemoryRecorder};

        // Eviction of rank 2 at iteration 17 with the warning at 14.  The
        // warning forces a checkpoint at iteration 14 (stored as 15), so
        // the recovery resumes from 15 instead of the periodic 10 — the
        // rollback is bounded by the warning lead, not the interval.
        let config = base_config(4, 30, FaultPlan::none().evict(2, 14, 17));
        let recorder = Arc::new(MemoryRecorder::new());
        let report = run_resilient_recorded(&config, recorder.clone()).unwrap();
        assert_eq!(report.final_world_size, 3);
        assert_eq!(report.recoveries.len(), 1);
        let recovery = &report.recoveries[0];
        assert_eq!(recovery.failed_ranks, vec![2]);
        assert_eq!(recovery.resumed_from, 15, "warning checkpoint not used");
        assert!(recovery.replayed <= SPOT_WARNING_ITERATIONS);

        let warnings: Vec<String> = recorder
            .snapshot()
            .into_iter()
            .filter_map(|event| match event {
                Event::Instant(i) if i.kind == MarkerKind::EvictionWarning => Some(i.name),
                _ => None,
            })
            .collect();
        assert_eq!(warnings, vec!["rank 2".to_string()]);
    }

    #[test]
    fn spot_evicted_run_recovers_bit_for_bit() {
        // A stochastic spot schedule (deterministic per seed) interrupts
        // the run; recovery must still reproduce the failure-free weights
        // exactly, and every eviction gets its advance-warning checkpoint.
        let plan = FaultPlan::spot(4, 40, 0.02, 7);
        let evicted: std::collections::BTreeSet<usize> =
            plan.evictions().iter().map(|e| e.rank).collect();
        assert!(!evicted.is_empty(), "seed 7 should schedule evictions");
        assert!(!evicted.contains(&0), "rank 0 is immune");

        let clean = run_resilient(&base_config(4, 40, FaultPlan::none())).unwrap();
        let faulty = run_resilient(&base_config(4, 40, plan)).unwrap();
        assert_eq!(clean.weights_checksum, faulty.weights_checksum);
        assert_eq!(faulty.final_world_size, 4 - evicted.len());
        assert!(!faulty.recoveries.is_empty());
        // Warning-driven checkpoints bound every rollback by the lead time
        // (+1 because the victim can die mid-iteration after a replay).
        for recovery in &faulty.recoveries {
            assert!(recovery.replayed <= SPOT_WARNING_ITERATIONS + 1);
        }
    }

    #[test]
    fn replan_respects_world_size_and_conservation() {
        let coordinator = RecoveryCoordinator::partition_by_time(RecoveryConfig::default());
        let layers = init_layers(&WorkloadConfig::small(12, 7));
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("loss".to_string(), 1.0);
        let state = TrainerState {
            iteration: 5,
            world_size: 4,
            assignment: StageAssignment::uniform(12, 4),
            layers,
            metrics,
            engine: None,
        };
        for world in [1, 2, 3, 4, 6] {
            let assignment = coordinator.replan(&state, world);
            assert!(assignment_conserves_layers(&assignment, 12));
            assert!(assignment.num_stages() <= world);
        }
    }

    #[test]
    fn elastic_shrink_grow_round_trips_the_world() {
        let config = ElasticRescaleConfig {
            world_size: 4,
            iterations: 36,
            workload: WorkloadConfig::small(12, 11),
            shrink_at: 12,
            shrink_to: 2,
            grow_at: 24,
            recovery: RecoveryConfig::default(),
        };
        let report = run_elastic_rescale(&config).unwrap();
        assert_eq!(report.phase_world_sizes, vec![4, 2, 4]);
        assert!(report.layers_conserved);
        assert!(report.final_loss > 0.0);
        // Fleet: one release of 2 GPUs, one re-acquire of 2 GPUs.
        assert_eq!(report.fleet_events.len(), 2);
        assert_eq!(report.fleet_events[0].delta, 2);
        assert_eq!(report.fleet_events[1].delta, -2);
        assert_eq!(report.fleet_events[1].allocated_after, 4);
        // Average allocation dips below the full fleet.
        assert!(report.average_allocated < 4.0);
        assert!(report.average_allocated > 2.0);
        assert!(report.overhead.recovery > 0.0);
    }

    #[test]
    fn elastic_rescale_matches_static_run_bit_for_bit() {
        let workload = WorkloadConfig::small(12, 19);
        let rescale = run_elastic_rescale(&ElasticRescaleConfig {
            world_size: 4,
            iterations: 30,
            workload,
            shrink_at: 10,
            shrink_to: 2,
            grow_at: 20,
            recovery: RecoveryConfig::default(),
        })
        .unwrap();
        let static_run = run_resilient(&ResilientTrainingConfig {
            world_size: 4,
            iterations: 30,
            workload,
            fault_plan: FaultPlan::none(),
            recovery: RecoveryConfig::default(),
        })
        .unwrap();
        assert_eq!(rescale.weights_checksum, static_run.weights_checksum);
    }

    #[test]
    fn elastic_config_validation() {
        let good = ElasticRescaleConfig {
            world_size: 4,
            iterations: 30,
            workload: WorkloadConfig::small(8, 1),
            shrink_at: 10,
            shrink_to: 2,
            grow_at: 20,
            recovery: RecoveryConfig::default(),
        };
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.shrink_to = 4;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.grow_at = 5;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.workload.num_layers = 2;
        assert!(bad.validate().is_err());
    }
}
