//! The serving engine: replicated pipelines, continuous batching, elastic
//! autoscaling.
//!
//! A deployment is `r` *replicas*, each a `p`-stage pipeline holding the
//! whole model (layers placed by one of DynMo's balancers, subject to the
//! device memory capacity).  Requests wait in a single FCFS gateway
//! queue, and whichever replica is ready first pulls from it through
//! admission control — so a replica provisioned mid-spike immediately
//! relieves the shared backlog.  Each replica runs vLLM-style engine
//! steps formed by its [`crate::batching::ContinuousBatcher`], and each
//! step is priced by the pipeline simulator's forward-only mode
//! ([`PipelineSimulator::simulate_forward`]): the step's batch is split
//! into micro-batches that flow down the pipeline paying per-boundary α–β
//! communication costs.
//!
//! The dynamism engines plug in through their inference hook
//! ([`DynamismEngine::inference_step`]): per engine step the current
//! `LoadUpdate` rescales every layer's per-token forward time (MoE routing
//! skew, early-exit survival) and shrinks boundary tensors via token
//! retention — so CALM-style early exit directly shortens decode work and
//! wire bytes, exactly as it shortened training iterations.
//!
//! When an [`crate::autoscale::Autoscaler`] is attached, breaching the
//! TTFT target acquires one replica's worth of GPUs from the fleet's
//! [`JobManager`], lays out the new replica with the configured balancer
//! (re-partitioning against the *current* dynamism state), and brings it
//! online after a provisioning delay; quiet periods drain and release
//! replicas back — the paper's elastic release run in reverse.

use dynmo_core::balancer::{
    BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer, PartitionBalancer,
};
use dynmo_core::elastic::{JobManager, MockJobManager};
use dynmo_core::profiler::profile_layers;
use dynmo_dynamics::{DynamismEngine, LoadUpdate};
use dynmo_model::ClusterConfig;
use dynmo_model::{DeviceSpec, KvCacheModel, Model, ModelPreset};
use dynmo_pipeline::load::{boundary_retention_profile, StageLoad};
use dynmo_pipeline::{CommCostModel, PipelineSimulator, ScheduleKind, StageAssignment};
use dynmo_telemetry::{MarkerKind, NullRecorder, Recorder, StreamingSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::autoscale::{Autoscaler, AutoscalerConfig, LoadSignals, ScaleDecision, ScaleEvent};
use crate::batching::{BatcherConfig, ContinuousBatcher, StepPlan};
use crate::metrics::{LatencySummary, RequestRecord, ServingReport, SloTarget};
use crate::trace::RequestTrace;

/// Which balancer family lays out replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeBalancerKind {
    /// Centralized contiguous partitioning (by execution time).
    Partition,
    /// Decentralized diffusion (by execution time).
    Diffusion,
}

impl ServeBalancerKind {
    /// Label for reports and sweep rows.
    pub fn label(&self) -> &'static str {
        match self {
            ServeBalancerKind::Partition => "partition",
            ServeBalancerKind::Diffusion => "diffusion",
        }
    }

    fn build(&self) -> Box<dyn LoadBalancer> {
        match self {
            ServeBalancerKind::Partition => Box::new(PartitionBalancer::new()),
            ServeBalancerKind::Diffusion => Box::new(DiffusionBalancer::new()),
        }
    }
}

/// Full description of a serving deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Tenant identity carried into reports, fleet ledger owner tags, and
    /// telemetry (a multi-tenant fleet runs one deployment per tenant).
    pub tenant: String,
    /// Model served by every replica.
    pub preset: ModelPreset,
    /// Pipeline stages (GPUs) per replica.
    pub stages: usize,
    /// GPUs per node (for the α–β link locality of the comm model).
    pub gpus_per_node: usize,
    /// Accelerator every worker runs on.
    pub device: DeviceSpec,
    /// Replicas online at t = 0.
    pub initial_replicas: usize,
    /// Hard ceiling on replicas (sizes the GPU fleet; fixed-capacity
    /// deployments set this equal to `initial_replicas`).
    pub max_replicas: usize,
    /// Balancer family laying out each replica's stages.
    pub balancer: ServeBalancerKind,
    /// Micro-batches one engine step is split into as it flows down the
    /// pipeline (1 = no intra-step pipelining).
    pub microbatches: usize,
    /// Token budget of one engine step.
    pub max_batch_tokens: usize,
    /// Chunked-prefill cap per step.
    pub max_prefill_tokens: usize,
    /// Cost of one decode token relative to one prefill token (decode is
    /// memory-bound; > 1 on real accelerators).
    pub decode_cost_factor: f64,
    /// Cap on concurrently running requests per replica (vLLM's
    /// `max_num_seqs`): bounds the decode batch width so the decode
    /// cadence stays interactive; excess demand queues at the gateway.
    pub max_running_requests: usize,
    /// Sliding attention window (tokens); `None` = dense attention.
    pub attention_window: Option<usize>,
    /// Fraction of post-weights device memory given to the KV cache.
    pub kv_memory_fraction: f64,
    /// The SLO goodput is measured against.
    pub slo: SloTarget,
    /// Autoscaler policy; `None` = fixed capacity.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Keep per-request lifecycle records in the report.  `false` drops
    /// them as they complete, so a run's memory stays O(1) in trace length
    /// (the summaries, counters, and goodput are unaffected: they are
    /// accumulated online).
    pub retain_records: bool,
}

impl ServingConfig {
    /// A small fixed-capacity deployment used by tests and examples:
    /// GPT-24 on 4-stage replicas of modest accelerators
    /// ([`DeviceSpec::test_device`]), chat SLOs.  The modest device keeps
    /// one replica's capacity at a few requests/second, so the congestion
    /// regimes the autoscaler exists for appear at trace scales that
    /// simulate in milliseconds (an H100 fleet serving a 350M-parameter
    /// model would need six orders of magnitude more traffic to queue).
    pub fn small(initial_replicas: usize) -> Self {
        ServingConfig {
            tenant: "default".into(),
            preset: ModelPreset::Gpt { layers: 24 },
            stages: 4,
            gpus_per_node: 4,
            device: DeviceSpec::test_device(16 * 1024 * 1024 * 1024),
            initial_replicas,
            max_replicas: initial_replicas,
            balancer: ServeBalancerKind::Partition,
            microbatches: 4,
            max_batch_tokens: 2048,
            max_prefill_tokens: 512,
            decode_cost_factor: 4.0,
            max_running_requests: 32,
            attention_window: None,
            kv_memory_fraction: 0.8,
            slo: SloTarget::chat_default(),
            autoscaler: None,
            retain_records: true,
        }
    }

    /// Enable autoscaling up to `max_replicas` with the given policy.
    pub fn with_autoscaler(mut self, config: AutoscalerConfig) -> Self {
        self.max_replicas = self.max_replicas.max(config.max_replicas);
        self.autoscaler = Some(config);
        self
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages == 0 || self.gpus_per_node == 0 {
            return Err("stages and gpus_per_node must be positive".into());
        }
        if self.initial_replicas == 0 {
            return Err("at least one initial replica is required".into());
        }
        if self.max_replicas < self.initial_replicas {
            return Err("max_replicas must be ≥ initial_replicas".into());
        }
        if self.microbatches == 0 {
            return Err("microbatches must be positive".into());
        }
        if self.max_running_requests == 0 {
            return Err("max_running_requests must be positive".into());
        }
        if self.max_batch_tokens == 0 {
            return Err("max_batch_tokens must be positive".into());
        }
        if self.max_prefill_tokens == 0 || self.max_prefill_tokens > self.max_batch_tokens {
            return Err("max_prefill_tokens must be in 1..=max_batch_tokens".into());
        }
        if self.attention_window == Some(0) {
            return Err("attention_window must be positive when set".into());
        }
        if self.decode_cost_factor.is_nan() || self.decode_cost_factor <= 0.0 {
            return Err("decode_cost_factor must be positive".into());
        }
        if self.kv_memory_fraction.is_nan()
            || self.kv_memory_fraction <= 0.0
            || self.kv_memory_fraction > 1.0
        {
            return Err("kv_memory_fraction must be in (0, 1]".into());
        }
        if let Some(scaler) = &self.autoscaler {
            if scaler.max_replicas > self.max_replicas {
                return Err("autoscaler max_replicas exceeds the fleet ceiling".into());
            }
        }
        Ok(())
    }
}

/// One pipeline replica's live state.
struct Replica {
    batcher: ContinuousBatcher,
    assignment: StageAssignment,
    /// Time the replica is next free.
    clock: f64,
    /// Provisioning completes at this time (0 for the initial replicas).
    ready_at: f64,
    /// Draining replicas accept no new dispatches.
    draining: bool,
    /// Released replicas are gone (their GPUs returned to the fleet).
    released: bool,
    /// Fleet worker ids backing the replica.
    workers: Vec<usize>,
}

impl Replica {
    /// When the replica can next start an engine step, given the arrival
    /// time of the gateway queue's front (if any); `None` if the replica
    /// has nothing to do.
    fn next_action_time(&self, gateway_front: Option<f64>) -> Option<f64> {
        if self.released {
            return None;
        }
        if self.batcher.has_work() {
            let work_at = if self.batcher.running_len() > 0 {
                self.clock
            } else {
                self.batcher.oldest_waiting_arrival()?
            };
            return Some(work_at.max(self.clock).max(self.ready_at));
        }
        if self.draining {
            return None;
        }
        // Idle: the next gateway request is this replica's next work.
        gateway_front.map(|arrival| arrival.max(self.clock).max(self.ready_at))
    }
}

/// Time-weighted GPU occupancy for externally managed deployments.
struct ExternalGpuMeter {
    /// ∫ gpus dt up to `sampled_at`.
    integral: f64,
    /// Time the integral was last advanced to.
    sampled_at: f64,
}

/// The simulated deployment.
pub struct ServingEngine {
    config: ServingConfig,
    model: Model,
    simulator: PipelineSimulator,
    balancer: Box<dyn LoadBalancer>,
    /// Per-layer forward seconds per *token* at identity dynamism.
    per_token_fwd: Vec<f64>,
    /// Per-replica KV capacity in tokens (tightest stage of the layout).
    kv_capacity_tokens: usize,
    /// Scheduler knobs shared by every replica (initial and scaled-out);
    /// scaled-out replicas may override `kv_capacity_tokens` with their
    /// own layout's capacity.
    batcher_config: BatcherConfig,
    /// The identity-dynamism layout the initial replicas use — also the
    /// validated fallback for scaled-out replicas whose re-partitioned
    /// layout prices too little KV capacity.
    initial_assignment: StageAssignment,
    /// Largest per-request KV reservation in the trace being served (set
    /// by [`ServingEngine::serve`]); a scaled-out layout must cover it.
    trace_max_kv_need: usize,
    replicas: Vec<Replica>,
    /// Own GPU ledger of a self-managed deployment; `None` when the GPUs
    /// are granted from outside (a fleet controller's shared pool).
    fleet: Option<MockJobManager>,
    /// GPU-time integral for externally managed deployments (the ledger
    /// normally derives `mean_gpus`; without one, the deployment meters
    /// its own replica-GPU occupancy over time).
    external_meter: Option<ExternalGpuMeter>,
    autoscaler: Option<Autoscaler>,
    scale_events: Vec<ScaleEvent>,
    engine_steps: u64,
    peak_replicas: usize,
    latest_update: LoadUpdate,
    /// Observability sink (the no-op [`NullRecorder`] by default).  The
    /// recorder only *observes* — enabling it never changes admission,
    /// pricing, scaling, or any reported metric.
    recorder: Arc<dyn Recorder>,
}

impl ServingEngine {
    /// Build a deployment: lay out the initial replicas with the
    /// configured balancer and reserve the rest of the fleet for scale-out.
    pub fn new(config: ServingConfig) -> Result<Self, String> {
        config.validate()?;
        let model = Model::from_preset(config.preset);
        let kv_model = KvCacheModel::new(model.config().clone());
        let cluster =
            ClusterConfig::homogeneous(config.gpus_per_node, config.stages, 1, config.device);
        let simulator = PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB);
        let balancer = config.balancer.build();

        let identity = LoadUpdate::identity(model.num_layers());
        let base_loads = profile_layers(&model, &identity, &config.device);
        let tokens_per_microbatch =
            (model.config().micro_batch_size * model.config().seq_len) as f64;
        let per_token_fwd: Vec<f64> = base_loads
            .iter()
            .map(|l| l.fwd_time / tokens_per_microbatch)
            .collect();

        let request = BalanceRequest::new(
            &base_loads,
            config.stages,
            config.device.memory_capacity,
            BalanceObjective::ByTime,
        )
        .with_inflight(vec![1; config.stages]);
        let initial_assignment = balancer.rebalance(&request).assignment;

        let kv_capacity_tokens = kv_capacity(&model, &kv_model, &config, &initial_assignment)?;
        let batcher_config = BatcherConfig {
            kv_capacity_tokens,
            max_batch_tokens: config.max_batch_tokens,
            max_prefill_tokens: config.max_prefill_tokens,
            kv_reservation_cap: config.attention_window,
            max_running_requests: config.max_running_requests,
        };

        // The fleet holds every GPU the deployment may ever use; the ones
        // not backing an initial replica are released (free) at t = 0.
        let mut fleet = MockJobManager::new(config.max_replicas * config.stages);
        let mut replicas = Vec::with_capacity(config.initial_replicas);
        for r in 0..config.max_replicas {
            let workers: Vec<usize> = (r * config.stages..(r + 1) * config.stages).collect();
            if r < config.initial_replicas {
                replicas.push(Replica {
                    batcher: ContinuousBatcher::new(batcher_config),
                    assignment: initial_assignment.clone(),
                    clock: 0.0,
                    ready_at: 0.0,
                    draining: false,
                    released: false,
                    workers,
                });
            } else {
                fleet
                    .try_release(&workers)
                    .map_err(|e| format!("fleet setup: {e}"))?;
            }
        }

        let autoscaler = config.autoscaler.map(Autoscaler::new);
        Ok(ServingEngine {
            peak_replicas: replicas.len(),
            latest_update: identity,
            config,
            model,
            simulator,
            balancer,
            per_token_fwd,
            kv_capacity_tokens,
            batcher_config,
            initial_assignment,
            trace_max_kv_need: 0,
            replicas,
            fleet: Some(fleet),
            external_meter: None,
            autoscaler,
            scale_events: Vec::new(),
            engine_steps: 0,
            recorder: Arc::new(NullRecorder),
        })
    }

    /// Build an *externally managed* deployment: every replica runs on a
    /// GPU block granted by an outside owner (a fleet controller's shared
    /// pool), one block of `config.stages` workers per initial replica.
    /// The deployment keeps no ledger of its own — scaling happens through
    /// [`ServingSession::add_external_replica`], [`ServingSession::begin_drain`]
    /// and [`ServingSession::reclaim_drained`], and `mean_gpus` is metered
    /// from replica occupancy over time.  The internal autoscaler is
    /// rejected: exactly one party may own the scaling decisions.
    pub fn external(config: ServingConfig, blocks: Vec<Vec<usize>>) -> Result<Self, String> {
        if config.autoscaler.is_some() {
            return Err("externally managed deployments cannot run their own autoscaler".into());
        }
        if blocks.len() != config.initial_replicas {
            return Err(format!(
                "{} worker blocks for {} initial replicas",
                blocks.len(),
                config.initial_replicas
            ));
        }
        if let Some(bad) = blocks.iter().find(|b| b.len() != config.stages) {
            return Err(format!(
                "worker block of {} GPUs cannot back a {}-stage replica",
                bad.len(),
                config.stages
            ));
        }
        let mut engine = ServingEngine::new(config)?;
        engine.fleet = None;
        engine.external_meter = Some(ExternalGpuMeter {
            integral: 0.0,
            sampled_at: 0.0,
        });
        for (replica, block) in engine.replicas.iter_mut().zip(blocks) {
            replica.workers = block;
        }
        Ok(engine)
    }

    /// Attach a telemetry recorder: engine steps become per-replica spans,
    /// scale events become instant markers, and the live replica count is
    /// sampled as a counter track.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Per-replica KV capacity in tokens.
    pub fn kv_capacity_tokens(&self) -> usize {
        self.kv_capacity_tokens
    }

    /// Serve a whole trace to completion and report SLO metrics.  The
    /// optional dynamism engine is stepped once per engine step through its
    /// inference hook.
    ///
    /// Consumes the deployment: token counters, the fleet ledger, scaling
    /// state and drained replicas all accumulate across steps, so a second
    /// trace needs a fresh [`ServingEngine`] (or the [`serve`] wrapper) —
    /// by-value `self` makes silent metric corruption impossible.
    pub fn serve(
        self,
        trace: &RequestTrace,
        mut engine: Option<&mut dyn DynamismEngine>,
    ) -> ServingReport {
        let mut session = self.session(trace);
        while session.step(match engine {
            Some(ref mut e) => Some(&mut **e),
            None => None,
        }) {}
        session.finish()
    }

    /// Open an incremental serving session over `trace`: the same
    /// simulation [`ServingEngine::serve`] runs to completion, exposed one
    /// engine step at a time so an outside scheduler (the fleet
    /// controller) can interleave it with other work on a shared clock.
    /// Stepping a session to the end and calling [`ServingSession::finish`]
    /// is bit-identical to `serve`.
    pub fn session(mut self, trace: &RequestTrace) -> ServingSession {
        // A request must fit one replica's KV budget under the same
        // reservation rule admission control applies (a sliding attention
        // window caps the footprint of long requests).
        let max_need = trace
            .requests
            .iter()
            .map(|r| self.batcher_config.kv_need(r))
            .max()
            .unwrap_or(0);
        assert!(
            max_need <= self.kv_capacity_tokens,
            "trace contains a request larger than one replica's KV capacity"
        );
        self.trace_max_kv_need = max_need;
        let total = trace.num_requests();
        let records = if self.config.retain_records {
            Vec::with_capacity(total)
        } else {
            Vec::new()
        };
        ServingSession {
            engine: self,
            trace: trace.clone(),
            records,
            // SLO metrics are accumulated online: streaming sketches for
            // the three latency series (exact while small, O(1) P² beyond)
            // and a plain counter for SLO attainment, so the report never
            // needs the full record vector.
            ttft_summary: StreamingSummary::new(),
            tpot_summary: StreamingSummary::new(),
            latency_summary: StreamingSummary::new(),
            slo_met: 0,
            completed_count: 0,
            // The gateway: a single FCFS queue over the trace.  Requests
            // stay here until a replica pulls them through admission
            // control, so a replica provisioned mid-spike immediately
            // relieves the backlog.
            gateway: 0,
            makespan: 0.0,
            completions: Vec::new(),
            finished: false,
        }
    }

    /// Price one engine step of replica `idx` under the current dynamism
    /// state: per-stage forward time from the per-token cost rescaled by
    /// the update, boundary tensors sized by the step's tokens and the
    /// update's token retention, the whole batch split into micro-batches
    /// and run through the forward-only pipeline simulator.
    fn price_step(&self, idx: usize, plan: &StepPlan, update: &LoadUpdate) -> f64 {
        let replica = &self.replicas[idx];
        let num_stages = replica.assignment.num_stages();
        let layer_to_stage = replica.assignment.layer_to_stage();
        let weighted_tokens =
            plan.prefill_tokens as f64 + self.config.decode_cost_factor * plan.decode_tokens as f64;
        let batch_tokens = plan.batch_tokens();
        let m = self.config.microbatches.min(batch_tokens).max(1);

        let mut stage_time = vec![0.0f64; num_stages];
        let mut stage_layers = vec![0usize; num_stages];
        for (layer, &stage) in layer_to_stage.iter().enumerate() {
            stage_time[stage] +=
                self.per_token_fwd[layer] * update.fwd_scale[layer] * weighted_tokens;
            stage_layers[stage] += 1;
        }
        let retention =
            boundary_retention_profile(layer_to_stage, &update.token_retention, num_stages);
        let model_config = self.model.config();
        let bytes_per_token = (model_config.hidden_size * model_config.param_bytes) as f64;
        let flat_boundary = batch_tokens as f64 / m as f64 * bytes_per_token;
        let loads: Vec<StageLoad> = (0..num_stages)
            .map(|s| {
                if stage_layers[s] == 0 {
                    return StageLoad::default(); // empty stage: bypassed
                }
                StageLoad {
                    fwd_time: stage_time[s] / m as f64,
                    bwd_time: 0.0,
                    param_count: 0,
                    static_bytes: 0,
                    activation_bytes: 0,
                    // Never 0: that would fall back to the training-shaped
                    // flat residual tensor instead of this batch's.
                    boundary_bytes: ((flat_boundary * retention[s]) as u64).max(1),
                    num_layers: stage_layers[s],
                }
            })
            .collect();
        self.simulator
            .simulate_forward(model_config, &loads, m)
            .makespan
    }

    /// Evaluate the autoscaler at `now` and apply its decision.
    /// `gateway_tokens` and `oldest_wait` describe the gateway queue (the
    /// un-admitted FCFS backlog).
    fn autoscale(&mut self, now: f64, gateway_tokens: usize, oldest_wait: f64) {
        let Some(scaler) = &mut self.autoscaler else {
            return;
        };
        let live: Vec<&Replica> = self
            .replicas
            .iter()
            .filter(|r| !r.released && !r.draining)
            .collect();
        let backlog_tokens: usize = gateway_tokens
            + live
                .iter()
                .map(|r| r.batcher.outstanding_tokens())
                .sum::<usize>();
        let signals = LoadSignals {
            replicas: live.len(),
            backlog_tokens,
            oldest_wait,
            capacity_tokens_per_replica: self.kv_capacity_tokens,
        };
        let decision = scaler.evaluate(now, &signals);
        let acted = match decision {
            ScaleDecision::Hold => false,
            ScaleDecision::Out => {
                let p99 = scaler.windowed_ttft_p99(now);
                self.scale_out(now, p99, backlog_tokens)
            }
            ScaleDecision::In => {
                // Drain the live replica with the least outstanding work;
                // its GPUs return to the fleet once it empties.
                if let Some(victim) = self
                    .replicas
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| !r.released && !r.draining)
                    .min_by_key(|(_, r)| r.batcher.outstanding_tokens())
                    .map(|(i, _)| i)
                {
                    self.replicas[victim].draining = true;
                    true
                } else {
                    false
                }
            }
        };
        if acted {
            // Only an applied decision starts the cooldown: a scale-out
            // dropped for lack of free GPUs must be retried at the next
            // check, not suppressed for a whole cooldown mid-breach.
            if let Some(scaler) = &mut self.autoscaler {
                scaler.note_action(now);
            }
        }
    }

    /// Acquire one replica's worth of GPUs and bring a new replica online
    /// after the provisioning delay, re-partitioned against the current
    /// dynamism state.  Returns whether a replica was actually added (the
    /// fleet may have no free block while a draining replica still holds
    /// its GPUs).
    fn scale_out(&mut self, now: f64, observed_ttft_p99: f64, backlog_tokens: usize) -> bool {
        let workers = {
            let Some(fleet) = self.fleet.as_mut() else {
                return false; // externally managed: scaling happens outside
            };
            if fleet.available() < self.config.stages {
                return false; // fleet exhausted
            }
            fleet.set_iteration(fleet_clock(now));
            fleet.acquire(self.config.stages)
        };
        debug_assert_eq!(workers.len(), self.config.stages);
        let (assignment, capacity) = self.replica_layout();
        let provision_delay = self
            .config
            .autoscaler
            .as_ref()
            .map_or(0.0, |c| c.provision_delay);
        let ready_at = now + provision_delay;
        self.replicas.push(Replica {
            batcher: ContinuousBatcher::new(BatcherConfig {
                kv_capacity_tokens: capacity,
                ..self.batcher_config
            }),
            assignment,
            clock: ready_at,
            ready_at,
            draining: false,
            released: false,
            workers,
        });
        let live = self.live_replicas();
        self.peak_replicas = self.peak_replicas.max(live);
        self.scale_events.push(ScaleEvent {
            time: now,
            delta: 1,
            replicas_after: live,
            observed_ttft_p99,
            backlog_tokens,
        });
        self.recorder.instant(
            0,
            MarkerKind::ScaleOut,
            &format!("to {live} replicas"),
            now,
            &[
                ("ttft_p99", format!("{observed_ttft_p99:.4}")),
                ("backlog_tokens", backlog_tokens.to_string()),
            ],
        );
        self.recorder.counter(0, "live_replicas", now, live as f64);
        true
    }

    /// Lay out a new replica against the *current* dynamism state (e.g.
    /// early exit has shifted work toward early layers) — and price the
    /// new layout's own KV capacity, since a skewed layout can concentrate
    /// more KV-caching layers on one stage than the initial layout did.
    /// If the new layout cannot serve the trace's largest request (or
    /// prices no capacity at all), fall back to the initial layout, which
    /// was validated up front.
    fn replica_layout(&self) -> (StageAssignment, usize) {
        let loads = profile_layers(&self.model, &self.latest_update, &self.config.device);
        let request = BalanceRequest::new(
            &loads,
            self.config.stages,
            self.config.device.memory_capacity,
            BalanceObjective::ByTime,
        )
        .with_inflight(vec![1; self.config.stages]);
        let candidate = self.balancer.rebalance(&request).assignment;
        let kv_model = KvCacheModel::new(self.model.config().clone());
        match kv_capacity(&self.model, &kv_model, &self.config, &candidate) {
            // Capping at the initial layout's capacity keeps the
            // report-level invariant (peak KV ≤ reported capacity).
            Ok(c) if c >= self.trace_max_kv_need => (candidate, c.min(self.kv_capacity_tokens)),
            _ => (self.initial_assignment.clone(), self.kv_capacity_tokens),
        }
    }

    /// Advance the external GPU-time integral to `now` at the *current*
    /// replica set (call before the set changes).  No-op for self-managed
    /// deployments, whose ledger already carries the occupancy history.
    fn note_gpu_change(&mut self, now: f64) {
        let gpus: usize = self
            .replicas
            .iter()
            .filter(|r| !r.released)
            .map(|r| r.workers.len())
            .sum();
        if let Some(meter) = &mut self.external_meter {
            meter.integral += gpus as f64 * (now - meter.sampled_at).max(0.0);
            meter.sampled_at = meter.sampled_at.max(now);
        }
    }

    /// Outstanding (admitted, unfinished) tokens across live replicas.
    fn outstanding_tokens(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| !r.released)
            .map(|r| r.batcher.outstanding_tokens())
            .sum()
    }

    /// Return the GPUs of drained replicas to the fleet, logging one
    /// scale-in event per released replica.
    fn release_drained(&mut self, now: f64) {
        for idx in 0..self.replicas.len() {
            let drained = {
                let r = &self.replicas[idx];
                r.draining && !r.released && !r.batcher.has_work() && r.clock <= now
            };
            if drained {
                let fleet = self
                    .fleet
                    .as_mut()
                    .expect("self-managed scaling implies an own ledger");
                fleet.set_iteration(fleet_clock(now));
                let workers = self.replicas[idx].workers.clone();
                fleet
                    .try_release(&workers)
                    .expect("replica workers are allocated");
                self.replicas[idx].released = true;
                let p99 = self
                    .autoscaler
                    .as_ref()
                    .map_or(0.0, |s| s.windowed_ttft_p99(now));
                let live = self.live_replicas();
                self.scale_events.push(ScaleEvent {
                    time: now,
                    delta: -1,
                    replicas_after: live,
                    observed_ttft_p99: p99,
                    backlog_tokens: self
                        .replicas
                        .iter()
                        .filter(|r| !r.released)
                        .map(|r| r.batcher.outstanding_tokens())
                        .sum(),
                });
                self.recorder.instant(
                    0,
                    MarkerKind::ScaleIn,
                    &format!("to {live} replicas"),
                    now,
                    &[("ttft_p99", format!("{p99:.4}"))],
                );
                self.recorder.counter(0, "live_replicas", now, live as f64);
            }
        }
    }

    /// Replicas serving or provisioning (not draining, not released).
    fn live_replicas(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| !r.released && !r.draining)
            .count()
    }

    #[allow(clippy::too_many_arguments)]
    fn build_report(
        &mut self,
        trace: &RequestTrace,
        records: Vec<RequestRecord>,
        completed: usize,
        makespan: f64,
        ttft: &StreamingSummary,
        tpot: &StreamingSummary,
        latency: &StreamingSummary,
        slo_met: u64,
    ) -> ServingReport {
        let slo = self.config.slo;
        let span = makespan.max(f64::MIN_POSITIVE);
        // Close the external GPU-time integral at the makespan (no-op for
        // self-managed deployments).
        self.note_gpu_change(makespan);
        let mean_gpus = match (&self.fleet, &self.external_meter) {
            (Some(fleet), _) => fleet.average_allocated(fleet_clock(makespan).max(1)),
            (None, Some(meter)) => meter.integral / span,
            (None, None) => 0.0,
        };
        let total_output_tokens: u64 = self
            .replicas
            .iter()
            .map(|r| r.batcher.total_decode_tokens())
            .sum();
        let total_prefill_tokens: u64 = self
            .replicas
            .iter()
            .map(|r| r.batcher.total_prefill_tokens())
            .sum();
        let peak_kv_tokens = self
            .replicas
            .iter()
            .map(|r| r.batcher.peak_kv_tokens())
            .max()
            .unwrap_or(0);
        ServingReport {
            trace: trace.label.clone(),
            tenant: self.config.tenant.clone(),
            requests: trace.num_requests(),
            completed,
            makespan,
            ttft: LatencySummary::from_stats(&ttft.stats()),
            tpot: LatencySummary::from_stats(&tpot.stats()),
            latency: LatencySummary::from_stats(&latency.stats()),
            slo,
            slo_met,
            goodput_rps: slo_met as f64 / span,
            throughput_rps: completed as f64 / span,
            output_tokens_per_second: total_output_tokens as f64 / span,
            total_output_tokens,
            total_prefill_tokens,
            engine_steps: self.engine_steps,
            mean_gpus,
            peak_replicas: self.peak_replicas,
            scale_events: std::mem::take(&mut self.scale_events),
            kv_capacity_tokens: self.kv_capacity_tokens,
            peak_kv_tokens,
            records,
        }
    }
}

/// A point-in-time view of the gateway's un-admitted FCFS backlog.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatewaySnapshot {
    /// Arrived-but-unadmitted requests.
    pub requests: usize,
    /// Their total (prompt + output) tokens.
    pub tokens: usize,
    /// Seconds the queue's front request has been waiting.
    pub oldest_wait: f64,
}

/// An in-flight serving run: the engine, its trace, and every accumulator
/// [`ServingEngine::serve`] keeps, exposed one engine step at a time so an
/// outside scheduler can interleave serving with other work on a shared
/// clock.  Obtained from [`ServingEngine::session`]; stepping to the end
/// and calling [`ServingSession::finish`] reproduces `serve` bit-for-bit.
pub struct ServingSession {
    engine: ServingEngine,
    trace: RequestTrace,
    records: Vec<RequestRecord>,
    ttft_summary: StreamingSummary,
    tpot_summary: StreamingSummary,
    latency_summary: StreamingSummary,
    slo_met: u64,
    completed_count: usize,
    gateway: usize,
    makespan: f64,
    /// `(completion time, TTFT)` of requests finished since the last
    /// [`ServingSession::take_completions`] — only accumulated for
    /// externally managed deployments, so self-managed runs stay O(1).
    completions: Vec<(f64, f64)>,
    finished: bool,
}

impl ServingSession {
    /// Execute the next engine step, wherever it falls on the clock.
    /// Returns `false` once the trace is fully served.
    pub fn step(&mut self, dynamism: Option<&mut dyn DynamismEngine>) -> bool {
        self.step_bounded(f64::INFINITY, dynamism)
    }

    /// Execute every engine step that *starts* at or before `horizon`,
    /// then stop.  Returns `true` when the whole trace has been served
    /// (no work remains at any time).
    pub fn run_until(
        &mut self,
        horizon: f64,
        mut dynamism: Option<&mut dyn DynamismEngine>,
    ) -> bool {
        while self.step_bounded(
            horizon,
            match dynamism {
                Some(ref mut e) => Some(&mut **e),
                None => None,
            },
        ) {}
        self.finished
    }

    /// One iteration of the serve loop, gated on the start time of the
    /// earliest runnable step.  The body is the exact op sequence the
    /// monolithic `serve` loop ran — bit-identity depends on it.
    fn step_bounded(&mut self, horizon: f64, dynamism: Option<&mut dyn DynamismEngine>) -> bool {
        if self.finished {
            return false;
        }
        let gateway_front = self.trace.requests.get(self.gateway).map(|r| r.arrival);
        // The earliest-ready replica acts next.
        let Some((idx, start)) = self
            .engine
            .replicas
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.next_action_time(gateway_front).map(|t| (i, t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are finite"))
        else {
            self.finished = true;
            return false;
        };
        if start > horizon {
            return false;
        }

        // Pull from the gateway (FCFS) while admission control allows.
        if !self.engine.replicas[idx].draining {
            while let Some(request) = self.trace.requests.get(self.gateway) {
                if request.arrival > start
                    || !self.engine.replicas[idx].batcher.try_admit(*request, start)
                {
                    break;
                }
                self.gateway += 1;
            }
        }

        let update = match dynamism {
            Some(e) => {
                let u = e.inference_step(self.engine.engine_steps);
                u.validate().expect("inference update is valid");
                u
            }
            None => LoadUpdate::identity(self.engine.model.num_layers()),
        };
        let plan = self.engine.replicas[idx]
            .batcher
            .plan_step(start)
            .expect("next_action_time implies runnable work");
        let duration = self.engine.price_step(idx, &plan, &update);
        let end = start + duration;
        self.engine.replicas[idx].clock = end;
        self.engine.engine_steps += 1;
        self.engine.latest_update = update;
        self.makespan = self.makespan.max(end);
        if self.engine.recorder.enabled() {
            let name = format!("step p{} d{}", plan.prefill_tokens, plan.decode_tokens);
            self.engine.recorder.span(0, idx, &name, start, end);
        }

        let completed = self.engine.replicas[idx]
            .batcher
            .commit_step(&plan, idx, end);
        for record in completed {
            if let Some(scaler) = &mut self.engine.autoscaler {
                scaler.record_completion(end, record.ttft());
            }
            self.ttft_summary.observe(record.ttft());
            self.tpot_summary.observe(record.tpot());
            self.latency_summary.observe(record.latency());
            if self.engine.config.slo.met_by(&record) {
                self.slo_met += 1;
            }
            self.completed_count += 1;
            if self.engine.external_meter.is_some() {
                self.completions.push((end, record.ttft()));
            }
            if self.engine.config.retain_records {
                self.records.push(record);
            }
        }

        if self.engine.autoscaler.is_some() {
            // Evaluate on the monotone observation clock (`makespan` =
            // the latest step end seen so far): steps are executed in
            // start-time order, so raw `end`s can interleave backward,
            // and both the scale-event log and the fleet ledger assume
            // non-decreasing timestamps.
            let now = self.makespan;
            // The backlog scan is O(arrived-but-unadmitted); only pay
            // it on steps where a policy check is actually due.
            if self
                .engine
                .autoscaler
                .as_ref()
                .is_some_and(|s| s.check_due(now))
            {
                let backlog = self.gateway_backlog(now);
                self.engine
                    .autoscale(now, backlog.tokens, backlog.oldest_wait);
            }
            self.engine.release_drained(now);
        }
        true
    }

    /// Assemble the final report.  Requires the session to have run to
    /// completion (`step` returned `false` / `run_until` returned `true`).
    pub fn finish(mut self) -> ServingReport {
        assert!(
            self.finished,
            "finish() requires the session to have served the whole trace"
        );
        assert_eq!(
            self.completed_count,
            self.trace.num_requests(),
            "the scheduler conserves requests"
        );
        let records = std::mem::take(&mut self.records);
        self.engine.build_report(
            &self.trace,
            records,
            self.completed_count,
            self.makespan,
            &self.ttft_summary,
            &self.tpot_summary,
            &self.latency_summary,
            self.slo_met,
        )
    }

    /// Whether the whole trace has been served.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Start time of the earliest runnable engine step, `None` when done.
    pub fn next_action_time(&self) -> Option<f64> {
        if self.finished {
            return None;
        }
        let gateway_front = self.trace.requests.get(self.gateway).map(|r| r.arrival);
        self.engine
            .replicas
            .iter()
            .filter_map(|r| r.next_action_time(gateway_front))
            .min_by(|a, b| a.partial_cmp(b).expect("times are finite"))
    }

    /// The tenant this session serves.
    pub fn tenant(&self) -> &str {
        &self.engine.config.tenant
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.engine.config
    }

    /// Replicas serving or provisioning (not draining, not released).
    pub fn live_replicas(&self) -> usize {
        self.engine.live_replicas()
    }

    /// Replicas draining toward release.
    pub fn draining_replicas(&self) -> usize {
        self.engine
            .replicas
            .iter()
            .filter(|r| r.draining && !r.released)
            .count()
    }

    /// Admitted-but-unfinished tokens across live replicas.
    pub fn outstanding_tokens(&self) -> usize {
        self.engine.outstanding_tokens()
    }

    /// Per-replica KV capacity in tokens.
    pub fn kv_capacity_tokens(&self) -> usize {
        self.engine.kv_capacity_tokens
    }

    /// Requests served to completion so far.
    pub fn completed_requests(&self) -> usize {
        self.completed_count
    }

    /// Requests in the trace.
    pub fn total_requests(&self) -> usize {
        self.trace.num_requests()
    }

    /// Latest step end seen so far (the monotone observation clock).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// The gateway's un-admitted backlog as of `now`.
    pub fn gateway_backlog(&self, now: f64) -> GatewaySnapshot {
        let mut snapshot = GatewaySnapshot::default();
        for (i, request) in self.trace.requests[self.gateway..].iter().enumerate() {
            if request.arrival > now {
                break;
            }
            if i == 0 {
                snapshot.oldest_wait = (now - request.arrival).max(0.0);
            }
            snapshot.requests += 1;
            snapshot.tokens += request.total_tokens();
        }
        snapshot
    }

    /// Drain the `(completion time, TTFT)` pairs of requests finished
    /// since the previous call (externally managed deployments only —
    /// self-managed sessions keep no completion log).
    pub fn take_completions(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.completions)
    }

    /// Bring a new replica online over an externally granted GPU block:
    /// laid out against the current dynamism state (same policy as an
    /// autoscaler scale-out), accepting work from `ready_at`.
    /// `observed_ttft_p99` is the caller's SLO reading, logged with the
    /// scale event.  Errors on self-managed deployments and wrongly sized
    /// blocks.
    pub fn add_external_replica(
        &mut self,
        workers: Vec<usize>,
        now: f64,
        ready_at: f64,
        observed_ttft_p99: f64,
    ) -> Result<(), String> {
        let engine = &mut self.engine;
        if engine.fleet.is_some() {
            return Err("self-managed deployments own their scaling".into());
        }
        if workers.len() != engine.config.stages {
            return Err(format!(
                "worker block of {} GPUs cannot back a {}-stage replica",
                workers.len(),
                engine.config.stages
            ));
        }
        engine.note_gpu_change(now);
        let (assignment, capacity) = engine.replica_layout();
        let online_at = ready_at.max(now);
        engine.replicas.push(Replica {
            batcher: ContinuousBatcher::new(BatcherConfig {
                kv_capacity_tokens: capacity,
                ..engine.batcher_config
            }),
            assignment,
            clock: online_at,
            ready_at: online_at,
            draining: false,
            released: false,
            workers,
        });
        let live = engine.live_replicas();
        engine.peak_replicas = engine.peak_replicas.max(live);
        let backlog_tokens = engine.outstanding_tokens();
        engine.scale_events.push(ScaleEvent {
            time: now,
            delta: 1,
            replicas_after: live,
            observed_ttft_p99,
            backlog_tokens,
        });
        engine.recorder.instant(
            0,
            MarkerKind::ScaleOut,
            &format!("to {live} replicas"),
            now,
            &[
                ("ttft_p99", format!("{observed_ttft_p99:.4}")),
                ("backlog_tokens", backlog_tokens.to_string()),
            ],
        );
        engine
            .recorder
            .counter(0, "live_replicas", now, live as f64);
        Ok(())
    }

    /// Start draining the live replica with the least outstanding work
    /// (the same victim rule the autoscaler's scale-in uses); its GPUs
    /// come back through [`ServingSession::reclaim_drained`] once it
    /// empties.  Returns the replica index, or `None` with no live
    /// replica to drain.
    pub fn begin_drain(&mut self) -> Option<usize> {
        let victim = self
            .engine
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.released && !r.draining)
            .min_by_key(|(_, r)| r.batcher.outstanding_tokens())
            .map(|(i, _)| i)?;
        self.engine.replicas[victim].draining = true;
        Some(victim)
    }

    /// Collect the GPU blocks of replicas that have finished draining as
    /// of `now` (externally managed deployments only), logging one
    /// scale-in event per reclaimed replica.  The caller returns the
    /// blocks to whatever pool granted them.
    pub fn reclaim_drained(&mut self, now: f64) -> Vec<Vec<usize>> {
        let engine = &mut self.engine;
        if engine.fleet.is_some() {
            return Vec::new(); // self-managed: release_drained owns this
        }
        let mut freed = Vec::new();
        for idx in 0..engine.replicas.len() {
            let drained = {
                let r = &engine.replicas[idx];
                r.draining && !r.released && !r.batcher.has_work() && r.clock <= now
            };
            if drained {
                engine.note_gpu_change(now);
                engine.replicas[idx].released = true;
                let workers = std::mem::take(&mut engine.replicas[idx].workers);
                let live = engine.live_replicas();
                let backlog_tokens = engine.outstanding_tokens();
                engine.scale_events.push(ScaleEvent {
                    time: now,
                    delta: -1,
                    replicas_after: live,
                    observed_ttft_p99: 0.0,
                    backlog_tokens,
                });
                engine.recorder.instant(
                    0,
                    MarkerKind::ScaleIn,
                    &format!("to {live} replicas"),
                    now,
                    &[("backlog_tokens", backlog_tokens.to_string())],
                );
                engine
                    .recorder
                    .counter(0, "live_replicas", now, live as f64);
                freed.push(workers);
            }
        }
        freed
    }
}

/// The fleet ledger timestamps in milliseconds (its "iteration" axis) —
/// shared with fleet controllers so every party stamps the same clock.
pub fn fleet_clock(time: f64) -> u64 {
    (time * 1000.0).round().max(0.0) as u64
}

/// Per-replica KV capacity in tokens: for every stage of the layout,
/// device memory minus the stage's inference weights, times the KV
/// fraction, divided by the stage's per-token KV bytes; the tightest stage
/// wins.  Stages caching nothing (embedding/head only) never constrain.
fn kv_capacity(
    model: &Model,
    kv_model: &KvCacheModel,
    config: &ServingConfig,
    assignment: &StageAssignment,
) -> Result<usize, String> {
    let param_bytes = model.config().param_bytes as u64;
    let mut capacity = usize::MAX;
    for stage in 0..assignment.num_stages() {
        let layer_ids = assignment.layers_of(stage);
        if layer_ids.is_empty() {
            continue;
        }
        let layers: Vec<_> = layer_ids
            .iter()
            .map(|&l| model.layers()[l].clone())
            .collect();
        let weights: u64 = layers.iter().map(|l| l.param_count * param_bytes).sum();
        if weights >= config.device.memory_capacity {
            return Err(format!(
                "stage {stage} weights ({weights} B) exceed device memory"
            ));
        }
        let budget =
            ((config.device.memory_capacity - weights) as f64 * config.kv_memory_fraction) as u64;
        let retained = vec![1.0; layers.len()];
        let stage_capacity = kv_model.capacity_tokens(&layers, &retained, budget);
        capacity = capacity.min(stage_capacity);
    }
    if capacity == 0 || capacity == usize::MAX {
        return Err("layout yields no usable KV capacity".into());
    }
    Ok(capacity)
}

/// Convenience wrapper: build a deployment and serve one trace.
pub fn serve(
    config: ServingConfig,
    trace: &RequestTrace,
    engine: Option<&mut dyn DynamismEngine>,
) -> Result<ServingReport, String> {
    Ok(ServingEngine::new(config)?.serve(trace, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscalerConfig;
    use crate::trace::{ArrivalProcess, LengthModel, RequestTrace};
    use dynmo_dynamics::{EarlyExitEngine, EarlyExitMethod};

    fn lengths() -> LengthModel {
        LengthModel {
            mean_prompt_tokens: 256,
            mean_output_tokens: 64,
            spread: 0.4,
        }
    }

    fn poisson_trace(rate: f64, duration: f64) -> RequestTrace {
        RequestTrace::generate(&ArrivalProcess::Poisson { rate }, duration, &lengths(), 11)
    }

    #[test]
    fn a_light_trace_is_served_with_low_latency() {
        let trace = poisson_trace(2.0, 20.0);
        let report = serve(ServingConfig::small(1), &trace, None).unwrap();
        assert_eq!(report.completed, trace.num_requests());
        assert!(report.makespan > 0.0);
        assert!(report.ttft.p99 > 0.0);
        assert!(report.tpot.p99 > 0.0);
        assert!(report.latency.p50 >= report.ttft.p50);
        assert!(report.total_output_tokens == trace.total_output_tokens());
        assert!(report.total_prefill_tokens == trace.total_tokens() - trace.total_output_tokens());
        assert!(report.scale_events.is_empty());
        assert!(report.peak_kv_tokens <= report.kv_capacity_tokens);
        // 8 GPUs would be 2 replicas; a fixed single replica is 4 GPUs.
        assert_eq!(report.mean_gpus, 4.0);
    }

    #[test]
    fn two_replicas_beat_one_on_a_heavy_trace() {
        let trace = poisson_trace(30.0, 10.0);
        let one = serve(ServingConfig::small(1), &trace, None).unwrap();
        let two = serve(ServingConfig::small(2), &trace, None).unwrap();
        assert!(two.ttft.p99 < one.ttft.p99);
        assert!(two.makespan < one.makespan);
    }

    #[test]
    fn early_exit_shortens_decode_work() {
        let trace = poisson_trace(8.0, 15.0);
        let dense = serve(ServingConfig::small(1), &trace, None).unwrap();
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 9);
        let exited = serve(ServingConfig::small(1), &trace, Some(&mut engine)).unwrap();
        // Same tokens decoded, less work per token → faster everywhere.
        assert_eq!(exited.total_output_tokens, dense.total_output_tokens);
        assert!(exited.tpot.p50 < dense.tpot.p50);
        assert!(exited.makespan < dense.makespan);
    }

    #[test]
    fn the_autoscaler_absorbs_a_spike_the_fixed_fleet_cannot() {
        let process = ArrivalProcess::Bursty {
            base_rate: 2.0,
            spike_rate: 40.0,
            spike_start: 10.0,
            spike_duration: 20.0,
        };
        let trace = RequestTrace::generate(&process, 40.0, &lengths(), 21);
        let fixed = serve(ServingConfig::small(1), &trace, None).unwrap();
        let mut elastic_config = ServingConfig::small(1);
        elastic_config.max_replicas = 4;
        let elastic_config =
            elastic_config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));
        let elastic = serve(elastic_config, &trace, None).unwrap();
        assert!(
            elastic.scale_out_events() >= 1,
            "the spike must trigger a scale-out"
        );
        assert!(
            elastic.ttft.p99 < fixed.ttft.p99,
            "elastic p99 TTFT {} must beat fixed {}",
            elastic.ttft.p99,
            fixed.ttft.p99
        );
        assert!(elastic.peak_replicas > 1);
        assert!(elastic.mean_gpus > 4.0);
        // The fleet ledger and the scale events agree.
        assert_eq!(elastic.completed, trace.num_requests());
    }

    #[test]
    fn quiet_tails_scale_back_in() {
        // A spike early, then a long quiet tail with light traffic: the
        // autoscaler must release the extra replicas again.
        let process = ArrivalProcess::Bursty {
            base_rate: 1.0,
            spike_rate: 40.0,
            spike_start: 5.0,
            spike_duration: 15.0,
        };
        let trace = RequestTrace::generate(&process, 120.0, &lengths(), 33);
        let mut config = ServingConfig::small(1);
        config.max_replicas = 4;
        let config = config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));
        let report = serve(config, &trace, None).unwrap();
        assert!(report.scale_out_events() >= 1);
        assert!(
            report.scale_in_events() >= 1,
            "the quiet tail must release a replica (events: {:?})",
            report.scale_events
        );
    }

    #[test]
    fn a_windowed_deployment_serves_requests_longer_than_dense_capacity() {
        // One request whose raw prompt+output exceeds the replica's KV
        // capacity, but whose sliding-window reservation fits: dense
        // attention must reject the trace, windowed attention must serve
        // it (the capacity check applies the same cap as admission).
        let dense_config = ServingConfig::small(1);
        let capacity = ServingEngine::new(dense_config.clone())
            .unwrap()
            .kv_capacity_tokens();
        let trace = RequestTrace::replayed("long", vec![(0.0, capacity + 100, 10)]).unwrap();
        let dense = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(dense_config.clone(), &trace, None)
        }));
        assert!(dense.is_err(), "dense attention must reject the trace");
        let mut windowed_config = dense_config;
        windowed_config.attention_window = Some(4096);
        let report = serve(windowed_config, &trace, None).unwrap();
        assert_eq!(report.completed, 1);
        assert!(report.peak_kv_tokens <= 4096);
    }

    #[test]
    fn diffusion_balancer_also_serves() {
        let trace = poisson_trace(4.0, 10.0);
        let mut config = ServingConfig::small(1);
        config.balancer = ServeBalancerKind::Diffusion;
        let report = serve(config, &trace, None).unwrap();
        assert_eq!(report.completed, trace.num_requests());
    }

    #[test]
    fn recorder_and_record_dropping_change_no_metric() {
        use dynmo_telemetry::{Event, MemoryRecorder};

        let process = ArrivalProcess::Bursty {
            base_rate: 2.0,
            spike_rate: 40.0,
            spike_start: 10.0,
            spike_duration: 20.0,
        };
        let trace = RequestTrace::generate(&process, 40.0, &lengths(), 21);
        let mut config = ServingConfig::small(1);
        config.max_replicas = 4;
        let config = config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));

        let baseline = serve(config.clone(), &trace, None).unwrap();

        let recorder = std::sync::Arc::new(MemoryRecorder::new());
        let mut lean_config = config;
        lean_config.retain_records = false;
        let lean = ServingEngine::new(lean_config)
            .unwrap()
            .with_recorder(recorder.clone())
            .serve(&trace, None);

        // Dropping records and attaching a recorder is invisible to every
        // aggregate — bit for bit.
        assert!(lean.records.is_empty());
        assert_eq!(lean.completed, baseline.completed);
        assert_eq!(lean.slo_met, baseline.slo_met);
        assert_eq!(lean.ttft.p99.to_bits(), baseline.ttft.p99.to_bits());
        assert_eq!(lean.tpot.p50.to_bits(), baseline.tpot.p50.to_bits());
        assert_eq!(lean.latency.mean.to_bits(), baseline.latency.mean.to_bits());
        assert_eq!(lean.goodput_rps.to_bits(), baseline.goodput_rps.to_bits());
        assert_eq!(
            lean.slo_attainment().to_bits(),
            baseline.slo_attainment().to_bits()
        );
        assert_eq!(lean.scale_events, baseline.scale_events);

        // ... while the recorder saw the run's structure: engine-step spans
        // per replica lane and scale markers mirroring the event log.
        let events = recorder.snapshot();
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::Span(_)))
            .count();
        let outs = events
            .iter()
            .filter(
                |e| matches!(e, Event::Instant(i) if i.kind == dynmo_telemetry::MarkerKind::ScaleOut),
            )
            .count();
        let ins = events
            .iter()
            .filter(
                |e| matches!(e, Event::Instant(i) if i.kind == dynmo_telemetry::MarkerKind::ScaleIn),
            )
            .count();
        assert_eq!(spans as u64, lean.engine_steps);
        assert_eq!(outs, lean.scale_out_events());
        assert_eq!(ins, lean.scale_in_events());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ServingConfig::small(1);
        c.stages = 0;
        assert!(serve(c, &poisson_trace(1.0, 1.0), None).is_err());
        let mut c = ServingConfig::small(1);
        c.kv_memory_fraction = 0.0;
        assert!(c.validate().is_err());
        let mut c = ServingConfig::small(2);
        c.initial_replicas = 0;
        assert!(c.validate().is_err());
        let mut c = ServingConfig::small(1);
        c.microbatches = 0;
        assert!(c.validate().is_err());
        // The batcher knobs are validated up front too, so serve() returns
        // Err instead of panicking inside ContinuousBatcher::new.
        let mut c = ServingConfig::small(1);
        c.max_batch_tokens = 0;
        assert!(c.validate().is_err());
        let mut c = ServingConfig::small(1);
        c.max_prefill_tokens = c.max_batch_tokens + 1;
        assert!(c.validate().is_err());
        let mut c = ServingConfig::small(1);
        c.attention_window = Some(0);
        assert!(c.validate().is_err());
    }
}
