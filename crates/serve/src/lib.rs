//! # dynmo-serve
//!
//! A continuous-batching inference serving subsystem for the DynMo
//! reproduction — the paper's dynamic-model mechanisms (early exit, MoE
//! routing, Mixture of Depths, pruning) pay off at inference time at least
//! as much as during training, and this crate opens that workload class on
//! top of the machinery the training side already built:
//!
//! * [`trace`] — request-trace generators (Poisson, bursty spike, diurnal
//!   swing, replayed logs) with per-request prompt/output lengths.
//! * [`batching`] — a vLLM-style iteration-level scheduler per replica:
//!   chunked prefill + one decode token per running request each engine
//!   step, with KV-cache admission control against the budgets computed by
//!   `dynmo_model::KvCacheModel`.
//! * [`engine`] — the deployment: replicated pipelines laid out by DynMo's
//!   balancers, engine steps priced by the pipeline simulator's
//!   forward-only mode, dynamism engines plugged in through
//!   their `inference_step` hook (early-exit token retention shortens
//!   decode work and boundary bytes; MoE routing skews per-stage load).
//! * [`metrics`] — SLO metrics: TTFT, TPOT, p50/p95/p99 latency, goodput.
//! * [`autoscale`] — an SLO-driven elastic autoscaler that acquires GPUs
//!   from the fleet's `JobManager` and lays out new replicas with the
//!   balancer when a load spike pushes p99 TTFT past target, then drains
//!   and releases them when the spike passes.

#![warn(missing_docs)]

pub mod autoscale;
pub mod batching;
pub mod engine;
pub mod metrics;
pub mod trace;

pub use autoscale::{Autoscaler, AutoscalerConfig, LoadSignals, ScaleDecision, ScaleEvent};
pub use batching::{BatcherConfig, ContinuousBatcher, StepPlan};
pub use engine::{
    fleet_clock, serve, GatewaySnapshot, ServeBalancerKind, ServingConfig, ServingEngine,
    ServingSession,
};
pub use metrics::{percentile, LatencySummary, RequestRecord, ServingReport, SloTarget};
pub use trace::{ArrivalProcess, LengthModel, Request, RequestTrace};
