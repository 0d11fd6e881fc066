//! # dynmo-pipeline
//!
//! Pipeline-parallel execution modeling for the DynMo reproduction.
//!
//! The paper measures how dynamic models create *bubbles* (idle time) in
//! pipeline-parallel training and how rebalancing removes them.  On the
//! paper's testbed those numbers come from running Megatron-Core on
//! hundreds of H100s; here they come from a discrete-event simulation of
//! the same pipeline schedules:
//!
//! * [`stage`] — the layer→stage assignment that the balancers manipulate,
//!   plus [`load::LayerLoad`], the profiled per-layer cost snapshot.
//! * [`schedule`] — micro-batch orderings for GPipe, 1F1B, Megatron-style
//!   interleaved 1F1B (virtual stages), and a ZB-H1-style zero-bubble
//!   schedule with split backward (the "almost zero-bubble" baseline of
//!   the paper's Figure 1).
//! * [`simulator`] — one loop over per-worker op cursors, linear in the
//!   op count, that starts each op once its activation/gradient producers
//!   have run and their communication latencies have elapsed, bypasses
//!   stages released by re-packing, supports a forward-only inference mode
//!   for the serving engine, and reports makespan, per-worker idleness and
//!   the bubble ratio.
//! * [`comm`] — an α–β communication model for per-boundary activation and
//!   gradient hand-offs, locality-aware gradient all-reduce, MoE
//!   all-to-all, and layer migration.
//! * [`memory`] — per-stage memory-capacity checks (OOM detection used by
//!   re-packing).
//! * [`data_parallel`] — hybrid data+pipeline parallel throughput
//!   accounting (tokens/sec across replicas).

#![warn(missing_docs)]

pub mod comm;
pub mod data_parallel;
pub mod load;
pub mod memory;
pub mod metrics;
pub mod schedule;
pub mod simulator;
pub mod stage;

pub use comm::CommCostModel;
pub use data_parallel::HybridThroughputModel;
pub use load::{LayerLoad, StageLoad};
pub use memory::{check_stage_memory, StageMemoryReport};
pub use metrics::{IterationReport, WorkerTimeline};
pub use schedule::ScheduleKind;
pub use simulator::PipelineSimulator;
pub use stage::StageAssignment;
