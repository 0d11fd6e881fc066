//! Outside-in tracing: spans recorded around calls into each layer's
//! public functions and trait objects, never inside the program.
//!
//! Every op owns an [`OpTrace`]; the decorators below hold a clone of it
//! and record one span per call they forward.  A span carries its name,
//! start, end, parent span and op id, and stays in memory until the
//! benchmark writes it out.  A layer's self time is its span time minus
//! the time its child spans cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dynmo_core::balancer::{BalanceOutcome, BalanceRequest, LoadBalancer};
use dynmo_dynamics::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};
use dynmo_pipeline::metrics::IterationReport;
use dynmo_resilience::{Checkpoint, CheckpointError, CheckpointStore};
use dynmo_telemetry::{Event, Recorder};

/// Nanoseconds since the first call in this process.  This is the
/// benchmark's only clock; it never feeds a simulated figure.
#[allow(clippy::disallowed_methods)]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the call crossed, e.g. `"balancer"`.
    pub name: &'static str,
    /// The op the call belongs to.
    pub op: u32,
    /// Index (within the op) of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Bytes the call encoded or decoded (0 where none).
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct OpLog {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The span log of one op.  Clones share the log, so a decorator built at
/// set-up time records into the op it is later driven by.
#[derive(Clone)]
pub struct OpTrace {
    op: u32,
    log: Arc<Mutex<OpLog>>,
}

impl OpTrace {
    /// An empty log for op `op`.
    pub fn new(op: u32) -> Self {
        OpTrace {
            op,
            log: Arc::default(),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, OpLog> {
        self.log
            .lock()
            .expect("a span recorder panicked mid-update")
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_bytes(name, f, |_| 0)
    }

    /// Time `f` as a span named `name`; `bytes` sizes the result after the
    /// span has closed, so sizing is never charged to the layer.
    pub fn span_bytes<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = {
            let mut log = self.log();
            let id = log.spans.len() as u32;
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                op: self.op,
                parent,
                start_ns: 0,
                end_ns: 0,
                bytes: 0,
            });
            log.open.push(id);
            id
        };
        let start = now_ns();
        let out = f();
        let end = now_ns();
        let size = bytes(&out);
        let mut log = self.log();
        log.open.pop();
        let span = &mut log.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        span.bytes = size;
        out
    }

    /// Take the recorded spans, leaving the log empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.log().spans)
    }
}

/// Time `f` as a span named `name` when the pass is traced; run it plainly
/// otherwise.
pub fn span<T>(trace: Option<&OpTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_sized(trace, name, f, |_| 0)
}

/// [`span`], with the span sized by `bytes` (see [`OpTrace::span_bytes`]).
pub fn span_sized<T>(
    trace: Option<&OpTrace>,
    name: &'static str,
    f: impl FnOnce() -> T,
    bytes: impl FnOnce(&T) -> u64,
) -> T {
    match trace {
        Some(op) => op.span_bytes(name, f, bytes),
        None => f(),
    }
}

/// Time spent in each span, minus the time its direct children cover.
/// `spans` must hold whole ops, in the order [`OpTrace::take`] returned them.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    let mut op_start = 0usize;
    for (i, span) in spans.iter().enumerate() {
        if i > 0 && span.op != spans[i - 1].op {
            op_start = i;
        }
        if let Some(parent) = span.parent {
            child[op_start + parent as usize] += span.ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// [`LoadBalancer`] decorator: one `balancer` span per rebalance.
pub struct BalancerProbe {
    inner: Box<dyn LoadBalancer + Send>,
    trace: OpTrace,
}

impl BalancerProbe {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn LoadBalancer + Send>, trace: OpTrace) -> Self {
        BalancerProbe { inner, trace }
    }
}

impl LoadBalancer for BalancerProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn rebalance(&self, request: &BalanceRequest<'_>) -> BalanceOutcome {
        self.trace
            .span("balancer", || self.inner.rebalance(request))
    }
}

/// [`DynamismEngine`] decorator: one `dynamics` span per `step` or
/// `inference_step`; every other method is forwarded untimed.
pub struct EngineProbe {
    inner: Box<dyn DynamismEngine + Send>,
    trace: OpTrace,
}

impl EngineProbe {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn DynamismEngine + Send>, trace: OpTrace) -> Self {
        EngineProbe { inner, trace }
    }
}

impl DynamismEngine for EngineProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn case(&self) -> DynamismCase {
        self.inner.case()
    }

    fn step(&mut self, iteration: u64) -> LoadUpdate {
        let inner = &mut self.inner;
        self.trace.span("dynamics", || inner.step(iteration))
    }

    fn inference_step(&mut self, iteration: u64) -> LoadUpdate {
        let inner = &mut self.inner;
        self.trace
            .span("dynamics", || inner.inference_step(iteration))
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        self.inner.rebalance_frequency()
    }

    fn extra_overhead(&self, iteration: u64) -> f64 {
        self.inner.extra_overhead(iteration)
    }

    fn export_state(&self) -> EngineState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

fn json_bytes(checkpoint: &Checkpoint) -> u64 {
    checkpoint.to_json().map_or(0, |text| text.len() as u64)
}

/// [`CheckpointStore`] decorator: `ckpt.save` spans around `save` and
/// `ckpt.load` spans around `load`/`latest`, each sized by the JSON text
/// the store holds for that checkpoint.
pub struct StoreProbe {
    inner: Box<dyn CheckpointStore + Send>,
    trace: OpTrace,
}

impl StoreProbe {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn CheckpointStore + Send>, trace: OpTrace) -> Self {
        StoreProbe { inner, trace }
    }
}

impl CheckpointStore for StoreProbe {
    fn save(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let inner = &mut self.inner;
        self.trace.span_bytes(
            "ckpt.save",
            || inner.save(checkpoint),
            |out| {
                if out.is_ok() {
                    json_bytes(checkpoint)
                } else {
                    0
                }
            },
        )
    }

    fn load(&self, iteration: u64) -> Result<Checkpoint, CheckpointError> {
        self.trace.span_bytes(
            "ckpt.load",
            || self.inner.load(iteration),
            |out| out.as_ref().map_or(0, json_bytes),
        )
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        self.trace.span_bytes(
            "ckpt.load",
            || self.inner.latest(),
            |out| match out {
                Ok(Some(checkpoint)) => json_bytes(checkpoint),
                _ => 0,
            },
        )
    }

    fn iterations(&self) -> Vec<u64> {
        self.inner.iterations()
    }

    fn retain_last(&mut self, keep: usize) -> usize {
        self.inner.retain_last(keep)
    }
}

/// A [`Recorder`] that keeps no events and builds no spans: it counts the
/// pipeline simulations the trainer reports through `record_iteration` and
/// the ops each simulated timeline holds.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    simulate_calls: AtomicU64,
    ops: AtomicU64,
}

impl CountingRecorder {
    /// `(simulate calls, simulated ops)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.simulate_calls.load(Ordering::Relaxed),
            self.ops.load(Ordering::Relaxed),
        )
    }
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}

    fn record_iteration(&self, _group: usize, _iteration: u64, _t0: f64, report: &IterationReport) {
        let ops: usize = report.timelines.iter().map(|t| t.spans.len()).sum();
        // ORDERING: plain statistics, read only after the pool has joined.
        self.simulate_calls.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(ops as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = OpTrace::new(3);
        trace.span("outer", || {
            trace.span("inner", || trace.span("leaf", || std::hint::black_box(1)))
        });
        let spans = trace.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        let own = self_ns(&spans);
        assert_eq!(own[0], spans[0].ns() - spans[1].ns());
        assert_eq!(own[1], spans[1].ns() - spans[2].ns());
        assert_eq!(own[2], spans[2].ns());
    }
}
