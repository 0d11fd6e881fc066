//! Seeded end-to-end and per-layer benchmark for the DynMo workspace.
//!
//! The benchmark drives the library from outside, through its public entry
//! points, on inputs generated from a seed.  Each workload runs as a
//! sequence of *passes*: a pass builds its inputs (the timed set-up), then
//! runs a fixed set of ops (the timed phase) and checks every output.  A
//! traced pass additionally wraps each layer's trait objects in the
//! decorators of [`probe`] and times the calls into each layer.  Host
//! times outside the traced spans are calibrated against the host's speed
//! (see [`calib`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dynmo_resilience::Fnv1a;

pub mod calib;
pub mod ckpt;
pub mod metrics;
pub mod probe;
pub mod serve;
pub mod train;

use probe::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 3 grid of trainer cells, fanned over the pool.
    TrainFig3,
    /// The serving grid stepped one `ServingSession::step` at a time, then
    /// the fleet closed-loop, static-split and reference cells.
    ServeFleet,
    /// A checkpoint/crash/recover campaign over the composite stacks,
    /// ending with a Perfetto export.
    CkptRecover,
}

impl Workload {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TrainFig3,
        Workload::ServeFleet,
        Workload::CkptRecover,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFig3 => "train-fig3",
            Workload::ServeFleet => "serve-fleet",
            Workload::CkptRecover => "ckpt-recover",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool threads the workload's ops run on: `nproc` for the trainer
    /// grid, one for the others.
    pub fn threads(self) -> usize {
        match self {
            Workload::TrainFig3 => nproc(),
            Workload::ServeFleet | Workload::CkptRecover => 1,
        }
    }

    /// Run one pass on `pool`.  A run keeps one pool for all its passes.
    pub fn pass(self, pool: &rayon::ThreadPool, size: Size, seed: u64, traced: bool) -> Pass {
        match self {
            Workload::TrainFig3 => train::pass(pool, size, seed, traced),
            Workload::ServeFleet => serve::pass(pool, size, seed, traced),
            Workload::CkptRecover => ckpt::pass(pool, size, seed, traced, &ckpt::memory_store),
        }
    }
}

/// How large a pass is: `Full` is what the benchmark measures, `Smoke` a
/// reduced pass for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// A seconds-long reduced workload.
    Smoke,
}

/// Simulated outputs summarised as end-to-end metrics.  A workload that
/// does not simulate a quantity leaves it at its neutral value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Geometric mean of the Figure 3 headline speed-ups (1 = none).
    pub speedup: f64,
    /// Requests meeting their SLO over requests attempted (1 = none missed).
    pub slo_attainment: f64,
    /// Closed-loop trainer throughput as a percentage of the undisturbed
    /// reference (100 = no training displaced).
    pub train_kept_pct: f64,
}

impl Default for Sim {
    fn default() -> Self {
        Sim {
            speedup: 1.0,
            slo_attainment: 1.0,
            train_kept_pct: 100.0,
        }
    }
}

/// One pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Reference seconds spent building the pass's inputs from the seed.
    pub setup_s: f64,
    /// Reference seconds of the timed phase.
    pub wall_s: f64,
    /// Host seconds of the timed phase, uncalibrated: the clock of the
    /// traced spans.
    pub host_wall_s: f64,
    /// Reference time of the pass's ops.
    pub ops: OpStats,
    /// Median host time of the pass's calibration kernel runs, ns.
    pub calibration_ns: f64,
    /// Ops plus whole-unit checks attempted.
    pub attempted: u64,
    /// Of those, the ones that panicked, returned `Err` or failed a check.
    pub failed: u64,
    /// FNV-1a over the pass's simulated outputs (no measured wall-clock).
    pub digest: u64,
    /// Simulated end-to-end figures.
    pub sim: Sim,
    /// Pool threads the ops ran on.
    pub threads: usize,
    /// Spans of a traced pass, whole ops in op order.
    pub spans: Vec<Span>,
    /// Layer counts read from outside (recorder, reports), traced passes.
    pub counts: BTreeMap<&'static str, u64>,
    /// Process CPU and fault deltas over the timed phase.
    pub proc: ProcDelta,
}

impl Pass {
    /// Record the outcome of one op or check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(err) = outcome {
            self.failed += 1;
            eprintln!("perfbench: failed: {err}");
        }
    }
}

/// Reference time of a pass's ops, summarised so that memory stays flat
/// however many passes a run makes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Ops timed.
    pub count: usize,
    /// Median op time, reference ns.
    pub p50_ns: f64,
    /// 90th-percentile op time, reference ns.
    pub p90_ns: f64,
    /// Sum of op times, reference ns.
    pub busy_ns: f64,
}

impl OpStats {
    /// Summarise op times given in reference ns.
    pub fn of(samples: &[f64]) -> Self {
        OpStats {
            count: samples.len(),
            p50_ns: metrics::quantile(samples, 0.5),
            p90_ns: metrics::quantile(samples, 0.9),
            busy_ns: samples.iter().sum(),
        }
    }
}

/// Run `f`, turning a panic into an `Err`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// FNV-1a over simulated outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(Fnv1a);

impl Digest {
    /// Fold an integer.
    pub fn u64(&mut self, value: u64) {
        self.0.write(&value.to_le_bytes());
    }

    /// Fold a float, bit for bit.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0.state()
    }
}

/// A seed for one input stream, derived from the run seed (SplitMix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A pool of `threads` workers for a workload's ops.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim builds a pool of any positive size")
}

/// Process CPU and page-fault counters (from `/proc/self/stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcDelta {
    /// Kernel CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl ProcDelta {
    /// The counters now (zero where `/proc` is unavailable).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        // Index 0 of the rest is stat field 3, so minflt (field 10) is
        // index 7 and stime (field 15) index 12.
        ProcDelta {
            sys_s: field(12).unwrap_or(0) as f64 / CLOCK_TICKS,
            minor_faults: field(7).unwrap_or(0),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcDelta) -> Self {
        ProcDelta {
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS: f64 = 100.0;

/// Peak resident memory of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
