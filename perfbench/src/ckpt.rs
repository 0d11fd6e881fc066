//! `ckpt-recover`: a fault-tolerance campaign over the composite stacks.
//!
//! Every standard composite stack trains under both balancer families with
//! a checkpoint every `CHECKPOINT_INTERVAL` iterations into a store that
//! holds serialized JSON, so every save encodes and every load decodes.  An
//! op is one recovery: a run crashes at a kill point, the latest checkpoint
//! is loaded from its store, a fresh trainer and stack resume from it, and
//! the recovered trajectory must match the failure-free run bit for bit.
//! The campaign ends with a Perfetto export of a recorded training session,
//! rendered with `TraceBuilder::to_json` and re-parsed by
//! `validate_trace_json`.

use std::sync::Arc;

use dynmo_bench::{standard_stacks, CompositeBalancer, ExperimentScale, StackSpec};
use dynmo_core::balancer::{BalanceObjective, DiffusionBalancer, LoadBalancer, PartitionBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::report::TrainingReport;
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_dynamics::{ComposedEngine, DynamismEngine};
use dynmo_model::Model;
use dynmo_pipeline::ScheduleKind;
use dynmo_resilience::{CheckpointStore, MemoryCheckpointStore};
use dynmo_telemetry::{validate_trace_json, MemoryRecorder, TraceBuilder};

use crate::calib::{self, Timer, Wall};
use crate::probe::{
    span, span_sized, BalancerProbe, CountingRecorder, EngineProbe, OpTrace, StoreProbe,
};
use crate::{derive_seed, guarded, Digest, OpStats, Pass, ProcDelta, Size};

/// Iterations between checkpoints.  Odd kill points fall between two
/// checkpoints, so those recoveries replay the lost iteration.
const CHECKPOINT_INTERVAL: u64 = 2;

/// Iterations of the recorded session the Perfetto export renders.  The
/// document grows linearly with them (about 22 KB per iteration); parsing
/// it is the export's main cost.
fn export_iterations(size: Size) -> u64 {
    match size {
        Size::Full => 16,
        Size::Smoke => 4,
    }
}

/// Makes the store each trainer checkpoints into.
pub type StoreFactory = dyn Fn() -> Box<dyn CheckpointStore + Send> + Sync;

/// The store the benchmark measures: the library's in-memory JSON store.
pub fn memory_store() -> Box<dyn CheckpointStore + Send> {
    Box::new(MemoryCheckpointStore::new())
}

/// Kill points per (stack, balancer) campaign.
fn kill_points(size: Size, iterations: u64) -> Vec<u64> {
    let count = match size {
        Size::Full => 10,
        Size::Smoke => 2,
    };
    // Spread over (first checkpoint, end of run), alternating between on
    // and off the checkpoint grid.
    (0..count)
        .map(|j| {
            let k = CHECKPOINT_INTERVAL + j * (iterations - CHECKPOINT_INTERVAL - 1) / count;
            k.max(CHECKPOINT_INTERVAL).min(iterations - 1)
        })
        .collect()
}

fn stacks(size: Size, seed: u64) -> Vec<StackSpec> {
    let mut stacks = standard_stacks();
    if size == Size::Smoke {
        stacks.truncate(2);
    }
    for (i, stack) in stacks.iter_mut().enumerate() {
        stack.seed = derive_seed(seed, 16 + i as u64);
    }
    stacks
}

/// Everything one training run needs, built at set-up.
struct Run {
    trainer: Trainer,
    stack: Box<dyn DynamismEngine + Send>,
    trace: Option<OpTrace>,
}

impl Run {
    fn run(&mut self) -> Result<TrainingReport, String> {
        let Run {
            trainer,
            stack,
            trace,
        } = self;
        guarded(|| {
            span(trace.as_ref(), "trainer.run", || {
                trainer.run(stack.as_mut())
            })
        })
    }
}

/// One recovery op: the run that crashes and the fresh run that resumes.
struct Recovery {
    kill_at: u64,
    crashed: Run,
    recovered: Run,
}

struct Campaign {
    reference: Run,
    recoveries: Vec<Recovery>,
}

struct Builder<'a> {
    scale: ExperimentScale,
    store: &'a StoreFactory,
    traced: bool,
    recorder: Arc<CountingRecorder>,
    units: u32,
}

impl Builder<'_> {
    fn trace(&mut self) -> Option<OpTrace> {
        self.units += 1;
        self.traced.then(|| OpTrace::new(self.units - 1))
    }

    fn run(
        &mut self,
        stack: &StackSpec,
        family: CompositeBalancer,
        iterations: u64,
        trace: Option<OpTrace>,
    ) -> Result<Run, String> {
        let model: Model = stack.model(32);
        let cluster = if stack.needs_moe_model() {
            self.scale.moe_cluster()
        } else {
            self.scale.gpt_cluster()
        };
        let config = TrainerConfig {
            schedule: ScheduleKind::OneFOneB,
            num_iterations: iterations,
            ..TrainerConfig::paper_defaults(cluster, self.scale.iterations())
        };
        let mut balancer: Box<dyn LoadBalancer + Send> = match family {
            CompositeBalancer::Partition => Box::new(PartitionBalancer::new()),
            CompositeBalancer::Diffusion => Box::new(DiffusionBalancer::new()),
        };
        let mut store = (self.store)();
        let mut engine: Box<dyn DynamismEngine + Send> =
            Box::new(ComposedEngine::new(stack.build(&model, self.scale))?);
        if let Some(op) = &trace {
            balancer = Box::new(BalancerProbe::new(balancer, op.clone()));
            store = Box::new(StoreProbe::new(store, op.clone()));
            engine = Box::new(EngineProbe::new(engine, op.clone()));
        }
        let controller = RebalanceController::new(
            balancer,
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        );
        let mut trainer =
            Trainer::new(model, config, controller).with_checkpointing(store, CHECKPOINT_INTERVAL);
        if trace.is_some() {
            trainer = trainer.with_recorder(Arc::clone(&self.recorder) as _);
        }
        Ok(Run {
            trainer,
            stack: engine,
            trace,
        })
    }

    fn campaign(
        &mut self,
        size: Size,
        stack: &StackSpec,
        family: CompositeBalancer,
    ) -> Result<Campaign, String> {
        let iterations = self.scale.iterations();
        let trace = self.trace();
        let reference = self.run(stack, family, iterations, trace)?;
        let mut recoveries = Vec::new();
        for kill_at in kill_points(size, iterations) {
            let trace = self.trace();
            let crashed = self.run(stack, family, kill_at, trace.clone())?;
            let recovered = self.run(stack, family, iterations, trace)?;
            recoveries.push(Recovery {
                kill_at,
                crashed,
                recovered,
            });
        }
        Ok(Campaign {
            reference,
            recoveries,
        })
    }
}

/// Crash, load the latest checkpoint, resume, compare.
fn recover(recovery: &mut Recovery, reference: &TrainingReport) -> Result<(u64, u64), String> {
    recovery.crashed.run()?;
    let checkpoint = recovery
        .crashed
        .trainer
        .checkpoint_store()
        .ok_or("the crashed run has no store")?
        .latest()
        .map_err(|e| format!("loading the latest checkpoint: {e}"))?
        .ok_or("the crashed run left no checkpoint")?;
    let state = checkpoint
        .verify()
        .map_err(|e| format!("verifying the loaded checkpoint: {e}"))?
        .clone();
    if state.iteration > recovery.kill_at
        || state.iteration + CHECKPOINT_INTERVAL <= recovery.kill_at
    {
        return Err(format!(
            "resumed from iteration {} after a crash at {}",
            state.iteration, recovery.kill_at
        ));
    }
    let Run {
        trainer,
        stack,
        trace,
    } = &mut recovery.recovered;
    let recovered = guarded(|| {
        span(trace.as_ref(), "trainer.resume", || {
            trainer.resume(stack.as_mut(), &state)
        })
    })??;
    if recovered.trajectory_checksum != reference.trajectory_checksum
        || recovered.total_tokens != reference.total_tokens
    {
        return Err(format!(
            "recovery from iteration {} diverged from the failure-free run",
            state.iteration
        ));
    }
    Ok((state.iteration, recovered.trajectory_checksum))
}

/// Run the recorded session, render it as a Perfetto trace and parse the
/// document back; returns the number of telemetry events recorded.
fn export_session(
    run: &mut Run,
    recorder: &MemoryRecorder,
    digest: &mut Digest,
) -> Result<u64, String> {
    let report = run.run()?;
    let events = recorder.take();
    let mut trace = TraceBuilder::new();
    trace.add_events(0, &events);
    let op = run.trace.as_ref();
    // Each JSON span is sized by the document it rendered or parsed.
    let json = span_sized(
        op,
        "json.render",
        || trace.to_json(),
        |json| json.len() as u64,
    );
    let stats = span_sized(
        op,
        "json.parse",
        || validate_trace_json(&json),
        |_| json.len() as u64,
    )?;
    if stats.events != trace.len() || stats.spans == 0 {
        return Err(format!(
            "exported trace holds {} events ({} spans), {} were added",
            stats.events,
            stats.spans,
            trace.len()
        ));
    }
    digest.u64(report.trajectory_checksum);
    // The document's length is left out: its timestamps include the
    // balancer's measured run time.
    digest.u64(stats.events as u64);
    Ok(events.len() as u64)
}

/// Run one pass of `ckpt-recover` with every trainer checkpointing into a
/// store made by `store`.
pub fn pass(
    worker: &rayon::ThreadPool,
    size: Size,
    seed: u64,
    traced: bool,
    store: &StoreFactory,
) -> Pass {
    worker.install(|| pass_inner(size, seed, traced, store))
}

fn pass_inner(size: Size, seed: u64, traced: bool, store: &StoreFactory) -> Pass {
    let mut pass = Pass {
        threads: 1,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    let scale = ExperimentScale::Smoke;
    let mut builder = Builder {
        scale,
        store,
        traced,
        recorder: Arc::new(CountingRecorder::default()),
        units: 0,
    };

    let setup = Timer::start();
    let stacks = stacks(size, seed);
    let mut campaigns = Vec::new();
    for stack in &stacks {
        for family in [CompositeBalancer::Partition, CompositeBalancer::Diffusion] {
            campaigns.push(builder.campaign(size, stack, family));
        }
    }
    let export_recorder = Arc::new(MemoryRecorder::new());
    let export_trace = builder.trace();
    let export = builder
        .run(
            &stacks[0],
            CompositeBalancer::Partition,
            export_iterations(size),
            export_trace,
        )
        .map(|mut run| {
            run.trainer = run.trainer.with_recorder(Arc::clone(&export_recorder) as _);
            run
        });
    pass.setup_s = setup.elapsed() * 1e-9;

    // Each failure-free run, each recovery and the export is timed on its
    // own, calibrated just before it; the timed phase is their sum.
    let mut kernels = vec![setup.kernel_ns];
    let mut wall = Wall::default();
    let proc_start = ProcDelta::now();
    let mut op_ns = Vec::new();
    for campaign in campaigns {
        let mut campaign = match campaign {
            Ok(campaign) => campaign,
            Err(err) => {
                pass.check(Err(err));
                continue;
            }
        };
        let timer = Timer::start();
        kernels.push(timer.kernel_ns);
        let reference = campaign.reference.run();
        wall.add(&timer);
        if let Some(op) = &campaign.reference.trace {
            pass.spans.extend(op.take());
        }
        let reference = match reference {
            Ok(report) => report,
            Err(err) => {
                pass.check(Err(format!("failure-free run: {err}")));
                continue;
            }
        };
        digest.u64(reference.trajectory_checksum);
        digest.u64(reference.total_tokens);
        digest.u64(reference.rebalance_events);
        for recovery in &mut campaign.recoveries {
            let timer = Timer::start();
            kernels.push(timer.kernel_ns);
            let outcome = recover(recovery, &reference);
            op_ns.push(wall.add(&timer));
            if let Some(op) = &recovery.recovered.trace {
                pass.spans.extend(op.take());
            }
            pass.check(outcome.map(|(resumed_from, checksum)| {
                digest.u64(resumed_from);
                digest.u64(checksum);
            }));
        }
    }

    let timer = Timer::start();
    kernels.push(timer.kernel_ns);
    let exported = export.and_then(|mut run| {
        let events = export_session(&mut run, &export_recorder, &mut digest);
        if let Some(op) = &run.trace {
            pass.spans.extend(op.take());
        }
        events
    });
    let events = match exported {
        Ok(events) => {
            pass.check(Ok(()));
            events
        }
        Err(err) => {
            pass.check(Err(format!("trace export: {err}")));
            0
        }
    };
    wall.add(&timer);
    pass.wall_s = wall.reference_ns * 1e-9;
    pass.host_wall_s = wall.host_ns as f64 * 1e-9;
    pass.proc = ProcDelta::now().since(proc_start);
    pass.calibration_ns = calib::median_ns(&kernels);
    pass.ops = OpStats::of(&op_ns);
    pass.digest = digest.value();
    if traced {
        let (calls, ops) = builder.recorder.counts();
        pass.counts.insert("pipeline.simulate_calls", calls);
        pass.counts.insert("pipeline.ops", ops);
        pass.counts.insert("telemetry.events", events);
    }
    pass
}
