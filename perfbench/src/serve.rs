//! `serve-fleet`: the serving grid, then the fleet cells, at one thread.
//!
//! The serving grid is 3 arrival processes × early exit on/off ×
//! {partition, diffusion} × {fixed, autoscaled}; the benchmark steps each
//! cell itself through `ServingSession::step`, so an op is one engine step
//! (a forward-only pipeline pricing plus batcher work).  After the grid come
//! the fleet's undisturbed reference trainer, its closed-loop cell and its
//! static-split cell.

use std::collections::BTreeMap;

use dynmo_bench::fleet::CLOSED_TRAINER_WORLD;
use dynmo_bench::{
    run_closed_cell, run_static_cell, ExperimentScale, FleetCellReport, FleetSweepConfig,
    ServingCase, ServingSweepConfig,
};
use dynmo_dynamics::{DynamismEngine, EarlyExitEngine, EarlyExitMethod};
use dynmo_fleet::{ElasticTrainer, ElasticTrainerSpec, FleetActionKind, FleetReport};
use dynmo_model::{DeviceSpec, Model, ModelPreset};
use dynmo_resilience::CheckpointCostModel;
use dynmo_serve::{
    AutoscalerConfig, LengthModel, RequestTrace, ServingConfig, ServingEngine, ServingReport,
    ServingSession,
};

use crate::calib::{self, Timer, Wall};
use crate::probe::{now_ns, span, EngineProbe, OpTrace};
use crate::{derive_seed, guarded, Digest, OpStats, Pass, ProcDelta, Size};

/// The serving grid and fleet scenario for a size.  The full size runs the
/// paper-scale durations (120 s traces, a 3600 s fleet day).
fn configs(size: Size, seed: u64) -> (ServingSweepConfig, FleetSweepConfig) {
    let scale = match size {
        Size::Full => ExperimentScale::Paper,
        Size::Smoke => ExperimentScale::Smoke,
    };
    let mut serving = ServingSweepConfig::for_scale(scale);
    serving.seed = derive_seed(seed, 1);
    let mut fleet = FleetSweepConfig::for_scale(scale);
    fleet.seed = derive_seed(seed, 2);
    (serving, fleet)
}

struct Cell {
    session: ServingSession,
    engine: Option<Box<dyn DynamismEngine + Send>>,
    requests: usize,
    trace: Option<OpTrace>,
}

/// Build one serving cell exactly as `dynmo_bench::run_serving_cell` does,
/// stopping at the open session so the benchmark can step it.
fn build_cell(case: &ServingCase, trace: Option<OpTrace>) -> Result<Cell, String> {
    let lengths = LengthModel {
        mean_prompt_tokens: 256,
        mean_output_tokens: 64,
        spread: 0.5,
    };
    let requests = RequestTrace::generate(&case.process, case.duration, &lengths, case.seed);
    let mut config = ServingConfig::small(1);
    config.balancer = case.balancer;
    if case.elastic {
        config.max_replicas = case.max_replicas;
        let ttft_target = config.slo.ttft;
        config = config.with_autoscaler(AutoscalerConfig::responsive(
            ttft_target,
            1,
            case.max_replicas,
        ));
    }
    let engine = case.early_exit.then(|| {
        let model = Model::from_preset(config.preset);
        let engine: Box<dyn DynamismEngine + Send> = Box::new(EarlyExitEngine::new(
            &model,
            EarlyExitMethod::Calm,
            case.seed ^ 0xee,
        ));
        match &trace {
            Some(op) => Box::new(EngineProbe::new(engine, op.clone())),
            None => engine,
        }
    });
    let session = ServingEngine::new(config)?.session(&requests);
    Ok(Cell {
        session,
        engine,
        requests: requests.num_requests(),
        trace,
    })
}

/// The fleet's trainer as `dynmo_bench::fleet` builds it (60-layer GPT,
/// CALM early exit); the benchmark rebuilds it for the undisturbed
/// reference run the closed loop is pinned against.
fn reference_trainer(fleet: &FleetSweepConfig) -> Result<ElasticTrainer, String> {
    let spec = ElasticTrainerSpec {
        preset: ModelPreset::Gpt { layers: 60 },
        device: DeviceSpec::test_device(16 * 1024 * 1024 * 1024),
        gpus_per_node: 4,
        total_iterations: fleet.trainer_iterations,
        segment_iterations: 1,
        num_microbatches: 8,
        allreduce_overlap: 0.8,
        min_workers: 2,
        cost_model: CheckpointCostModel::default(),
    };
    let model = Model::from_preset(spec.preset);
    let engine = Box::new(EarlyExitEngine::new(
        &model,
        EarlyExitMethod::Calm,
        fleet.seed,
    ));
    ElasticTrainer::new(spec, engine, CLOSED_TRAINER_WORLD)
}

/// Closed-loop chunk boundaries up to the first steal must carry the
/// undisturbed reference's trajectory checksums; at least one must compare.
fn check_pinned(report: &FleetReport, reference: &[(u64, u64)]) -> Result<(), String> {
    let first_steal = report
        .timeline
        .iter()
        .find(|a| matches!(a.kind, FleetActionKind::Steal { .. }))
        .map_or(u64::MAX, |a| a.trainer_iteration);
    let reference: BTreeMap<u64, u64> = reference.iter().copied().collect();
    let mut compared = 0;
    for &(iteration, checksum) in &report.trajectory_checksums {
        if iteration > first_steal {
            break;
        }
        match reference.get(&iteration) {
            Some(&expected) if expected == checksum => compared += 1,
            Some(_) => return Err(format!("closed-loop checksum diverges at {iteration}")),
            None => break,
        }
    }
    if compared == 0 {
        return Err("no closed-loop chunk boundary was compared".into());
    }
    Ok(())
}

fn digest_serving(digest: &mut Digest, report: &ServingReport) {
    digest.u64(report.requests as u64);
    digest.u64(report.completed as u64);
    digest.u64(report.engine_steps);
    digest.u64(report.slo_met);
    digest.u64(report.peak_replicas as u64);
    digest.u64(report.scale_events.len() as u64);
    for value in [
        report.makespan,
        report.ttft.p50,
        report.ttft.p99,
        report.tpot.p50,
        report.tpot.p99,
        report.latency.p99,
        report.mean_gpus,
    ] {
        digest.f64(value);
    }
}

/// Trainer throughput is left out: the fleet's simulated clock subtracts
/// the measured balancer time from a total that includes it, which moves
/// the last bits from run to run.
fn digest_cell(digest: &mut Digest, cell: &FleetCellReport) {
    digest.f64(cell.peak_attainment);
    digest.f64(cell.attainment);
    digest.u64(cell.trainer_iterations);
    digest.u64(cell.steals + cell.returns + cell.preemptions);
}

/// Run one pass of `serve-fleet`.
pub fn pass(worker: &rayon::ThreadPool, size: Size, seed: u64, traced: bool) -> Pass {
    worker.install(|| pass_inner(size, seed, traced))
}

fn pass_inner(size: Size, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass {
        threads: 1,
        ..Pass::default()
    };
    let mut digest = Digest::default();

    let setup = Timer::start();
    let (serving, fleet) = configs(size, seed);
    let cells: Vec<Result<Cell, String>> = serving
        .cells()
        .iter()
        .enumerate()
        .map(|(i, case)| build_cell(case, traced.then(|| OpTrace::new(i as u32))))
        .collect();
    pass.setup_s = setup.elapsed() * 1e-9;
    let cell_count = cells.len();

    // Each serving cell and each fleet cell is timed on its own, calibrated
    // just before it; the timed phase is their sum.
    let mut kernels = vec![setup.kernel_ns];
    let mut wall = Wall::default();
    let proc_start = ProcDelta::now();
    // SLO figures cover the grid and the closed loop's tenants; the step
    // counts cover the grid only, so `serve.requests` does too.
    let (mut met, mut requests, mut stepped_requests) = (0u64, 0u64, 0u64);
    let mut op_ns = Vec::new();
    for cell in cells {
        let timer = Timer::start();
        kernels.push(timer.kernel_ns);
        let mut cell = match cell {
            Ok(cell) => cell,
            Err(err) => {
                pass.check(Err(err));
                continue;
            }
        };
        let outcome = guarded(|| {
            loop {
                let began = now_ns();
                let engine = cell
                    .engine
                    .as_mut()
                    .map(|e| e.as_mut() as &mut dyn DynamismEngine);
                let more = span(cell.trace.as_ref(), "serve.step", || {
                    cell.session.step(engine)
                });
                if !more {
                    break;
                }
                op_ns.push(timer.scale(now_ns() - began));
            }
            cell.session.finish()
        });
        if let Some(op) = &cell.trace {
            pass.spans.extend(op.take());
        }
        pass.check(outcome.and_then(|report| {
            if report.completed != report.requests || report.requests != cell.requests {
                return Err(format!(
                    "serving cell {}: {} of {} requests completed",
                    report.trace, report.completed, cell.requests
                ));
            }
            digest_serving(&mut digest, &report);
            met += report.slo_met;
            requests += report.requests as u64;
            stepped_requests += report.requests as u64;
            Ok(())
        }));
        wall.add(&timer);
    }

    let fleet_trace = traced.then(|| OpTrace::new(cell_count as u32));
    let fleet_op = fleet_trace.as_ref();
    let mut timer = Timer::start();
    kernels.push(timer.kernel_ns);
    let reference = span(fleet_op, "fleet.reference", || {
        guarded(|| {
            let mut job = reference_trainer(&fleet)?;
            job.advance_to(fleet.day)?;
            Ok::<_, String>((job.tokens_per_second(), job.checksum_history().to_vec()))
        })
        .and_then(|r| r)
    });
    wall.add(&timer);
    let (mut ticks, mut actions) = (0, 0);
    match reference {
        Ok((reference_tps, history)) => {
            pass.check(Ok(()));
            timer = Timer::start();
            kernels.push(timer.kernel_ns);
            let closed = span(fleet_op, "fleet.closed", || {
                guarded(|| run_closed_cell(&fleet, reference_tps))
            });
            let closed = closed.and_then(|(cell, report)| {
                check_pinned(&report, &history)?;
                ticks = report.ticks;
                actions = report.steals + report.returns + report.preemptions;
                for tenant in &report.serving {
                    digest_serving(&mut digest, tenant);
                    met += tenant.slo_met;
                    requests += tenant.requests as u64;
                }
                digest_cell(&mut digest, &cell);
                for &(iteration, checksum) in &report.trajectory_checksums {
                    digest.u64(iteration);
                    digest.u64(checksum);
                }
                Ok(100.0 * (1.0 - cell.training_loss))
            });
            if let Ok(kept) = closed {
                pass.sim.train_kept_pct = kept;
            }
            pass.check(closed.map(|_| ()));
            wall.add(&timer);
            timer = Timer::start();
            kernels.push(timer.kernel_ns);
            let static_split = span(fleet_op, "fleet.static", || {
                guarded(|| run_static_cell(&fleet, reference_tps))
            });
            pass.check(static_split.map(|cell| digest_cell(&mut digest, &cell)));
            wall.add(&timer);
        }
        Err(err) => pass.check(Err(format!("fleet reference: {err}"))),
    }
    pass.wall_s = wall.reference_ns * 1e-9;
    pass.host_wall_s = wall.host_ns as f64 * 1e-9;
    pass.proc = ProcDelta::now().since(proc_start);
    pass.calibration_ns = calib::median_ns(&kernels);
    if let Some(op) = fleet_op {
        pass.spans.extend(op.take());
    }

    pass.attempted += op_ns.len() as u64;
    pass.ops = OpStats::of(&op_ns);
    if requests > 0 {
        pass.sim.slo_attainment = met as f64 / requests as f64;
    }
    pass.digest = digest.value();
    if traced {
        pass.counts.insert("serve.requests", stepped_requests);
        pass.counts.insert("fleet.ticks", ticks);
        pass.counts.insert("fleet.actions", actions);
    }
    pass
}
