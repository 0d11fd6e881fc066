//! `train-fig3`: the paper's Figure 3 comparison grid.
//!
//! Every (case, layers, configuration) cell is one `Trainer::run` at the
//! default experiment scale: the static Megatron/DeepSpeed rows, the SoTA
//! row where the case has one, and the four DynMo balancers.  Cells fan out
//! over a rayon pool of `nproc` threads; this is the only workload that
//! uses the pool, and it runs no checkpoint, JSON or serving code.

use std::sync::Arc;

use dynmo_baselines::{
    deepspeed_initial_assignment, megatron_initial_assignment, static_controller,
    zero_bubble_baseline_schedule, DeepSpeedMethod,
};
use dynmo_bench::{
    build_engine, headline_speedup, BalancerKind, CaseConfig, ConfigurationResult, DynamicCase,
    ExperimentScale,
};
use dynmo_core::balancer::{BalanceObjective, DiffusionBalancer, LoadBalancer, PartitionBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::report::TrainingReport;
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_dynamics::DynamismEngine;
use dynmo_pipeline::ScheduleKind;
use rayon::prelude::*;

use crate::calib::{self, Timer};
use crate::probe::{now_ns, span, BalancerProbe, CountingRecorder, EngineProbe, OpTrace};
use crate::{guarded, Digest, OpStats, Pass, ProcDelta, Size};

/// One cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellSpec {
    case: DynamicCase,
    /// GPT layer count (32 for the MoE cases).
    layers: usize,
    kind: BalancerKind,
}

fn scale(size: Size) -> ExperimentScale {
    match size {
        Size::Full => ExperimentScale::Default,
        Size::Smoke => ExperimentScale::Smoke,
    }
}

/// The grid in Figure 3 order, grouped by (case, layers).
fn grid(size: Size) -> Vec<Vec<CellSpec>> {
    let layer_sweep: &[usize] = match size {
        Size::Full => &[24, 32, 40, 48],
        Size::Smoke => &[24],
    };
    let mut groups: Vec<(DynamicCase, usize)> =
        vec![(DynamicCase::MoeMixtral, 32), (DynamicCase::MoeLlama, 32)];
    for case in DynamicCase::GPT_CASES {
        groups.extend(layer_sweep.iter().map(|&layers| (case, layers)));
    }
    groups
        .into_iter()
        .map(|(case, layers)| {
            let mut kinds = vec![
                BalancerKind::StaticMegatron,
                BalancerKind::StaticDeepSpeedParam,
            ];
            if case.sota_label().is_some() {
                kinds.push(BalancerKind::Sota);
            }
            kinds.extend([
                BalancerKind::PartitionByParam,
                BalancerKind::PartitionByTime,
                BalancerKind::DiffusionByParam,
                BalancerKind::DiffusionByTime,
            ]);
            kinds
                .into_iter()
                .map(|kind| CellSpec { case, layers, kind })
                .collect()
        })
        .collect()
}

fn objective(kind: BalancerKind) -> BalanceObjective {
    match kind {
        BalancerKind::PartitionByParam | BalancerKind::DiffusionByParam => {
            BalanceObjective::ByParams
        }
        _ => BalanceObjective::ByTime,
    }
}

/// The paper's setup: the SoTA row runs the "almost zero-bubble" schedule,
/// every other row Megatron's 1F1B.
fn schedule(kind: BalancerKind) -> ScheduleKind {
    if kind == BalancerKind::Sota {
        zero_bubble_baseline_schedule()
    } else {
        ScheduleKind::OneFOneB
    }
}

/// A cell's spec, its report or failure, its reference time (ns), the
/// calibration kernel's host time before it (ns) and its spans.
type CellOutcome = (
    CellSpec,
    Result<TrainingReport, String>,
    f64,
    u64,
    Option<OpTrace>,
);

struct Cell {
    spec: CellSpec,
    trainer: Trainer,
    engine: Box<dyn DynamismEngine + Send>,
    trace: Option<OpTrace>,
}

/// Build one cell the way `dynmo_bench::run_configuration` does, but with
/// the engine seeded from the run seed and, when traced, the balancer and
/// engine wrapped in probes.
fn build_cell(
    spec: CellSpec,
    scale: ExperimentScale,
    seed: u64,
    trace: Option<(OpTrace, Arc<CountingRecorder>)>,
) -> Cell {
    let config = CaseConfig::new(spec.case, spec.layers, scale);
    let model = spec.case.model(spec.layers);
    let cluster = config.cluster();
    let trainer_config = TrainerConfig {
        objective: objective(spec.kind),
        schedule: schedule(spec.kind),
        ..TrainerConfig::paper_defaults(cluster.clone(), scale.iterations())
    };
    let probe = |balancer: Box<dyn LoadBalancer + Send>| -> Box<dyn LoadBalancer + Send> {
        match &trace {
            Some((op, _)) => Box::new(BalancerProbe::new(balancer, op.clone())),
            None => balancer,
        }
    };
    let controller = match spec.kind {
        BalancerKind::StaticMegatron | BalancerKind::StaticDeepSpeedParam | BalancerKind::Sota => {
            static_controller()
        }
        BalancerKind::PartitionByParam | BalancerKind::PartitionByTime => RebalanceController::new(
            probe(Box::new(PartitionBalancer::new())),
            objective(spec.kind),
            RebalancePolicy::dynamic(),
        ),
        BalancerKind::DiffusionByParam | BalancerKind::DiffusionByTime => RebalanceController::new(
            probe(Box::new(DiffusionBalancer::new())),
            objective(spec.kind),
            RebalancePolicy::dynamic(),
        ),
    };
    let initial = match spec.kind {
        BalancerKind::StaticDeepSpeedParam => deepspeed_initial_assignment(
            &model,
            cluster.pipeline_stages,
            &DeepSpeedMethod::Parameters,
        ),
        _ => megatron_initial_assignment(&model, cluster.pipeline_stages),
    };
    let mut engine = build_engine(spec.case, &model, scale, spec.kind, seed);
    let mut trainer =
        Trainer::new(model, trainer_config, controller).with_initial_assignment(initial);
    let op_trace = match trace {
        Some((op, recorder)) => {
            engine = Box::new(EngineProbe::new(engine, op.clone()));
            trainer = trainer.with_recorder(recorder);
            Some(op)
        }
        None => None,
    };
    Cell {
        spec,
        trainer,
        engine,
        trace: op_trace,
    }
}

/// Structural checks every Figure 3 report must pass.
fn check_report(
    report: &TrainingReport,
    iterations: u64,
    stages: usize,
    dynamic: bool,
) -> Result<(), String> {
    let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    let fail = |what: &str| Err(format!("{}: {what}", report.dynamism));
    if report.iterations != iterations {
        return fail("iteration count differs from the configured run");
    }
    if report.total_tokens == 0 || report.tokens_per_second <= 0.0 {
        return fail("no throughput");
    }
    if !report.tokens_per_second.is_finite() || !report.total_time.is_finite() {
        return fail("non-finite throughput or time");
    }
    if !unit(report.average_idleness) || !unit(report.average_bubble_ratio) {
        return fail("idleness or bubble ratio outside [0, 1]");
    }
    if !report.mean_imbalance.is_finite() || report.mean_imbalance < 0.0 {
        return fail("invalid mean imbalance");
    }
    let workers = report.average_active_workers;
    if report.final_active_workers == 0
        || report.final_active_workers > stages
        || !(1.0..=stages as f64).contains(&workers)
    {
        return fail("active workers outside [1, stages]");
    }
    if !dynamic && report.rebalance_events != 0 {
        return fail("a static configuration rebalanced");
    }
    Ok(())
}

/// Fold the report fields that carry no measured wall-clock.  Tokens per
/// second, total time and the overhead buckets include the balancer's
/// measured run time, so they are left out.
fn digest_report(digest: &mut Digest, report: &TrainingReport) {
    digest.u64(report.trajectory_checksum);
    digest.u64(report.total_tokens);
    digest.u64(report.iterations);
    digest.u64(report.rebalance_events);
    digest.u64(report.final_active_workers as u64);
    digest.f64(report.average_idleness);
    digest.f64(report.average_bubble_ratio);
    digest.f64(report.mean_imbalance);
    digest.f64(report.final_imbalance);
    digest.f64(report.average_active_workers);
}

/// Run one pass of `train-fig3`, fanning the cells out over `workers`.
pub fn pass(workers: &rayon::ThreadPool, size: Size, seed: u64, traced: bool) -> Pass {
    let scale = scale(size);
    let threads = workers.current_num_threads();
    let recorder = Arc::new(CountingRecorder::default());

    let setup = Timer::start();
    let groups = grid(size);
    let mut cells = Vec::new();
    for spec in groups.iter().flatten() {
        let probe = traced.then(|| (OpTrace::new(cells.len() as u32), Arc::clone(&recorder)));
        cells.push(build_cell(*spec, scale, seed, probe));
    }
    let setup_s = setup.elapsed() * 1e-9;

    let proc_start = ProcDelta::now();
    let start = now_ns();
    let results: Vec<CellOutcome> = workers.install(|| {
        cells
            .into_par_iter()
            .map(|mut cell| {
                // Calibrated on the worker thread that runs the cell.
                let timer = Timer::start();
                let report = guarded(|| {
                    span(cell.trace.as_ref(), "trainer.run", || {
                        cell.trainer.run(cell.engine.as_mut())
                    })
                });
                (
                    cell.spec,
                    report,
                    timer.elapsed(),
                    timer.kernel_ns,
                    cell.trace,
                )
            })
            .collect()
    });
    let wall_ns = now_ns() - start;
    let proc = ProcDelta::now().since(proc_start);
    let kernels: Vec<u64> = results.iter().map(|r| r.3).collect();
    // The parallel phase (which includes the cells' kernel runs) is scaled
    // by the mean kernel time over both threads.
    let mean_kernel = kernels.iter().sum::<u64>() / kernels.len().max(1) as u64;
    let wall_s = calib::scale(wall_ns, mean_kernel.max(1)) * 1e-9;

    let mut pass = Pass {
        setup_s,
        wall_s,
        host_wall_s: wall_ns as f64 * 1e-9,
        calibration_ns: calib::median_ns(&kernels),
        threads,
        proc,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    let mut log_speedup = 0.0;
    let mut speedups = 0usize;
    let mut op_ns = Vec::new();
    let mut results = results.into_iter();
    for group in &groups {
        let mut rows = Vec::new();
        for _ in group {
            let (spec, report, ns, _, trace) = results.next().expect("one result per cell");
            op_ns.push(ns);
            if let Some(op) = trace {
                pass.spans.extend(op.take());
            }
            let stages = CaseConfig::new(spec.case, spec.layers, scale)
                .cluster()
                .pipeline_stages;
            let outcome = report.and_then(|report| {
                check_report(&report, scale.iterations(), stages, spec.kind.is_dynamic())?;
                Ok(report)
            });
            match outcome {
                Ok(report) => {
                    digest_report(&mut digest, &report);
                    rows.push(ConfigurationResult {
                        balancer: spec.kind,
                        label: spec.kind.label().to_string(),
                        schedule: schedule(spec.kind),
                        report,
                    });
                    pass.check(Ok(()));
                }
                Err(err) => pass.check(Err(format!(
                    "{} {} layers {}: {err}",
                    spec.case.label(),
                    spec.layers,
                    spec.kind.label()
                ))),
            }
        }
        if rows.len() == group.len() {
            let speedup = headline_speedup(&rows);
            if speedup > 0.0 {
                log_speedup += speedup.ln();
                speedups += 1;
            }
        }
    }
    if speedups > 0 {
        pass.sim.speedup = (log_speedup / speedups as f64).exp();
    }
    pass.ops = OpStats::of(&op_ns);
    pass.digest = digest.value();
    if traced {
        let (calls, ops) = recorder.counts();
        pass.counts.insert("pipeline.simulate_calls", calls);
        pass.counts.insert("pipeline.ops", ops);
    }
    pass
}
