//! Criterion bench of the pipeline simulator at paper scale (`p = 32`,
//! `m = 512` — the largest grid corner of `pipeline_sweep`) for every
//! schedule in [`ScheduleKind::ALL`], plus one forward-only pass at a
//! serving shape (`p = 8`, `m = 16`).  The engine walks each worker's op
//! order with a cursor and starts an op once its `(vs ± 1, mb)` producers
//! have run, so its cost is linear in the op count; this bench keeps that
//! cost visible for the training schedules and for the forward-only mode
//! the serving engine prices every step with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo_pipeline::load::StageLoad;
use dynmo_pipeline::{CommCostModel, PipelineSimulator, ScheduleKind};

const PAPER_STAGES: usize = 32;
const PAPER_MICROBATCHES: usize = 512;
const SERVING_STAGES: usize = 8;
const SERVING_MICROBATCHES: usize = 16;

fn skewed_loads(stages: usize) -> Vec<StageLoad> {
    (0..stages)
        .map(|s| {
            // Mild imbalance so the engine exercises real dependency
            // stalls, not the degenerate balanced fast path.
            let skew = 1.0 + 0.3 * (s as f64 / (stages - 1) as f64);
            StageLoad {
                fwd_time: 2.0e-3 * skew,
                bwd_time: 4.0e-3 * skew,
                param_count: 12 * 1024 * 1024,
                static_bytes: 0,
                activation_bytes: 0,
                boundary_bytes: 0,
                num_layers: 1,
            }
        })
        .collect()
}

fn bench_event_engine(c: &mut Criterion) {
    let model = ModelConfig::gpt(32);
    let cluster = ClusterConfig::homogeneous(8, PAPER_STAGES, 1, DeviceSpec::h100_sxm5());
    let loads = skewed_loads(PAPER_STAGES);
    let mut group = c.benchmark_group("pipeline_simulate_p32_m512");
    for schedule in ScheduleKind::ALL {
        let simulator = PipelineSimulator::new(CommCostModel::new(cluster.clone()), schedule);
        group.bench_with_input(
            BenchmarkId::new("simulate", schedule.label()),
            &loads,
            |b, loads| {
                b.iter(|| simulator.simulate(&model, loads, PAPER_MICROBATCHES));
            },
        );
    }
    group.finish();

    let cluster = ClusterConfig::homogeneous(8, SERVING_STAGES, 1, DeviceSpec::h100_sxm5());
    let loads = skewed_loads(SERVING_STAGES);
    let simulator = PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB);
    let mut group = c.benchmark_group("pipeline_simulate_forward_p8_m16");
    group.bench_with_input(
        BenchmarkId::new("simulate_forward", "serving"),
        &loads,
        |b, loads| {
            b.iter(|| simulator.simulate_forward(&model, loads, SERVING_MICROBATCHES));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_event_engine);
criterion_main!(benches);
