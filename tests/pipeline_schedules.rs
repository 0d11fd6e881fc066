//! Workspace-level tests for the pipeline engine:
//!
//! * a property test pinning the engine span for span to an independent
//!   oracle — the Kahn topological relaxation over an explicit op
//!   dependency DAG, kept here as test-only code — across every schedule,
//!   ragged micro-batch counts, a released stage and heterogeneous
//!   clusters, for both training and forward-only passes;
//! * a property test pinning the forward-only pass to the flow-shop
//!   closed form over unbalanced loads with real communication; and
//! * integration tests for the claims the new schedules exist to make —
//!   interleaved 1F1B and ZB-H1 strictly beat 1F1B's bubble on balanced
//!   stages once `m ≥ 4·p`, and released stages are bypassed end-to-end.

use dynmo::model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo::pipeline::load::StageLoad;
use dynmo::pipeline::metrics::{OpSpan, WorkerTimeline};
use dynmo::pipeline::schedule::{worker_op_order, Op, OpKind};
use dynmo::pipeline::{CommCostModel, PipelineSimulator, ScheduleKind};
use proptest::prelude::*;

fn cluster(stages: usize, gpus_per_node: usize) -> ClusterConfig {
    ClusterConfig::homogeneous(gpus_per_node, stages, 1, DeviceSpec::h100_sxm5())
}

/// Cluster `kind`: 0 homogeneous H100, 1 two GPU generations, 2 three.
fn cluster_of_kind(kind: usize, stages: usize, gpus_per_node: usize) -> ClusterConfig {
    match kind {
        0 => cluster(stages, gpus_per_node),
        1 => ClusterConfig::hetero_two_gen(gpus_per_node, stages, 1),
        _ => ClusterConfig::hetero_three_gen(gpus_per_node, stages, 1),
    }
}

/// Every schedule the engine runs, including a three-chunk interleaving.
const SCHEDULES: [ScheduleKind; 5] = [
    ScheduleKind::GPipe,
    ScheduleKind::OneFOneB,
    ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
    ScheduleKind::Interleaved1F1B { virtual_stages: 3 },
    ScheduleKind::ZeroBubbleH1,
];

/// Stage loads with per-stage compute times and boundary tensors, all
/// non-empty.  `boundary_scales` shrink each stage's outgoing
/// hidden-state tensor relative to the model's flat residual stream,
/// exercising the per-boundary cost path.
fn stage_loads(fwd_times: &[f64], boundary_scales: &[f64]) -> Vec<StageLoad> {
    let model = ModelConfig::gpt(24);
    let flat =
        (model.micro_batch_size * model.seq_len * model.hidden_size * model.param_bytes) as f64;
    fwd_times
        .iter()
        .zip(boundary_scales.iter())
        .map(|(&fwd, &scale)| StageLoad {
            fwd_time: fwd,
            bwd_time: 2.0 * fwd,
            param_count: 1_000_000,
            static_bytes: 1 << 24,
            activation_bytes: 1 << 20,
            boundary_bytes: (flat * scale) as u64,
            num_layers: 4,
        })
        .collect()
}

/// Test-only oracle: one iteration as an explicit dependency DAG relaxed
/// in Kahn order.  Every op is a node; edges are the previous op on the
/// same worker, the activation producer, the input-gradient producer and
/// the split-backward ordering, each weighted with its communication
/// cost.  A node starts at the max over its predecessors of `end + edge
/// weight`.  It shares no scheduling code with the library's per-worker
/// cursor loop, so agreement between the two is evidence for both.
mod kahn_oracle {
    use super::*;

    /// The dependency DAG: per-node op, physical worker and duration, plus
    /// `(successor, weight)` adjacency lists.
    struct OpGraph {
        ops: Vec<Op>,
        workers: Vec<usize>,
        durations: Vec<f64>,
        succs: Vec<Vec<(usize, f64)>>,
    }

    impl OpGraph {
        fn with_nodes(n: usize) -> Self {
            OpGraph {
                ops: Vec::with_capacity(n),
                workers: Vec::with_capacity(n),
                durations: Vec::with_capacity(n),
                succs: vec![Vec::new(); n],
            }
        }

        fn push(&mut self, op: Op, worker: usize, duration: f64) {
            self.ops.push(op);
            self.workers.push(worker);
            self.durations.push(duration);
        }
    }

    /// Per-worker timelines of one iteration (`forward_only` selects the
    /// inference pass), indexed by physical stage like the engine's.
    pub fn timelines(
        sim: &PipelineSimulator,
        model: &ModelConfig,
        loads: &[StageLoad],
        m: usize,
        forward_only: bool,
    ) -> Vec<WorkerTimeline> {
        let real: Vec<usize> = (0..loads.len()).filter(|&s| !loads[s].is_empty()).collect();
        let mut timelines = vec![WorkerTimeline::default(); loads.len()];
        if real.is_empty() {
            return timelines;
        }
        let graph = if forward_only {
            forward_graph(sim.comm(), model, loads, &real, m)
        } else {
            training_graph(sim.comm(), sim.schedule(), model, loads, &real, m)
        };
        execute(&graph, &mut timelines);
        timelines
    }

    /// Per worker, `m` forwards chained in order and to the previous real
    /// stage's forward of the same micro-batch.
    fn forward_graph(
        comm: &CommCostModel,
        model: &ModelConfig,
        loads: &[StageLoad],
        real: &[usize],
        m: usize,
    ) -> OpGraph {
        let mut graph = OpGraph::with_nodes(real.len() * m);
        for (i, &stage) in real.iter().enumerate() {
            let weight = if i > 0 {
                comm.boundary_transfer_time(model, &loads[real[i - 1]], real[i - 1], stage)
            } else {
                0.0
            };
            for mb in 0..m {
                let id = i * m + mb;
                let op = Op {
                    kind: OpKind::Forward,
                    microbatch: mb,
                    chunk: 0,
                };
                graph.push(op, stage, loads[stage].fwd_time);
                if mb > 0 {
                    graph.succs[id - 1].push((id, 0.0));
                }
                if i > 0 {
                    graph.succs[(i - 1) * m + mb].push((id, weight));
                }
            }
        }
        graph
    }

    /// The typed dependency DAG of a training iteration under `schedule`;
    /// virtual stage of chunk `c` on compressed worker `i` is `c·q + i`.
    fn training_graph(
        comm: &CommCostModel,
        schedule: ScheduleKind,
        model: &ModelConfig,
        loads: &[StageLoad],
        real: &[usize],
        m: usize,
    ) -> OpGraph {
        let q = real.len();
        let v = schedule.effective_virtual_stages(q, m);
        let total_vs = q * v;
        let orders: Vec<Vec<Op>> = (0..q).map(|i| worker_op_order(schedule, i, q, m)).collect();
        let mut graph = OpGraph::with_nodes(orders.iter().map(Vec::len).sum());

        // Node of each forward and input-gradient producer, per virtual
        // stage and micro-batch.
        let mut fwd_node = vec![usize::MAX; total_vs * m];
        let mut grad_node = vec![usize::MAX; total_vs * m];
        let mut first_node = Vec::with_capacity(q);
        for (i, order) in orders.iter().enumerate() {
            let load = &loads[real[i]];
            first_node.push(graph.ops.len());
            for op in order {
                let id = graph.ops.len();
                let vs = op.chunk * q + i;
                match op.kind {
                    OpKind::Forward => fwd_node[vs * m + op.microbatch] = id,
                    OpKind::Backward | OpKind::BackwardInput => {
                        grad_node[vs * m + op.microbatch] = id
                    }
                    OpKind::BackwardWeight => {}
                }
                let duration = match op.kind {
                    OpKind::Forward => load.fwd_time,
                    OpKind::Backward => load.bwd_time,
                    OpKind::BackwardInput => load.bwd_input_time(),
                    OpKind::BackwardWeight => load.bwd_weight_time(),
                } / v as f64;
                graph.push(*op, real[i], duration);
            }
        }

        for (i, order) in orders.iter().enumerate() {
            for (k, op) in order.iter().enumerate() {
                let id = first_node[i] + k;
                if k > 0 {
                    graph.succs[id - 1].push((id, 0.0));
                }
                let vs = op.chunk * q + i;
                let slot = vs * m + op.microbatch;
                match op.kind {
                    OpKind::Forward if vs > 0 => {
                        let prev = (vs - 1) % q;
                        let weight = if prev == i {
                            0.0
                        } else {
                            comm.boundary_transfer_time(
                                model,
                                &loads[real[prev]],
                                real[prev],
                                real[i],
                            )
                        };
                        graph.succs[fwd_node[slot - m]].push((id, weight));
                    }
                    OpKind::Forward => {}
                    OpKind::Backward | OpKind::BackwardInput => {
                        graph.succs[fwd_node[slot]].push((id, 0.0));
                        if vs + 1 < total_vs {
                            let next = (vs + 1) % q;
                            let weight = if next == i {
                                0.0
                            } else {
                                comm.gradient_transfer_time(
                                    model,
                                    &loads[real[i]],
                                    real[next],
                                    real[i],
                                )
                            };
                            graph.succs[grad_node[slot + m]].push((id, weight));
                        }
                    }
                    OpKind::BackwardWeight => graph.succs[grad_node[slot]].push((id, 0.0)),
                }
            }
        }
        graph
    }

    /// Kahn's algorithm: pop any node whose predecessors have all run,
    /// start it at its relaxed ready time and relax its successors.
    fn execute(graph: &OpGraph, timelines: &mut [WorkerTimeline]) {
        let n = graph.ops.len();
        let mut preds = vec![0usize; n];
        for succs in &graph.succs {
            for &(succ, _) in succs {
                preds[succ] += 1;
            }
        }
        let mut ready = vec![0.0f64; n];
        let mut stack: Vec<usize> = (0..n).filter(|&node| preds[node] == 0).collect();
        let mut scheduled = 0usize;
        while let Some(node) = stack.pop() {
            let start = ready[node];
            let end = start + graph.durations[node];
            timelines[graph.workers[node]].spans.push(OpSpan {
                op: graph.ops[node],
                start,
                end,
            });
            scheduled += 1;
            for &(succ, weight) in &graph.succs[node] {
                ready[succ] = ready[succ].max(end + weight);
                preds[succ] -= 1;
                if preds[succ] == 0 {
                    stack.push(succ);
                }
            }
        }
        assert_eq!(scheduled, n, "oracle DAG has a cycle");
    }
}

/// Assert the engine's report equals the oracle's timelines bit for bit:
/// makespan, per-worker busy time, and every span's op, start and end.
fn assert_matches_oracle(
    label: &str,
    report: &dynmo::pipeline::IterationReport,
    oracle: &[WorkerTimeline],
) {
    let makespan = oracle.iter().map(|t| t.finish_time()).fold(0.0, f64::max);
    assert_eq!(
        report.makespan.to_bits(),
        makespan.to_bits(),
        "{label}: makespan {} vs oracle {makespan}",
        report.makespan
    );
    assert_eq!(report.timelines.len(), oracle.len(), "{label}");
    for (w, (engine, expected)) in report.timelines.iter().zip(oracle).enumerate() {
        assert_eq!(
            report.per_worker_busy[w].to_bits(),
            expected.busy_time().to_bits(),
            "{label}: worker {w} busy"
        );
        assert_eq!(
            engine.spans.len(),
            expected.spans.len(),
            "{label}: worker {w}"
        );
        for (k, (e, o)) in engine.spans.iter().zip(&expected.spans).enumerate() {
            assert_eq!(e.op, o.op, "{label}: worker {w} span {k}");
            assert_eq!(
                (e.start.to_bits(), e.end.to_bits()),
                (o.start.to_bits(), o.end.to_bits()),
                "{label}: worker {w} span {k} ({:?}): engine {}..{} vs oracle {}..{}",
                e.op,
                e.start,
                e.end,
                o.start,
                o.end
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-worker cursor engine reproduces the Kahn DAG oracle span for
    /// span — same ops in the same order with the same start and end bits —
    /// for every schedule and cluster kind, over random loads, boundary
    /// sizes, ragged micro-batch counts, link localities and an optionally
    /// released stage, in both training and forward-only mode.
    #[test]
    fn engine_matches_the_kahn_dag_oracle_span_for_span(
        fwd_times in prop::collection::vec(0.001f64..2.0, 1..12),
        boundary_scales in prop::collection::vec(0.05f64..2.0, 12..13),
        microbatches in 1usize..24,
        gpus_per_node in 1usize..5,
        released in 0usize..16,
    ) {
        let model = ModelConfig::gpt(24);
        let mut loads = stage_loads(&fwd_times, &boundary_scales[..fwd_times.len()]);
        // Past the last stage means no stage is released.
        if released < loads.len() {
            loads[released] = StageLoad::default();
        }
        for kind in 0..3 {
            let comm = CommCostModel::new(cluster_of_kind(kind, loads.len(), gpus_per_node));
            for schedule in SCHEDULES {
                let sim = PipelineSimulator::new(comm.clone(), schedule);
                let label = format!(
                    "cluster {kind}, {schedule:?}, p={} m={microbatches} released={released}",
                    loads.len()
                );
                assert_matches_oracle(
                    &label,
                    &sim.simulate(&model, &loads, microbatches),
                    &kahn_oracle::timelines(&sim, &model, &loads, microbatches, false),
                );
            }
            let sim = PipelineSimulator::new(comm, ScheduleKind::OneFOneB);
            assert_matches_oracle(
                &format!("cluster {kind}, forward-only, m={microbatches} released={released}"),
                &sim.simulate_forward(&model, &loads, microbatches),
                &kahn_oracle::timelines(&sim, &model, &loads, microbatches, true),
            );
        }
    }

    /// Forward-only is a flow shop of `m` identical jobs with transfer
    /// lags, whose makespan has the closed form `Σ(dᵢ + wᵢ) + (m−1)·max dᵢ`
    /// over the real stages (`dᵢ` the forward time, `wᵢ` the boundary cost
    /// into stage `i`).  Checked over unbalanced loads, real links on every
    /// cluster kind and an optionally released stage.
    #[test]
    fn forward_only_matches_the_flow_shop_closed_form(
        fwd_times in prop::collection::vec(0.001f64..2.0, 1..12),
        boundary_scales in prop::collection::vec(0.05f64..2.0, 12..13),
        microbatches in 1usize..64,
        gpus_per_node in 1usize..5,
        released in 0usize..16,
        kind in 0usize..3,
    ) {
        let model = ModelConfig::gpt(24);
        let mut loads = stage_loads(&fwd_times, &boundary_scales[..fwd_times.len()]);
        if released < loads.len() {
            loads[released] = StageLoad::default();
        }
        let comm = CommCostModel::new(cluster_of_kind(kind, loads.len(), gpus_per_node));
        let real: Vec<usize> = (0..loads.len()).filter(|&s| !loads[s].is_empty()).collect();
        let mut expected = 0.0;
        let mut slowest = 0.0f64;
        for (i, &stage) in real.iter().enumerate() {
            expected += loads[stage].fwd_time;
            slowest = slowest.max(loads[stage].fwd_time);
            if i > 0 {
                expected +=
                    comm.boundary_transfer_time(&model, &loads[real[i - 1]], real[i - 1], stage);
            }
        }
        expected += (microbatches - 1) as f64 * slowest;
        let report = PipelineSimulator::new(comm, ScheduleKind::OneFOneB)
            .simulate_forward(&model, &loads, microbatches);
        prop_assert!(
            (report.makespan - expected).abs() <= 1e-12 * expected,
            "makespan {} vs closed form {expected}",
            report.makespan
        );
    }

    /// Bypassing a released stage is exactly equivalent to simulating the
    /// compressed pipeline of its real stages at their physical positions.
    #[test]
    fn released_stage_bypass_matches_the_compressed_pipeline(
        fwd_times in prop::collection::vec(0.01f64..2.0, 2..8),
        microbatches in 1usize..16,
    ) {
        let model = ModelConfig::gpt(24);
        let scales = vec![1.0; fwd_times.len()];
        let mut loads = stage_loads(&fwd_times, &scales);
        // Release the middle stage.
        let released = loads.len() / 2;
        loads[released] = StageLoad::default();
        let sim = PipelineSimulator::new(
            CommCostModel::new(cluster(loads.len(), loads.len())),
            ScheduleKind::OneFOneB,
        );
        let bypassed = sim.simulate(&model, &loads, microbatches);
        prop_assert!(bypassed.timelines[released].spans.is_empty());
        prop_assert_eq!(bypassed.per_worker_busy[released], 0.0);
        // Same pipeline with the released stage dropped outright (all
        // links intra-node here, so physical re-indexing is cost-neutral).
        let compressed: Vec<StageLoad> = loads
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != released)
            .map(|(_, l)| *l)
            .collect();
        let direct = PipelineSimulator::new(
            CommCostModel::new(cluster(compressed.len(), loads.len())),
            ScheduleKind::OneFOneB,
        )
        .simulate(&model, &compressed, microbatches);
        prop_assert_eq!(bypassed.makespan.to_bits(), direct.makespan.to_bits());
    }
}

/// Interleaved 1F1B and ZB-H1 must show strictly lower bubble ratios than
/// non-interleaved 1F1B on balanced stages with `m ≥ 4·p`.
#[test]
fn advanced_schedules_beat_1f1b_bubble_on_balanced_stages() {
    let model = ModelConfig::gpt(24);
    for p in [4usize, 8] {
        let m = 4 * p;
        let loads = stage_loads(&vec![1.0e-3; p], &vec![1.0; p]);
        let run = |schedule: ScheduleKind| {
            PipelineSimulator::new(CommCostModel::new(cluster(p, 4)), schedule)
                .simulate(&model, &loads, m)
        };
        let base = run(ScheduleKind::OneFOneB);
        for schedule in [
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let report = run(schedule);
            assert!(
                report.bubble_ratio() < base.bubble_ratio(),
                "p={p}: {schedule:?} bubble {} vs 1F1B {}",
                report.bubble_ratio(),
                base.bubble_ratio()
            );
            assert!(report.makespan < base.makespan);
        }
    }
}

/// The sweep artifact's headline claim holds through the public API: more
/// virtual stages keep shrinking the balanced interleaved bubble.
#[test]
fn deeper_interleaving_keeps_shrinking_the_bubble() {
    let model = ModelConfig::gpt(24);
    let p = 4;
    let m = 8 * p;
    let loads = stage_loads(&vec![1.0e-3; p], &vec![1.0; p]);
    let bubble = |v: usize| {
        PipelineSimulator::new(
            CommCostModel::new(cluster(p, p)),
            ScheduleKind::Interleaved1F1B { virtual_stages: v },
        )
        .simulate(&model, &loads, m)
        .bubble_ratio()
    };
    let b1 = bubble(1);
    let b2 = bubble(2);
    let b4 = bubble(4);
    assert!(b2 < b1, "v=2 bubble {b2} vs v=1 {b1}");
    assert!(b4 < b2, "v=4 bubble {b4} vs v=2 {b2}");
}
