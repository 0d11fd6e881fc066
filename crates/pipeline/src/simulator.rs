//! Event-driven simulation of one pipeline-parallel training iteration.
//!
//! Given per-stage compute times (from the profiler / cost model), the
//! simulator replays the chosen micro-batch schedule while honoring:
//!
//! * in-order execution within each worker (the schedule's op order),
//! * activation dependencies between adjacent (virtual) stages on the
//!   forward path, input-gradient dependencies in the reverse direction,
//!   and the local ordering of split-backward halves — each cross-worker
//!   edge paying the α–β cost of the link between the two workers, sized
//!   per boundary from the sending stage's boundary tensor, and
//! * empty stages (workers released by DynMo's re-packing): these are
//!   bypassed entirely — no ops are scheduled on them and their neighbours
//!   exchange tensors over a single direct link, matching the paper's
//!   post-repack topology.
//!
//! The engine is a topological relaxation over the typed dependency DAG:
//! every op counts its unmet predecessors (previous op on the same worker,
//! activation producer, gradient producer, input-gradient half), and each
//! completed op relaxes its successors' ready times and schedules any op
//! whose last dependency just resolved.  A worker's in-order execution is
//! itself an edge chain, so no time-ordered queue is needed at all —
//! start times are pure longest paths, and Kahn's algorithm over the CSR
//! edge array visits each op and edge exactly once: `O(n + e)` in the op
//! count with no comparisons, down from the binary-heap event queue's
//! `O(n log n)` and far below the legacy rescan loop (kept as
//! [`PipelineSimulator::simulate_reference`]), which rescanned every
//! worker's queue after each scheduling round.
//!
//! The output is the iteration makespan plus per-worker busy/idle time — the
//! quantities behind the paper's Figure 1 (idleness), Figure 3 (throughput)
//! and the bubble-ratio claims in §5.1.

use dynmo_model::ModelConfig;

use crate::comm::CommCostModel;
use crate::load::StageLoad;
use crate::metrics::{IterationReport, OpSpan, WorkerTimeline};
use crate::schedule::{worker_op_order, Op, OpKind, ScheduleKind};

/// Simulator for a single pipeline (one data-parallel replica).
#[derive(Debug, Clone)]
pub struct PipelineSimulator {
    comm: CommCostModel,
    schedule: ScheduleKind,
}

/// The dependency DAG of one iteration: per-node op metadata plus typed
/// edges with communication weights.  Edges are stored in CSR form (one
/// flat array indexed by per-node offsets) — the per-node `Vec<Vec<_>>`
/// layout this replaced dominated the engine's runtime at paper scale
/// through allocator traffic.
struct OpGraph {
    /// The op behind each node.
    ops: Vec<Op>,
    /// Physical worker (stage index in the caller's layout) of each node.
    workers: Vec<usize>,
    /// Execution time of each node.
    durations: Vec<f64>,
    /// Node `i`'s outgoing edges are `edges[edge_offsets[i]..edge_offsets[i + 1]]`.
    edge_offsets: Vec<usize>,
    /// Outgoing edges: `(successor, edge weight)`, grouped by source node.
    edges: Vec<(usize, f64)>,
    /// Unmet predecessor count per node.
    preds: Vec<usize>,
}

impl OpGraph {
    /// Assemble a graph from an unordered edge list via a counting sort on
    /// the source node (stable, so per-node edge order follows insertion
    /// order).
    fn from_edge_list(
        ops: Vec<Op>,
        workers: Vec<usize>,
        durations: Vec<f64>,
        edge_list: &[(usize, usize, f64)],
    ) -> Self {
        let n = ops.len();
        let mut preds = vec![0usize; n];
        let mut counts = vec![0usize; n];
        for &(from, to, _) in edge_list {
            counts[from] += 1;
            preds[to] += 1;
        }
        let mut edge_offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        edge_offsets.push(0);
        for &count in &counts {
            total += count;
            edge_offsets.push(total);
        }
        let mut cursor = edge_offsets[..n].to_vec();
        let mut edges = vec![(0usize, 0.0f64); total];
        for &(from, to, weight) in edge_list {
            edges[cursor[from]] = (to, weight);
            cursor[from] += 1;
        }
        OpGraph {
            ops,
            workers,
            durations,
            edge_offsets,
            edges,
            preds,
        }
    }

    /// Node `i`'s outgoing edges.
    fn succs(&self, node: usize) -> &[(usize, f64)] {
        &self.edges[self.edge_offsets[node]..self.edge_offsets[node + 1]]
    }
}

impl PipelineSimulator {
    /// Create a simulator with the given communication model and schedule.
    pub fn new(comm: CommCostModel, schedule: ScheduleKind) -> Self {
        PipelineSimulator { comm, schedule }
    }

    /// The schedule being simulated.
    pub fn schedule(&self) -> ScheduleKind {
        self.schedule
    }

    /// The communication model in use.
    pub fn comm(&self) -> &CommCostModel {
        &self.comm
    }

    /// Simulate one iteration of `num_microbatches` micro-batches over the
    /// given per-stage loads and return the timing report.
    pub fn simulate(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> IterationReport {
        let p = stage_loads.len();
        assert!(p > 0, "at least one pipeline stage is required");
        assert!(num_microbatches > 0, "at least one micro-batch is required");
        let m = num_microbatches;

        // Released (empty) stages take no part in the schedule: the
        // pipeline is compressed to its non-empty stages and each skipped
        // boundary becomes one direct link between the real neighbours.
        let real: Vec<usize> = (0..p).filter(|&s| !stage_loads[s].is_empty()).collect();
        let mut timelines: Vec<WorkerTimeline> = vec![WorkerTimeline::default(); p];
        if real.is_empty() {
            return finish_report(stage_loads, timelines);
        }

        let graph = self.build_graph(model, stage_loads, &real, m);
        execute_graph(&graph, &mut timelines);
        finish_report(stage_loads, timelines)
    }

    /// Simulate one *forward-only* pass of `num_microbatches` micro-batches
    /// — the inference iteration a serving engine runs: every stage executes
    /// its forward for each micro-batch in order, activations flow
    /// downstream paying the per-boundary α–β cost, and no backward ops are
    /// scheduled at all (so `StageLoad::bwd_time` is ignored).  Released
    /// (empty) stages are bypassed exactly as in
    /// [`PipelineSimulator::simulate`].
    ///
    /// The schedule kind is irrelevant here (all training schedules order
    /// forwards identically), so the same simulator instance can serve both
    /// training and inference queries.
    pub fn simulate_forward(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> IterationReport {
        let p = stage_loads.len();
        assert!(p > 0, "at least one pipeline stage is required");
        assert!(num_microbatches > 0, "at least one micro-batch is required");
        let m = num_microbatches;

        let real: Vec<usize> = (0..p).filter(|&s| !stage_loads[s].is_empty()).collect();
        let mut timelines: Vec<WorkerTimeline> = vec![WorkerTimeline::default(); p];
        if real.is_empty() {
            return finish_report(stage_loads, timelines);
        }

        let graph = self.build_forward_graph(model, stage_loads, &real, m);
        execute_graph(&graph, &mut timelines);
        finish_report(stage_loads, timelines)
    }

    /// Build the forward-only dependency DAG for the compressed pipeline
    /// `real`: per worker, `m` forward ops in micro-batch order, chained
    /// in-order on the worker and to the previous stage's forward of the
    /// same micro-batch across each boundary.
    fn build_forward_graph(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        real: &[usize],
        m: usize,
    ) -> OpGraph {
        let q = real.len();
        let n = q * m;
        let mut ops = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        let mut durations = Vec::with_capacity(n);
        let mut edge_list: Vec<(usize, usize, f64)> = Vec::with_capacity(2 * n);
        for (i, &stage) in real.iter().enumerate() {
            let load = &stage_loads[stage];
            assert!(
                load.fwd_time.is_finite() && load.fwd_time >= 0.0,
                "op duration must be finite and non-negative"
            );
            // One α–β evaluation per boundary, not per micro-batch (the
            // same hoist build_graph applies).
            let fwd_weight = if i > 0 {
                self.comm.boundary_transfer_time(
                    model,
                    &stage_loads[real[i - 1]],
                    real[i - 1],
                    stage,
                )
            } else {
                0.0
            };
            for mb in 0..m {
                let id = i * m + mb;
                ops.push(Op {
                    kind: OpKind::Forward,
                    microbatch: mb,
                    chunk: 0,
                });
                workers.push(stage);
                durations.push(load.fwd_time);
                if mb > 0 {
                    // In-order execution on the worker.
                    edge_list.push((id - 1, id, 0.0));
                }
                if i > 0 {
                    // Activation from the previous real stage, sized by its
                    // sender's boundary tensor.
                    edge_list.push(((i - 1) * m + mb, id, fwd_weight));
                }
            }
        }
        OpGraph::from_edge_list(ops, workers, durations, &edge_list)
    }

    /// Build the typed dependency DAG for the compressed pipeline `real`
    /// (indices into `stage_loads`) under the configured schedule.
    fn build_graph(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        real: &[usize],
        m: usize,
    ) -> OpGraph {
        let q = real.len();
        let v = self.schedule.effective_virtual_stages(q, m);
        let total_vs = q * v;
        let orders: Vec<Vec<Op>> = (0..q)
            .map(|i| worker_op_order(self.schedule, i, q, m))
            .collect();
        let mut offsets = Vec::with_capacity(q);
        let mut n = 0usize;
        for order in &orders {
            offsets.push(n);
            n += order.len();
        }

        // Producer lookup: node of the forward, and of the input-gradient
        // producer (fused backward or BackwardInput), per virtual stage and
        // micro-batch.  Virtual stage of chunk `c` on compressed worker `i`
        // is `c·q + i`.
        let mut fwd_node = vec![usize::MAX; total_vs * m];
        let mut grad_node = vec![usize::MAX; total_vs * m];
        let mut ops = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        let mut durations = Vec::with_capacity(n);
        for (i, order) in orders.iter().enumerate() {
            let load = &stage_loads[real[i]];
            for (k, op) in order.iter().enumerate() {
                let id = offsets[i] + k;
                let vs = op.chunk * q + i;
                match op.kind {
                    OpKind::Forward => fwd_node[vs * m + op.microbatch] = id,
                    OpKind::Backward | OpKind::BackwardInput => {
                        grad_node[vs * m + op.microbatch] = id
                    }
                    OpKind::BackwardWeight => {}
                }
                ops.push(*op);
                workers.push(real[i]);
                // Interleaving splits a worker's layers evenly across its
                // `v` chunks, so each chunk costs `1/v` of the stage.
                let duration = match op.kind {
                    OpKind::Forward => load.fwd_time,
                    OpKind::Backward => load.bwd_time,
                    OpKind::BackwardInput => load.bwd_input_time(),
                    OpKind::BackwardWeight => load.bwd_weight_time(),
                } / v as f64;
                assert!(
                    duration.is_finite() && duration >= 0.0,
                    "op duration must be finite and non-negative"
                );
                durations.push(duration);
            }
        }

        // Per-boundary communication weights, hoisted out of the per-op
        // loop: a boundary's α–β cost is the same for every micro-batch
        // crossing it, and pricing it 2·m times dominated graph building
        // at paper scale.  `fwd_weight[vs]` prices the activation edge
        // into virtual stage `vs` from `vs − 1`; `grad_weight[vs]` prices
        // the input-gradient edge into `vs` from `vs + 1` (crossing the
        // boundary whose forward tensor `vs` produced).
        let mut fwd_weight = vec![0.0f64; total_vs];
        let mut grad_weight = vec![0.0f64; total_vs];
        for vs in 0..total_vs {
            let i = vs % q;
            if vs > 0 {
                let prev = (vs - 1) % q;
                if prev != i {
                    fwd_weight[vs] = self.comm.boundary_transfer_time(
                        model,
                        &stage_loads[real[prev]],
                        real[prev],
                        real[i],
                    );
                }
            }
            if vs + 1 < total_vs {
                let next = (vs + 1) % q;
                if next != i {
                    grad_weight[vs] = self.comm.gradient_transfer_time(
                        model,
                        &stage_loads[real[i]],
                        real[next],
                        real[i],
                    );
                }
            }
        }

        let mut edge_list: Vec<(usize, usize, f64)> = Vec::with_capacity(3 * n);
        let mut add_edge = |from: usize, to: usize, weight: f64| {
            edge_list.push((from, to, weight));
        };
        for (i, order) in orders.iter().enumerate() {
            for (k, op) in order.iter().enumerate() {
                let id = offsets[i] + k;
                // In-order execution on the worker.
                if k > 0 {
                    add_edge(id - 1, id, 0.0);
                }
                let vs = op.chunk * q + i;
                match op.kind {
                    OpKind::Forward => {
                        if vs > 0 {
                            // Activation from the previous virtual stage;
                            // the boundary tensor is sized by its sender.
                            add_edge(fwd_node[(vs - 1) * m + op.microbatch], id, fwd_weight[vs]);
                        }
                    }
                    OpKind::Backward | OpKind::BackwardInput => {
                        // The worker's own forward of this micro-batch.
                        add_edge(fwd_node[vs * m + op.microbatch], id, 0.0);
                        if vs + 1 < total_vs {
                            // Input gradient from the next virtual stage.
                            add_edge(grad_node[(vs + 1) * m + op.microbatch], id, grad_weight[vs]);
                        }
                    }
                    OpKind::BackwardWeight => {
                        // Local: only after the matching input-gradient op.
                        add_edge(grad_node[vs * m + op.microbatch], id, 0.0);
                    }
                }
            }
        }

        OpGraph::from_edge_list(ops, workers, durations, &edge_list)
    }

    /// The legacy busy-poll simulator, kept as a bit-for-bit oracle for the
    /// event-driven engine (see `tests/pipeline_schedules.rs`): it rescans
    /// every worker's op queue after each scheduling round — `O(p·ops)`
    /// per sweep — with NaN sentinels for unmet dependencies.  Supports the
    /// schedules the legacy loop knew ([`ScheduleKind::GPipe`] and
    /// [`ScheduleKind::OneFOneB`]) over fully non-empty stage loads, at the
    /// fixed communication semantics (per-boundary activation sizing on the
    /// forward path, [`CommCostModel::gradient_transfer_time`] on the
    /// backward path).
    ///
    /// # Panics
    ///
    /// On interleaved or split-backward schedules, and on empty stages —
    /// both are features of the event-driven engine only.
    pub fn simulate_reference(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> IterationReport {
        assert!(
            matches!(self.schedule, ScheduleKind::GPipe | ScheduleKind::OneFOneB),
            "the reference simulator only supports GPipe and 1F1B"
        );
        assert!(
            stage_loads.iter().all(|l| !l.is_empty()),
            "the reference simulator does not model empty-stage bypass"
        );
        let p = stage_loads.len();
        assert!(p > 0, "at least one pipeline stage is required");
        assert!(num_microbatches > 0, "at least one micro-batch is required");
        let m = num_microbatches;

        let orders: Vec<Vec<Op>> = (0..p)
            .map(|s| worker_op_order(self.schedule, s, p, m))
            .collect();

        let mut fwd_finish = vec![vec![f64::NAN; m]; p];
        let mut bwd_finish = vec![vec![f64::NAN; m]; p];
        let mut worker_time = vec![0.0f64; p];
        let mut next_idx = vec![0usize; p];
        let mut timelines: Vec<WorkerTimeline> = vec![WorkerTimeline::default(); p];
        let total_ops = 2 * m * p;
        let mut scheduled = 0usize;

        while scheduled < total_ops {
            let mut progressed = false;
            for s in 0..p {
                while next_idx[s] < orders[s].len() {
                    let op = orders[s][next_idx[s]];
                    let ready = match op.kind {
                        OpKind::Forward => {
                            if s == 0 {
                                Some(0.0)
                            } else {
                                let dep = fwd_finish[s - 1][op.microbatch];
                                if dep.is_nan() {
                                    None
                                } else {
                                    Some(
                                        dep + self.comm.boundary_transfer_time(
                                            model,
                                            &stage_loads[s - 1],
                                            s - 1,
                                            s,
                                        ),
                                    )
                                }
                            }
                        }
                        OpKind::Backward => {
                            let own_fwd = fwd_finish[s][op.microbatch];
                            if own_fwd.is_nan() {
                                None
                            } else if s == p - 1 {
                                Some(own_fwd)
                            } else {
                                let dep = bwd_finish[s + 1][op.microbatch];
                                if dep.is_nan() {
                                    None
                                } else {
                                    Some(own_fwd.max(
                                        dep + self.comm.gradient_transfer_time(
                                            model,
                                            &stage_loads[s],
                                            s + 1,
                                            s,
                                        ),
                                    ))
                                }
                            }
                        }
                        _ => unreachable!("reference schedules never split backward"),
                    };
                    let Some(ready) = ready else { break };
                    let duration = match op.kind {
                        OpKind::Forward => stage_loads[s].fwd_time,
                        _ => stage_loads[s].bwd_time,
                    };
                    let start = worker_time[s].max(ready);
                    let end = start + duration;
                    match op.kind {
                        OpKind::Forward => fwd_finish[s][op.microbatch] = end,
                        _ => bwd_finish[s][op.microbatch] = end,
                    }
                    timelines[s].spans.push(OpSpan { op, start, end });
                    worker_time[s] = end;
                    next_idx[s] += 1;
                    scheduled += 1;
                    progressed = true;
                }
            }
            assert!(
                progressed,
                "pipeline schedule deadlocked ({} of {} ops scheduled)",
                scheduled, total_ops
            );
        }

        finish_report(stage_loads, timelines)
    }
}

/// Run the engine over a dependency graph, pushing the resulting op spans
/// onto `timelines` (indexed by physical worker).  Kahn's algorithm: a
/// node's start time is the max over its predecessors of `end + edge
/// weight` (a worker's in-order execution is an explicit edge chain, so
/// per-worker spans come out chain-ordered), and processing order only has
/// to be topological — no time-ordered queue.  Panics if the graph
/// deadlocks (a cycle, i.e. a malformed schedule).
fn execute_graph(graph: &OpGraph, timelines: &mut [WorkerTimeline]) {
    let n = graph.ops.len();
    let mut ready = vec![0.0f64; n];
    let mut preds = graph.preds.clone();
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
        for &(succ, weight) in graph.succs(node) {
            ready[succ] = ready[succ].max(end + weight);
            preds[succ] -= 1;
            if preds[succ] == 0 {
                stack.push(succ);
            }
        }
    }
    assert!(
        scheduled == n,
        "pipeline schedule deadlocked ({scheduled} of {n} ops scheduled)"
    );
}

/// Assemble the [`IterationReport`] from per-worker timelines.
fn finish_report(stage_loads: &[StageLoad], timelines: Vec<WorkerTimeline>) -> IterationReport {
    let makespan = timelines
        .iter()
        .map(|t| t.finish_time())
        .fold(0.0, f64::max);
    let per_worker_busy: Vec<f64> = timelines.iter().map(|t| t.busy_time()).collect();
    let per_worker_idle: Vec<f64> = per_worker_busy.iter().map(|b| makespan - b).collect();
    let stage_compute_times: Vec<f64> = stage_loads.iter().map(|l| l.total_time()).collect();
    IterationReport {
        makespan,
        per_worker_busy,
        per_worker_idle,
        timelines,
        stage_compute_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::{ClusterConfig, DeviceSpec};

    fn zero_comm_cluster(stages: usize) -> ClusterConfig {
        // A device with effectively infinite bandwidth and zero latency so
        // analytic pipeline formulas hold exactly in tests.
        ClusterConfig::homogeneous(
            stages.max(1),
            stages,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: f64::INFINITY,
                inter_node_bandwidth: f64::INFINITY,
                link_latency: 0.0,
                kernel_launch_overhead: 0.0,
            },
        )
    }

    fn stage(fwd: f64) -> StageLoad {
        StageLoad {
            fwd_time: fwd,
            bwd_time: 2.0 * fwd,
            param_count: 1000,
            static_bytes: 1 << 20,
            activation_bytes: 6 * 34 * 2048 * 2 * 1024,
            // 0 = the model's flat residual-stream tensor, so
            // comm-sensitive tests see non-zero boundary traffic.
            boundary_bytes: 0,
            num_layers: 6,
        }
    }

    fn released() -> StageLoad {
        StageLoad::default()
    }

    fn simulate(schedule: ScheduleKind, fwd_times: &[f64], microbatches: usize) -> IterationReport {
        simulate_loads(
            schedule,
            &fwd_times.iter().map(|&f| stage(f)).collect::<Vec<_>>(),
            microbatches,
        )
    }

    fn simulate_loads(
        schedule: ScheduleKind,
        loads: &[StageLoad],
        microbatches: usize,
    ) -> IterationReport {
        let comm = CommCostModel::new(zero_comm_cluster(loads.len()));
        let sim = PipelineSimulator::new(comm, schedule);
        sim.simulate(&ModelConfig::gpt(24), loads, microbatches)
    }

    #[test]
    fn single_stage_has_no_bubble() {
        for schedule in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let r = simulate(schedule, &[1.0], 4);
            // 4 microbatches × (1 + 2) seconds.
            assert!(
                (r.makespan - 12.0).abs() < 1e-9,
                "{schedule:?}: makespan {}",
                r.makespan
            );
            assert!(r.average_idleness() < 1e-9);
            assert!(r.bubble_ratio() < 1e-9);
        }
    }

    #[test]
    fn balanced_gpipe_matches_analytic_makespan() {
        // p balanced stages, m microbatches, zero comm: GPipe makespan is
        // (m + p − 1) · (f + b) with f=1, b=2.
        let p = 4;
        let m = 8;
        let r = simulate(ScheduleKind::GPipe, &vec![1.0; p], m);
        let expected = (m as f64 + p as f64 - 1.0) * 3.0;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn balanced_1f1b_matches_analytic_makespan() {
        // Balanced 1F1B with zero comm: makespan = (p−1)·(f+b) + m·(f+b)
        // = (m + p − 1)(f+b) — same steady-state as GPipe for equal f+b
        // per stage, which is the standard result for non-interleaved 1F1B.
        let p = 4;
        let m = 8;
        let r = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], m);
        let expected = (m as f64 + p as f64 - 1.0) * 3.0;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn balanced_interleaved_shrinks_the_warmup_bubble_by_v() {
        // Interleaved 1F1B with v chunks per worker: the ramp-up advances
        // in (f+b)/v steps, so makespan = m·(f+b) + (p−1)·(f+b)/v.
        let p = 4;
        let m = 16;
        for v in [2, 4] {
            let r = simulate(
                ScheduleKind::Interleaved1F1B { virtual_stages: v },
                &vec![1.0; p],
                m,
            );
            let expected = m as f64 * 3.0 + (p as f64 - 1.0) * 3.0 / v as f64;
            assert!(
                (r.makespan - expected).abs() < 1e-9,
                "v={v}: makespan {} vs expected {expected}",
                r.makespan
            );
        }
    }

    #[test]
    fn balanced_zero_bubble_h1_matches_analytic_makespan() {
        // ZB-H1 with an even backward split: the warm-up ramp costs
        // (p−1)·f, the gradient chain drains at b/2 per stage, and the
        // weight halves fill the remaining gaps, so makespan
        // = m·(f+b) + (p−1)·(f + b/2).
        let p = 4;
        let m = 16;
        let r = simulate(ScheduleKind::ZeroBubbleH1, &vec![1.0; p], m);
        let expected = m as f64 * 3.0 + (p as f64 - 1.0) * (1.0 + 1.0);
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn advanced_schedules_strictly_beat_1f1b_on_balanced_stages() {
        let p = 4;
        let m = 4 * p;
        let base = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], m);
        for schedule in [
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let r = simulate(schedule, &vec![1.0; p], m);
            assert!(
                r.bubble_ratio() < base.bubble_ratio(),
                "{schedule:?}: bubble {} vs 1F1B {}",
                r.bubble_ratio(),
                base.bubble_ratio()
            );
            assert!(r.makespan < base.makespan);
        }
    }

    #[test]
    fn no_schedule_deadlocks_across_shapes() {
        // The engine asserts internally when a schedule deadlocks; sweep
        // the shape grid (including ragged m for the interleaved
        // generalization) to prove liveness and op-count conservation.
        for schedule in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::Interleaved1F1B { virtual_stages: 3 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            for p in [1usize, 2, 3, 4, 8] {
                for m in [1usize, 2, 3, 5, 8, 16] {
                    let r = simulate(schedule, &vec![1.0; p], m);
                    let v = schedule.effective_virtual_stages(p, m);
                    let ops_per_worker = match schedule {
                        ScheduleKind::ZeroBubbleH1 => 3 * m,
                        _ => 2 * m * v,
                    };
                    for t in &r.timelines {
                        assert_eq!(t.spans.len(), ops_per_worker, "{schedule:?} p={p} m={m}");
                    }
                    // All schedules do the same total work.
                    let busy: f64 = r.per_worker_busy.iter().sum();
                    assert!((busy - (p * m) as f64 * 3.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn inherent_bubble_shrinks_with_more_microbatches() {
        let p = 4;
        let small = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], 4);
        let large = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], 32);
        assert!(large.average_idleness() < small.average_idleness());
        // With m ≫ p the bubble approaches (p−1)/(m+p−1).
        let expected = (p as f64 - 1.0) / (32.0 + p as f64 - 1.0);
        assert!((large.average_idleness() - expected).abs() < 0.02);
    }

    #[test]
    fn imbalanced_stage_creates_extra_idleness() {
        let balanced = simulate(ScheduleKind::OneFOneB, &[1.0, 1.0, 1.0, 1.0], 16);
        let imbalanced = simulate(ScheduleKind::OneFOneB, &[1.0, 1.0, 1.0, 3.0], 16);
        assert!(imbalanced.average_idleness() > balanced.average_idleness() + 0.2);
        // The slow stage itself is (nearly) never idle.
        let slow_idle = imbalanced.per_worker_idle[3];
        assert!(slow_idle / imbalanced.makespan < 0.2);
        // Makespan is dominated by the slow stage: ≥ m × its per-mb time.
        assert!(imbalanced.makespan >= 16.0 * 9.0);
        // Imbalance metric reflects the 3× stage (Eq. 2).
        assert!(imbalanced.load_imbalance() > 1.0);
    }

    #[test]
    fn throughput_drops_when_one_stage_slows_down() {
        let tokens = 16 * 2 * 2048;
        let balanced = simulate(ScheduleKind::OneFOneB, &[1.0; 4], 16);
        let imbalanced = simulate(ScheduleKind::OneFOneB, &[1.0, 1.0, 1.0, 2.0], 16);
        assert!(balanced.tokens_per_second(tokens) > 1.5 * imbalanced.tokens_per_second(tokens));
    }

    #[test]
    fn released_stages_are_bypassed_entirely() {
        // Two real stages with a released (layer-less) stage between them:
        // the empty worker schedules no ops and the pipeline behaves as a
        // two-stage pipeline over a single direct 0 → 2 link.
        let loads = [stage(1.0), released(), stage(1.0)];
        let r = simulate_loads(ScheduleKind::OneFOneB, &loads, 8);
        assert!(r.timelines[1].spans.is_empty());
        assert_eq!(r.per_worker_busy[1], 0.0);
        // Identical to simulating just the two real stages.
        let two = simulate_loads(ScheduleKind::OneFOneB, &[stage(1.0), stage(1.0)], 8);
        assert_eq!(r.makespan, two.makespan);
        assert_eq!(r.per_worker_busy[0], two.per_worker_busy[0]);
        assert_eq!(r.per_worker_busy[2], two.per_worker_busy[1]);
    }

    #[test]
    fn bypassing_a_released_stage_pays_one_hop_instead_of_two() {
        // With real link costs the legacy loop made a released middle stage
        // relay the tensor — two transfers, s−1 → s → s+1.  The bypass
        // pays a single direct hop: the layout must match a two-stage
        // pipeline at the same per-hop cost exactly, and beat a cluster
        // whose links are priced like the old two-hop relay.
        // every hop crosses a node boundary (one GPU per node)
        let cluster = ClusterConfig::homogeneous(
            1,
            3,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: 1.0e9,
                inter_node_bandwidth: 1.0e8,
                link_latency: 0.05,
                kernel_launch_overhead: 0.0,
            },
        );
        let model = ModelConfig::gpt(24);
        let sim =
            PipelineSimulator::new(CommCostModel::new(cluster.clone()), ScheduleKind::OneFOneB);
        let bypassed = sim.simulate(&model, &[stage(1.0), released(), stage(1.0)], 8);
        // The same two real stages at the same physical distance (0 and 2).
        // A two-stage pipeline at adjacent slots pays the same per-hop cost
        // here because every hop is inter-node in this cluster.
        let direct = sim.simulate(&model, &[stage(1.0), stage(1.0)], 8);
        assert!((bypassed.makespan - direct.makespan).abs() < 1e-9);
        // And strictly cheaper than paying the boundary twice: simulate the
        // two-hop relay by doubling the per-hop latency.
        let relay_cluster = ClusterConfig {
            device: DeviceSpec {
                link_latency: 0.1,
                inter_node_bandwidth: 5.0e7,
                ..cluster.device
            },
            ..cluster
        };
        let relay =
            PipelineSimulator::new(CommCostModel::new(relay_cluster), ScheduleKind::OneFOneB)
                .simulate(&model, &[stage(1.0), stage(1.0)], 8);
        assert!(bypassed.makespan < relay.makespan);
    }

    #[test]
    fn all_stages_released_yields_an_empty_iteration() {
        let r = simulate_loads(ScheduleKind::OneFOneB, &[released(), released()], 4);
        assert_eq!(r.makespan, 0.0);
        assert!(r.per_worker_busy.iter().all(|&b| b == 0.0));
        assert_eq!(r.average_idleness(), 0.0);
    }

    #[test]
    fn communication_latency_increases_makespan() {
        let loads = vec![stage(1.0); 4];
        let model = ModelConfig::gpt(24);
        let fast = PipelineSimulator::new(
            CommCostModel::new(zero_comm_cluster(4)),
            ScheduleKind::OneFOneB,
        )
        .simulate(&model, &loads, 8);
        // every hop crosses a (slow) node boundary
        let slow_cluster = ClusterConfig::homogeneous(
            1,
            4,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: 1.0e9,
                inter_node_bandwidth: 1.0e8,
                link_latency: 0.05,
                kernel_launch_overhead: 0.0,
            },
        );
        let slow = PipelineSimulator::new(CommCostModel::new(slow_cluster), ScheduleKind::OneFOneB)
            .simulate(&model, &loads, 8);
        assert!(slow.makespan > fast.makespan);
    }

    #[test]
    fn reference_simulator_agrees_with_the_engine() {
        // Spot check here; the exhaustive randomized comparison lives in
        // the workspace-level property tests.
        let model = ModelConfig::gpt(24);
        let loads = vec![stage(1.0), stage(0.7), stage(1.3), stage(1.0)];
        let cluster = ClusterConfig::homogeneous(2, 4, 1, DeviceSpec::h100_sxm5());
        for schedule in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let sim = PipelineSimulator::new(CommCostModel::new(cluster.clone()), schedule);
            let engine = sim.simulate(&model, &loads, 7);
            let reference = sim.simulate_reference(&model, &loads, 7);
            assert_eq!(engine.makespan, reference.makespan);
            assert_eq!(engine.per_worker_busy, reference.per_worker_busy);
        }
    }

    #[test]
    #[should_panic(expected = "at least one pipeline stage")]
    fn zero_stages_is_rejected() {
        let comm = CommCostModel::new(zero_comm_cluster(1));
        let sim = PipelineSimulator::new(comm, ScheduleKind::GPipe);
        let _ = sim.simulate(&ModelConfig::gpt(24), &[], 4);
    }

    #[test]
    #[should_panic(expected = "at least one micro-batch")]
    fn zero_microbatches_is_rejected() {
        let comm = CommCostModel::new(zero_comm_cluster(1));
        let sim = PipelineSimulator::new(comm, ScheduleKind::GPipe);
        let _ = sim.simulate(&ModelConfig::gpt(24), &[stage(1.0)], 0);
    }

    #[test]
    fn forward_only_matches_the_analytic_fill_drain_makespan() {
        // p balanced stages, m micro-batches, zero comm: a forward-only
        // pipeline completes in (m + p − 1) · f.
        let p = 4;
        let m = 8;
        let comm = CommCostModel::new(zero_comm_cluster(p));
        let sim = PipelineSimulator::new(comm, ScheduleKind::OneFOneB);
        let loads: Vec<StageLoad> = (0..p).map(|_| stage(1.0)).collect();
        let r = sim.simulate_forward(&ModelConfig::gpt(24), &loads, m);
        let expected = (m as f64 + p as f64 - 1.0) * 1.0;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
        // No backward ops: each worker runs exactly m forwards.
        for t in &r.timelines {
            assert_eq!(t.spans.len(), m);
            assert!(t.spans.iter().all(|s| s.op.kind == OpKind::Forward));
        }
        // Total busy time is p · m forwards; bwd_time is ignored.
        let busy: f64 = r.per_worker_busy.iter().sum();
        assert!((busy - (p * m) as f64).abs() < 1e-9);
    }

    #[test]
    fn forward_only_bypasses_released_stages_and_prices_boundaries() {
        let model = ModelConfig::gpt(24);
        let cluster = ClusterConfig::homogeneous(
            1,
            3,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: 1.0e9,
                inter_node_bandwidth: 1.0e8,
                link_latency: 0.05,
                kernel_launch_overhead: 0.0,
            },
        );
        let sim = PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB);
        let bypassed = sim.simulate_forward(&model, &[stage(1.0), released(), stage(1.0)], 8);
        assert!(bypassed.timelines[1].spans.is_empty());
        let direct = sim.simulate_forward(&model, &[stage(1.0), stage(1.0)], 8);
        assert!((bypassed.makespan - direct.makespan).abs() < 1e-9);
        // A shrunk boundary tensor lowers the forward hand-off cost.
        let mut shrunk = [stage(1.0), stage(1.0)];
        shrunk[0].boundary_bytes = 1;
        let cheap = sim.simulate_forward(&model, &shrunk, 8);
        assert!(cheap.makespan < direct.makespan);
    }

    #[test]
    fn forward_only_is_faster_than_the_training_iteration() {
        let loads = vec![stage(1.0); 4];
        let comm = CommCostModel::new(zero_comm_cluster(4));
        let sim = PipelineSimulator::new(comm, ScheduleKind::OneFOneB);
        let model = ModelConfig::gpt(24);
        let fwd = sim.simulate_forward(&model, &loads, 8);
        let train = sim.simulate(&model, &loads, 8);
        assert!(fwd.makespan < train.makespan);
    }

    #[test]
    fn timelines_are_consistent_with_busy_times() {
        for schedule in [
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let r = simulate(schedule, &[1.0, 2.0, 1.0], 6);
            for (busy, timeline) in r.per_worker_busy.iter().zip(r.timelines.iter()) {
                assert!((busy - timeline.busy_time()).abs() < 1e-9);
                // Spans never overlap and are ordered.
                for w in timeline.spans.windows(2) {
                    assert!(w[1].start >= w[0].end - 1e-12);
                }
            }
        }
    }
}
