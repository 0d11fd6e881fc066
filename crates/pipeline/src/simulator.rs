//! Simulation of one pipeline-parallel iteration.
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
//! Every schedule is a fixed op order per worker whose only cross-worker
//! dependencies are the `(vs ± 1, mb)` producers of the same micro-batch,
//! so the engine is one loop over per-worker cursors: it sweeps the
//! workers round-robin, and each worker runs ops in order until one waits
//! on a producer that has not run yet.  An op starts at the later of its
//! worker's previous end and `producer end + edge cost` over its
//! producers.  All of those times are non-negative and `max` does not care
//! about order, so a start time is the op's longest path through the
//! dependency graph whatever order the sweep visits it in.
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
        self.run(model, stage_loads, num_microbatches, false)
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
        self.run(model, stage_loads, num_microbatches, true)
    }

    /// The engine behind both entry points.  Released stages are dropped,
    /// leaving the compressed pipeline `real` of `q` workers; virtual stage
    /// `vs = chunk·q + i` is chunk `chunk` on compressed worker `i`.
    /// Forward-only runs `m` forwards per worker with one chunk.
    fn run(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        m: usize,
        forward_only: bool,
    ) -> IterationReport {
        let p = stage_loads.len();
        assert!(p > 0, "at least one pipeline stage is required");
        assert!(m > 0, "at least one micro-batch is required");

        // Released (empty) stages take no part in the schedule: the
        // pipeline is compressed to its non-empty stages and each skipped
        // boundary becomes one direct link between the real neighbours.
        let real: Vec<usize> = (0..p).filter(|&s| !stage_loads[s].is_empty()).collect();
        let mut timelines: Vec<WorkerTimeline> = vec![WorkerTimeline::default(); p];
        if real.is_empty() {
            return finish_report(stage_loads, timelines);
        }
        let q = real.len();
        let (v, orders): (usize, Vec<Vec<Op>>) = if forward_only {
            let forwards: Vec<Op> = (0..m)
                .map(|microbatch| Op {
                    kind: OpKind::Forward,
                    microbatch,
                    chunk: 0,
                })
                .collect();
            (1, vec![forwards; q])
        } else {
            let orders = (0..q)
                .map(|i| worker_op_order(self.schedule, i, q, m))
                .collect();
            (self.schedule.effective_virtual_stages(q, m), orders)
        };
        let total_vs = q * v;

        // Per-boundary communication weights, hoisted out of the per-op
        // loop: a boundary's α–β cost is the same for every micro-batch
        // crossing it.  `fwd_weight[vs]` prices the activation into virtual
        // stage `vs` from `vs − 1`; `grad_weight[vs]` prices the input
        // gradient into `vs` from `vs + 1` (crossing the boundary whose
        // forward tensor `vs` produced).  Chunks adjacent on one worker
        // hand off for free.
        let mut fwd_weight = vec![0.0f64; total_vs];
        let mut grad_weight = vec![0.0f64; if forward_only { 0 } else { total_vs }];
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
            if !forward_only && vs + 1 < total_vs {
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
        // `max` ignores NaN and a negative cost would let a consumer start
        // before its producer ends, so either would silently break a
        // dependency; `+inf` (a dead link) stays legal.
        assert!(
            fwd_weight.iter().chain(&grad_weight).all(|&w| w >= 0.0),
            "edge communication time must be non-negative"
        );

        // End time of the forward, and of the input-gradient producer
        // (fused backward or BackwardInput), of each `(vs, mb)` at
        // `vs·m + mb`; NaN until that op has run.
        let mut fwd_end = vec![f64::NAN; total_vs * m];
        let mut grad_end = vec![f64::NAN; if forward_only { 0 } else { total_vs * m }];
        for (i, order) in orders.iter().enumerate() {
            timelines[real[i]].spans.reserve_exact(order.len());
        }
        let total: usize = orders.iter().map(Vec::len).sum();
        let mut scheduled = 0usize;
        while scheduled < total {
            let before = scheduled;
            for (i, order) in orders.iter().enumerate() {
                let load = &stage_loads[real[i]];
                // The worker's spans so far are its cursor into `order`,
                // and the last one's end is when it frees up.
                let spans = &mut timelines[real[i]].spans;
                let mut worker_end = spans.last().map_or(0.0, |s| s.end);
                for &op in &order[spans.len()..] {
                    let vs = op.chunk * q + i;
                    let slot = vs * m + op.microbatch;
                    // Latest arrival over the op's producers; NaN while
                    // any of them has yet to run.
                    let ready = match op.kind {
                        OpKind::Forward if vs == 0 => 0.0,
                        OpKind::Forward => fwd_end[slot - m] + fwd_weight[vs],
                        OpKind::Backward | OpKind::BackwardInput if vs + 1 < total_vs => {
                            let own = fwd_end[slot];
                            let grad = grad_end[slot + m] + grad_weight[vs];
                            if own.is_nan() || grad.is_nan() {
                                f64::NAN
                            } else {
                                own.max(grad)
                            }
                        }
                        OpKind::Backward | OpKind::BackwardInput => fwd_end[slot],
                        OpKind::BackwardWeight => grad_end[slot],
                    };
                    if ready.is_nan() {
                        break;
                    }
                    // Interleaving splits a worker's layers evenly across
                    // its `v` chunks, so each chunk costs `1/v` of the stage.
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
                    let start = worker_end.max(ready);
                    worker_end = start + duration;
                    match op.kind {
                        OpKind::Forward => fwd_end[slot] = worker_end,
                        OpKind::Backward | OpKind::BackwardInput => grad_end[slot] = worker_end,
                        OpKind::BackwardWeight => {}
                    }
                    spans.push(OpSpan {
                        op,
                        start,
                        end: worker_end,
                    });
                    scheduled += 1;
                }
            }
            assert!(
                scheduled > before,
                "pipeline schedule deadlocked ({scheduled} of {total} ops scheduled)"
            );
        }
        finish_report(stage_loads, timelines)
    }
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

    /// Two stages, 1F1B, one micro-batch (fwd 1 s, bwd 2 s) over links
    /// whose latency is `link_latency`.
    fn simulate_with_link_latency(link_latency: f64) -> IterationReport {
        let cluster = ClusterConfig::homogeneous(
            1,
            2,
            1,
            DeviceSpec {
                link_latency,
                ..DeviceSpec::h100_sxm5()
            },
        );
        PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB).simulate(
            &ModelConfig::gpt(24),
            &[stage(1.0), stage(1.0)],
            1,
        )
    }

    #[test]
    #[should_panic(expected = "edge communication time must be non-negative")]
    fn nan_link_latency_is_rejected() {
        // `max` would drop a NaN arrival, starting stage 1's forward at 0
        // before stage 0's forward ends.
        let _ = simulate_with_link_latency(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "edge communication time must be non-negative")]
    fn negative_link_latency_is_rejected() {
        let _ = simulate_with_link_latency(-5.0);
    }

    #[test]
    fn infinite_link_latency_delays_the_consumer_forever() {
        let r = simulate_with_link_latency(f64::INFINITY);
        assert_eq!(r.makespan, f64::INFINITY);
        assert_eq!(r.timelines[1].spans[0].start, f64::INFINITY);
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
