//! Integration tests for the distributed pieces: Algorithm 1 over the
//! simulated runtime, layer migration between ranks, and the communicator
//! split used to release GPUs after re-packing.

use dynmo::core::migration::MigrationPlan;
use dynmo::core::repack::{plan_repack, RepackConfig};
use dynmo::dynamics::distributed_global_prune;
use dynmo::pipeline::{LayerLoad, StageAssignment};
use dynmo::runtime::{launch, Payload};
use dynmo::sparse::prune_to_sparsity;

fn synthetic_shards(ranks: usize, per_rank: usize) -> Vec<Vec<f32>> {
    (0..ranks)
        .map(|r| {
            (0..per_rank)
                .map(|i| {
                    let x = ((r * per_rank + i) as f32 * 37.0 + 11.0).sin();
                    x * (1.0 + r as f32 * 0.3)
                })
                .collect()
        })
        .collect()
}

#[test]
fn algorithm1_matches_single_process_pruning_at_multiple_sparsities() {
    for &(ranks, sparsity) in &[(2usize, 0.5f64), (4, 0.9), (8, 0.79)] {
        let shards = synthetic_shards(ranks, 64);
        let shards_for_ranks = shards.clone();
        let results = launch(ranks, move |ctx| {
            let comm = ctx.world();
            distributed_global_prune(&comm, &shards_for_ranks[ctx.rank()], sparsity).unwrap()
        })
        .unwrap();

        // Reference: prune the concatenation in one process.
        let mut concat: Vec<f32> = shards.iter().flatten().copied().collect();
        prune_to_sparsity(&mut concat, sparsity);
        let mut offset = 0;
        for (rank, shard) in shards.iter().enumerate() {
            let expected = &concat[offset..offset + shard.len()];
            assert_eq!(
                results[rank], expected,
                "rank {rank} mismatch at sparsity {sparsity} with {ranks} ranks"
            );
            offset += shard.len();
        }
    }
}

#[test]
fn migration_plan_executes_over_the_runtime_and_preserves_layer_data() {
    // 6 layers over 3 stages; a rebalance moves the boundary layers.
    let loads: Vec<LayerLoad> = (0..6)
        .map(|i| LayerLoad {
            layer_id: i,
            fwd_time: 1.0,
            bwd_time: 2.0,
            param_count: 100,
            static_bytes: 64,
            activation_bytes: 0,
            migration_bytes: 64,
        })
        .collect();
    let from = StageAssignment::uniform(6, 3);
    let mut to = from.clone();
    to.move_layer(2, 2).unwrap();
    to.move_layer(3, 0).unwrap();
    let plan = MigrationPlan::between(&from, &to, &loads);
    assert_eq!(plan.num_moves(), 2);

    let results = launch(3, move |ctx| {
        let comm = ctx.world();
        // Each stage serves its layers' "weights" as a recognizable pattern.
        let data = |layer: usize| vec![layer as f32 * 10.0; 8];
        plan.execute(&comm, ctx.rank(), &data).unwrap()
    })
    .unwrap();

    // Stage 2 received layer 2's weights; stage 0 received layer 3's.
    assert_eq!(results[2], vec![(2, vec![20.0; 8])]);
    assert_eq!(results[0], vec![(3, vec![30.0; 8])]);
    assert!(results[1].is_empty());
}

#[test]
fn repack_then_comm_split_releases_idle_ranks() {
    // Plan a re-pack on 4 workers whose load fits on 2, then enact the
    // paper's §3.4.2 release protocol: split the world communicator into an
    // active sub-communicator and let the idle ranks drop out.
    let loads: Vec<LayerLoad> = (0..8)
        .map(|i| LayerLoad {
            layer_id: i,
            fwd_time: 0.5,
            bwd_time: 1.0,
            param_count: 10,
            static_bytes: 100,
            activation_bytes: 0,
            migration_bytes: 100,
        })
        .collect();
    let assignment = StageAssignment::uniform(8, 4);
    let plan = plan_repack(
        &assignment,
        &loads,
        &[1; 4],
        &RepackConfig {
            max_memory: 450,
            target_num_workers: 1,
            utilization_cap: 1.0,
        },
    );
    assert_eq!(plan.active_workers.len(), 2);
    let active = plan.active_workers.clone();

    let results = launch(4, move |ctx| {
        let comm = ctx.world();
        let sub = comm.split_subset(&active).unwrap();
        match sub {
            Some(active_comm) => {
                // Active ranks keep working: a barrier and a reduction on the
                // new communicator must involve only the active ranks.
                active_comm.barrier().unwrap();
                let sum = active_comm.allreduce_sum_f32(&[1.0]).unwrap()[0];
                Some((active_comm.size(), sum as usize))
            }
            None => {
                // Idle ranks are released; they simply stop participating.
                None
            }
        }
    })
    .unwrap();

    let active_results: Vec<_> = results.iter().flatten().collect();
    assert_eq!(active_results.len(), 2);
    for (size, sum) in active_results {
        assert_eq!(*size, 2);
        assert_eq!(*sum, 2);
    }
}

#[test]
fn gather_scatter_pattern_handles_unequal_shard_sizes() {
    // The paper implements Algorithm 1's gather/scatter with P2P because
    // per-rank sizes differ; verify the collective handles ragged payloads.
    let results = launch(4, |ctx| {
        let comm = ctx.world();
        let mine: Vec<f32> = vec![ctx.rank() as f32; ctx.rank() + 1];
        let gathered = comm.gather(0, Payload::F32(mine)).unwrap();
        if ctx.rank() == 0 {
            let sizes: Vec<usize> = gathered
                .unwrap()
                .into_iter()
                .map(|p| p.into_f32().unwrap().len())
                .collect();
            Some(sizes)
        } else {
            None
        }
    })
    .unwrap();
    assert_eq!(results[0], Some(vec![1, 2, 3, 4]));
}

#[test]
fn many_producers_into_one_inbox_keep_per_pair_fifo_without_loss() {
    // Seven ranks flood rank 0 concurrently on two tags while rank 0 drains
    // in an order unrelated to the send order: one tag by source (highest
    // source first), the other through `recv_any`, then the rest by source.
    // Every out-of-order arrival has to park in the unexpected-message queue
    // and come back out in per-(source, tag) FIFO order.
    const RANKS: usize = 8;
    const PER_TAG: u64 = 300;
    const TAG_A: u32 = 1;
    const TAG_B: u32 = 2;

    let results = launch(RANKS, |ctx| {
        let comm = ctx.world();
        let me = ctx.rank();
        if me != 0 {
            for seq in 0..PER_TAG {
                for tag in [TAG_A, TAG_B] {
                    let payload = Payload::U64(vec![me as u64, u64::from(tag), seq]);
                    comm.send(0, tag, payload).unwrap();
                }
            }
            return None;
        }
        // received[src][tag index] = sequence numbers in arrival order.
        let mut received = vec![[Vec::new(), Vec::new()]; RANKS];
        let mut record = |src: usize, tag: u32, payload: Payload| {
            let fields = payload.into_u64().unwrap();
            assert_eq!(fields[..2], [src as u64, u64::from(tag)]);
            received[src][(tag - TAG_A) as usize].push(fields[2]);
        };
        let half = PER_TAG / 2;
        for src in (1..RANKS).rev() {
            for _ in 0..half {
                record(src, TAG_B, comm.recv(src, TAG_B).unwrap());
            }
        }
        for _ in 0..(RANKS as u64 - 1) * PER_TAG {
            let (src, payload) = comm.recv_any(TAG_A).unwrap();
            record(src, TAG_A, payload);
        }
        for src in 1..RANKS {
            for _ in half..PER_TAG {
                record(src, TAG_B, comm.recv(src, TAG_B).unwrap());
            }
        }
        Some(received)
    })
    .unwrap();

    let received = results[0].as_ref().unwrap();
    let expected: Vec<u64> = (0..PER_TAG).collect();
    assert!(received[0].iter().all(Vec::is_empty));
    for (src, per_tag) in received.iter().enumerate().skip(1) {
        for (tag, seqs) in per_tag.iter().enumerate() {
            assert_eq!(seqs, &expected, "source {src}, tag index {tag}");
        }
    }
    assert!(results[1..].iter().all(Option::is_none));
}
