//! Launching a simulated multi-rank job ("mpirun in a function call").

use std::sync::Arc;

use parking_lot::Mutex;

use crate::communicator::{Communicator, WORLD_COMM_ID};
use crate::error::{Result, RuntimeError};
use crate::fabric::{Endpoint, Fabric};
use crate::RankId;

/// Per-rank execution context handed to the rank closure by [`launch`].
#[derive(Debug, Clone)]
pub struct RankCtx {
    rank: RankId,
    world: Communicator,
    fabric: Arc<Fabric>,
}

impl RankCtx {
    /// The global rank of this worker (one rank per simulated GPU).
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// Total number of ranks in the job.
    pub fn world_size(&self) -> usize {
        self.fabric.world_size()
    }

    /// The world communicator containing every rank.
    pub fn world(&self) -> Communicator {
        self.world.clone()
    }

    /// The underlying fabric (for statistics inspection).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }
}

/// Run `body` on `world_size` simulated ranks, each on its own OS thread,
/// and collect the per-rank return values in rank order.
///
/// The closure receives a [`RankCtx`] exposing the rank id and the world
/// communicator.  Panics in any rank are converted into
/// [`RuntimeError::WorkerPanicked`].
pub fn launch<R, F>(world_size: usize, body: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(RankCtx) -> R + Send + Sync,
{
    if world_size == 0 {
        return Err(RuntimeError::InvalidArgument(
            "world_size must be at least 1".to_string(),
        ));
    }
    let (fabric, inboxes) = Fabric::new(world_size);
    launch_with_fabric(fabric, inboxes, body)
}

/// Like [`launch`] but with a caller-provided fabric (e.g. one built via
/// [`Fabric::with_timeout`] for tests that need short deadlock timeouts).
pub fn launch_with_fabric<R, F>(
    fabric: Arc<Fabric>,
    inboxes: Vec<std::sync::mpsc::Receiver<crate::fabric::Envelope>>,
    body: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(RankCtx) -> R + Send + Sync,
{
    let world_size = fabric.world_size();
    if inboxes.len() != world_size {
        return Err(RuntimeError::InvalidArgument(format!(
            "expected {} inboxes, got {}",
            world_size,
            inboxes.len()
        )));
    }

    let body = &body;
    let mut results: Vec<Option<R>> = Vec::with_capacity(world_size);
    for _ in 0..world_size {
        results.push(None);
    }

    let outcome: std::result::Result<Vec<(usize, R)>, usize> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(world_size);
        for (rank, inbox) in inboxes.into_iter().enumerate() {
            let fabric = Arc::clone(&fabric);
            handles.push(scope.spawn(move || {
                let endpoint = Arc::new(Mutex::new(Endpoint::new(
                    rank,
                    inbox,
                    fabric.recv_timeout(),
                    fabric.detector().clone(),
                )));
                let members: Vec<RankId> = (0..fabric.world_size()).collect();
                let world =
                    Communicator::new(Arc::clone(&fabric), endpoint, WORLD_COMM_ID, members, rank);
                let ctx = RankCtx {
                    rank,
                    world,
                    fabric,
                };
                (rank, body(ctx))
            }));
        }
        let mut collected = Vec::with_capacity(world_size);
        let mut first_panic: Option<usize> = None;
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(pair) => collected.push(pair),
                Err(_) => {
                    if first_panic.is_none() {
                        first_panic = Some(rank);
                    }
                }
            }
        }
        match first_panic {
            Some(rank) => Err(rank),
            None => Ok(collected),
        }
    });

    match outcome {
        Ok(pairs) => {
            for (rank, value) in pairs {
                results[rank] = Some(value);
            }
            Ok(results
                .into_iter()
                .map(|v| v.expect("every rank must produce a result"))
                .collect())
        }
        Err(rank) => Err(RuntimeError::WorkerPanicked { rank }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    #[test]
    fn launch_returns_results_in_rank_order() {
        let results = launch(5, |ctx| ctx.rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn launch_rejects_zero_ranks() {
        let err = launch(0, |_ctx| ()).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidArgument(_)));
    }

    #[test]
    fn world_size_is_visible_to_every_rank() {
        let results = launch(3, |ctx| ctx.world_size()).unwrap();
        assert_eq!(results, vec![3, 3, 3]);
    }

    #[test]
    fn ring_exchange_over_world_communicator() {
        // Each rank sends its id to the next rank and receives from the
        // previous one; a classic ring that exercises ordering end-to-end.
        let n = 6;
        let results = launch(n, |ctx| {
            let comm = ctx.world();
            let next = (ctx.rank() + 1) % n;
            let prev = (ctx.rank() + n - 1) % n;
            comm.send(next, 1, Payload::U64(vec![ctx.rank() as u64]))
                .unwrap();
            comm.recv(prev, 1).unwrap().into_u64().unwrap()[0]
        })
        .unwrap();
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(*got as usize, (rank + n - 1) % n);
        }
    }

    #[test]
    fn panicking_rank_is_reported() {
        let err = launch(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.rank()
        })
        .unwrap_err();
        assert_eq!(err, RuntimeError::WorkerPanicked { rank: 1 });
    }

    #[test]
    fn fabric_stats_are_shared_across_ranks() {
        let (fabric, inboxes) = Fabric::new(2);
        let fabric_for_check = Arc::clone(&fabric);
        launch_with_fabric(fabric, inboxes, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                comm.send(1, 2, Payload::F32(vec![0.0; 128])).unwrap();
            } else {
                let _ = comm.recv(0, 2).unwrap();
            }
        })
        .unwrap();
        let snap = fabric_for_check.stats().snapshot();
        assert_eq!(snap.p2p_messages, 1);
        assert_eq!(snap.p2p_bytes, 512);
    }
}
