//! A scoped, index-claiming parallel map behind rayon's API surface.
//!
//! The workspace's parallelism is flat: sweep binaries fan independent
//! cells across cores with `par_iter().map(..).collect()`, and two sparse
//! kernels fill disjoint output rows with `par_chunks_mut(..).for_each(..)`.
//! Every parallel call therefore reduces to one primitive: run `f(i)` for
//! each `i` in `0..len`.  This shim runs it on the calling thread plus
//! `threads - 1` helpers spawned in a [`std::thread::scope`]; each
//! participant claims the next unclaimed index from one shared counter
//! until the range is exhausted.  The scope joins every helper before the
//! call returns, so closures may borrow the caller's data.
//!
//! # Thread count
//!
//! Outside [`ThreadPool::install`], parallel calls use the process default,
//! read once from, in order: `DYNMO_THREADS`, `RAYON_NUM_THREADS`, then the
//! host's available parallelism (capped at 1 024).  A value of `1` runs
//! every call sequentially on the caller.  Tests and benches that need a
//! pinned size build their own pool:
//!
//! ```
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
//! let doubled: Vec<i32> = pool.install(|| {
//!     use rayon::prelude::*;
//!     vec![1, 2, 3].into_par_iter().map(|x| x * 2).collect()
//! });
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```
//!
//! `install` runs its closure on the calling thread with the pool's thread
//! count in effect.  While a participant works through a parallel call its
//! own count is 1, so a `par_*` call nested inside a mapped closure runs
//! inline instead of spawning threads of its own.
//!
//! # Determinism contract
//!
//! Every parallel iterator here is *index-addressable*: the element at
//! index `i` is computed from index `i` alone, and `collect` writes it into
//! slot `i` of the output.  The claim order only changes *when* each index
//! runs, never *where its result lands*, so `map(...).collect()` and
//! `par_chunks_mut(...).for_each(...)` produce output byte-identical to a
//! single-threaded run.  The sweep binaries in `crates/bench` rely on this:
//! their JSON artifacts must not depend on the machine's core count.
//!
//! # Panics
//!
//! The first panicking index stops further claims; indices already running
//! finish.  Once the scope has joined every helper, that panic's original
//! payload is resumed on the thread that made the parallel call (and from
//! there reaches the `install` caller).

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod iter;

pub use iter::prelude;

/// Hard ceiling on the thread count, guarding against absurd env-var values.
const MAX_THREADS: usize = 1024;

thread_local! {
    /// The thread count `par_*` calls on this thread use; `None` means the
    /// process default.
    static THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process default: `DYNMO_THREADS`, then `RAYON_NUM_THREADS`, then the
/// host's available parallelism.  A value of `0` (or anything unparsable)
/// falls through to the next source, matching rayon's treatment of
/// `RAYON_NUM_THREADS=0` as "default".
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        ["DYNMO_THREADS", "RAYON_NUM_THREADS"]
            .iter()
            .filter_map(|var| std::env::var(var).ok()?.trim().parse::<usize>().ok())
            .find(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .min(MAX_THREADS)
    })
}

/// Number of threads a parallel call made here would use: the enclosing
/// [`ThreadPool::install`]'s count, 1 inside a running parallel call, and
/// the process default otherwise.
pub fn current_num_threads() -> usize {
    THREADS.get().unwrap_or_else(default_num_threads)
}

/// Run `op` with this thread's count set to `threads`, restoring the old
/// value on return and on unwind.
fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.set(self.0);
        }
    }
    let _restore = Restore(THREADS.replace(Some(threads)));
    op()
}

/// Run `f(0), f(1), ..., f(len - 1)` on the caller plus up to
/// `current_num_threads() - 1` scoped helpers, each claiming one index at a
/// time.  Every index runs exactly once unless a panic stops the claims; the
/// first panic's payload is then resumed here after all helpers have joined.
pub(crate) fn parallel_for_index<F>(len: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        (0..len).for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    // One participant's share of the work.  Returns the payload of the
    // panic that stopped the call, if this participant raised it first.
    let work = || -> Option<Box<dyn Any + Send>> {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // ORDERING: `stopped` is only a hint to quit early; the claimed
            // indices and the panic payload travel through the RMWs below
            // and the scope join, not through this load.
            while !stopped.load(Ordering::Relaxed) {
                // ORDERING: the RMW hands each index to exactly one caller;
                // results reach the caller through the scope join, which
                // synchronises with every helper's exit.
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= len {
                    break;
                }
                f(index);
            }
        }));
        match outcome {
            Ok(()) => None,
            // ORDERING: the swap's RMW total order picks exactly one first
            // panicker; the payload itself is returned through the join.
            Err(payload) => (!stopped.swap(true, Ordering::Relaxed)).then_some(payload),
        }
    };
    let panicked = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| with_threads(1, work)))
            .collect();
        let mine = with_threads(1, work);
        helpers.into_iter().fold(mine, |first, helper| {
            let theirs = helper.join().expect("helper panics are caught");
            first.or(theirs)
        })
    });
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
}

/// Error type of [`ThreadPoolBuilder::build`], kept for rayon API
/// compatibility; building a pool here cannot fail.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    _private: (),
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for an explicitly sized [`ThreadPool`] (rayon-compatible
/// constructor used by tests and benches to pin thread counts).
#[derive(Debug, Default, Clone)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the thread count (`0` = process default, like rayon).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => default_num_threads(),
            n => n.min(MAX_THREADS),
        };
        Ok(ThreadPool { threads })
    }
}

/// A thread count that [`ThreadPool::install`] puts in effect.  Threads
/// are spawned per parallel call, so a pool holds no threads of its own.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with this pool's thread count in
    /// effect for every parallel call inside it.  The previous count is
    /// restored when `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        with_threads(self.threads, op)
    }

    /// Number of threads parallel calls inside [`ThreadPool::install`] use.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_chunks_mut_behaves_like_chunks_mut() {
        let mut data = [0u32; 6];
        data.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u32;
            }
        });
        assert_eq!(data, [0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn map_collect_preserves_index_order() {
        let input: Vec<usize> = (0..1000).collect();
        let seq: Vec<usize> = input.iter().map(|&x| x * 3 + 1).collect();
        let par: Vec<usize> = pool(4).install(|| input.par_iter().map(|&x| x * 3 + 1).collect());
        assert_eq!(par, seq);
    }

    /// Skewed task sizes: one huge cell plus many tiny ones.  The order of
    /// the collected output must still match index order exactly — stealing
    /// may reorder execution, never results.
    #[test]
    fn skewed_task_sizes_preserve_collect_order() {
        let pool = pool(4);
        let work: Vec<u64> = (0..64)
            .map(|i| if i == 0 { 200_000 } else { 50 + i })
            .collect();
        let out: Vec<u64> = pool.install(|| {
            work.par_iter()
                .map(|&iters| {
                    // Busy work proportional to the cell's skewed size.
                    let mut acc = 0u64;
                    for k in 0..iters {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    // Return something that depends on the input only.
                    iters ^ (acc & 1)
                })
                .map(|v| v & !1)
                .collect()
        });
        let expected: Vec<u64> = work.iter().map(|&v| v & !1).collect();
        assert_eq!(out, expected);
    }

    /// A panicking closure must propagate to the caller and leave the pool
    /// usable, not hang a worker or deadlock the join.
    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = pool(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                let data: Vec<u32> = (0..100).collect();
                let _: Vec<u32> = data
                    .par_iter()
                    .map(|&x| {
                        if x == 57 {
                            panic!("boom at {x}");
                        }
                        x
                    })
                    .collect();
            })
        }));
        assert!(result.is_err(), "panic must reach the install caller");
        // The pool must still execute new work afterwards.
        let sum: u64 = pool.install(|| {
            let data: Vec<u64> = (0..1000).collect();
            let v: Vec<u64> = data.par_iter().map(|&x| x).collect();
            v.iter().sum()
        });
        assert_eq!(sum, 499_500);
    }

    /// The payload the `install` caller sees is the one the task panicked
    /// with, not a wrapper, whichever participant ran the index.
    #[test]
    fn original_panic_payload_reaches_the_install_caller() {
        let pool = pool(4);
        for round in 0..8 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    (0..64usize).into_par_iter().for_each(|i| {
                        if i == 40 + round {
                            panic!("cell {i} failed");
                        }
                    })
                })
            }));
            let payload = result.expect_err("panic must reach the install caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the original String payload");
            assert_eq!(message, &format!("cell {} failed", 40 + round));
            let squares: Vec<usize> =
                pool.install(|| (0..10usize).into_par_iter().map(|x| x * x).collect());
            assert_eq!(squares, (0..10).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    /// A `par_iter` nested inside a mapped closure runs inline on whichever
    /// participant claimed the outer index and gives the sequential result.
    #[test]
    fn nested_par_iter_gives_the_sequential_result() {
        let rows: Vec<Vec<u64>> = (0..16u64)
            .map(|r| (0..=r).map(|c| r * 100 + c).collect())
            .collect();
        let expected: Vec<(u64, usize)> = rows
            .iter()
            .map(|row| (row.iter().map(|v| v * 2).sum(), 1))
            .collect();
        let nested: Vec<(u64, usize)> = pool(4).install(|| {
            rows.par_iter()
                .map(|row| {
                    let doubled: Vec<u64> = row.par_iter().map(|v| v * 2).collect();
                    (doubled.into_iter().sum(), crate::current_num_threads())
                })
                .collect()
        });
        assert_eq!(nested, expected);
    }

    #[test]
    fn thread_count_is_restored_after_a_panic_inside_install() {
        let outer = crate::current_num_threads();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool(3).install(|| {
                assert_eq!(crate::current_num_threads(), 3);
                panic!("inside install");
            })
        }));
        assert!(result.is_err());
        assert_eq!(crate::current_num_threads(), outer);
        let inner = pool(5).install(|| pool(2).install(crate::current_num_threads));
        assert_eq!(inner, 2);
        assert_eq!(crate::current_num_threads(), outer);
    }

    #[test]
    fn empty_and_single_element_inputs() {
        let pool = pool(4);
        let empty: Vec<u32> = pool.install(|| Vec::<u32>::new().into_par_iter().collect());
        assert!(empty.is_empty());
        let none: Vec<usize> = pool.install(|| (5..5usize).into_par_iter().map(|x| x).collect());
        assert!(none.is_empty());
        let one: Vec<String> = pool.install(|| {
            vec!["x".to_string()]
                .into_par_iter()
                .map(|s| s + "!")
                .collect()
        });
        assert_eq!(one, vec!["x!"]);
        let mut single = [7u8];
        pool.install(|| single.par_chunks_mut(4).for_each(|c| c[0] += 1));
        assert_eq!(single, [8]);
    }

    /// Stress-loop for the deque steal race: many rounds of fine-grained
    /// fan-out where every index must be executed exactly once.
    #[test]
    fn steal_race_stress_executes_every_index_once() {
        let pool = pool(4);
        for _round in 0..20 {
            let n = 10_000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.install(|| {
                let idx: Vec<usize> = (0..n).collect();
                idx.par_iter().for_each(|&i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "some index ran zero or multiple times"
            );
        }
    }

    #[test]
    fn single_thread_pool_is_fully_sequential_and_correct() {
        let pool = pool(1);
        let out: Vec<usize> = pool.install(|| {
            let v: Vec<usize> = (0..100).collect();
            v.par_iter().map(|&x| x + 1).collect()
        });
        assert_eq!(out, (1..101).collect::<Vec<_>>());
        assert_eq!(pool.current_num_threads(), 1);
    }

    #[test]
    fn into_par_iter_over_vec_and_range() {
        let pool = pool(2);
        let squares: Vec<usize> =
            pool.install(|| (0..50usize).into_par_iter().map(|x| x * x).collect());
        assert_eq!(squares, (0..50).map(|x| x * x).collect::<Vec<_>>());
        let owned: Vec<String> = pool.install(|| {
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
                .into_par_iter()
                .map(|s| s + "!")
                .collect()
        });
        assert_eq!(owned, vec!["a!", "b!", "c!"]);
    }
}
