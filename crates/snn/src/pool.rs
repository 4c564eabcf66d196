//! A persistent worker pool for the training hot path.
//!
//! Large [`Matrix`](crate::Matrix) kernels run on a long-lived pool:
//! threads are spawned once (per [`WorkerPool`], or once per process for
//! the [`WorkerPool::shared`] host-sized pool) and jobs are pushed through
//! a mutex-protected queue.
//!
//! # Determinism contract
//!
//! The pool executes *chunk plans*: disjoint, contiguous ranges of output
//! rows whose boundaries depend only on the problem shape (via
//! [`sushi_par::chunk_plan`]), never on the worker count. Every output
//! element is produced entirely by one task running the same sequential
//! kernel, so results are bitwise identical for any pool size — a
//! 1-worker pool, the host-sized shared pool, and an oversubscribed
//! 7-worker pool all return the same bits. `training_is_worker_invariant` in `tests/properties.rs`
//! pins this end to end.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased pool job. Lifetimes are erased in [`WorkerPool::run`],
/// which is sound because `run` does not return until every submitted job
/// has finished.
type Job = Box<dyn FnOnce() + Send>;

/// Shared queue state between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Per-`run` completion state: jobs report here, the submitting thread
/// waits here. Keeping completion per-run (rather than pool-global) means
/// concurrent `run` calls on the shared pool cannot observe each other's
/// panics or block on each other's stragglers.
struct RunState {
    progress: Mutex<RunProgress>,
    done: Condvar,
}

struct RunProgress {
    remaining: usize,
    panicked: bool,
}

/// A fixed-size pool of long-lived worker threads executing borrowed
/// closures.
///
/// A pool of size `n` spawns `n - 1` threads; the thread calling
/// [`WorkerPool::run`] always participates as the `n`-th worker, so a
/// 1-worker pool spawns nothing and runs every task inline — the
/// sequential fallback is structural, not a special case.
///
/// # Examples
///
/// ```
/// use sushi_snn::pool::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut out = vec![0u32; 4];
/// let tasks: Vec<Box<dyn FnOnce() + Send>> = out
///     .chunks_mut(2)
///     .enumerate()
///     .map(|(i, chunk)| {
///         Box::new(move || chunk.fill(i as u32 + 1)) as Box<dyn FnOnce() + Send>
///     })
///     .collect();
/// pool.run(tasks);
/// assert_eq!(out, [1, 1, 2, 2]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` total workers (clamped to at least 1). The
    /// calling thread counts as one worker, so this spawns `workers - 1`
    /// threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let threads = (1..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            threads,
            workers,
        }
    }

    /// A pool sized to the host's available parallelism. Unlike the old
    /// per-matmul spawn logic this is not capped at 8 workers; effective
    /// parallelism is bounded by the chunk plan of each kernel instead.
    pub fn host_sized() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// The process-wide host-sized pool, spawned on first use. Ad-hoc
    /// [`Matrix`](crate::Matrix) operations (outside a training scratch)
    /// run on this pool instead of spawning threads per call.
    pub fn shared() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::host_sized)
    }

    /// Configured worker count (including the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task to completion, using the pool's threads plus the
    /// calling thread. Returns only after all tasks have finished.
    ///
    /// Tasks may borrow from the caller's stack: `run` erases their
    /// lifetimes internally but never returns (or unwinds) before every
    /// task has completed, so no borrow outlives its referent.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked (after all tasks have finished).
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if self.workers == 1 || tasks.len() == 1 {
            // Structural sequential fallback: nothing to coordinate.
            for task in tasks {
                task();
            }
            return;
        }
        let run = Arc::new(RunState {
            progress: Mutex::new(RunProgress {
                remaining: tasks.len(),
                panicked: false,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                // SAFETY: the job is dropped (run or discarded) before
                // `run` returns — the completion wait below blocks until
                // `remaining == 0`, and workers decrement only after the
                // job has finished. Erasing `'scope` to `'static` is
                // therefore sound: no borrow escapes this call.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'scope>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(task)
                };
                let run = Arc::clone(&run);
                queue.jobs.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    let mut progress = run.progress.lock().expect("run state poisoned");
                    progress.remaining -= 1;
                    progress.panicked |= result.is_err();
                    if progress.remaining == 0 {
                        run.done.notify_all();
                    }
                }));
            }
            self.shared.work_ready.notify_all();
        }
        // The caller participates: drain jobs (possibly including jobs of
        // concurrent runs on a shared pool — harmless) until the queue is
        // empty, then wait for this run's stragglers.
        loop {
            let job = {
                let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
                queue.jobs.pop_front()
            };
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        let mut progress = run.progress.lock().expect("run state poisoned");
        while progress.remaining > 0 {
            progress = run
                .done
                .wait(progress)
                .expect("run state poisoned while waiting");
        }
        assert!(!progress.panicked, "worker pool task panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .expect("pool queue poisoned while waiting");
            }
        };
        // Job panics are caught and reported by the per-run wrapper; the
        // job closure itself never unwinds.
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Run the way the matmul kernels run it, one pool task per
    /// `chunk_plan` range, the plan writes every row exactly once in
    /// balanced, non-empty ranges.
    #[test]
    fn chunk_plan_is_clamped_balanced_and_covering() {
        assert!(sushi_par::chunk_plan(0, 4).is_empty());
        for (items, workers) in [(1, 1), (5, 2), (10, 6), (7, 7), (3, 9), (16, 4)] {
            let plan = sushi_par::chunk_plan(items, workers);
            assert!(plan.len() <= workers.min(items));
            assert!(plan.iter().all(|r| !r.is_empty()));
            let (min, max) = plan.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            });
            assert!(max - min <= 1, "unbalanced plan {plan:?}");
            let mut rows = vec![usize::MAX; items];
            let mut tail = rows.as_mut_slice();
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for r in plan {
                let (chunk, rest) = std::mem::take(&mut tail).split_at_mut(r.len());
                tail = rest;
                tasks.push(Box::new(move || {
                    for (slot, i) in chunk.iter_mut().zip(r) {
                        *slot = i;
                    }
                }));
            }
            assert!(tail.is_empty(), "{items} items / {workers} workers");
            WorkerPool::new(workers).run(tasks);
            let expect: Vec<usize> = (0..items).collect();
            assert_eq!(rows, expect, "{items} items / {workers} workers");
        }
        assert_eq!(sushi_par::chunk_plan(5, 0), vec![0..5]);
    }

    #[test]
    fn pool_size_is_clamped_to_at_least_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let counter = AtomicUsize::new(0);
        pool.run(
            (0..3)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_executes_every_task_on_borrowed_data() {
        for workers in [1, 2, 7] {
            let pool = WorkerPool::new(workers);
            let mut out = [0usize; 23];
            let tasks: Vec<Box<dyn FnOnce() + Send>> = out
                .chunks_mut(4)
                .enumerate()
                .map(|(i, chunk)| Box::new(move || chunk.fill(i + 1)) as Box<dyn FnOnce() + Send>)
                .collect();
            pool.run(tasks);
            for (e, &v) in out.iter().enumerate() {
                assert_eq!(v, e / 4 + 1, "workers={workers} element {e}");
            }
        }
    }

    #[test]
    fn run_twice_reuses_the_same_threads() {
        let pool = WorkerPool::new(3);
        for round in 0..4 {
            let counter = AtomicUsize::new(0);
            pool.run(
                (0..8)
                    .map(|_| {
                        Box::new(|| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }) as Box<dyn FnOnce() + Send>
                    })
                    .collect(),
            );
            assert_eq!(counter.load(Ordering::Relaxed), 8, "round {round}");
        }
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        let pool = WorkerPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let completed = Arc::clone(&completed);
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..4)
                .map(|i| {
                    let completed = Arc::clone(&completed);
                    Box::new(move || {
                        if i == 1 {
                            panic!("boom");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            3,
            "non-panicking tasks still ran to completion"
        );
        // The pool survives a panicked run.
        let counter = AtomicUsize::new(0);
        pool.run(
            (0..2)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shared_pool_is_host_sized_and_stable() {
        let a = WorkerPool::shared();
        let b = WorkerPool::shared();
        assert!(std::ptr::eq(a, b));
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(a.workers(), host);
    }
}
