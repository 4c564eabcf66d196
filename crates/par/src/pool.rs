//! The process-wide pool every multi-range [`fan_out`](crate::fan_out)
//! runs on.
//!
//! [`host_workers`](crate::host_workers)` - 1` long-lived threads, spawned
//! on first use, take jobs from one FIFO queue. A call runs its first task
//! on the calling thread, queues the rest, and then runs queued jobs
//! itself (its own or another call's) until every one of its tasks has
//! finished, sleeping only while the queue is empty. A call therefore
//! finishes even when every pool thread is busy, or when the pool has no
//! threads at all on a one-CPU host, and a task may itself fan out.
//!
//! Tasks do not all run at once: a task that waited for another task of
//! its call could wait forever. The partitioned simulator, whose
//! partitions meet at a barrier, keeps scoped threads of its own for that
//! reason. A waiting caller runs other calls' tasks too, so a call may
//! return only after a long foreign task has finished, and a caller that
//! holds a lock or a borrow while it fans out could pick up a task that
//! takes the same lock and wait on itself: callers must not hold one.
//!
//! The pool's threads are never joined: they live as long as the process,
//! and no job unwinds on them (see [`run`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A queued task with its borrows erased (see [`run`]).
type Job = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled once per queued job: wakes an idle pool thread.
    queued: Condvar,
    /// Signalled whenever a job finishes: wakes callers waiting for their
    /// last tasks.
    finished: Condvar,
    /// Threads actually spawned (a failed spawn leaves the rest of the
    /// work to the callers).
    threads: AtomicUsize,
}

/// The process-wide pool, its threads spawned on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::default());
        let spawned = (1..crate::host_workers())
            .take_while(|i| {
                std::thread::Builder::new()
                    .name(format!("sushi-par-{i}"))
                    .spawn(move || pool.work_until(&pool.queued, || false))
                    .is_ok()
            })
            .count();
        pool.threads.store(spawned, Ordering::Relaxed);
        pool
    })
}

/// How many threads the pool has, spawning them if no call has yet.
#[cfg(test)]
fn threads() -> usize {
    pool().threads.load(Ordering::Relaxed)
}

/// Runs every task in `tasks` and returns once all of them have finished:
/// the first on the calling thread, the rest on the pool, with the
/// calling thread running queued jobs while it waits.
///
/// Tasks must not unwind ([`fan_out`](crate::fan_out) catches each
/// range's panic inside its task): a task's borrows must outlive it, so
/// one that unwinds aborts the process instead.
pub(crate) fn run<'a, J: FnOnce() + Send + 'a>(mut tasks: impl Iterator<Item = J>) {
    let Some(first) = tasks.next() else {
        return;
    };
    let pool = pool();
    let remaining = AtomicUsize::new(0);
    // Under `no_unwind` too: unwinding out of `tasks.next()` would leave
    // queued jobs borrowing this frame.
    no_unwind(|| {
        let mut queue = pool.lock();
        for task in tasks {
            let remaining = &remaining;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                no_unwind(task);
                // Release: publishes the task's writes (its output chunk
                // and result slot) to the caller's Acquire load below.
                remaining.fetch_sub(1, Ordering::Release);
                // Nothing borrowed is touched past the decrement: the
                // caller may return as soon as it reads zero.
                let _queue = pool.lock();
                pool.finished.notify_all();
            });
            // Relaxed: the queue lock orders this before any pop.
            remaining.fetch_add(1, Ordering::Relaxed);
            // SAFETY: only the lifetime changes. The job borrows the
            // caller's task data and `remaining`, and this function does
            // not return (or unwind: `no_unwind` aborts) until
            // `remaining` reads zero, which the job's last borrowing
            // access makes true. No job can start before it is counted:
            // jobs leave the queue only under the lock held here.
            queue.push_back(unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job)
            });
            pool.queued.notify_one();
        }
    });
    no_unwind(first);
    pool.work_until(&pool.finished, || remaining.load(Ordering::Acquire) == 0);
}

impl Pool {
    /// The queue lock. Jobs run outside it and never unwind, so it is
    /// never poisoned; tolerate it anyway rather than wedge the process.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs queued jobs until `done()` holds, sleeping on `idle` while
    /// the queue is empty: a pool thread never stops (`idle` is `queued`),
    /// a caller stops when its last task has finished (`idle` is
    /// `finished`). `done` is checked under the queue lock, which a
    /// finishing job also takes to notify, so that wake-up cannot fall
    /// between the check and the wait.
    fn work_until(&self, idle: &Condvar, done: impl Fn() -> bool) {
        let mut queue = self.lock();
        while !done() {
            queue = match queue.pop_front() {
                Some(job) => {
                    drop(queue);
                    job();
                    self.lock()
                }
                None => idle.wait(queue).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// Runs `task`, aborting the process if it unwinds.
fn no_unwind(task: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(task)).is_err() {
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::threads;
    use crate::{chunk_plan, fan_out, host_workers};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Runs `body` on a thread of its own and fails if it has not
    /// returned within a minute, so a lost wake-up fails the test instead
    /// of hanging the suite. Every thread these tests start is named: a
    /// waiting caller runs other calls' ranges, and
    /// `run_twice_reuses_the_same_threads` tells spawned-per-call threads
    /// by their missing name.
    fn under_watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name("watchdog-body".into())
            .spawn(move || {
                let _ = tx.send(body());
            })
            .expect("spawn the watched thread");
        rx.recv_timeout(Duration::from_secs(60))
            .expect("fan-out finished within a minute (or its body panicked)")
    }

    /// More ranges than the pool has threads, so some wait in the queue.
    fn oversubscribed() -> usize {
        threads() * 2 + 3
    }

    /// Run the way the matmul kernels run it, one range per `chunk_plan`
    /// entry, the plan writes every row exactly once in balanced,
    /// non-empty ranges.
    #[test]
    fn chunk_plan_is_clamped_balanced_and_covering() {
        assert!(chunk_plan(0, 4).is_empty());
        for (items, workers) in [(1, 1), (5, 2), (10, 6), (7, 7), (3, 9), (16, 4)] {
            let plan = chunk_plan(items, workers);
            assert!(plan.len() <= workers.min(items));
            assert!(plan.iter().all(|r| !r.is_empty()));
            let (min, max) = plan.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len()), hi.max(r.len()))
            });
            assert!(max - min <= 1, "unbalanced plan {plan:?}");
            let mut rows = vec![usize::MAX; items];
            let ranges = fan_out(&mut rows, workers, 1, |r, chunk| {
                for (slot, i) in chunk.iter_mut().zip(r.clone()) {
                    *slot = i;
                }
                r
            });
            assert_eq!(ranges, plan, "{items} items / {workers} workers");
            let expect: Vec<usize> = (0..items).collect();
            assert_eq!(rows, expect, "{items} items / {workers} workers");
        }
        assert_eq!(chunk_plan(5, 0), vec![0..5]);
    }

    /// A worker count of zero runs as one: a single range on the caller.
    #[test]
    fn pool_size_is_clamped_to_at_least_one() {
        let caller = std::thread::current().id();
        let counter = AtomicUsize::new(0);
        let mut out = [0u8; 3];
        let ranges = fan_out(&mut out, 0, 1, |r, chunk| {
            counter.fetch_add(chunk.len(), Ordering::Relaxed);
            (r, std::thread::current().id())
        });
        assert_eq!(ranges, vec![(0..3, caller)]);
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_executes_every_task_on_borrowed_data() {
        for workers in [1, 2, 7] {
            let mut out = [0usize; 23];
            let offset = 1;
            fan_out(&mut out, workers, 4, |r, chunk| {
                for (i, slot) in r.zip(chunk) {
                    *slot = i / 4 + offset;
                }
            });
            for (e, &v) in out.iter().enumerate() {
                assert_eq!(v, e / 4 + 1, "workers={workers} element {e}");
            }
        }
    }

    /// Calls reuse the pool's threads: every range runs on the calling
    /// thread, on a pool thread (named `sushi-par-*`, at most
    /// [`threads`] of them over every round) or on another caller that
    /// ran it while waiting (a test thread, also named). A thread spawned
    /// for the call would be unnamed and new every round.
    #[test]
    fn run_twice_reuses_the_same_threads() {
        let caller = std::thread::current().id();
        let mut pool_threads: HashSet<ThreadId> = HashSet::new();
        for round in 0..4 {
            let counter = AtomicUsize::new(0);
            let mut out = [0u8; 8];
            let ran_on = fan_out(&mut out, 8, 1, |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                let me = std::thread::current();
                (me.id(), me.name().map(str::to_owned))
            });
            assert_eq!(counter.load(Ordering::Relaxed), 8, "round {round}");
            assert_eq!(ran_on[0].0, caller, "the caller runs the first range");
            for (id, name) in ran_on {
                let name = name.expect("no range runs on a thread spawned for the call");
                if name.starts_with("sushi-par-") {
                    pool_threads.insert(id);
                }
            }
        }
        assert!(pool_threads.len() <= threads(), "{pool_threads:?}");
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        let completed = AtomicUsize::new(0);
        let mut out = [0u8; 6];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(&mut out, 6, 1, |r, _| {
                match r.start {
                    1 => std::panic::panic_any("boom"),
                    4 => std::panic::panic_any("later"),
                    _ => {}
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("panic must propagate to the caller");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"boom"),
            "the first panicking range's own payload"
        );
        assert_eq!(
            completed.load(Ordering::Relaxed),
            4,
            "non-panicking ranges still ran to completion"
        );
        // The pool survives a panicked call.
        let mut out = [0usize; 5];
        let ranges = fan_out(&mut out, 5, 1, |r, chunk| {
            chunk.fill(r.start + 1);
            r
        });
        assert_eq!(ranges, chunk_plan(5, 5));
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn shared_pool_is_host_sized_and_stable() {
        assert_eq!(threads(), host_workers() - 1);
        assert_eq!(threads(), threads());
        assert_eq!(host_workers(), host_workers());
        assert!(host_workers() >= 1);
        assert_eq!(
            host_workers(),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        );
    }

    /// Every range fans out again: the inner calls run on pool threads
    /// and on callers that are themselves inside a range.
    #[test]
    fn nested_fan_outs_finish_and_merge() {
        let outer = oversubscribed();
        let sums = under_watchdog(move || {
            let mut rows = vec![0u64; outer];
            fan_out(&mut rows, outer, 1, |r, row| {
                let inner = oversubscribed();
                let mut cells = vec![0u64; inner];
                let parts = fan_out(&mut cells, inner, 1, |c, cell| {
                    for (j, slot) in c.clone().zip(cell.iter_mut()) {
                        *slot = (r.start * 1000 + j) as u64;
                    }
                    c.len()
                });
                assert_eq!(parts.iter().sum::<usize>(), inner);
                row[0] = cells.iter().sum();
            });
            rows
        });
        let inner = oversubscribed() as u64;
        let expect: Vec<u64> = (0..outer as u64)
            .map(|i| i * 1000 * inner + inner * (inner - 1) / 2)
            .collect();
        assert_eq!(sums, expect);
    }

    /// Eight threads fan out at once, many times over, and each gets its
    /// own results back.
    #[test]
    fn concurrent_fan_outs_keep_their_own_results() {
        let ranges = oversubscribed();
        let ok = under_watchdog(move || {
            std::thread::scope(|scope| {
                let callers: Vec<_> = (0..8u64)
                    .map(|t| {
                        let caller = std::thread::Builder::new().name(format!("caller-{t}"));
                        caller.spawn_scoped(scope, move || {
                            (0..50u64).all(|round| {
                                let mut out = vec![0u64; ranges * 3];
                                let lens = fan_out(&mut out, ranges, 1, |r, chunk| {
                                    for (i, slot) in r.clone().zip(chunk) {
                                        *slot = t * 1_000_000 + round * 1000 + i as u64;
                                    }
                                    r.len()
                                });
                                lens.iter().sum::<usize>() == out.len()
                                    && out
                                        .iter()
                                        .enumerate()
                                        .all(|(i, &v)| v == t * 1_000_000 + round * 1000 + i as u64)
                            })
                        })
                    })
                    .collect();
                callers
                    .into_iter()
                    .map(|c| c.expect("spawn a caller").join().expect("caller thread"))
                    .collect::<Vec<bool>>()
            })
        });
        assert_eq!(ok, vec![true; 8]);
    }
}
