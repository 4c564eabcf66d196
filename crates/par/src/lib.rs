//! Deterministic fan-out of contiguous work ranges over scoped threads.
//!
//! Every batch path in the workspace (the simulator's `BatchRunner`, the
//! chip evaluator and the SSNN batch predictors) splits its items the same
//! way: [`chunk_plan`] cuts them into contiguous near-equal ranges, and
//! [`fan_out`] runs one range per scoped thread, each writing only its own
//! slice of the output. Range boundaries depend on the item count and the
//! worker count alone, and every item is computed by the same sequential
//! code whichever thread runs it, so callers get results in input order
//! that are bitwise identical to a sequential pass.
//!
//! # Examples
//!
//! ```
//! let items = [3u64, 1, 4, 1, 5, 9, 2];
//! let mut squares = vec![0u64; items.len()];
//! let lens = sushi_par::fan_out(&mut squares, 3, 1, |r, out| {
//!     for (x, slot) in items[r.clone()].iter().zip(out) {
//!         *slot = x * x;
//!     }
//!     r.len()
//! });
//! assert_eq!(squares, [9, 1, 16, 1, 25, 81, 4]);
//! assert_eq!(lens, [3, 2, 2]);
//! ```

use std::ops::Range;

/// Splits `0..items` into at most `workers` contiguous, non-empty ranges
/// of near-equal length (sizes differ by at most one, longer ranges
/// first).
///
/// The effective worker count is clamped to the item count, so the plan
/// never contains an empty range and a batch never spawns more threads
/// than it has items; `workers == 0` counts as one worker. (`div_ceil`
/// chunking, by contrast, leaves configured workers idle: 10 items on 6
/// workers become 5 chunks of 2.)
pub fn chunk_plan(items: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, items.max(1));
    let base = items / workers;
    let extra = items % workers;
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `work` over `out` in contiguous ranges on at most `workers`
/// threads and returns each range's result in plan order.
///
/// The plan is [`chunk_plan`] over `out.len().div_ceil(grain)` units of
/// `grain` items, so every range except the last is a whole number of
/// units. `work` receives a range of indices into `out` (and so into any
/// input slice of the same length) together with that range's output
/// slice. A plan of one range runs on the calling thread; otherwise each
/// range gets its own `std::thread::scope` thread.
///
/// # Panics
///
/// Panics if `grain` is zero. If `work` panics on a worker thread, the
/// first such panic in plan order is re-raised on the caller with its own
/// payload, after every worker has finished.
pub fn fan_out<T, R, F>(out: &mut [T], workers: usize, grain: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Range<usize>, &mut [T]) -> R + Sync,
{
    let len = out.len();
    let plan: Vec<Range<usize>> = chunk_plan(len.div_ceil(grain), workers)
        .into_iter()
        .map(|u| u.start * grain..(u.end * grain).min(len))
        .collect();
    if plan.len() <= 1 {
        return plan.into_iter().map(|r| work(r, out)).collect();
    }
    let work = &work;
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let mut rest = out;
        let handles: Vec<_> = plan
            .into_iter()
            .map(|r| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                rest = tail;
                scope.spawn(move || work(r, chunk))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn chunk_plan_is_clamped_balanced_and_covering() {
        assert!(chunk_plan(0, 4).is_empty());
        assert!(chunk_plan(0, 8).is_empty());
        let cases = [
            (1, 1),
            (1, 8),
            (1, 64),
            (3, 9),
            (3, 16),
            (5, 2),
            (5, 4),
            (7, 7),
            (10, 6),
            (13, 7),
            (16, 4),
            (64, 64),
            (100, 7),
        ];
        for (items, workers) in cases {
            let plan = chunk_plan(items, workers);
            // One range per effective worker, never more than there are
            // items.
            assert_eq!(plan.len(), items.min(workers), "({items},{workers})");
            // Contiguous exact cover, no empty ranges.
            let mut next = 0;
            for r in &plan {
                assert_eq!(r.start, next, "({items},{workers})");
                assert!(!r.is_empty(), "({items},{workers})");
                next = r.end;
            }
            assert_eq!(next, items, "({items},{workers})");
            // Balanced: range lengths differ by at most one.
            let lens: Vec<usize> = plan.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "({items},{workers}): {lens:?}");
        }
        // workers == 0 degrades to a single range, not a panic.
        assert_eq!(chunk_plan(5, 0), vec![0..5]);
    }

    #[test]
    fn results_come_back_in_plan_order() {
        for workers in 1..=12 {
            let mut out = vec![0usize; 10];
            let ranges = fan_out(&mut out, workers, 1, |r, chunk| {
                for (i, slot) in r.clone().zip(chunk) {
                    *slot = i * 10;
                }
                r
            });
            assert_eq!(ranges, chunk_plan(10, workers), "workers={workers}");
            let expect: Vec<usize> = (0..10).map(|i| i * 10).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    /// A one-range plan runs inline on the caller and hands back the
    /// work's return value.
    #[test]
    fn join_returns_value() {
        let caller = std::thread::current().id();
        for (len, workers) in [(5, 1), (1, 4), (5, 0)] {
            let mut out = vec![0u8; len];
            let got = fan_out(&mut out, workers, 1, |r, _| {
                (std::thread::current().id(), r)
            });
            assert_eq!(got, vec![(caller, 0..len)], "len={len} workers={workers}");
        }
    }

    /// Several ranges run on threads of their own, borrow the caller's
    /// locals, and their results merge to the sequential answer.
    #[test]
    fn scoped_threads_borrow_and_merge() {
        let caller = std::thread::current().id();
        let input: Vec<u64> = (1..=100).collect();
        let mut out = vec![0u64; input.len()];
        let parts = fan_out(&mut out, 4, 1, |r, chunk| {
            for (x, slot) in input[r.clone()].iter().zip(chunk) {
                *slot = x * 2;
            }
            (std::thread::current().id(), input[r].iter().sum::<u64>())
        });
        let threads: std::collections::HashSet<_> = parts.iter().map(|&(id, _)| id).collect();
        assert_eq!(threads.len(), 4);
        assert!(!threads.contains(&caller));
        assert_eq!(parts.iter().map(|&(_, sum)| sum).sum::<u64>(), 5050);
        let doubled: Vec<u64> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, doubled);
    }

    #[test]
    fn zero_items_run_nothing() {
        let mut out: Vec<u8> = Vec::new();
        let results: Vec<()> = fan_out(&mut out, 4, 1, |_, _| panic!("no range to run"));
        assert!(results.is_empty());
    }

    #[test]
    fn every_range_but_the_last_is_a_multiple_of_the_grain() {
        for len in [1, 63, 64, 65, 128, 200, 640, 1000] {
            for workers in [1, 2, 3, 7, 16] {
                let mut out = vec![0u8; len];
                let ranges = fan_out(&mut out, workers, 64, |r, chunk| {
                    assert_eq!(chunk.len(), r.len());
                    r
                });
                let units = len.div_ceil(64);
                assert_eq!(ranges.len(), units.min(workers), "len={len} w={workers}");
                let (last, whole) = ranges.split_last().unwrap();
                assert!(whole.iter().all(|r| r.len() % 64 == 0), "{ranges:?}");
                assert_eq!(last.end, len);
            }
        }
    }

    #[test]
    fn worker_panic_payload_reaches_caller() {
        let mut out = vec![0u32; 4];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(&mut out, 2, 1, |r, _| {
                if r.start == 2 {
                    std::panic::panic_any(7u32);
                }
            })
        }))
        .expect_err("the worker's panic reaches the caller");
        assert_eq!(caught.downcast_ref::<u32>(), Some(&7));
    }
}
