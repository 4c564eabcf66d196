//! Deterministic fan-out of contiguous work ranges over one persistent
//! thread pool.
//!
//! Every batch path in the workspace (the simulator's `BatchRunner`, the
//! chip evaluator, the SSNN batch predictors and the training matmuls)
//! splits its items the same way: [`chunk_plan`] cuts them into contiguous
//! near-equal ranges, and [`fan_out`] runs the ranges on a process-wide
//! pool of [`host_workers`]` - 1` long-lived threads plus the calling
//! thread, each range writing only its own slice of the output. Range
//! boundaries depend on the item count and the worker count alone, and
//! every item is computed by the same sequential code whichever thread
//! runs it, so callers get results in input order that are bitwise
//! identical to a sequential pass.
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
//!
//! The crate also holds the workspace's one CPU-feature probe,
//! [`cpu_tier`]: every SIMD kernel (the packed and bitplane popcount
//! sweeps, the training matmuls) matches on the [`CpuTier`] it returns
//! instead of probing features itself. Its one host-size lookup,
//! [`host_workers`], sizes the pool and every default worker count.

mod pool;

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The nested CPU feature tiers the workspace's SIMD kernels are
/// compiled for. Each tier implies every tier below it, so a kernel
/// built for tier `t` may run on any host whose [`cpu_tier`] is at least
/// `t`; a kernel family that stops below the host's tier runs its widest
/// build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CpuTier {
    /// Portable Rust only (x86-64 without POPCNT, or another target).
    Baseline,
    /// The POPCNT instruction.
    Popcnt,
    /// AVX2 and POPCNT.
    Avx2,
    /// AVX-512F and AVX-512 VPOPCNTDQ, on top of AVX2 and POPCNT.
    Avx512,
}

impl CpuTier {
    /// Every tier, lowest first.
    pub const ALL: [CpuTier; 4] = [Self::Baseline, Self::Popcnt, Self::Avx2, Self::Avx512];

    /// Lower-case name for reports: `baseline`, `popcnt`, `avx2` or
    /// `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Popcnt => "popcnt",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }
}

/// The widest [`CpuTier`] whose features this host has, probed once per
/// process and cached.
pub fn cpu_tier() -> CpuTier {
    static TIER: OnceLock<CpuTier> = OnceLock::new();
    *TIER.get_or_init(probe_tier)
}

/// The host's available parallelism (at least 1), looked up once per
/// process and cached. The lookup reads cgroup files (28 µs a call on a
/// 2-vCPU VM), so every default worker count reads this instead.
pub fn host_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Climbs the tiers while the host has every feature of the next one.
fn probe_tier() -> CpuTier {
    #[cfg(target_arch = "x86_64")]
    {
        if !std::arch::is_x86_feature_detected!("popcnt") {
            return CpuTier::Baseline;
        }
        if !std::arch::is_x86_feature_detected!("avx2") {
            return CpuTier::Popcnt;
        }
        if !(std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq"))
        {
            return CpuTier::Avx2;
        }
        CpuTier::Avx512
    }
    #[cfg(not(target_arch = "x86_64"))]
    CpuTier::Baseline
}

/// Splits `0..items` into at most `workers` contiguous, non-empty ranges
/// of near-equal length (sizes differ by at most one, longer ranges
/// first).
///
/// The effective worker count is clamped to the item count, so the plan
/// never contains an empty range and a batch never has more ranges than
/// it has items; `workers == 0` counts as one worker. (`div_ceil`
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

/// Runs `work` over `out` in at most `workers` contiguous ranges and
/// returns each range's result in plan order.
///
/// The plan is [`chunk_plan`] over `out.len().div_ceil(grain)` units of
/// `grain` items, so every range except the last is a whole number of
/// units. `work` receives a range of indices into `out` (and so into any
/// input slice of the same length) together with that range's output
/// slice. A plan of one range runs on the calling thread. Otherwise the
/// calling thread runs the first range and the rest go to the
/// process-wide pool, whose [`host_workers`]` - 1` threads are spawned
/// once, on the first such call; while it waits, the calling thread runs
/// queued ranges too. No call spawns a thread, calls from several threads
/// share the pool, and `work` may itself call `fan_out`.
///
/// The ranges need not all run at once, so `work` must not wait for
/// another range of the same call (a barrier between ranges could wait
/// forever). While it waits, the calling thread may also run ranges of
/// other threads' concurrent calls: a call can return only after such a
/// foreign range has finished, and a caller must not hold a lock or a
/// borrow (a `Mutex` guard, a `RefCell` borrow) that another call's
/// `work` may take, or it could wait on itself.
///
/// # Panics
///
/// Panics if `grain` is zero. If `work` panics, the first panicking
/// range in plan order has its own payload re-raised on the caller, after
/// every range has finished; the pool stays usable.
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
    let mut results: Vec<Option<std::thread::Result<R>>> = plan.iter().map(|_| None).collect();
    let work = &work;
    let mut rest = out;
    pool::run(plan.into_iter().zip(&mut results).map(|(r, slot)| {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        rest = tail;
        move || *slot = Some(catch_unwind(AssertUnwindSafe(|| work(r, chunk))))
    }));
    results
        .into_iter()
        .map(|slot| match slot.expect("every range ran") {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        })
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

    /// Several ranges borrow the caller's locals and their results merge
    /// to the sequential answer. The calling thread runs the first range
    /// itself, and no range runs on a thread spawned for the call: those
    /// would be unnamed, while the pool's threads and every test thread
    /// (a waiting caller runs queued ranges of any call) carry names.
    #[test]
    fn scoped_threads_borrow_and_merge() {
        let caller = std::thread::current().id();
        let input: Vec<u64> = (1..=100).collect();
        let mut out = vec![0u64; input.len()];
        let parts = fan_out(&mut out, 4, 1, |r, chunk| {
            for (x, slot) in input[r.clone()].iter().zip(chunk) {
                *slot = x * 2;
            }
            let me = std::thread::current();
            (me.id(), me.name().is_some(), input[r].iter().sum::<u64>())
        });
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].0, caller);
        assert!(
            parts.iter().all(|&(_, named, _)| named),
            "a range ran on an unnamed thread"
        );
        assert_eq!(parts.iter().map(|&(_, _, sum)| sum).sum::<u64>(), 5050);
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
    fn cpu_tier_is_cached_nested_and_named() {
        let tier = cpu_tier();
        assert_eq!(cpu_tier(), tier);
        assert!(CpuTier::ALL.windows(2).all(|w| w[0] < w[1]));
        let names: Vec<&str> = CpuTier::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["baseline", "popcnt", "avx2", "avx512"]);
        // Every feature of every tier up to the probed one is present.
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            assert!(tier < CpuTier::Popcnt || is_x86_feature_detected!("popcnt"));
            assert!(tier < CpuTier::Avx2 || is_x86_feature_detected!("avx2"));
            assert!(
                tier < CpuTier::Avx512
                    || (is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512vpopcntdq"))
            );
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
