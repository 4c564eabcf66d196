//! Pins the allocation budget of cell-level verification: a batched
//! `CellAccurateChip::run_column_blocks` call encodes each job on its
//! worker into reused per-channel buffers keyed by channel id, so a job
//! costs a bounded number of heap allocations — no string per pulse, no
//! map per row block.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator observes only this file's scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use sushi_core::CellAccurateChip;
use sushi_sim::EvalOptions;
use sushi_ssnn::BinaryLayer;

/// Counts every allocation and reallocation process-wide; frees are
/// uncounted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Mesh width, counter bits and layer shape of the verification workload
/// (the paper network's 800 -> 10 output layer on a 4x4 mesh).
const N: usize = 4;
const SC_PER_NPE: usize = 6;
const INPUTS: usize = 800;
const OUTPUTS: usize = 10;
/// Time steps per sample and inputs spiking per step (2.5%).
const STEPS: usize = 5;
const ACTIVE: usize = 20;
/// Allocations allowed per job, simulator and encoder set-up included.
const BUDGET_PER_JOB: u64 = 300;

/// One (column range, active inputs) job.
type Job = (Range<usize>, Vec<bool>);

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut st = seed | 1;
    move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    }
}

/// A seeded +-1 layer with thresholds 1..=12 and one sample's jobs: five
/// steps of `ACTIVE` distinct spiking inputs, times three column blocks.
fn workload(seed: u64) -> (BinaryLayer, Vec<Job>) {
    let mut next = xorshift(seed);
    let signs = (0..INPUTS * OUTPUTS)
        .map(|_| if next() & 1 == 0 { 1 } else { -1 })
        .collect();
    let thresholds = (0..OUTPUTS).map(|_| 1 + (next() % 12) as i64).collect();
    let layer = BinaryLayer::from_signs(signs, INPUTS, OUTPUTS, thresholds);
    let mut jobs = Vec::new();
    for _ in 0..STEPS {
        let mut active = vec![false; INPUTS];
        let mut set = 0;
        while set < ACTIVE {
            let i = (next() % INPUTS as u64) as usize;
            if !active[i] {
                active[i] = true;
                set += 1;
            }
        }
        for c0 in (0..OUTPUTS).step_by(N) {
            jobs.push((c0..(c0 + N).min(OUTPUTS), active.clone()));
        }
    }
    (layer, jobs)
}

#[test]
fn batched_verification_stays_within_its_allocation_budget() {
    let chip = CellAccurateChip::build(N, SC_PER_NPE).unwrap();
    let (layer, jobs) = workload(0x5EED);
    assert_eq!(jobs.len(), 15);
    let opts = EvalOptions::new().workers(1);
    let warm = chip.run_column_blocks(&layer, &jobs, &opts).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = chip.run_column_blocks(&layer, &jobs, &opts).unwrap();
    let per_job = (ALLOCATIONS.load(Ordering::Relaxed) - before) / jobs.len() as u64;
    eprintln!("{per_job} allocations per job, budget {BUDGET_PER_JOB}");

    assert_eq!(
        run.results, warm.results,
        "a repeated call reproduces itself"
    );
    for (r, (cols, active)) in run.results.iter().zip(&jobs) {
        assert_eq!(
            r.fired,
            chip.expected_column_block(&layer, cols.clone(), active)
        );
        assert_eq!(r.violations, 0);
    }
    assert!(
        per_job < BUDGET_PER_JOB,
        "{per_job} allocations per job, budget {BUDGET_PER_JOB}"
    );
}
