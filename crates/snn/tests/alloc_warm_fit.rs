//! Pins what a warm fit allocates. Fits and evaluations on one thread
//! share one working set (the training scratch, Adam's moments and the
//! batch buffers), which the thread keeps between calls. So once a fit
//! and an evaluation have run on the test's thread, a paper-shape
//! `Trainer::fit` (784-800-10, one epoch of 128 samples) makes exactly
//! one allocation of 64 KiB or more, the returned model's 784x800 latent
//! weights, and a following `evaluate` of 256 held-out digits makes none.
//!
//! Lives in its own integration-test binary, with one test, so the
//! counting global allocator observes only this scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sushi_snn::data::synth_digits;
use sushi_snn::{TrainConfig, Trainer};

/// The smallest allocation counted: a page-faulting buffer, not a plan
/// or an index list.
const LARGE: usize = 64 * 1024;

/// Counts every allocation and reallocation of at least [`LARGE`] bytes
/// process-wide; frees are uncounted.
struct CountingAlloc;

static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `f`'s result and the large allocations made while it ran.
fn large_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn warm_fits_allocate_only_the_model() {
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        ..TrainConfig::paper()
    });
    let (data, holdout) = (synth_digits(128, 1), synth_digits(256, 2));
    let warm_up = trainer.fit(&data);
    assert_eq!(warm_up.evaluate(&holdout).predictions.len(), holdout.len());

    let (model, fit) = large_allocations(|| trainer.fit(&data));
    assert_eq!(model.mlp, warm_up.mlp);
    assert_eq!(
        fit, 1,
        "a warm fit made {fit} allocations of 64 KiB or more"
    );
    let (eval, evaluate) = large_allocations(|| model.evaluate(&holdout));
    assert_eq!(eval.predictions.len(), holdout.len());
    assert_eq!(
        evaluate, 0,
        "a warm evaluate made {evaluate} allocations of 64 KiB or more"
    );
}
