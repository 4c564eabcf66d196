//! Pins the allocation count of a warm training step: one paper-shape
//! batch (784-800-10, batch 32, `T = 5`) through encode, forward,
//! backward and Adam, in XNOR and in float mode. Every intermediate and,
//! in XNOR mode, every layer's packed sign words live in the reused
//! `TrainScratch`, so with one worker a warm batch allocates nothing.
//! With two, each product large enough to split (the five layer-0
//! forward products and the five layer-0 weight gradients) allocates its
//! `sushi_par::fan_out` range plan, result slots and queued job: 30 per
//! batch.
//!
//! Lives in its own integration-test binary, with one test, so the
//! counting global allocator observes only this scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sushi_snn::data::synth_digits;
use sushi_snn::{Adam, Matrix, PoissonEncoder, SnnMlp, TrainConfig, TrainScratch};

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

/// Warm batches measured after the warm-up batch.
const MEASURED: usize = 3;

/// The most allocations any of `MEASURED` warm batches made, training as
/// `Trainer::fit` does on `workers` workers.
fn warm_batch_allocations(binary: bool, workers: usize) -> u64 {
    let cfg = TrainConfig {
        binary_weights: binary,
        ..TrainConfig::paper()
    };
    let mut mlp = SnnMlp::new(&cfg.layer_sizes(), cfg.seed)
        .with_binary_weights(binary)
        .with_stateless(cfg.stateless);
    let data = synth_digits((MEASURED + 1) * cfg.batch, 1);
    let enc = PoissonEncoder::new(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let clamp = binary.then_some((-1.0f32, 1.0f32));
    let mut ws = TrainScratch::with_workers(workers);
    let mut frames: Vec<Matrix> = Vec::new();
    let mut targets = Matrix::default();
    let mut samples: Vec<&[f32]> = Vec::with_capacity(cfg.batch);
    let mut ids: Vec<u64> = Vec::with_capacity(cfg.batch);
    let mut most = 0;
    for (b, chunk) in data.images.chunks(cfg.batch).enumerate() {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        samples.clear();
        samples.extend(chunk.iter().map(Vec::as_slice));
        ids.clear();
        ids.extend((0..chunk.len() as u64).map(|k| (b * cfg.batch) as u64 + k));
        enc.encode_batch_into(&samples, cfg.time_steps, &ids, &mut frames);
        targets.reset_to(chunk.len(), cfg.classes);
        for r in 0..chunk.len() {
            targets[(r, usize::from(data.labels[b * cfg.batch + r]))] = 1.0;
        }
        mlp.forward_record_with(&frames, &mut ws);
        let loss = mlp.backward_with(&frames, &targets, &mut ws);
        opt.step_clamped(mlp.weights_mut(), ws.grads(), clamp);
        let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(loss.is_finite());
        if b > 0 {
            most = most.max(count);
        }
    }
    most
}

#[test]
fn warm_training_batches_stay_within_their_allocation_counts() {
    for binary in [true, false] {
        let mode = if binary { "xnor" } else { "float" };
        let one = warm_batch_allocations(binary, 1);
        assert_eq!(one, 0, "{mode}, one worker: {one} allocations per batch");
        let two = warm_batch_allocations(binary, 2);
        assert!(
            two <= 30,
            "{mode}, two workers: {two} allocations per batch"
        );
    }
}
