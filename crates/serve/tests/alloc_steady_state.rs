//! Pins the allocation-free response path: after warmup, in-process
//! serving performs zero heap allocations per request on both engines —
//! slots come from the pool, payloads move by `mem::swap`, executors
//! reuse their scratch, and queues keep their capacity.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator observes only this file's scenarios, and the scenarios take
//! one lock so neither counts the other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sushi_serve::{PackedRequest, ServeConfig, Server};
use sushi_ssnn::{PackedLayer, PackedSnn, BITPLANE_MIN_LANES};

/// Counts every allocation and reallocation process-wide; frees are
/// uncounted (a steady state may drop nothing, but must also take
/// nothing).
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

/// The counter is process-wide: every scenario holds this lock while it
/// runs, so concurrent tests never count each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn test_net(seed: u64) -> PackedSnn {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    let mut layer = |ins: usize, outs: usize| {
        let signs: Vec<i8> = (0..ins * outs)
            .map(|_| match next() % 8 {
                0 => 0,
                1..=3 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| (next() % 9) as i64 - 4).collect();
        PackedLayer::from_parts(&signs, ins, outs, &thresholds)
    };
    PackedSnn::from_layers(vec![layer(32, 16), layer(16, 10)])
}

#[test]
fn packed_serving_allocates_nothing_per_request_after_warmup() {
    let _serial = serial();
    let snn = test_net(0xA110C);
    let width = snn.input_width();
    // max_batch 1: every request dispatches on arrival via the size
    // trigger, so the steady state is timing-independent.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(1)
            .max_delay(Duration::from_millis(5))
            .shards(1)
            .executors(1),
    );
    let handle = server.handle();
    let frames: Vec<Vec<bool>> = (0..3)
        .map(|t| (0..width).map(|i| (i + t) % 3 == 0).collect())
        .collect();
    let mut request = PackedRequest::from_bool_frames(width, &frames);

    // Warmup: grow the slot pool, executor staging buffers and scratch
    // to their steady-state footprint.
    for _ in 0..64 {
        handle.predict_packed(&mut request).expect("warmup serve");
    }

    // A path that allocates per request can never produce a clean
    // window; a few windows tolerate one-off stragglers from runtime
    // initialization that the warmup did not flush.
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..256 {
            handle.predict_packed(&mut request).expect("steady serve");
        }
        deltas.push(ALLOCATIONS.load(Ordering::SeqCst) - before);
        if deltas.last() == Some(&0) {
            break;
        }
    }
    assert_eq!(
        deltas.last(),
        Some(&0),
        "steady-state packed serving must not allocate (allocations per \
         256-request window: {deltas:?})"
    );
    drop(server);
}

#[test]
fn bitplane_serving_allocates_nothing_per_batch_after_warmup() {
    let _serial = serial();
    let lanes = BITPLANE_MIN_LANES;
    let snn = test_net(0xB17A110C);
    let width = snn.input_width();
    // One shard, one executor and a hold no test outlives: only the size
    // trigger dispatches. Every client sends the same number of requests
    // one after another, so each batch holds exactly one request per
    // client — `lanes` deep, on the bitplane path.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(lanes)
            .max_delay(Duration::from_secs(60))
            .shards(1)
            .executors(1),
    );
    const WARMUP: usize = 64;
    const PER_WINDOW: usize = 32;
    const WINDOWS: usize = 3;
    // Clients idle between an end and the next start, so the counter
    // read there sees no client work. Phase 0 is the warmup.
    let start = Barrier::new(lanes + 1);
    let end = Barrier::new(lanes + 1);
    let deltas: Vec<u64> = std::thread::scope(|scope| {
        for c in 0..lanes {
            let handle = server.handle();
            let (start, end) = (&start, &end);
            scope.spawn(move || {
                let frames: Vec<Vec<bool>> = (0..3)
                    .map(|t| (0..width).map(|i| (i + t + c) % 3 == 0).collect())
                    .collect();
                let mut request = PackedRequest::from_bool_frames(width, &frames);
                for phase in 0..=WINDOWS {
                    start.wait();
                    let sends = if phase == 0 { WARMUP } else { PER_WINDOW };
                    for _ in 0..sends {
                        handle.predict_packed(&mut request).expect("serve ok");
                    }
                    end.wait();
                }
            });
        }
        start.wait();
        end.wait();
        (0..WINDOWS)
            .map(|_| {
                let before = ALLOCATIONS.load(Ordering::SeqCst);
                start.wait();
                end.wait();
                ALLOCATIONS.load(Ordering::SeqCst) - before
            })
            .collect()
    });
    // A path that allocates per batch can never produce a clean window;
    // a few windows tolerate one-off stragglers from runtime
    // initialization that the warmup did not flush.
    assert!(
        deltas.contains(&0),
        "steady-state bitplane serving must not allocate (allocations per \
         {PER_WINDOW}-batch window: {deltas:?})"
    );
    let stats = server.stats();
    assert_eq!(
        stats.served,
        (lanes * (WARMUP + WINDOWS * PER_WINDOW)) as u64
    );
    assert_eq!(
        stats.bitplane_batches, stats.batches,
        "every batch took the bitplane path"
    );
    drop(server);
}
