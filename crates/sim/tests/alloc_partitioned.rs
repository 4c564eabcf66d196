//! Pins the memory a partitioned run keeps per delivery: the workers
//! record only the deliveries that recorded violations, so a long
//! violation-free run makes no allocation that grows with its delivery
//! count.
//!
//! Lives in its own integration-test binary so the tracking global
//! allocator observes only this file's scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sushi_cells::{CellKind, CellLibrary, PortName, Ps};
use sushi_sim::{Netlist, SimOutcome, Simulator};

/// Tracks live heap bytes, their peak, and the largest single allocation
/// or reallocation, process-wide.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Records `added` more live bytes from an allocation or reallocation of
/// `size` bytes.
fn grew(added: usize, size: usize) {
    let live = LIVE.fetch_add(added, Ordering::Relaxed) + added;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

// SAFETY: every method only updates counters and forwards its arguments
// unchanged to `System`, so each call meets `System`'s contract exactly
// when the caller meets `GlobalAlloc`'s.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        // SAFETY: the caller's arguments, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        // SAFETY: the caller's arguments, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size(), new_size);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: the caller's arguments, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's arguments, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static TRACKER: TrackingAlloc = TrackingAlloc;

/// Two JTL segments of `STAGES` cells on 2 ps wires, joined by a
/// `LINK_PS` link, driven by `PULSES` pulses `SPACING_PS` apart: every
/// pulse crosses all `2 * STAGES` cells, violation-free.
const STAGES: usize = 100;
const LINK_PS: Ps = 40.0;
const PULSES: usize = 4_000;
const SPACING_PS: Ps = 50.0;
/// No allocation in a partitioned run may exceed this.
const LARGEST_ALLOWED: usize = 1 << 20;

fn two_segments() -> Netlist {
    let mut n = Netlist::new();
    let mut prev = None;
    for segment in 0..2 {
        for i in 0..STAGES {
            let c = n.add_cell(CellKind::Jtl, format!("j{segment}_{i}"));
            match prev {
                None => n.add_input("in", c, PortName::Din).unwrap(),
                Some(p) => {
                    let delay = if i == 0 { LINK_PS } else { 2.0 };
                    n.connect_with_delay(p, PortName::Dout, c, PortName::Din, delay)
                        .unwrap();
                }
            }
            prev = Some(c);
        }
    }
    n.probe("out", prev.unwrap(), PortName::Dout).unwrap();
    n
}

/// Runs the workload sequentially (`workers == None`) or partitioned,
/// returning the outcome with the run's peak live heap and largest
/// allocation in bytes.
fn measured_run(
    n: &Netlist,
    lib: &CellLibrary,
    workers: Option<usize>,
) -> (SimOutcome, usize, usize) {
    let mut sim = Simulator::new(n, lib);
    let times: Vec<Ps> = (0..PULSES).map(|i| 100.0 + SPACING_PS * i as Ps).collect();
    sim.inject("in", &times).unwrap();
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    match workers {
        None => sim.run_to_completion().unwrap(),
        Some(k) => sim.run_partitioned(k).unwrap(),
    }
    let (peak, largest) = (
        PEAK.load(Ordering::Relaxed),
        LARGEST.load(Ordering::Relaxed),
    );
    (sim.take_outcome(), peak, largest)
}

#[test]
fn partitioned_run_allocates_nothing_per_delivery() {
    let n = two_segments();
    let lib = CellLibrary::nb03();
    let (seq, seq_peak, seq_largest) = measured_run(&n, &lib, None);
    let (par, par_peak, par_largest) = measured_run(&n, &lib, Some(2));
    eprintln!(
        "run_to_completion: peak live heap {seq_peak} B, largest allocation {seq_largest} B; \
         run_partitioned(2): peak live heap {par_peak} B, largest allocation {par_largest} B"
    );
    assert_eq!(seq.stats.events_delivered, (2 * STAGES * PULSES) as u64);
    assert!(seq.violations.is_empty());
    assert_eq!(par, seq);
    assert!(
        par_largest <= LARGEST_ALLOWED,
        "run_partitioned(2) made a {par_largest} B allocation, allowed {LARGEST_ALLOWED} B"
    );
}
