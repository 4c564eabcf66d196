//! Pins the memory a long run keeps. The partition workers record only the
//! deliveries that recorded violations, so a long violation-free run makes
//! no allocation that grows with its delivery count. The calendar queue
//! takes staged stimulus in only when its window reaches it, so the peak
//! live heap of a sequential or partitioned run follows the pulses in
//! flight, not the run's length.
//!
//! Lives in its own integration-test binary so the tracking global
//! allocator observes only this file's scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sushi_cells::{CellKind, CellLibrary, PortName, Ps};
use sushi_sim::event::Event;
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
/// Buckets in one calendar window.
const BUCKETS: usize = 256;

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

/// Pulses in flight at once: a pulse crosses `2 * STAGES` JTLs, the 2 ps
/// wires between them and the link, while a new one enters every
/// `SPACING_PS`. Each pulse in flight is one pending event.
fn pulses_in_flight(lib: &CellLibrary) -> usize {
    let hops = 2 * STAGES;
    let transit =
        hops as Ps * lib.params(CellKind::Jtl).delay_ps + (hops - 2) as Ps * 2.0 + LINK_PS;
    (transit / SPACING_PS).ceil() as usize + 1
}

/// The most events one bucket keeps over a window. A rebuild tunes the
/// window to about one pending event per bucket, and the pending events
/// (the staged pulses, and one per pulse in flight) lie `SPACING_PS`
/// apart, so a bucket spans about `SPACING_PS`. While the cursor is in
/// it, each pulse in flight is delivered once per hop (a JTL and a 2 ps
/// wire), and the bucket keeps those events until the cursor leaves.
fn bucket_events(lib: &CellLibrary, in_flight: usize) -> usize {
    let hop = lib.params(CellKind::Jtl).delay_ps + 2.0;
    in_flight * (SPACING_PS / hop).ceil() as usize
}

/// One measured run: its outcome, the live heap when it started (netlist,
/// pulse times, the simulator's tables and the staged pulses), its peak
/// and its largest allocation, in bytes.
struct Measured {
    outcome: SimOutcome,
    tables: usize,
    start: usize,
    peak: usize,
    largest: usize,
}

/// Runs the workload sequentially (`workers == None`) or partitioned.
fn measured_run(n: &Netlist, lib: &CellLibrary, workers: Option<usize>) -> Measured {
    let before = LIVE.load(Ordering::Relaxed);
    let mut sim = Simulator::new(n, lib);
    let tables = LIVE.load(Ordering::Relaxed) - before;
    let times: Vec<Ps> = (0..PULSES).map(|i| 100.0 + SPACING_PS * i as Ps).collect();
    sim.inject("in", &times).unwrap();
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    match workers {
        None => sim.run_to_completion().unwrap(),
        Some(k) => sim.run_partitioned(k).unwrap(),
    }
    Measured {
        outcome: sim.take_outcome(),
        tables,
        start,
        peak: PEAK.load(Ordering::Relaxed),
        largest: LARGEST.load(Ordering::Relaxed),
    }
}

/// The most the run's peak may reach: what was live at its start, plus a
/// copy of the simulator's tables per partition worker, a second copy of
/// the staged pulses (the workers' reserves), the probe trace, and the
/// calendar's buckets; `Vec` growth may double each. The pulses in flight
/// split between the workers' calendars, so one calendar's worth covers
/// them all. None of it grows with the delivery count.
fn peak_bound(m: &Measured, workers: usize, bucket_events: usize) -> usize {
    let event = std::mem::size_of::<Event>();
    let reserve_copy = if workers > 0 { PULSES * event } else { 0 };
    let trace = PULSES * std::mem::size_of::<Ps>();
    let calendar = BUCKETS * bucket_events * event;
    m.start + workers * m.tables + 2 * (reserve_copy + trace + calendar)
}

#[test]
fn partitioned_run_allocates_nothing_per_delivery() {
    let n = two_segments();
    let lib = CellLibrary::nb03();
    let in_flight = pulses_in_flight(&lib);
    let per_bucket = bucket_events(&lib, in_flight);
    let seq = measured_run(&n, &lib, None);
    let par = measured_run(&n, &lib, Some(2));
    let (seq_bound, par_bound) = (
        peak_bound(&seq, 0, per_bucket),
        peak_bound(&par, 2, per_bucket),
    );
    eprintln!(
        "{in_flight} pulses in flight, up to {per_bucket} events per bucket, \
         simulator tables {} B; \
         run_to_completion: live at start {} B, peak live heap {} B (bound {seq_bound} B), \
         largest allocation {} B; run_partitioned(2): live at start {} B, peak live heap {} B \
         (bound {par_bound} B), largest allocation {} B",
        seq.tables, seq.start, seq.peak, seq.largest, par.start, par.peak, par.largest
    );
    assert_eq!(
        seq.outcome.stats.events_delivered,
        (2 * STAGES * PULSES) as u64
    );
    assert!(seq.outcome.violations.is_empty());
    assert_eq!(par.outcome, seq.outcome);
    assert!(
        par.largest <= LARGEST_ALLOWED,
        "run_partitioned(2) made a {} B allocation, allowed {LARGEST_ALLOWED} B",
        par.largest
    );
    assert!(
        seq.peak <= seq_bound,
        "run_to_completion peaked at {} B of live heap, bound {seq_bound} B",
        seq.peak
    );
    assert!(
        par.peak <= par_bound,
        "run_partitioned(2) peaked at {} B of live heap, bound {par_bound} B",
        par.peak
    );
}
