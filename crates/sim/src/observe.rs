//! Run-time instrumentation of the simulator: the [`SimObserver`] hook
//! trait and the shipped observers.
//!
//! The paper validates the fabricated chip by *watching* it — comparing
//! oscilloscope waveforms against VCS traces. This module gives the
//! software stack the same first-class observability: an observer attached
//! with [`Simulator::attach_observer`](crate::Simulator::attach_observer)
//! receives a callback for every injection, delivery, emission and
//! violation, plus a run-end summary. With no observer attached the engine pays a single
//! predictable branch per event, so the hot path stays at its benchmarked
//! throughput.
//!
//! Shipped observers:
//!
//! * [`ActivityProfiler`] — per-cell delivery/emission counts and
//!   switching energy, with a top-N hot-cell report;
//! * [`RingTracer`] — a bounded ring buffer of recent events for
//!   post-mortem debugging of violations.
//!
//! # Examples
//!
//! Profile a run and pull the hot cells out afterwards:
//!
//! ```
//! use sushi_cells::{CellKind, CellLibrary, PortName};
//! use sushi_sim::{ActivityProfiler, Netlist, SimConfig};
//!
//! let mut n = Netlist::new();
//! let src = n.add_cell(CellKind::DcSfq, "src");
//! let j = n.add_cell(CellKind::Jtl, "j");
//! n.connect(src, PortName::Dout, j, PortName::Din).unwrap();
//! n.add_input("in", src, PortName::Din).unwrap();
//! n.probe("out", j, PortName::Dout).unwrap();
//! let lib = CellLibrary::nb03();
//!
//! let mut sim = SimConfig::new().build(&n, &lib);
//! sim.attach_observer(ActivityProfiler::new());
//! sim.inject("in", &[100.0, 200.0]).unwrap();
//! sim.run_to_completion().unwrap();
//! let profiler: ActivityProfiler = sim.take_observer_as().unwrap();
//! let hot = profiler.hot_cells(&n, &lib, 2);
//! assert_eq!(hot.len(), 2);
//! assert_eq!(hot[0].deliveries, 2);
//! ```

use crate::engine::{SimStats, Violation};
use crate::json::Json;
use crate::netlist::{CellId, Netlist};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use sushi_cells::{CellKind, CellLibrary, Ps};

/// Event hooks called by the engine while a simulation runs.
///
/// All hooks default to no-ops, so an observer implements only what it
/// needs. The two `dyn`-plumbing methods ([`SimObserver::box_clone`] and
/// [`SimObserver::into_any`]) keep [`Simulator`](crate::Simulator)
/// cloneable and let callers recover the concrete observer after a run via
/// [`Simulator::take_observer_as`](crate::Simulator::take_observer_as).
///
/// Observers are `Send` because a simulator holds one and the partitioned
/// runner's workers
/// ([`Simulator::run_partitioned`](crate::Simulator::run_partitioned))
/// are simulator clones moved to threads. `run_partitioned` runs a
/// simulator with an observer attached on the sequential engine, so hooks
/// only ever fire from one thread at a time, in exact sequential order.
pub trait SimObserver: fmt::Debug + Send {
    /// Pulses were scheduled on the named external input.
    fn on_inject(&mut self, input: &str, times: &[Ps]) {
        let _ = (input, times);
    }

    /// A pulse arrived at a cell input at `time`.
    fn on_deliver(&mut self, cell: CellId, kind: CellKind, time: Ps) {
        let _ = (cell, kind, time);
    }

    /// A cell emitted an output pulse at `time` (post-delay).
    fn on_emit(&mut self, cell: CellId, kind: CellKind, time: Ps) {
        let _ = (cell, kind, time);
    }

    /// A timing or logical violation was recorded.
    fn on_violation(&mut self, violation: &Violation) {
        let _ = violation;
    }

    /// The event queue drained: one simulation run finished cleanly.
    fn on_run_end(&mut self, stats: &SimStats) {
        let _ = stats;
    }

    /// Clones the observer behind the trait object (keeps `Simulator:
    /// Clone`).
    fn box_clone(&self) -> Box<dyn SimObserver>;

    /// Unwraps the trait object for post-run downcasting to the concrete
    /// observer type.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl Clone for Box<dyn SimObserver> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Per-cell activity counters, filled by [`ActivityProfiler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellActivity {
    /// Pulses delivered to this cell's inputs.
    pub deliveries: u64,
    /// Pulses this cell emitted.
    pub emissions: u64,
}

/// One row of a hot-cell report: a cell resolved to its label with its
/// activity counters and estimated switching energy.
#[derive(Debug, Clone, PartialEq)]
pub struct HotCellEntry {
    /// The cell.
    pub cell: CellId,
    /// Its instance label from the netlist.
    pub label: String,
    /// Its kind.
    pub kind: CellKind,
    /// Pulses delivered to its inputs.
    pub deliveries: u64,
    /// Pulses it emitted.
    pub emissions: u64,
    /// Dynamic switching energy attributed to it, pJ.
    pub energy_pj: f64,
}

impl HotCellEntry {
    /// JSON form of the entry.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", Json::UInt(self.cell.index() as u64)),
            ("label", Json::Str(self.label.clone())),
            ("kind", Json::Str(self.kind.to_string())),
            ("deliveries", Json::UInt(self.deliveries)),
            ("emissions", Json::UInt(self.emissions)),
            ("energy_pj", Json::Num(self.energy_pj)),
        ])
    }
}

/// Counts deliveries and emissions per cell — the basis of the hot-cell
/// reports surfaced by the batch layer and the `bench` subcommand.
///
/// Counters survive [`Simulator::reset`](crate::Simulator::reset), so one
/// profiler can accumulate activity across every item a batch worker runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityProfiler {
    cells: Vec<CellActivity>,
    kinds: Vec<Option<CellKind>>,
    runs: u64,
}

impl ActivityProfiler {
    /// An empty profiler; per-cell tables grow on first contact.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, cell: CellId, kind: CellKind) -> &mut CellActivity {
        let idx = cell.index();
        if idx >= self.cells.len() {
            self.cells.resize(idx + 1, CellActivity::default());
            self.kinds.resize(idx + 1, None);
        }
        self.kinds[idx] = Some(kind);
        &mut self.cells[idx]
    }

    /// Activity of one cell (zero if never touched).
    pub fn activity(&self, cell: CellId) -> CellActivity {
        self.cells.get(cell.index()).copied().unwrap_or_default()
    }

    /// Completed runs observed (one per drained event queue).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total deliveries across all cells.
    pub fn total_deliveries(&self) -> u64 {
        self.cells.iter().map(|c| c.deliveries).sum()
    }

    /// Total emissions across all cells.
    pub fn total_emissions(&self) -> u64 {
        self.cells.iter().map(|c| c.emissions).sum()
    }

    /// Folds another profiler's counters into this one (used by the batch
    /// layer to merge per-worker profiles).
    pub fn merge(&mut self, other: &ActivityProfiler) {
        if other.cells.len() > self.cells.len() {
            self.cells
                .resize(other.cells.len(), CellActivity::default());
            self.kinds.resize(other.kinds.len(), None);
        }
        for (idx, (act, kind)) in other.cells.iter().zip(&other.kinds).enumerate() {
            self.cells[idx].deliveries += act.deliveries;
            self.cells[idx].emissions += act.emissions;
            if self.kinds[idx].is_none() {
                self.kinds[idx] = *kind;
            }
        }
        self.runs += other.runs;
    }

    /// The `top_n` busiest cells by delivery count, with labels resolved
    /// from `netlist` and switching energy from `library`. Ties break
    /// toward the lower cell id, so the report is deterministic.
    pub fn hot_cells(
        &self,
        netlist: &Netlist,
        library: &CellLibrary,
        top_n: usize,
    ) -> Vec<HotCellEntry> {
        let mut order: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].deliveries > 0 || self.cells[i].emissions > 0)
            .collect();
        order.sort_by(|&a, &b| {
            self.cells[b]
                .deliveries
                .cmp(&self.cells[a].deliveries)
                .then(a.cmp(&b))
        });
        order
            .into_iter()
            .take(top_n)
            .map(|idx| {
                let cell = CellId::from_index(idx);
                let kind = self.kinds[idx].expect("active cell has a recorded kind");
                HotCellEntry {
                    cell,
                    label: netlist.cell(cell).label.clone(),
                    kind,
                    deliveries: self.cells[idx].deliveries,
                    emissions: self.cells[idx].emissions,
                    energy_pj: library
                        .params(kind)
                        .switch_energy_pj(self.cells[idx].deliveries),
                }
            })
            .collect()
    }
}

impl SimObserver for ActivityProfiler {
    fn on_deliver(&mut self, cell: CellId, kind: CellKind, _time: Ps) {
        self.slot(cell, kind).deliveries += 1;
    }

    fn on_emit(&mut self, cell: CellId, kind: CellKind, _time: Ps) {
        self.slot(cell, kind).emissions += 1;
    }

    fn on_run_end(&mut self, _stats: &SimStats) {
        self.runs += 1;
    }

    fn box_clone(&self) -> Box<dyn SimObserver> {
        Box::new(self.clone())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// What a [`RingTracer`] record describes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// Pulse scheduled on a named external input.
    Inject {
        /// The input channel name.
        input: String,
    },
    /// Pulse delivered to a cell input.
    Deliver {
        /// The receiving cell.
        cell: CellId,
        /// Its kind.
        kind: CellKind,
    },
    /// Pulse emitted from a cell output.
    Emit {
        /// The emitting cell.
        cell: CellId,
        /// Its kind.
        kind: CellKind,
    },
    /// A violation was recorded on a cell.
    Violation {
        /// The offending cell.
        cell: CellId,
    },
}

/// One record in the tracer's ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event, ps.
    pub time: Ps,
    /// What happened.
    pub what: TraceKind,
}

/// A bounded ring buffer of recent simulation events for post-mortem
/// debugging: when a run ends with violations, the tracer holds the last
/// `capacity` things that happened, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct RingTracer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingTracer {
    /// A tracer keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn push(&mut self, time: Ps, what: TraceKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { time, what });
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of buffered events (at most the capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The buffered violation records only.
    pub fn violations(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.what, TraceKind::Violation { .. }))
    }
}

impl SimObserver for RingTracer {
    fn on_inject(&mut self, input: &str, times: &[Ps]) {
        for &t in times {
            self.push(
                t,
                TraceKind::Inject {
                    input: input.to_owned(),
                },
            );
        }
    }

    fn on_deliver(&mut self, cell: CellId, kind: CellKind, time: Ps) {
        self.push(time, TraceKind::Deliver { cell, kind });
    }

    fn on_emit(&mut self, cell: CellId, kind: CellKind, time: Ps) {
        self.push(time, TraceKind::Emit { cell, kind });
    }

    fn on_violation(&mut self, violation: &Violation) {
        self.push(
            violation.time,
            TraceKind::Violation {
                cell: violation.cell,
            },
        );
    }

    fn box_clone(&self) -> Box<dyn SimObserver> {
        Box::new(self.clone())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use sushi_cells::PortName::*;

    fn lib() -> CellLibrary {
        CellLibrary::nb03()
    }

    /// in -> dcsfq -> jtl -> probe
    fn chain() -> Netlist {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let j = n.add_cell(CellKind::Jtl, "j");
        n.connect(src, Dout, j, Din).unwrap();
        n.add_input("in", src, Din).unwrap();
        n.probe("out", j, Dout).unwrap();
        n
    }

    #[test]
    fn profiler_counts_match_sim_stats() {
        let n = chain();
        let l = lib();
        let mut sim = SimConfig::new().build(&n, &l);
        sim.attach_observer(ActivityProfiler::new());
        let times: Vec<Ps> = (0..20).map(|i| 100.0 + 40.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        let stats = sim.stats();
        let profiler: ActivityProfiler = sim.take_observer_as().unwrap();
        assert_eq!(profiler.total_deliveries(), stats.events_delivered);
        assert_eq!(profiler.total_emissions(), stats.pulses_emitted);
        assert_eq!(profiler.runs(), 1);
        // Both cells saw all 20 pulses.
        assert_eq!(profiler.activity(CellId::from_index(0)).deliveries, 20);
        assert_eq!(profiler.activity(CellId::from_index(1)).deliveries, 20);
    }

    #[test]
    fn profiler_hot_cells_are_sorted_and_labelled() {
        let n = chain();
        let l = lib();
        let mut sim = SimConfig::new().build(&n, &l);
        sim.attach_observer(ActivityProfiler::new());
        sim.inject("in", &[100.0, 200.0, 300.0]).unwrap();
        sim.run_to_completion().unwrap();
        let profiler: ActivityProfiler = sim.take_observer_as().unwrap();
        let hot = profiler.hot_cells(&n, &l, 10);
        assert_eq!(hot.len(), 2);
        // Equal deliveries tie-break by id: src first.
        assert_eq!(hot[0].label, "src");
        assert_eq!(hot[1].label, "j");
        assert!(hot.iter().all(|h| h.energy_pj > 0.0));
        // Truncation honours top_n.
        assert_eq!(profiler.hot_cells(&n, &l, 1).len(), 1);
    }

    #[test]
    fn profiler_merge_adds_counters() {
        let n = chain();
        let l = lib();
        let run = |pulses: usize| {
            let mut sim = SimConfig::new().build(&n, &l);
            sim.attach_observer(ActivityProfiler::new());
            let times: Vec<Ps> = (0..pulses).map(|i| 100.0 + 40.0 * i as Ps).collect();
            sim.inject("in", &times).unwrap();
            sim.run_to_completion().unwrap();
            sim.take_observer_as::<ActivityProfiler>().unwrap()
        };
        let mut a = run(5);
        let b = run(7);
        a.merge(&b);
        assert_eq!(a.total_deliveries(), 2 * (5 + 7));
        assert_eq!(a.runs(), 2);
    }

    #[test]
    fn tracer_ring_buffer_truncates_to_capacity() {
        let n = chain();
        let l = lib();
        let mut sim = SimConfig::new().build(&n, &l);
        sim.attach_observer(RingTracer::new(8));
        let times: Vec<Ps> = (0..10).map(|i| 100.0 + 40.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        let tracer: RingTracer = sim.take_observer_as().unwrap();
        assert_eq!(tracer.len(), 8);
        // 10 injects + 20 delivers + 20 emits = 50 events, 42 dropped.
        assert_eq!(tracer.dropped(), 42);
        // Oldest-first ordering within the retained tail.
        let times: Vec<Ps> = tracer.events().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tracer_captures_violations_for_post_mortem() {
        let n = chain();
        let l = lib();
        let mut sim = SimConfig::new().build(&n, &l);
        sim.attach_observer(RingTracer::new(64));
        sim.inject("in", &[100.0, 103.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert!(!sim.violations().is_empty());
        let tracer: RingTracer = sim.take_observer_as().unwrap();
        assert!(tracer.violations().count() > 0);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn observer_does_not_change_outcomes() {
        let n = chain();
        let l = lib();
        let times: Vec<Ps> = (0..30).map(|i| 100.0 + 40.0 * i as Ps).collect();
        let mut plain = SimConfig::new().jitter(9, 2.0).build(&n, &l);
        plain.inject("in", &times).unwrap();
        plain.run_to_completion().unwrap();
        let mut observed = SimConfig::new().jitter(9, 2.0).build(&n, &l);
        observed.attach_observer(ActivityProfiler::new());
        observed.inject("in", &times).unwrap();
        observed.run_to_completion().unwrap();
        assert_eq!(plain.take_outcome(), observed.take_outcome());
    }
}
