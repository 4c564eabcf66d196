//! The discrete-event simulation engine.
//!
//! The hot path (`deliver`) is deliberately map-free: cell kinds, wires,
//! per-kind delays/constraints, probe fan-outs and faults are all resolved
//! into dense index-keyed tables at [`Simulator::new`], and the pending
//! events live in a [`CalendarQueue`] rather than a binary heap. See
//! DESIGN.md ("Event-engine hot path") for the layout and the determinism
//! argument.

use crate::event::Event;
use crate::netlist::{CellId, Netlist, PortRef, Wire};
use crate::observe::SimObserver;
use crate::partition::{Routing, ViolationSpan};
use crate::queue::CalendarQueue;
use crate::state::{CellState, LogicalIssue};
use std::collections::BTreeMap;
use std::fmt;
use sushi_cells::{CellKind, CellLibrary, Constraint, ConstraintTable, PortName, Ps};

/// Default ceiling on delivered events, guarding against runaway feedback.
pub const DEFAULT_EVENT_LIMIT: u64 = 50_000_000;

/// A timing or logical violation observed during simulation.
///
/// Stores only the offending [`CellId`] (not its label) so the hot path
/// never clones strings; resolve human-readable labels at report time via
/// [`Violation::describe`] or [`Simulator::violation_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending cell.
    pub cell: CellId,
    /// Its kind.
    pub kind: CellKind,
    /// When the violation occurred (ps).
    pub time: Ps,
    /// What went wrong.
    pub detail: ViolationDetail,
}

/// The specific rule or issue violated.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationDetail {
    /// A Table 1 minimum-separation rule was broken.
    Timing {
        /// The violated rule.
        rule: Constraint,
        /// Arrival time of the earlier pulse.
        prev_time: Ps,
    },
    /// A behavioural-model issue (e.g. DFF overwrite).
    Logical(LogicalIssue),
}

impl ViolationDetail {
    /// Shared `Display` body for [`Violation`] and [`ViolationReport`]:
    /// formats the `t=...` line for a violation of this detail at `time`
    /// on `cell` of `kind`.
    fn fmt_at(
        &self,
        f: &mut fmt::Formatter<'_>,
        cell: CellId,
        kind: CellKind,
        time: Ps,
    ) -> fmt::Result {
        match self {
            ViolationDetail::Timing { rule, prev_time } => write!(
                f,
                "t={time:.2}ps {cell} ({kind}): {rule} violated (prev pulse at {prev_time:.2}ps)"
            ),
            ViolationDetail::Logical(issue) => {
                write!(f, "t={time:.2}ps {cell} ({kind}): {issue}")
            }
        }
    }
}

impl Violation {
    /// Formats the violation with the cell's instance label resolved from
    /// `netlist` (which must be the netlist the violation was recorded on).
    pub fn describe(&self, netlist: &Netlist) -> String {
        self.report(netlist).to_string()
    }

    /// Resolves the violation into a structured [`ViolationReport`] with
    /// the instance label looked up from `netlist`.
    pub fn report(&self, netlist: &Netlist) -> ViolationReport {
        ViolationReport {
            cell: self.cell,
            cell_label: netlist.cell(self.cell).label.clone(),
            kind: self.kind,
            time: self.time,
            detail: self.detail.clone(),
        }
    }
}

/// A [`Violation`] resolved against its netlist: structured fields for
/// programmatic consumers, with a `Display` that keeps the historical
/// report string (`"... [label]"`), so nobody has to parse text.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// The offending cell.
    pub cell: CellId,
    /// Its instance label in the netlist.
    pub cell_label: String,
    /// Its kind.
    pub kind: CellKind,
    /// When the violation occurred (ps).
    pub time: Ps,
    /// What went wrong.
    pub detail: ViolationDetail,
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.detail.fmt_at(f, self.cell, self.kind, self.time)?;
        write!(f, " [{}]", self.cell_label)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.detail.fmt_at(f, self.cell, self.kind, self.time)
    }
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Pulses delivered to cell inputs.
    pub events_delivered: u64,
    /// Pulses emitted from cell outputs.
    pub pulses_emitted: u64,
    /// Pulses emitted into unconnected, unprobed outputs.
    pub pulses_dropped: u64,
    /// Switching events (input-pulse arrivals) per cell kind, the basis of
    /// the dynamic-energy estimate.
    pub switch_events: BTreeMap<CellKind, u64>,
    /// Timestamp of the last delivered event (ps).
    pub final_time_ps: Ps,
}

impl SimStats {
    /// Total dynamic switching energy in pJ under `library`'s per-cell
    /// switching energies.
    pub fn switching_energy_pj(&self, library: &CellLibrary) -> f64 {
        self.switch_events
            .iter()
            .map(|(k, n)| library.params(*k).switch_energy_pj(*n))
            .sum()
    }

    /// Total switching events across all kinds.
    pub fn total_switch_events(&self) -> u64 {
        self.switch_events.values().sum()
    }
}

/// The engine's internal statistics counters: plain integers plus a dense
/// per-kind switch array, materialized into the map-keyed [`SimStats`]
/// only at the API boundary (`stats()`/`take_outcome`).
#[derive(Debug, Clone, Default)]
pub(crate) struct RawStats {
    pub(crate) events_delivered: u64,
    pub(crate) pulses_emitted: u64,
    pub(crate) pulses_dropped: u64,
    pub(crate) switch_counts: [u64; CellKind::COUNT],
    pub(crate) final_time_ps: Ps,
}

impl RawStats {
    pub(crate) fn materialize(&self) -> SimStats {
        SimStats {
            events_delivered: self.events_delivered,
            pulses_emitted: self.pulses_emitted,
            pulses_dropped: self.pulses_dropped,
            // Only kinds that actually switched appear, matching the old
            // `entry(kind).or_insert(0)` behaviour.
            switch_events: CellKind::ALL
                .iter()
                .filter_map(|&k| {
                    let n = self.switch_counts[k.index()];
                    (n > 0).then_some((k, n))
                })
                .collect(),
            final_time_ps: self.final_time_ps,
        }
    }
}

/// Errors from driving the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The named input is not registered on the netlist.
    UnknownInput(String),
    /// The named probe is not registered on the netlist.
    UnknownProbe(String),
    /// The event budget was exhausted (suggests a zero-delay loop).
    EventLimitExceeded(u64),
    /// An inject time was NaN or infinite. A NaN would poison the event
    /// queue's total order mid-run; it is rejected at the API boundary.
    NonFiniteInjectTime {
        /// The input the time was injected on.
        input: String,
        /// The offending time.
        time: Ps,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownInput(n) => write!(f, "unknown input {n:?}"),
            SimError::UnknownProbe(n) => write!(f, "unknown probe {n:?}"),
            SimError::EventLimitExceeded(n) => {
                write!(
                    f,
                    "event limit {n} exceeded; possible zero-delay feedback loop"
                )
            }
            SimError::NonFiniteInjectTime { input, time } => {
                write!(f, "non-finite inject time {time} ps on input {input:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A fabrication-defect model injected into a specific cell, used to
/// exercise the chip-verification flow against broken silicon ("the
/// current superconducting fabrication technique is more stable for chips
/// with low JJ density" — defects are a practical concern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The cell's output JJ is open: it absorbs pulses but never emits.
    DropOutput,
    /// The cell's input is disconnected: arriving pulses do nothing.
    IgnoreInput,
}

/// Deterministic Gaussian timing jitter on cell delays.
///
/// Draws are a pure function of `(seed, cell, per-cell draw ordinal)`
/// rather than positions in one sequential RNG stream, so a cell's jitter
/// does not depend on how deliveries to *other* cells interleave with its
/// own — the property that lets [`Simulator::run_partitioned`] reproduce a
/// sequential run bitwise.
#[derive(Debug, Clone, Copy)]
struct Jitter {
    seed: u64,
    sigma_ps: Ps,
}

/// The splitmix64 finalizer: a cheap, well-distributed u64 -> u64 hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Jitter {
    fn new(seed: u64, sigma_ps: Ps) -> Self {
        Self { seed, sigma_ps }
    }

    /// Standard-normal draw number `draw` for cell index `cell`
    /// (Box-Muller over two hash-derived uniforms).
    fn gauss(&self, cell: usize, draw: u32) -> f64 {
        let key = ((cell as u64) << 32) | u64::from(draw);
        let h1 = splitmix64(self.seed ^ splitmix64(key));
        let h2 = splitmix64(h1);
        let scale = 1.0 / (1u64 << 53) as f64;
        let u1 = ((h1 >> 11) as f64 + 1.0) * scale; // in (0, 1]: ln is finite
        let u2 = (h2 >> 11) as f64 * scale; // in [0, 1)
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Detached results of one simulation run: probe traces, violations and
/// aggregate statistics. Produced by [`Simulator::take_outcome`] and
/// returned per item by the batch layer ([`crate::BatchRunner`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimOutcome {
    /// Pulse times per probe name.
    pub traces: BTreeMap<String, Vec<Ps>>,
    /// Violations recorded during the run.
    pub violations: Vec<Violation>,
    /// Aggregate statistics of the run.
    pub stats: SimStats,
}

impl SimOutcome {
    /// Pulse times recorded by the named probe (empty if unknown).
    pub fn pulses(&self, name: &str) -> &[Ps] {
        self.traces.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The event-driven simulator over one [`Netlist`].
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) states: Vec<CellState>,
    /// Most recent pulse-arrival time per cell, indexed by
    /// [`PortName::index`]; `NEG_INFINITY` = no pulse yet.
    pub(crate) arrivals: Vec<[Ps; PortName::COUNT]>,
    pub(crate) queue: CalendarQueue,
    /// Per-output-slot emission ordinals. An emitted event's tie-break key
    /// is `slot << 32 | ordinal` — a *provenance* key derived from its
    /// source, not from a global push counter, so any partitioning of the
    /// netlist reproduces the exact sequential delivery order.
    pub(crate) emit_seq: Vec<u32>,
    /// External input names, ascending (the netlist's `BTreeMap` order);
    /// a channel's position here keys its injection ordinals.
    input_names: Vec<String>,
    /// Target port per input channel (same order as `input_names`).
    input_targets: Vec<PortRef>,
    /// Per-channel injection ordinals: injected events use the pseudo-slot
    /// `slots + channel` in their provenance key.
    inject_seq: Vec<u32>,
    /// Per-cell jitter draw ordinals (counted only while jitter is on).
    pub(crate) jitter_draws: Vec<u32>,

    // Dense construction-time tables; `deliver` never touches a map.
    /// Cell kind per cell index.
    kinds: Vec<CellKind>,
    /// Constraint table per [`CellKind::index`].
    constraint_tabs: [&'a ConstraintTable; CellKind::COUNT],
    /// Nominal propagation delay per [`CellKind::index`].
    delay_by_kind: [Ps; CellKind::COUNT],
    /// Outgoing wire per flat output-port slot
    /// (`cell.index() * PortName::COUNT + port.index()`).
    wire_to: Vec<Option<Wire>>,
    /// CSR offsets into `probe_ids` per flat output-port slot
    /// (`len == slots + 1`).
    probe_offsets: Vec<u32>,
    /// Probe ids (indices into `probe_names`/`probe_traces`) watching each
    /// slot, flattened.
    probe_ids: Vec<u32>,
    /// Probe names sorted ascending; a probe's id is its position here.
    probe_names: Vec<String>,

    /// Recorded pulse times per probe id; names resolve only at the API
    /// boundary (`pulses`/`traces`/`take_outcome`).
    pub(crate) probe_traces: Vec<Vec<Ps>>,
    pub(crate) violations: Vec<Violation>,
    pub(crate) raw: RawStats,
    pub(crate) event_limit: u64,
    /// Injected fabrication defects per cell index.
    faults: Vec<Option<Fault>>,
    /// Fabrication-spread timing jitter. None = nominal timing.
    jitter: Option<Jitter>,
    /// True between the first `inject` of a run and the moment the queue
    /// drains inside `run_until` — the window in which `on_run_end` fires
    /// exactly once.
    pub(crate) run_active: bool,
    /// Optional instrumentation hooks. None = zero-cost (one predictable
    /// branch per event).
    pub(crate) observer: Option<Box<dyn SimObserver>>,
    /// Cross-partition event routing and the violation spans backing the
    /// deterministic merge; `Some` only while a partition worker drives
    /// this simulator (see [`crate::partition`]).
    pub(crate) routing: Option<Box<Routing>>,
}

/// The dense arrival table of a cell with no pulses delivered yet.
const NO_ARRIVALS: [Ps; PortName::COUNT] = [Ps::NEG_INFINITY; PortName::COUNT];

/// Flat index of `(cell, port)` in the per-output-port tables.
#[inline]
fn slot(port_ref: PortRef) -> usize {
    port_ref.cell.index() * PortName::COUNT + port_ref.port.index()
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `netlist` with cell delays and constraints
    /// taken from `library`. All per-event lookups (kind, wire, delay,
    /// constraints, probes, faults) are resolved into dense index-keyed
    /// tables here, once.
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary) -> Self {
        let cell_count = netlist.cell_count();
        let slots = cell_count * PortName::COUNT;

        let states = netlist
            .cells()
            .map(|(_, c)| CellState::initial(c.kind))
            .collect();
        let kinds: Vec<CellKind> = netlist.cells().map(|(_, c)| c.kind).collect();
        let constraint_tabs = CellKind::ALL.map(|k| library.constraints(k));
        let delay_by_kind = CellKind::ALL.map(|k| library.params(k).delay_ps);

        let mut wire_to = vec![None; slots];
        for (from, wire) in netlist.wires() {
            wire_to[slot(from)] = Some(*wire);
        }

        // Probe ids follow the BTreeMap's ascending name order, so
        // `probe_names` is sorted and name lookup is a binary search.
        let mut probe_names = Vec::with_capacity(netlist.probes().len());
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); slots];
        for (pid, (name, &port_ref)) in netlist.probes().iter().enumerate() {
            probe_names.push(name.clone());
            watchers[slot(port_ref)].push(pid as u32);
        }
        let mut probe_offsets = Vec::with_capacity(slots + 1);
        let mut probe_ids = Vec::with_capacity(probe_names.len());
        probe_offsets.push(0);
        for w in &watchers {
            probe_ids.extend_from_slice(w);
            probe_offsets.push(probe_ids.len() as u32);
        }

        let input_names: Vec<String> = netlist.inputs().keys().cloned().collect();
        let input_targets: Vec<PortRef> = netlist.inputs().values().copied().collect();
        Self {
            netlist,
            states,
            arrivals: vec![NO_ARRIVALS; cell_count],
            queue: CalendarQueue::new(),
            emit_seq: vec![0; slots],
            inject_seq: vec![0; input_names.len()],
            input_names,
            input_targets,
            jitter_draws: vec![0; cell_count],
            kinds,
            constraint_tabs,
            delay_by_kind,
            wire_to,
            probe_offsets,
            probe_ids,
            probe_traces: vec![Vec::new(); probe_names.len()],
            probe_names,
            violations: Vec::new(),
            raw: RawStats::default(),
            event_limit: DEFAULT_EVENT_LIMIT,
            faults: vec![None; cell_count],
            jitter: None,
            run_active: false,
            observer: None,
            routing: None,
        }
    }

    pub(crate) fn set_jitter(&mut self, seed: u64, sigma_ps: Ps) {
        assert!(sigma_ps >= 0.0, "jitter sigma must be non-negative");
        self.jitter = Some(Jitter::new(seed, sigma_ps));
    }

    pub(crate) fn set_fault(&mut self, cell: CellId, fault: Fault) {
        // Ids from another netlist never match a delivered event, so (as
        // with the old map-keyed fault set) storing them is a silent no-op.
        if let Some(f) = self.faults.get_mut(cell.index()) {
            *f = Some(fault);
        }
    }

    pub(crate) fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Attaches `obs` to receive engine hooks from now on, replacing any
    /// previous observer. Recover it after a run with
    /// [`Simulator::take_observer_as`].
    pub fn attach_observer(&mut self, obs: impl SimObserver + 'static) {
        self.observer = Some(Box::new(obs));
    }

    /// Detaches and returns the observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn SimObserver>> {
        self.observer.take()
    }

    /// Detaches the observer and downcasts it to its concrete type.
    /// Returns `None` when no observer is attached; panics on a type
    /// mismatch (a programming error, not a run-time condition).
    ///
    /// # Panics
    ///
    /// Panics if the attached observer is not a `T`.
    pub fn take_observer_as<T: SimObserver + 'static>(&mut self) -> Option<T> {
        let obs = self.observer.take()?;
        match obs.into_any().downcast::<T>() {
            Ok(concrete) => Some(*concrete),
            Err(_) => panic!("attached observer is not a {}", std::any::type_name::<T>()),
        }
    }

    /// Schedules pulses on the named external input.
    ///
    /// Times may come in any order. Each pulse's tie-break key is assigned
    /// here, in slice order, so the delivery order does not depend on when
    /// the queue takes the pulse in: the pulses wait in the queue's
    /// reserve and enter its calendar only when the window reaches their
    /// time, which keeps the calendar sized by the pulses in flight rather
    /// than by the length of the stimulus. A pulse injected in the
    /// simulated past (behind the last delivery) is delivered next, at its
    /// own time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInput`] if `name` was never registered,
    /// and [`SimError::NonFiniteInjectTime`] if any time is NaN or
    /// infinite (checked before anything is scheduled, so a failed inject
    /// leaves the queue untouched).
    pub fn inject(&mut self, name: &str, times: &[Ps]) -> Result<(), SimError> {
        let chan = self
            .input_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .map_err(|_| SimError::UnknownInput(name.to_owned()))?;
        if let Some(&t) = times.iter().find(|t| !t.is_finite()) {
            return Err(SimError::NonFiniteInjectTime {
                input: name.to_owned(),
                time: t,
            });
        }
        let target = self.input_targets[chan];
        // Injected events take the pseudo-slot `slots + channel` in their
        // provenance key, disjoint from every real output slot.
        let slot_base = ((self.wire_to.len() + chan) as u64) << 32;
        for &t in times {
            let key = slot_base | u64::from(self.inject_seq[chan]);
            self.inject_seq[chan] += 1;
            self.queue.stage(Event::new(t, key, target));
        }
        // An empty inject schedules nothing: marking the run active anyway
        // would make the next drain fire `on_run_end` for a phantom run.
        if !times.is_empty() {
            self.run_active = true;
        }
        if let Some(obs) = self.observer.as_mut() {
            obs.on_inject(name, times);
        }
        Ok(())
    }

    /// Runs until the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the budget runs out.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        self.run_until(Ps::INFINITY)
    }

    /// Runs while the next event is at or before `deadline` (ps).
    ///
    /// When the queue drains (whichever of `run_until` /
    /// [`Simulator::run_to_completion`] got it there), the observer's
    /// `on_run_end` hook fires exactly once per injected run; calling
    /// either method again without new stimulus does not re-fire it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the budget runs out.
    pub fn run_until(&mut self, deadline: Ps) -> Result<(), SimError> {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            if self.raw.events_delivered >= self.event_limit {
                return Err(SimError::EventLimitExceeded(self.event_limit));
            }
            let ev = self.queue.pop().expect("peeked event exists");
            self.deliver(ev);
        }
        if self.run_active && self.queue.is_empty() {
            self.run_active = false;
            if let Some(obs) = self.observer.as_mut() {
                obs.on_run_end(&self.raw.materialize());
            }
        }
        Ok(())
    }

    pub(crate) fn deliver(&mut self, ev: Event) {
        let cell_id = ev.target.cell;
        let ci = cell_id.index();
        let kind = self.kinds[ci];
        if let Some(obs) = self.observer.as_mut() {
            obs.on_deliver(cell_id, kind, ev.time);
        }
        let fault = self.faults[ci];
        self.raw.events_delivered += 1;
        if fault == Some(Fault::IgnoreInput) {
            return;
        }
        self.raw.final_time_ps = self.raw.final_time_ps.max(ev.time);
        self.raw.switch_counts[kind.index()] += 1;

        // Timing-constraint check against the dense per-port arrival table:
        // only rules keyed to the arriving port are inspected, and the
        // breaking arrival time falls out of the same lookup.
        let vstart = self.violations.len();
        let constraints = self.constraint_tabs[kind.index()];
        let arr = &mut self.arrivals[ci];
        let violations = &mut self.violations;
        constraints.check_dense(ev.target.port, ev.time, arr, |rule, prev_time| {
            violations.push(Violation {
                cell: cell_id,
                kind,
                time: ev.time,
                detail: ViolationDetail::Timing {
                    rule: *rule,
                    prev_time,
                },
            });
        });
        arr[ev.target.port.index()] = ev.time;

        // Behavioural update.
        let response = self.states[ci].on_pulse(kind, ev.target.port);
        if let Some(issue) = response.issue {
            self.violations.push(Violation {
                cell: cell_id,
                kind,
                time: ev.time,
                detail: ViolationDetail::Logical(issue),
            });
        }
        if let Some(obs) = self.observer.as_mut() {
            for v in &self.violations[vstart..] {
                obs.on_violation(v);
            }
        }
        // A partition worker notes where this delivery's violations sit,
        // for the merge into sequential order.
        if self.violations.len() > vstart {
            if let Some(r) = self.routing.as_mut() {
                r.violated.push(ViolationSpan {
                    time: ev.time,
                    key: ev.seq,
                    start: vstart as u32,
                    end: self.violations.len() as u32,
                });
            }
        }
        if fault != Some(Fault::DropOutput) {
            let mut delay = self.delay_by_kind[kind.index()];
            if let Some(j) = &self.jitter {
                // Box-Muller; delays cannot go below a quarter of nominal.
                let draw = self.jitter_draws[ci];
                self.jitter_draws[ci] += 1;
                delay = (delay + j.sigma_ps * j.gauss(ci, draw)).max(delay / 4.0);
            }
            for out_port in response.emitted() {
                self.raw.pulses_emitted += 1;
                let emit_time = ev.time + delay;
                if let Some(obs) = self.observer.as_mut() {
                    obs.on_emit(cell_id, kind, emit_time);
                }
                let out_slot = ci * PortName::COUNT + out_port.index();
                let mut consumed = false;
                let (lo, hi) = (
                    self.probe_offsets[out_slot] as usize,
                    self.probe_offsets[out_slot + 1] as usize,
                );
                if lo < hi {
                    for &pid in &self.probe_ids[lo..hi] {
                        self.probe_traces[pid as usize].push(emit_time);
                    }
                    consumed = true;
                }
                if let Some(wire) = self.wire_to[out_slot] {
                    let key = ((out_slot as u64) << 32) | u64::from(self.emit_seq[out_slot]);
                    self.emit_seq[out_slot] += 1;
                    let out = Event::new(emit_time + wire.delay_ps, key, wire.to);
                    match self.routing.as_mut() {
                        Some(r) if r.part_of[wire.to.cell.index()] != r.local => r.outbox.push(out),
                        _ => self.queue.push(out),
                    }
                    consumed = true;
                }
                if !consumed {
                    self.raw.pulses_dropped += 1;
                }
            }
        }
    }

    /// The probe id for `name`, if registered.
    fn probe_id(&self, name: &str) -> Option<usize> {
        self.probe_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
    }

    /// Pulse times recorded by the named probe.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered probe; use
    /// [`Simulator::try_pulses`] for a fallible lookup.
    pub fn pulses(&self, name: &str) -> &[Ps] {
        self.try_pulses(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pulse times recorded by the named probe.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProbe`] if `name` was never registered.
    pub fn try_pulses(&self, name: &str) -> Result<&[Ps], SimError> {
        self.probe_id(name)
            .map(|pid| self.probe_traces[pid].as_slice())
            .ok_or_else(|| SimError::UnknownProbe(name.to_owned()))
    }

    /// All probe traces as `(name, pulse times)` pairs, in ascending name
    /// order.
    pub fn traces(&self) -> impl Iterator<Item = (&str, &[Ps])> {
        self.probe_names
            .iter()
            .map(String::as_str)
            .zip(self.probe_traces.iter().map(Vec::as_slice))
    }

    /// Violations recorded so far (timing and logical).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Structured reports for every violation, with instance labels
    /// resolved from the netlist. Each report's `Display` keeps the
    /// historical `"... [label]"` string form.
    pub fn violation_reports(&self) -> Vec<ViolationReport> {
        self.violations
            .iter()
            .map(|v| v.report(self.netlist))
            .collect()
    }

    /// Moves the run's traces, violations and stats out of the simulator,
    /// leaving it cleared as far as results are concerned (probe names are
    /// retained, their traces start empty). Dynamic cell/queue state is
    /// untouched; callers reusing the simulator should [`Simulator::reset`]
    /// before the next run.
    pub fn take_outcome(&mut self) -> SimOutcome {
        let traces = self
            .probe_names
            .iter()
            .cloned()
            .zip(self.probe_traces.iter_mut().map(std::mem::take))
            .collect();
        let stats = self.raw.materialize();
        self.raw = RawStats::default();
        SimOutcome {
            traces,
            violations: std::mem::take(&mut self.violations),
            stats,
        }
    }

    /// Aggregate statistics so far, materialized from the engine's dense
    /// counters (cheap: one pass over the fixed kind set).
    pub fn stats(&self) -> SimStats {
        self.raw.materialize()
    }

    /// The internal state of a cell (for assertions in tests and for the
    /// "read" paths of the architecture models).
    pub fn cell_state(&self, id: CellId) -> &CellState {
        &self.states[id.index()]
    }

    /// True if no events remain queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Clears all dynamic state (cell states, traces, violations, queue,
    /// event sequence numbers, jitter stream), keeping the netlist and
    /// library, so the same design can be re-run. A reset simulator given
    /// the same stimulus reproduces a fresh simulator's results bitwise.
    ///
    /// An attached observer survives the reset and keeps accumulating —
    /// that is how one profiler can cover every item a batch worker runs.
    pub fn reset(&mut self) {
        for (s, &k) in self.states.iter_mut().zip(&self.kinds) {
            *s = CellState::initial(k);
        }
        for a in self.arrivals.iter_mut() {
            *a = NO_ARRIVALS;
        }
        self.queue.clear();
        // Restart the deterministic provenance-key ordinals; leaving them
        // mid-count would order equal-time events differently on the
        // re-run. Jitter draw counters rewind for the same reason: draw
        // `n` for a cell always yields the same delay under one seed.
        self.emit_seq.fill(0);
        self.inject_seq.fill(0);
        self.jitter_draws.fill(0);
        for t in self.probe_traces.iter_mut() {
            t.clear();
        }
        self.violations.clear();
        self.raw = RawStats::default();
        self.run_active = false;
        self.routing = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use sushi_cells::CellKind;
    use PortName::*;

    fn lib() -> CellLibrary {
        CellLibrary::nb03()
    }

    /// in -> dcsfq -> jtl -> probe
    fn simple_chain() -> Netlist {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let j = n.add_cell(CellKind::Jtl, "j");
        n.connect(src, Dout, j, Din).unwrap();
        n.add_input("in", src, Din).unwrap();
        n.probe("out", j, Dout).unwrap();
        n
    }

    #[test]
    fn pulses_propagate_with_delays() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        let expected =
            100.0 + l.params(CellKind::DcSfq).delay_ps + l.params(CellKind::Jtl).delay_ps;
        assert_eq!(sim.pulses("out"), &[expected]);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn wire_delay_adds_up() {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let j = n.add_cell(CellKind::Jtl, "j");
        n.connect_with_delay(src, Dout, j, Din, 50.0).unwrap();
        n.add_input("in", src, Din).unwrap();
        n.probe("out", j, Dout).unwrap();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[0.0]).unwrap();
        sim.run_to_completion().unwrap();
        let expected = l.params(CellKind::DcSfq).delay_ps + 50.0 + l.params(CellKind::Jtl).delay_ps;
        assert_eq!(sim.pulses("out"), &[expected]);
    }

    #[test]
    fn timing_violation_detected_on_fast_pulses() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        // 5 ps apart violates the 19.9 ps din-din interval of both cells.
        sim.inject("in", &[100.0, 105.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert!(!sim.violations().is_empty());
        assert!(matches!(
            sim.violations()[0].detail,
            ViolationDetail::Timing { .. }
        ));
    }

    #[test]
    fn safe_interval_produces_no_violations() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        let times: Vec<Ps> = (0..50).map(|i| 100.0 + 40.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        assert!(sim.violations().is_empty());
        assert_eq!(sim.pulses("out").len(), 50);
    }

    #[test]
    fn ndro_roundtrip_through_engine() {
        let mut n = Netlist::new();
        let nd = n.add_cell(CellKind::Ndro, "nd");
        n.add_input("din", nd, Din).unwrap();
        n.add_input("rst", nd, Rst).unwrap();
        n.add_input("clk", nd, Clk).unwrap();
        n.probe("q", nd, Dout).unwrap();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("din", &[100.0]).unwrap();
        sim.inject("clk", &[200.0, 300.0]).unwrap();
        sim.inject("rst", &[400.0]).unwrap();
        // A read after reset: nothing.
        sim.inject("clk", &[500.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("q").len(), 2);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn unknown_input_is_error() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        assert_eq!(
            sim.inject("nope", &[1.0]),
            Err(SimError::UnknownInput("nope".into()))
        );
        assert!(matches!(
            sim.try_pulses("nope"),
            Err(SimError::UnknownProbe(_))
        ));
    }

    #[test]
    fn dropped_pulses_counted() {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        n.add_input("in", src, Din).unwrap();
        // No wire, no probe on src.dout.
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[0.0, 100.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.stats().pulses_dropped, 2);
    }

    #[test]
    fn event_limit_guards_runaway() {
        let n = simple_chain();
        let l = lib();
        let mut sim = SimConfig::new().event_limit(1).build(&n, &l);
        sim.inject("in", &[0.0, 100.0]).unwrap();
        assert_eq!(
            sim.run_to_completion(),
            Err(SimError::EventLimitExceeded(1))
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0, 500.0]).unwrap();
        sim.run_until(200.0).unwrap();
        assert_eq!(sim.pulses("out").len(), 1);
        assert!(!sim.is_idle());
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), 2);
        assert!(sim.is_idle());
    }

    /// The delivery-timestamp contract: a pulse injected in the simulated
    /// past after `run_until` is delivered next, at its own earlier time,
    /// so `on_deliver` times may go backwards.
    #[test]
    fn past_injection_mid_run_is_delivered_next_at_its_own_time() {
        use crate::observe::{RingTracer, TraceKind};
        let n = simple_chain();
        let l = lib();
        let mut sim = SimConfig::new().build(&n, &l);
        sim.attach_observer(RingTracer::new(64));
        sim.inject("in", &[1000.0, 2000.0]).unwrap();
        sim.run_until(1500.0).unwrap();
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        let tracer: RingTracer = sim.take_observer_as().unwrap();
        let delivered: Vec<Ps> = tracer
            .events()
            .filter(|e| matches!(e.what, TraceKind::Deliver { .. }))
            .map(|e| e.time)
            .collect();
        // Each pulse reaches `src`, then `j` one DCSFQ delay later. The
        // past pulse is delivered after the 1000 ps pulse that ran before
        // the injection, at its own 100 ps.
        let hop = l.params(CellKind::DcSfq).delay_ps;
        let want: Vec<Ps> = [1000.0, 100.0, 2000.0]
            .into_iter()
            .flat_map(|t| [t, t + hop])
            .collect();
        assert_eq!(delivered, want);
    }

    /// `inject` takes times in any order. One call stages a descending
    /// slice longer than the calendar's window, a second channel shares
    /// every one of its times, and the deliveries still come in ascending
    /// time with ties broken by channel (`a` before `b`). The outcome is
    /// the one an ascending injection of the same pulses gives.
    #[test]
    fn descending_and_equal_time_injections_deliver_in_time_then_channel_order() {
        use crate::observe::{RingTracer, TraceKind};
        let mut n = Netlist::new();
        let a = n.add_cell(CellKind::Jtl, "a");
        let b = n.add_cell(CellKind::Jtl, "b");
        n.add_input("a", a, Din).unwrap();
        n.add_input("b", b, Din).unwrap();
        n.probe("out_a", a, Dout).unwrap();
        n.probe("out_b", b, Dout).unwrap();
        let l = lib();
        let ascending: Vec<Ps> = (1..=600).map(|i| 40.0 * i as Ps).collect();
        let descending: Vec<Ps> = ascending.iter().rev().copied().collect();
        let run = |a_times: &[Ps]| {
            let mut sim = SimConfig::new().build(&n, &l);
            sim.attach_observer(RingTracer::new(4096));
            sim.inject("a", a_times).unwrap();
            sim.inject("b", &ascending).unwrap();
            sim.run_to_completion().unwrap();
            let tracer: RingTracer = sim.take_observer_as().unwrap();
            let delivered: Vec<(CellId, Ps)> = tracer
                .events()
                .filter_map(|e| match e.what {
                    TraceKind::Deliver { cell, .. } => Some((cell, e.time)),
                    _ => None,
                })
                .collect();
            (sim.take_outcome(), delivered)
        };
        let (outcome, delivered) = run(&descending);
        let want: Vec<(CellId, Ps)> = ascending.iter().flat_map(|&t| [(a, t), (b, t)]).collect();
        assert_eq!(delivered, want);
        assert_eq!(outcome.pulses("out_a").len(), 600);
        assert_eq!(outcome, run(&ascending).0);
    }

    #[test]
    fn reset_clears_everything() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0, 105.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert!(!sim.pulses("out").is_empty());
        assert!(!sim.violations().is_empty());
        sim.reset();
        assert!(sim.pulses("out").is_empty());
        assert!(sim.violations().is_empty());
        assert_eq!(sim.stats().events_delivered, 0);
        // And it runs again cleanly.
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), 1);
    }

    #[test]
    fn stats_track_events_and_energy() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.stats().events_delivered, 2); // dcsfq + jtl
        assert_eq!(sim.stats().pulses_emitted, 2);
        assert_eq!(sim.stats().total_switch_events(), 2);
        assert!(sim.stats().switching_energy_pj(&l) > 0.0);
    }

    #[test]
    fn stats_only_list_kinds_that_switched() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        let stats = sim.stats();
        assert_eq!(stats.switch_events.len(), 2);
        assert_eq!(stats.switch_events[&CellKind::DcSfq], 1);
        assert_eq!(stats.switch_events[&CellKind::Jtl], 1);
        assert!(!stats.switch_events.contains_key(&CellKind::Dff));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let n = simple_chain();
        let l = lib();
        let run = |seed: u64| {
            let mut sim = SimConfig::new().jitter(seed, 1.0).build(&n, &l);
            sim.inject("in", &[100.0, 500.0, 900.0]).unwrap();
            sim.run_to_completion().unwrap();
            sim.pulses("out").to_vec()
        };
        assert_eq!(run(7), run(7), "same seed, same waveform");
        assert_ne!(run(7), run(8), "different seed, different arrival times");
        // Small jitter cannot break generous pulse spacing.
        let mut sim = SimConfig::new().jitter(7, 1.0).build(&n, &l);
        sim.inject("in", &[100.0, 500.0, 900.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert!(sim.violations().is_empty());
        assert_eq!(sim.pulses("out").len(), 3);
    }

    #[test]
    fn excessive_jitter_trips_the_constraint_checker() {
        let n = simple_chain();
        let l = lib();
        // Pulses at the exact safe interval with brutal 15 ps jitter:
        // across many pulses some pair must violate the 19.9 ps rule.
        let mut sim = SimConfig::new().jitter(3, 15.0).build(&n, &l);
        let times: Vec<Ps> = (0..200).map(|i| 100.0 + 40.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        assert!(
            !sim.violations().is_empty(),
            "15 ps sigma on 40 ps spacing must eventually violate"
        );
    }

    #[test]
    fn fault_drop_output_silences_cell() {
        let n = simple_chain();
        let l = lib();
        // Fault the JTL (cell index 1): pulses reach it but never leave.
        let mut sim = SimConfig::new()
            .fault(CellId(1), Fault::DropOutput)
            .build(&n, &l);
        sim.inject("in", &[100.0, 200.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert!(sim.pulses("out").is_empty());
        // The faulty cell still received the pulses.
        assert_eq!(sim.stats().events_delivered, 4);
    }

    #[test]
    fn fault_ignore_input_blocks_state_updates() {
        let mut n = Netlist::new();
        let t = n.add_cell(CellKind::Tffl, "t");
        n.add_input("in", t, Din).unwrap();
        n.probe("out", t, Dout).unwrap();
        let l = lib();
        let mut sim = SimConfig::new().fault(t, Fault::IgnoreInput).build(&n, &l);
        sim.inject("in", &[100.0, 200.0, 300.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert!(sim.pulses("out").is_empty());
        // State never advanced.
        assert_eq!(
            *sim.cell_state(t),
            crate::state::CellState::Tff { state: false }
        );
    }

    #[test]
    fn fault_on_foreign_cell_id_is_ignored() {
        let n = simple_chain();
        let l = lib();
        // Cell 99 is not in this 2-cell netlist: the fault must be a silent
        // no-op, as it was when faults lived in a map.
        let mut sim = SimConfig::new()
            .fault(CellId::from_index(99), Fault::IgnoreInput)
            .build(&n, &l);
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), 1);
    }

    #[test]
    fn violation_display_is_informative() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0, 101.0]).unwrap();
        sim.run_to_completion().unwrap();
        // Display identifies the cell by id/kind without touching the netlist.
        let msg = sim.violations()[0].to_string();
        assert!(msg.contains("c0"), "{msg}");
        assert!(msg.contains("dcsfq"), "{msg}");
        assert!(msg.contains("violated"), "{msg}");
        // Reports resolve the instance label from the netlist, keep the
        // structured fields, and Display the historical string form.
        let reports = sim.violation_reports();
        assert_eq!(reports.len(), sim.violations().len());
        assert_eq!(reports[0].cell_label, "src");
        assert_eq!(reports[0].cell, sim.violations()[0].cell);
        assert_eq!(reports[0].detail, sim.violations()[0].detail);
        let text = reports[0].to_string();
        assert!(text.contains("[src]"), "{text}");
        assert_eq!(text, sim.violations()[0].describe(&n));
        assert_eq!(
            text,
            format!("{} [src]", sim.violations()[0]),
            "report Display must stay the bare Display plus the label suffix"
        );
    }

    /// Satellite regression: `reset()` must rewind the event sequence
    /// counter and the jitter RNG, so reset-then-rerun reproduces a fresh
    /// simulator bitwise — the foundation of worker reuse in the batch
    /// layer.
    #[test]
    fn reset_then_rerun_matches_fresh_run() {
        // A splitter joined by a confluence buffer creates equal-time event
        // pairs whose ordering depends on the seq tie-break counter.
        let mut n = Netlist::new();
        let s = n.add_cell(CellKind::Spl2, "s");
        let c = n.add_cell(CellKind::Cb2, "c");
        n.connect(s, DoutA, c, DinA).unwrap();
        n.connect(s, DoutB, c, DinB).unwrap();
        n.add_input("in", s, Din).unwrap();
        n.probe("out", c, Dout).unwrap();
        let l = lib();
        let times: Vec<Ps> = (0..40).map(|i| 100.0 + 40.0 * i as Ps).collect();

        let config = |jitter: Option<(u64, Ps)>| {
            let mut c = SimConfig::new();
            if let Some((seed, sigma)) = jitter {
                c = c.jitter(seed, sigma);
            }
            c
        };
        let run_fresh = |jitter: Option<(u64, Ps)>| {
            let mut sim = config(jitter).build(&n, &l);
            sim.inject("in", &times).unwrap();
            sim.run_to_completion().unwrap();
            sim.take_outcome()
        };

        for jitter in [None, Some((42, 3.0))] {
            let fresh = run_fresh(jitter);
            let mut sim = config(jitter).build(&n, &l);
            // Dirty the simulator with a different run, then reset.
            sim.inject("in", &[100.0, 101.0, 102.0]).unwrap();
            sim.run_to_completion().unwrap();
            sim.reset();
            sim.inject("in", &times).unwrap();
            sim.run_to_completion().unwrap();
            assert_eq!(sim.take_outcome(), fresh, "jitter={jitter:?}");
        }
    }

    /// Satellite regression: `on_run_end` fires exactly once per drained
    /// run — also when `run_until` does the draining — and repeated
    /// `run_to_completion` calls without new stimulus do not re-fire it.
    #[test]
    fn on_run_end_fires_exactly_once_per_drained_run() {
        #[derive(Debug, Clone, Default)]
        struct RunEndCounter {
            ends: u64,
        }
        impl SimObserver for RunEndCounter {
            fn on_run_end(&mut self, _stats: &SimStats) {
                self.ends += 1;
            }
            fn box_clone(&self) -> Box<dyn SimObserver> {
                Box::new(self.clone())
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }

        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.attach_observer(RunEndCounter::default());

        let ends = |sim: &mut Simulator| {
            let counter = sim.take_observer_as::<RunEndCounter>().unwrap();
            let n = counter.ends;
            sim.attach_observer(counter);
            n
        };

        sim.inject("in", &[100.0, 500.0]).unwrap();
        // A deadline mid-run leaves events pending: no run end yet.
        sim.run_until(200.0).unwrap();
        assert_eq!(ends(&mut sim), 0);
        // Draining via run_until (not run_to_completion) fires it once.
        sim.run_until(1.0e9).unwrap();
        assert_eq!(ends(&mut sim), 1);
        // Re-running the drained simulator must not re-fire.
        sim.run_to_completion().unwrap();
        sim.run_to_completion().unwrap();
        sim.run_until(2.0e9).unwrap();
        assert_eq!(ends(&mut sim), 1);
        // A new injection opens a new run; draining it fires again.
        sim.reset();
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(ends(&mut sim), 2);
    }

    /// Bugfix regression: NaN (and infinite) inject times used to pass
    /// `inject` — the doc said "panics if any time is NaN" but the panic
    /// actually fired later, inside an unrelated queue comparison during
    /// `run`. They are now rejected up front as a structured error.
    #[test]
    fn non_finite_inject_times_are_rejected_up_front() {
        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = sim.inject("in", &[100.0, bad]).unwrap_err();
            assert!(
                matches!(&err, SimError::NonFiniteInjectTime { input, .. } if input == "in"),
                "{err:?}"
            );
            assert!(err.to_string().contains("non-finite"), "{err}");
            // The failed inject is atomic: not even the valid 100.0 was
            // scheduled, and no phantom run opened.
            assert!(sim.is_idle());
        }
        sim.run_to_completion().unwrap();
        assert!(sim.pulses("out").is_empty());
        assert_eq!(sim.stats().events_delivered, 0);
    }

    /// Bugfix regression: `inject(name, &[])` used to set `run_active`, so
    /// the next drain fired `on_run_end` for a run in which no event was
    /// ever scheduled or delivered — observers saw a phantom run.
    #[test]
    fn empty_inject_does_not_open_a_phantom_run() {
        #[derive(Debug, Clone, Default)]
        struct RunEnds(u64);
        impl SimObserver for RunEnds {
            fn on_run_end(&mut self, _stats: &SimStats) {
                self.0 += 1;
            }
            fn box_clone(&self) -> Box<dyn SimObserver> {
                Box::new(self.clone())
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }

        let n = simple_chain();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.attach_observer(RunEnds::default());
        sim.inject("in", &[]).unwrap();
        sim.run_to_completion().unwrap();
        sim.run_to_completion().unwrap();
        let ends = sim.take_observer_as::<RunEnds>().unwrap();
        assert_eq!(ends.0, 0, "nothing was scheduled: no run can end");

        // A real injection after the empty one still opens (and ends)
        // exactly one run.
        sim.attach_observer(RunEnds::default());
        sim.inject("in", &[]).unwrap();
        sim.inject("in", &[100.0]).unwrap();
        sim.run_to_completion().unwrap();
        let ends = sim.take_observer_as::<RunEnds>().unwrap();
        assert_eq!(ends.0, 1);
    }
}
