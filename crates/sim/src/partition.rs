//! Partitioned parallel execution of one large netlist.
//!
//! The batch layer ([`crate::BatchRunner`]) parallelizes *across*
//! independent stimulus items; this module parallelizes *inside* a single
//! big simulation — the paper's Fig. 13 32-NPE scale-out shape — by
//! sharding the netlist across worker threads under conservative
//! time-window synchronization (Chandy–Misra-style, without null
//! messages):
//!
//! * **Partitioning heuristic.** Cells agglomerate along the
//!   *smallest*-delay wires first (Kruskal-style union-find in ascending
//!   `delay_ps` order), capped at `ceil(cells / k)` per cluster; clusters
//!   then greedy-pack onto `k` partitions largest-first. Whatever stayed
//!   un-merged is the cut, so the wires crossing partitions are exactly
//!   the largest-delay ones — inter-NPE links, not intra-gate hops.
//! * **Lookahead and horizon.** `lookahead = min cross-partition wire
//!   delay`. With the window start `W = min` pending event time across
//!   all partitions, any event a window delivery emits toward another
//!   partition arrives at `>= W + cell delay + wire delay >= W +
//!   lookahead`. Every worker may therefore drain its private queue
//!   strictly below the horizon `W + lookahead` without seeing events
//!   from the other partitions, then all workers barrier, exchange
//!   buffered cross-partition events, and open the next window.
//! * **Determinism contract.** Event tie-break keys are *provenance*
//!   keys (`source slot << 32 | per-slot ordinal`, see
//!   [`crate::event::Event::seq`]) and jitter is a pure function of
//!   `(seed, cell, per-cell draw ordinal)`, so each partition's local
//!   `(time, key)` delivery order is exactly the sequential order
//!   projected onto its cells. Each worker keeps one small record per
//!   delivery that recorded violations; sorting those records by
//!   `(time, key)` (keys are unique per event) concatenates the
//!   workers' violations in sequential order, so the merged run is
//!   **bitwise** the sequential one: probe traces, violations (and
//!   their order), statistics and final cell states.
//!
//! Entry point: [`Simulator::run_partitioned`]. Netlists with no usable
//! cut, `workers <= 1`, or an attached observer run on the sequential
//! engine instead.

use crate::engine::{RawStats, SimError, Simulator};
use crate::event::Event;
use crate::netlist::Netlist;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use sushi_cells::{PortName, Ps};

/// Cross-partition routing state attached to one worker's simulator.
#[derive(Debug)]
pub(crate) struct Routing {
    /// Partition index per cell (shared, read-only).
    pub(crate) part_of: Arc<Vec<u32>>,
    /// This worker's partition index.
    pub(crate) local: u32,
    /// Events emitted toward other partitions during the current window.
    pub(crate) outbox: Vec<Event>,
    /// One record per delivery that recorded violations, in local
    /// `(time, key)` order — the input to the deterministic merge.
    pub(crate) violated: Vec<ViolationSpan>,
}

impl Clone for Routing {
    /// Cloning a simulator mid-partitioned-run is not meaningful; the
    /// clone starts with empty routing buffers (same partition map).
    fn clone(&self) -> Self {
        Self {
            part_of: Arc::clone(&self.part_of),
            local: self.local,
            outbox: Vec::new(),
            violated: Vec::new(),
        }
    }
}

/// The violations one delivery recorded: its sequential position and its
/// range of the worker's `violations`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ViolationSpan {
    /// Delivery (arrival) time.
    pub(crate) time: Ps,
    /// The event's provenance key (its `seq`).
    pub(crate) key: u64,
    /// Range of this worker's `violations` recorded by this delivery.
    pub(crate) start: u32,
    /// End of the range (exclusive).
    pub(crate) end: u32,
}

/// A netlist sharding: which partition each cell belongs to, plus the
/// synchronization lookahead derived from the cut.
///
/// Produced by [`PartitionPlan::plan`]; mostly useful directly for tests
/// and benchmarks that want to inspect how a netlist would shard.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// Partition index per cell (`len == cell_count`).
    pub part_of: Vec<u32>,
    /// Number of partitions actually used (dense `0..parts`).
    pub parts: u32,
    /// Minimum cross-partition wire delay in ps — the conservative
    /// synchronization lookahead. `INFINITY` when the partitions are
    /// fully disconnected (one window drains everything).
    pub lookahead_ps: Ps,
    /// Number of wires crossing partitions.
    pub cut_wires: usize,
}

/// Union-find with size-capped unions.
struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Unions `a` and `b` unless the merged cluster would exceed `cap`.
    fn union_capped(&mut self, a: usize, b: usize, cap: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb || (self.size[ra] + self.size[rb]) as usize > cap {
            return;
        }
        // Union by size; ties keep the lower root for determinism.
        let (big, small) = if (self.size[rb], rb) > (self.size[ra], ra) {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
    }
}

impl PartitionPlan {
    /// Shards `netlist` into at most `max_parts` partitions, cutting on
    /// the largest-delay wires.
    ///
    /// Returns `None` when no parallel-safe sharding exists: fewer than 2
    /// requested partitions or cells, everything merged into one cluster,
    /// or a zero-delay wire forced across the cut (zero lookahead would
    /// stall the time windows).
    pub fn plan(netlist: &Netlist, max_parts: usize) -> Option<PartitionPlan> {
        let cells = netlist.cell_count();
        if max_parts < 2 || cells < 2 {
            return None;
        }
        let k = max_parts.min(cells);
        let cap = cells.div_ceil(k);

        // Merge along ascending wire delay (ties broken by endpoint ids so
        // the plan is deterministic), so only the largest delays get cut.
        let mut edges: Vec<(Ps, u32, u32)> = netlist
            .wires()
            .filter(|(from, w)| from.cell != w.to.cell)
            .map(|(from, w)| {
                (
                    w.delay_ps,
                    from.cell.index() as u32,
                    w.to.cell.index() as u32,
                )
            })
            .collect();
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut dsu = Dsu::new(cells);
        for &(_, a, b) in &edges {
            dsu.union_capped(a as usize, b as usize, cap);
        }

        // Greedy bin-pack the clusters onto k partitions, largest first.
        let roots: Vec<usize> = (0..cells).filter(|&c| dsu.find(c) == c).collect();
        let mut clusters: Vec<(u32, u32)> =
            roots.iter().map(|&c| (dsu.size[c], c as u32)).collect();
        clusters.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut load = vec![0u64; k];
        let mut bin_of_root = vec![0u32; cells];
        for (sz, root) in clusters {
            let bin = (0..k).min_by_key(|&b| (load[b], b)).expect("k >= 2");
            load[bin] += u64::from(sz);
            bin_of_root[root as usize] = bin as u32;
        }

        // Densify partition ids in first-seen cell order.
        let mut remap = vec![u32::MAX; k];
        let mut parts = 0u32;
        let part_of: Vec<u32> = (0..cells)
            .map(|c| {
                let bin = bin_of_root[dsu.find(c)] as usize;
                if remap[bin] == u32::MAX {
                    remap[bin] = parts;
                    parts += 1;
                }
                remap[bin]
            })
            .collect();
        if parts < 2 {
            return None;
        }

        let mut lookahead = Ps::INFINITY;
        let mut cut_wires = 0usize;
        for (from, wire) in netlist.wires() {
            if part_of[from.cell.index()] != part_of[wire.to.cell.index()] {
                cut_wires += 1;
                lookahead = lookahead.min(wire.delay_ps);
            }
        }
        // A zero-delay cut wire means zero lookahead: the time windows
        // could never advance past it. (No cut at all is fine — fully
        // disconnected partitions drain in a single unbounded window.)
        if lookahead <= 0.0 {
            return None;
        }
        Some(PartitionPlan {
            part_of,
            parts,
            lookahead_ps: lookahead,
            cut_wires,
        })
    }

    /// Suggests a worker count for [`Simulator::run_partitioned`] on a
    /// host with `host_cpus` CPUs, by planning every candidate
    /// `k in 2..=host_cpus` and scoring the resulting cut statistics:
    /// lookahead is the work a window can drain before a barrier, and
    /// every cut wire is a potential cross-partition exchange per
    /// window, so the score rewards partitions whose windows are wide
    /// and whose cuts are thin. Candidates only come from
    /// [`PartitionPlan::plan`], which rejects zero-delay cuts by
    /// construction, so the suggestion never stalls the time windows.
    ///
    /// Returns `1` (sequential) when `host_cpus < 2` or no
    /// parallel-safe sharding exists at any candidate count; ties
    /// prefer fewer threads.
    pub fn suggest_k(netlist: &Netlist, host_cpus: usize) -> usize {
        if host_cpus < 2 {
            return 1;
        }
        let mut best: Option<(f64, usize)> = None;
        for k in 2..=host_cpus {
            let Some(plan) = Self::plan(netlist, k) else {
                continue;
            };
            let lookahead = if plan.lookahead_ps.is_finite() {
                plan.lookahead_ps
            } else {
                // Fully disconnected partitions drain in one unbounded
                // window with no synchronization at all: the best case,
                // scored far above any finite wire delay.
                1e12
            };
            let score = f64::from(plan.parts) * lookahead / (1.0 + plan.cut_wires as f64);
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, k));
            }
        }
        best.map_or(1, |(_, k)| k)
    }
}

/// State shared by all partition workers for one run.
struct Shared<'p> {
    part_of: &'p [u32],
    parts: usize,
    lookahead: Ps,
    limit: u64,
    barrier: Barrier,
    /// Each partition's pending-event minimum time (f64 bits), published
    /// before the window barrier.
    mins: Vec<AtomicU64>,
    /// Total events delivered across all partitions (plus the pre-run
    /// baseline), for the event-limit guard.
    delivered: AtomicU64,
    /// `mailboxes[dest * parts + src]`: cross-partition events in flight.
    mailboxes: Vec<Mutex<Vec<Event>>>,
}

impl<'a> Simulator<'a> {
    /// Runs the queue to completion on up to `workers` threads by sharding
    /// the netlist across partitions cut on the largest-delay wires (see
    /// the [module docs](crate::partition) for the scheme).
    ///
    /// The result is **bitwise identical** to [`run_to_completion`]: same
    /// probe traces, violations (in the same order), statistics and cell
    /// states. A simulator with an observer attached runs on the
    /// sequential engine, so its hooks fire in exactly the sequential
    /// stream; so does one with no parallel-safe sharding — `workers <=
    /// 1`, fewer than two reachable partitions, or a zero-delay wire
    /// across every possible cut.
    ///
    /// [`run_to_completion`]: Simulator::run_to_completion
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the combined delivered
    /// count exhausts the budget. The limit is checked at window
    /// granularity, so unlike the sequential engine a few events beyond
    /// the budget may already have been delivered; as in the sequential
    /// case, the simulator state after an error is partial — [`reset`]
    /// before reuse.
    ///
    /// [`reset`]: Simulator::reset
    ///
    /// # Examples
    ///
    /// ```
    /// use sushi_cells::{CellKind, CellLibrary, PortName};
    /// use sushi_sim::{Netlist, Simulator};
    ///
    /// let mut n = Netlist::new();
    /// let a = n.add_cell(CellKind::DcSfq, "a");
    /// let b = n.add_cell(CellKind::Jtl, "b");
    /// // A 25 ps link: the natural cut, giving 25 ps of lookahead.
    /// n.connect_with_delay(a, PortName::Dout, b, PortName::Din, 25.0).unwrap();
    /// n.add_input("in", a, PortName::Din).unwrap();
    /// n.probe("out", b, PortName::Dout).unwrap();
    /// let lib = CellLibrary::nb03();
    /// let mut sim = Simulator::new(&n, &lib);
    /// sim.inject("in", &[100.0, 200.0]).unwrap();
    /// sim.run_partitioned(2).unwrap();
    /// assert_eq!(sim.pulses("out").len(), 2);
    /// ```
    pub fn run_partitioned(&mut self, workers: usize) -> Result<(), SimError> {
        if self.observer.is_some() {
            return self.run_to_completion();
        }
        match PartitionPlan::plan(self.netlist, workers) {
            Some(plan) => self.run_plan(&plan),
            None => self.run_to_completion(),
        }
    }

    /// Runs the queue to completion under an explicit partition plan, with
    /// no observer attached.
    fn run_plan(&mut self, plan: &PartitionPlan) -> Result<(), SimError> {
        let parts_n = plan.parts as usize;
        let part_of = Arc::new(plan.part_of.clone());

        // Take the pending events out before cloning, so no worker
        // carries a copy of them (or of their allocations).
        let mut pending = std::mem::take(&mut self.queue);

        // Per-partition workers: full-size clones whose result
        // accumulators start empty. Each worker only delivers events
        // targeting its own cells, so the clones' mutable state is
        // disjoint by construction.
        let mut workers: Vec<Simulator<'a>> = (0..parts_n)
            .map(|p| {
                let mut w = self.clone();
                w.routing = Some(Box::new(Routing {
                    part_of: Arc::clone(&part_of),
                    local: p as u32,
                    outbox: Vec::new(),
                    violated: Vec::new(),
                }));
                for t in w.probe_traces.iter_mut() {
                    t.clear();
                }
                w.violations.clear();
                w.raw = RawStats::default();
                w
            })
            .collect();

        // Distribute the pending events to their owning partitions: the
        // staged stimulus into each owner's reserve, run by run, so every
        // run stays ascending; then the calendar's own events by push.
        pending.drain_staged(|ev| {
            let p = part_of[ev.target.cell.index()] as usize;
            workers[p].queue.stage(ev);
        });
        while let Some(ev) = pending.pop() {
            let p = part_of[ev.target.cell.index()] as usize;
            workers[p].queue.push(ev);
        }
        // The workers hold every pending event now; free the reserve.
        drop(pending);

        let shared = Shared {
            part_of: &part_of,
            parts: parts_n,
            lookahead: plan.lookahead_ps,
            limit: self.event_limit,
            barrier: Barrier::new(parts_n),
            mins: (0..parts_n)
                .map(|_| AtomicU64::new(Ps::INFINITY.to_bits()))
                .collect(),
            delivered: AtomicU64::new(self.raw.events_delivered),
            mailboxes: (0..parts_n * parts_n)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        };

        let shared_ref = &shared;
        let results: Vec<Result<(), SimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(me, w)| scope.spawn(move || worker_loop(me, shared_ref, w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition worker panicked"))
                .collect()
        });

        // No observer is attached (see `run_partitioned`), so ending the
        // run fires no hook.
        self.run_active = false;
        if let Some(err) = results.into_iter().find_map(Result::err) {
            // As with a sequential budget error, the state is partial;
            // the un-merged worker progress is discarded.
            return Err(err);
        }
        self.merge_workers(workers, &part_of);
        Ok(())
    }

    /// Folds the workers' results back into `self` in exact sequential order.
    fn merge_workers(&mut self, mut workers: Vec<Simulator<'a>>, part_of: &[u32]) {
        // Dynamic per-cell state: each cell has exactly one owner.
        for (ci, &p) in part_of.iter().enumerate() {
            let w = &workers[p as usize];
            self.states[ci] = w.states[ci];
            self.arrivals[ci] = w.arrivals[ci];
            self.jitter_draws[ci] = w.jitter_draws[ci];
            let base = ci * PortName::COUNT;
            self.emit_seq[base..base + PortName::COUNT]
                .copy_from_slice(&w.emit_seq[base..base + PortName::COUNT]);
        }

        // Probe traces: a probe watches one output slot, owned by exactly
        // one partition; its trace is already in sequential order.
        for (pid, (_, &port_ref)) in self.netlist.probes().iter().enumerate() {
            let owner = part_of[port_ref.cell.index()] as usize;
            let trace = std::mem::take(&mut workers[owner].probe_traces[pid]);
            if self.probe_traces[pid].is_empty() {
                self.probe_traces[pid] = trace;
            } else {
                self.probe_traces[pid].extend_from_slice(&trace);
            }
        }

        // Statistics are plain sums (final time: max).
        for w in &workers {
            self.raw.events_delivered += w.raw.events_delivered;
            self.raw.pulses_emitted += w.raw.pulses_emitted;
            self.raw.pulses_dropped += w.raw.pulses_dropped;
            for (dst, src) in self.raw.switch_counts.iter_mut().zip(w.raw.switch_counts) {
                *dst += src;
            }
            self.raw.final_time_ps = self.raw.final_time_ps.max(w.raw.final_time_ps);
        }

        // Violations in (time, key) order: exactly the sequential delivery
        // order, since keys are unique per event; each span keeps its
        // delivery's push order.
        let mut spans: Vec<(ViolationSpan, usize)> = workers
            .iter_mut()
            .enumerate()
            .flat_map(|(p, w)| {
                let r = w.routing.take().expect("worker has routing");
                r.violated.into_iter().map(move |span| (span, p))
            })
            .collect();
        spans.sort_unstable_by(|(a, _), (b, _)| {
            a.time
                .partial_cmp(&b.time)
                .expect("delivery times are never NaN")
                .then(a.key.cmp(&b.key))
        });
        for (span, p) in spans {
            let vios = &workers[p].violations[span.start as usize..span.end as usize];
            self.violations.extend_from_slice(vios);
        }
    }
}

/// One partition worker: alternates drain phases (strictly below the
/// window horizon) with barrier-synchronized mailbox exchanges until the
/// global queue minimum is infinite (all partitions drained).
fn worker_loop(me: usize, shared: &Shared<'_>, sim: &mut Simulator<'_>) -> Result<(), SimError> {
    loop {
        // The shared delivered counter is only stable across workers
        // between the mailbox barrier and the next min-time barrier (no
        // worker writes it in that span), so snapshot it here: every
        // worker then sees the same total and takes the same exit below —
        // nobody deadlocks at a barrier the others skipped.
        let total = shared.delivered.load(Ordering::Relaxed);
        let local_min = sim.queue.peek_time().unwrap_or(Ps::INFINITY);
        shared.mins[me].store(local_min.to_bits(), Ordering::Relaxed);
        shared.barrier.wait();

        let window_start = shared
            .mins
            .iter()
            .map(|m| Ps::from_bits(m.load(Ordering::Relaxed)))
            .fold(Ps::INFINITY, Ps::min);
        if window_start.is_infinite() {
            return Ok(());
        }
        if total >= shared.limit {
            return Err(SimError::EventLimitExceeded(shared.limit));
        }

        // Conservative horizon: anything a window delivery sends across a
        // partition boundary arrives at >= window_start + lookahead, so
        // events strictly below the horizon are safe to deliver without
        // seeing the other partitions.
        let horizon = window_start + shared.lookahead;
        let mut count = 0u64;
        let budget = shared.limit - total;
        while count < budget {
            match sim.queue.peek_time() {
                Some(t) if t < horizon => {
                    let ev = sim.queue.pop().expect("peeked event exists");
                    sim.deliver(ev);
                    count += 1;
                }
                _ => break,
            }
        }
        if count > 0 {
            shared.delivered.fetch_add(count, Ordering::Relaxed);
        }

        // Hand this window's cross-partition emissions to their
        // destination mailboxes. `mailboxes[dest][me]` has a single
        // writer (us) this phase, so the locks never contend.
        let outbox = std::mem::take(&mut sim.routing.as_mut().expect("worker has routing").outbox);
        for ev in outbox {
            let dest = shared.part_of[ev.target.cell.index()] as usize;
            shared.mailboxes[dest * shared.parts + me]
                .lock()
                .expect("mailbox lock poisoned")
                .push(ev);
        }
        shared.barrier.wait();

        // Pull our inbound events; arrival order does not matter, the
        // queue's (time, key) total order re-sorts them.
        for from in 0..shared.parts {
            let mut inbox = shared.mailboxes[me * shared.parts + from]
                .lock()
                .expect("mailbox lock poisoned");
            for ev in inbox.drain(..) {
                sim.queue.push(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{Fault, SimStats, Violation};
    use crate::netlist::CellId;
    use crate::observe::SimObserver;
    use sushi_cells::{CellKind, CellLibrary};
    use PortName::*;

    fn lib() -> CellLibrary {
        CellLibrary::nb03()
    }

    /// Two NPE-ish counter chains joined by large links, so the planner
    /// has an obvious cut. `stages` cells per side.
    fn linked_chains(stages: usize, link_ps: Ps) -> Netlist {
        let mut n = Netlist::new();
        let mut prev: Option<CellId> = None;
        let mut first = None;
        for side in 0..2 {
            for i in 0..stages {
                let c = n.add_cell(CellKind::Jtl, format!("j{side}_{i}"));
                match prev {
                    None => first = Some(c),
                    Some(p) => {
                        let delay = if i == 0 { link_ps } else { 2.0 };
                        n.connect_with_delay(p, Dout, c, Din, delay).unwrap();
                    }
                }
                prev = Some(c);
            }
        }
        n.add_input("in", first.unwrap(), Din).unwrap();
        n.probe("out", prev.unwrap(), Dout).unwrap();
        n
    }

    #[test]
    fn plan_cuts_the_largest_delay_wires() {
        let n = linked_chains(8, 40.0);
        let plan = PartitionPlan::plan(&n, 2).unwrap();
        assert_eq!(plan.parts, 2);
        assert_eq!(plan.cut_wires, 1);
        assert_eq!(plan.lookahead_ps, 40.0);
        // The cut falls on the link: each side is one partition.
        assert_eq!(plan.part_of[..8], [plan.part_of[0]; 8]);
        assert_eq!(plan.part_of[8..], [plan.part_of[8]; 8]);
        assert_ne!(plan.part_of[0], plan.part_of[8]);
    }

    #[test]
    fn plan_refuses_unsafe_or_trivial_shardings() {
        let n = linked_chains(8, 40.0);
        assert!(PartitionPlan::plan(&n, 1).is_none(), "k=1 is sequential");
        // All-zero-delay chain: any cut would have zero lookahead.
        let mut z = Netlist::new();
        let a = z.add_cell(CellKind::Jtl, "a");
        let b = z.add_cell(CellKind::Jtl, "b");
        let c = z.add_cell(CellKind::Jtl, "c");
        z.connect(a, Dout, b, Din).unwrap();
        z.connect(b, Dout, c, Din).unwrap();
        assert!(PartitionPlan::plan(&z, 2).is_none());
        // A single cell cannot shard.
        let mut one = Netlist::new();
        one.add_cell(CellKind::Jtl, "only");
        assert!(PartitionPlan::plan(&one, 4).is_none());
    }

    #[test]
    fn suggest_k_never_suggests_a_zero_delay_cut() {
        // All-zero-delay chain: every possible cut has zero lookahead,
        // so the only honest suggestion is sequential — for any CPU
        // count.
        let mut z = Netlist::new();
        let a = z.add_cell(CellKind::Jtl, "a");
        let b = z.add_cell(CellKind::Jtl, "b");
        let c = z.add_cell(CellKind::Jtl, "c");
        z.connect(a, Dout, b, Din).unwrap();
        z.connect(b, Dout, c, Din).unwrap();
        for cpus in [1usize, 2, 4, 16] {
            assert_eq!(PartitionPlan::suggest_k(&z, cpus), 1, "cpus={cpus}");
        }
    }

    #[test]
    fn suggest_k_parallelizes_shardable_netlists() {
        let n = linked_chains(8, 40.0);
        assert_eq!(PartitionPlan::suggest_k(&n, 1), 1, "1 CPU is sequential");
        let k = PartitionPlan::suggest_k(&n, 8);
        assert!((2..=8).contains(&k), "suggested {k}");
        // The suggestion is backed by a real plan with usable lookahead.
        let plan = PartitionPlan::plan(&n, k).expect("suggested k must plan");
        assert!(plan.lookahead_ps > 0.0);
        // Two chains, one 40 ps link: the natural suggestion is the
        // 2-way split that cuts only the link.
        assert_eq!(k, 2);
    }

    #[test]
    fn disconnected_components_shard_with_infinite_lookahead() {
        let mut n = Netlist::new();
        for side in 0..2 {
            let a = n.add_cell(CellKind::DcSfq, format!("a{side}"));
            let b = n.add_cell(CellKind::Jtl, format!("b{side}"));
            n.connect(a, Dout, b, Din).unwrap();
            n.add_input(format!("in{side}"), a, Din).unwrap();
            n.probe(format!("out{side}"), b, Dout).unwrap();
        }
        let plan = PartitionPlan::plan(&n, 2).unwrap();
        assert_eq!(plan.parts, 2);
        assert_eq!(plan.cut_wires, 0);
        assert!(plan.lookahead_ps.is_infinite());
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in0", &[100.0]).unwrap();
        sim.inject("in1", &[100.0]).unwrap();
        sim.run_partitioned(2).unwrap();
        assert_eq!(sim.pulses("out0").len(), 1);
        assert_eq!(sim.pulses("out1").len(), 1);
    }

    /// Records the full observer callback stream for bitwise comparison.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct StreamRecorder {
        events: Vec<String>,
        run_ends: Vec<SimStats>,
    }

    impl SimObserver for StreamRecorder {
        fn on_inject(&mut self, input: &str, times: &[Ps]) {
            self.events.push(format!("inject {input} {times:?}"));
        }
        fn on_deliver(&mut self, cell: CellId, kind: CellKind, time: Ps) {
            self.events.push(format!("deliver {cell} {kind} {time:?}"));
        }
        fn on_emit(&mut self, cell: CellId, kind: CellKind, time: Ps) {
            self.events.push(format!("emit {cell} {kind} {time:?}"));
        }
        fn on_violation(&mut self, violation: &Violation) {
            self.events.push(format!("violation {violation:?}"));
        }
        fn on_run_end(&mut self, stats: &SimStats) {
            self.events.push("run end".into());
            self.run_ends.push(stats.clone());
        }
        fn box_clone(&self) -> Box<dyn SimObserver> {
            Box::new(self.clone())
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    fn stimulus() -> Vec<Ps> {
        (0..60).map(|i| 100.0 + 13.0 * i as Ps).collect()
    }

    /// Drives `stimulus()` into every input of `n` and runs it
    /// sequentially (`workers == None`) or on `workers` partitions.
    /// Returns the outcome and, when `config` attached one, the observer
    /// stream.
    fn run_mode(
        n: &Netlist,
        config: SimConfig,
        workers: Option<usize>,
    ) -> (crate::SimOutcome, Option<StreamRecorder>) {
        let l = lib();
        let mut sim = config.build(n, &l);
        for input in n.inputs().keys() {
            sim.inject(input, &stimulus()).unwrap();
        }
        match workers {
            None => sim.run_to_completion().unwrap(),
            Some(w) => sim.run_partitioned(w).unwrap(),
        }
        let rec = sim.take_observer_as::<StreamRecorder>();
        (sim.take_outcome(), rec)
    }

    /// Checks `run_partitioned(workers)` against the sequential run under
    /// `config` (which attaches no observer): unobserved, the workers run
    /// and must reproduce the sequential outcome bitwise; observed, the
    /// outcome and the whole observer stream must be the sequential ones.
    /// Returns the sequential outcome.
    fn assert_partitioned_matches(
        n: &Netlist,
        config: &SimConfig,
        workers: usize,
    ) -> crate::SimOutcome {
        assert!(
            PartitionPlan::plan(n, workers).is_some(),
            "workers={workers} must shard"
        );
        let observed = || config.clone().observer(StreamRecorder::default());
        let (seq_out, seq_rec) = run_mode(n, observed(), None);
        let (par_out, _) = run_mode(n, config.clone(), Some(workers));
        assert_eq!(par_out, seq_out, "outcome, workers={workers}");
        let (obs_out, obs_rec) = run_mode(n, observed(), Some(workers));
        assert_eq!(obs_out, seq_out, "observed outcome, workers={workers}");
        assert_eq!(obs_rec, seq_rec, "observer stream, workers={workers}");
        seq_out
    }

    #[test]
    fn partitioned_matches_sequential_bitwise_including_observer_stream() {
        // 13 ps spacing on a 19.9 ps constraint: plenty of violations, and
        // jitter sprinkles more — a dense, order-sensitive workload.
        let n = linked_chains(9, 35.0);
        for config in [SimConfig::new(), SimConfig::new().jitter(42, 2.0)] {
            for workers in [2, 3, 4] {
                let seq = assert_partitioned_matches(&n, &config, workers);
                assert!(!seq.violations.is_empty());
            }
        }
    }

    #[test]
    fn partitioned_matches_sequential_with_faults() {
        let n = linked_chains(6, 50.0);
        let config = SimConfig::new()
            .fault(CellId::from_index(3), Fault::DropOutput)
            .fault(CellId::from_index(8), Fault::IgnoreInput);
        assert_partitioned_matches(&n, &config, 2);
    }

    #[test]
    fn equal_time_violations_merge_by_key() {
        /// Appends `stages` JTLs behind `head` on 2 ps wires and probes
        /// the tail.
        fn extend(n: &mut Netlist, side: char, head: CellId, stages: usize) {
            let mut prev = head;
            for i in 1..=stages {
                let c = n.add_cell(CellKind::Jtl, format!("{side}{i}"));
                n.connect_with_delay(prev, Dout, c, Din, 2.0).unwrap();
                prev = c;
            }
            n.probe(format!("out_{side}"), prev, Dout).unwrap();
        }
        // Two disconnected chains that deliver at identical times. Cell 0
        // is chain A's first stage, then come chain B's 11 stages, then
        // A's other 9, so from the third stage on (fed by cells 12 and up
        // against B's 2 and up), A's deliveries carry larger provenance
        // keys than B's at the same times — yet A is partition 0. Only
        // the key orders those ties.
        let mut n = Netlist::new();
        let a = n.add_cell(CellKind::Jtl, "a0");
        n.add_input("in0", a, Din).unwrap();
        let b = n.add_cell(CellKind::Jtl, "b0");
        n.add_input("in1", b, Din).unwrap();
        extend(&mut n, 'b', b, 10);
        extend(&mut n, 'a', a, 9);
        let plan = PartitionPlan::plan(&n, 2).unwrap();
        assert_eq!((plan.parts, plan.cut_wires), (2, 0));
        assert_eq!(plan.part_of[a.index()], 0);
        assert_eq!(plan.part_of[b.index()], 1);
        let seq = assert_partitioned_matches(&n, &SimConfig::new(), 2);
        assert_eq!(seq.violations.len(), 1239);
    }

    #[test]
    fn partitioned_respects_the_event_limit() {
        let n = linked_chains(8, 40.0);
        let l = lib();
        let mut sim = SimConfig::new().event_limit(10).build(&n, &l);
        sim.inject("in", &stimulus()).unwrap();
        assert_eq!(
            sim.run_partitioned(2),
            Err(SimError::EventLimitExceeded(10))
        );
    }

    #[test]
    fn run_partitioned_falls_back_to_sequential_when_unshardable() {
        // Zero-delay wires only: no safe cut, but the run must still work.
        let mut n = Netlist::new();
        let a = n.add_cell(CellKind::DcSfq, "a");
        let b = n.add_cell(CellKind::Jtl, "b");
        n.connect(a, Dout, b, Din).unwrap();
        n.add_input("in", a, Din).unwrap();
        n.probe("out", b, Dout).unwrap();
        let l = lib();
        let mut sim = Simulator::new(&n, &l);
        sim.inject("in", &[100.0, 200.0]).unwrap();
        sim.run_partitioned(8).unwrap();
        assert_eq!(sim.pulses("out").len(), 2);
    }

    #[test]
    fn reset_after_partitioned_run_reproduces_fresh_results() {
        let n = linked_chains(7, 30.0);
        let config = SimConfig::new().jitter(9, 1.5);
        let (fresh, _) = run_mode(&n, config.clone(), None);
        let l = lib();
        let mut sim = config.build(&n, &l);
        sim.inject("in", &stimulus()).unwrap();
        sim.run_partitioned(3).unwrap();
        sim.reset();
        sim.inject("in", &stimulus()).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.take_outcome(), fresh);
    }
}
