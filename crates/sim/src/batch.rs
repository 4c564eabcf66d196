//! Deterministic parallel batch simulation.
//!
//! Inference workloads run the *same* netlist over many independent
//! stimulus sets (one per input sample). [`BatchRunner`] fans those items
//! across workers with [`sushi_par::fan_out`], reusing one [`Simulator`]
//! per worker via [`Simulator::reset`], and merges the per-item
//! [`SimOutcome`]s back in input order. Simulator settings (faults,
//! jitter, event limit) come only from a [`SimConfig`], through
//! [`BatchRunner::with_config`].
//!
//! Every entry point goes through [`BatchRunner::run_each`]: a worker
//! builds its simulator once from the runner's [`SimConfig`] (faults,
//! jitter, event limit), and for each of its items resets it, lets a
//! caller-supplied stage inject the item's pulses (encoding them on the
//! worker if need be, into per-worker scratch), and runs it.
//!
//! # Determinism
//!
//! Results are bitwise identical to running every item sequentially on a
//! fresh simulator, regardless of worker count:
//!
//! - Each item is an independent simulation; workers share nothing but the
//!   immutable netlist and cell library.
//! - [`Simulator::reset`] rewinds *all* dynamic state, including the event
//!   sequence counter and the jitter RNG, so a reused simulator behaves
//!   exactly like a fresh one.
//! - Jitter models one chip: every item's stream starts from the
//!   config's seed, as on a fresh simulator built from that config, so
//!   it does not depend on which worker ran the item or what ran before.
//! - Items are assigned to workers in contiguous chunks and each worker
//!   writes only its own output slots, so the merged vector is in input
//!   order by construction. Errors are reported for the earliest input
//!   index that failed.
//!
//! # Examples
//!
//! ```
//! use sushi_cells::{CellKind, CellLibrary, PortName};
//! use sushi_sim::{BatchRunner, Netlist, StimulusBuilder};
//!
//! let mut n = Netlist::new();
//! let src = n.add_cell(CellKind::DcSfq, "src");
//! let tff = n.add_cell(CellKind::Tffl, "tff");
//! n.connect(src, PortName::Dout, tff, PortName::Din).unwrap();
//! n.add_input("in", src, PortName::Din).unwrap();
//! n.probe("out", tff, PortName::Dout).unwrap();
//! let lib = CellLibrary::nb03();
//!
//! let items: Vec<_> = (1..=4)
//!     .map(|k| {
//!         let mut b = StimulusBuilder::new();
//!         for i in 0..2 * k {
//!             b = b.pulse("in", 100.0 + 40.0 * i as f64).unwrap();
//!         }
//!         b.build()
//!     })
//!     .collect();
//!
//! let outcomes = BatchRunner::new(&n, &lib).with_workers(2).run(&items).unwrap();
//! // TFFL divides by two: item k saw 2k pulses, emits k.
//! let counts: Vec<usize> = outcomes.iter().map(|o| o.pulses("out").len()).collect();
//! assert_eq!(counts, vec![1, 2, 3, 4]);
//! ```

use crate::config::SimConfig;
use crate::engine::{Fault, SimError, SimOutcome, Simulator};
use crate::json::Json;
use crate::netlist::{CellId, Netlist};
use crate::observe::{ActivityProfiler, HotCellEntry};
use crate::stimulus::Stimulus;
use std::ops::Range;
use std::time::Instant;
use sushi_cells::{CellLibrary, Ps};
use sushi_par::fan_out;

/// Runs batches of stimulus sets over one netlist on a worker pool.
///
/// See the [module docs](self) for the determinism guarantee and an
/// example.
#[derive(Debug, Clone)]
pub struct BatchRunner<'a> {
    netlist: &'a Netlist,
    library: &'a CellLibrary,
    /// `None` = one per host CPU ([`sushi_par::host_workers`]).
    workers: Option<usize>,
    faults: Vec<(CellId, Fault)>,
    event_limit: Option<u64>,
    /// `(seed, sigma_ps)` of the chip's timing jitter.
    jitter: Option<(u64, Ps)>,
}

/// What [`BatchRunner::run_each`] returns: every item's staged value
/// beside its outcome, in input order, and the report if one was asked
/// for.
pub type StagedBatch<T> = (Vec<(T, SimOutcome)>, Option<BatchReport>);

/// One worker's share of a batch: its item range, its activity profile
/// when a report was asked for, and its busy wall time in seconds.
type WorkerChunk = (Range<usize>, Option<ActivityProfiler>, f64);

impl<'a> BatchRunner<'a> {
    /// A runner over `netlist`/`library` using one worker per available
    /// CPU.
    pub fn new(netlist: &'a Netlist, library: &'a CellLibrary) -> Self {
        Self {
            netlist,
            library,
            workers: None,
            faults: Vec::new(),
            event_limit: None,
            jitter: None,
        }
    }

    /// Builds every worker's simulator as `config` builds one (builder
    /// style), replacing the faults, event limit and jitter set so far.
    /// Config jitter models one chip: every item starts from the config's
    /// seed (a reset rewinds the draws), exactly as on a fresh simulator
    /// built from `config`. An observer in `config` is not used; use
    /// [`BatchRunner::run_with_report`] for per-worker metrics.
    pub fn with_config(mut self, config: &SimConfig) -> Self {
        self.faults = config.faults().to_vec();
        self.event_limit = config.event_limit_value();
        self.jitter = config.jitter_params();
        self
    }

    /// Sets the worker count (builder style). Clamped to at least 1; one
    /// worker means the batch runs on the calling thread.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(sushi_par::host_workers)
    }

    fn make_simulator(&self) -> Simulator<'a> {
        let mut sim = Simulator::new(self.netlist, self.library);
        for &(cell, fault) in &self.faults {
            sim.set_fault(cell, fault);
        }
        if let Some(limit) = self.event_limit {
            sim.set_event_limit(limit);
        }
        if let Some((seed, sigma_ps)) = self.jitter {
            sim.set_jitter(seed, sigma_ps);
        }
        sim
    }

    fn run_item<T>(
        sim: &mut Simulator<'a>,
        stage: impl FnOnce(&mut Simulator<'a>) -> Result<T, SimError>,
    ) -> Result<(T, SimOutcome), SimError> {
        sim.reset();
        let staged = stage(sim)?;
        sim.run_to_completion()?;
        Ok((staged, sim.take_outcome()))
    }

    /// Runs `count` items, the one implementation behind every other
    /// entry point. Each worker makes one `scratch` value and one
    /// simulator and reuses both across its items. Item `i` runs on the
    /// freshly reset simulator after `stage(scratch, sim, i)` has injected
    /// its pulses; the value `stage` returns comes back beside the item's
    /// outcome, in input order. With `hot_top_n` set, a [`BatchReport`]
    /// with that many hot cells is collected as in
    /// [`BatchRunner::run_with_report`].
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-indexed item whose stage or run
    /// failed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `scratch`, `stage` or a worker thread.
    pub fn run_each<S, T: Send>(
        &self,
        count: usize,
        hot_top_n: Option<usize>,
        scratch: impl Fn() -> S + Sync,
        stage: impl Fn(&mut S, &mut Simulator<'a>, usize) -> Result<T, SimError> + Sync,
    ) -> Result<StagedBatch<T>, SimError> {
        let t0 = Instant::now();
        let mut slots: Vec<Option<Result<(T, SimOutcome), SimError>>> =
            std::iter::repeat_with(|| None).take(count).collect();
        let chunks = fan_out(&mut slots, self.workers(), 1, |r, out| {
            let w0 = Instant::now();
            let mut sim = self.make_simulator();
            if hot_top_n.is_some() {
                sim.attach_observer(ActivityProfiler::new());
            }
            let mut scratch = scratch();
            for (i, slot) in r.clone().zip(out) {
                *slot = Some(Self::run_item(&mut sim, |sim| stage(&mut scratch, sim, i)));
            }
            let profiler = hot_top_n.map(|_| {
                sim.take_observer_as::<ActivityProfiler>()
                    .expect("worker attached a profiler")
            });
            (r, profiler, w0.elapsed().as_secs_f64())
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let items = slots
            .into_iter()
            .map(|slot| slot.expect("every slot written by its worker"))
            .collect::<Result<Vec<_>, _>>()?;
        let report = hot_top_n.map(|top_n| self.report(&items, chunks, wall_s, top_n));
        Ok((items, report))
    }

    /// Runs every item and returns the outcomes in input order.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-indexed item that failed
    /// (unknown stimulus channel or exhausted event budget).
    ///
    /// # Panics
    ///
    /// Propagates a panic from a worker thread (none originate in the
    /// simulator itself).
    pub fn run(&self, items: &[Stimulus]) -> Result<Vec<SimOutcome>, SimError> {
        let (outcomes, _) = self.run_stimuli(items, None)?;
        Ok(outcomes)
    }

    /// Runs every item on the calling thread — the reference semantics the
    /// parallel path must reproduce bitwise.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-indexed item that failed.
    pub fn run_sequential(&self, items: &[Stimulus]) -> Result<Vec<SimOutcome>, SimError> {
        let mut sim = self.make_simulator();
        items
            .iter()
            .map(|item| {
                Self::run_item(&mut sim, |sim| item.inject_into(sim)).map(|((), outcome)| outcome)
            })
            .collect()
    }

    /// Runs every item like [`BatchRunner::run`] and additionally collects
    /// a [`BatchReport`]: per-worker throughput and utilization, aggregate
    /// violation counts, and the `hot_top_n` busiest cells merged across
    /// all workers.
    ///
    /// The outcomes are bitwise identical to [`BatchRunner::run`] — the
    /// profiler only listens. Only the report's wall-clock fields are
    /// non-deterministic.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-indexed item that failed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from a worker thread (none originate in the
    /// simulator itself).
    pub fn run_with_report(
        &self,
        items: &[Stimulus],
        hot_top_n: usize,
    ) -> Result<(Vec<SimOutcome>, BatchReport), SimError> {
        let (outcomes, report) = self.run_stimuli(items, Some(hot_top_n))?;
        Ok((outcomes, report.expect("report requested")))
    }

    fn run_stimuli(
        &self,
        items: &[Stimulus],
        hot_top_n: Option<usize>,
    ) -> Result<(Vec<SimOutcome>, Option<BatchReport>), SimError> {
        let (staged, report) = self.run_each(
            items.len(),
            hot_top_n,
            || (),
            |_, sim, i| items[i].inject_into(sim),
        )?;
        Ok((staged.into_iter().map(|((), o)| o).collect(), report))
    }

    /// Assembles the report of a finished batch from its items and the
    /// workers' chunks.
    fn report<T>(
        &self,
        items: &[(T, SimOutcome)],
        chunks: Vec<WorkerChunk>,
        wall_s: f64,
        hot_top_n: usize,
    ) -> BatchReport {
        let mut merged = ActivityProfiler::new();
        let mut workers = Vec::new();
        for (wi, (r, profiler, worker_wall_s)) in chunks.into_iter().enumerate() {
            let chunk_out = &items[r];
            merged.merge(&profiler.expect("report runs attach a profiler"));
            let events_delivered = chunk_out
                .iter()
                .map(|(_, o)| o.stats.events_delivered)
                .sum();
            let sim_time_ps = chunk_out.iter().map(|(_, o)| o.stats.final_time_ps).sum();
            let violations = chunk_out
                .iter()
                .map(|(_, o)| o.violations.len() as u64)
                .sum();
            workers.push(WorkerMetrics {
                worker: wi,
                items: chunk_out.len(),
                events_delivered,
                sim_time_ps,
                violations,
                wall_s: worker_wall_s,
                items_per_s: if worker_wall_s > 0.0 {
                    chunk_out.len() as f64 / worker_wall_s
                } else {
                    0.0
                },
            });
        }
        let max_wall = workers.iter().map(|w| w.wall_s).fold(0.0, f64::max);
        let busy: f64 = workers.iter().map(|w| w.wall_s).sum();
        BatchReport {
            items: items.len(),
            events_delivered: workers.iter().map(|w| w.events_delivered).sum(),
            sim_time_ps: workers.iter().map(|w| w.sim_time_ps).sum(),
            violations: workers.iter().map(|w| w.violations).sum(),
            wall_s,
            items_per_s: if wall_s > 0.0 {
                items.len() as f64 / wall_s
            } else {
                0.0
            },
            utilization: if workers.is_empty() || max_wall <= 0.0 {
                1.0
            } else {
                busy / (workers.len() as f64 * max_wall)
            },
            hot_cells: merged.hot_cells(self.netlist, self.library, hot_top_n),
            workers,
        }
    }
}

/// Metrics for one batch worker (one range of the chunk plan),
/// collected by [`BatchRunner::run_with_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMetrics {
    /// Worker index (chunk order).
    pub worker: usize,
    /// Items this worker simulated.
    pub items: usize,
    /// Events delivered across its items.
    pub events_delivered: u64,
    /// Simulated time summed over its items, ps.
    pub sim_time_ps: Ps,
    /// Violations recorded across its items.
    pub violations: u64,
    /// Busy wall time, seconds.
    pub wall_s: f64,
    /// Items per wall second.
    pub items_per_s: f64,
}

impl WorkerMetrics {
    /// JSON form of the metrics.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("worker", Json::UInt(self.worker as u64)),
            ("items", Json::UInt(self.items as u64)),
            ("events_delivered", Json::UInt(self.events_delivered)),
            ("sim_time_ps", Json::Num(self.sim_time_ps)),
            ("violations", Json::UInt(self.violations)),
            ("wall_s", Json::Num(self.wall_s)),
            ("items_per_s", Json::Num(self.items_per_s)),
        ])
    }
}

/// The aggregate metrics report of one batch run: per-worker throughput,
/// utilization, violation counts, and the merged hot-cell top-N.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Items simulated.
    pub items: usize,
    /// Events delivered across all items.
    pub events_delivered: u64,
    /// Simulated time summed over all items, ps.
    pub sim_time_ps: Ps,
    /// Violations recorded across all items.
    pub violations: u64,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// Items per wall second.
    pub items_per_s: f64,
    /// Mean worker busy time over the slowest worker's busy time (1.0 =
    /// perfectly balanced chunks).
    pub utilization: f64,
    /// The busiest cells merged across all workers, hottest first.
    pub hot_cells: Vec<HotCellEntry>,
    /// Per-worker breakdown, chunk order.
    pub workers: Vec<WorkerMetrics>,
}

impl BatchReport {
    /// JSON form of the report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("items", Json::UInt(self.items as u64)),
            ("events_delivered", Json::UInt(self.events_delivered)),
            ("sim_time_ps", Json::Num(self.sim_time_ps)),
            ("violations", Json::UInt(self.violations)),
            ("wall_s", Json::Num(self.wall_s)),
            ("items_per_s", Json::Num(self.items_per_s)),
            ("utilization", Json::Num(self.utilization)),
            (
                "hot_cells",
                Json::Arr(self.hot_cells.iter().map(HotCellEntry::to_json).collect()),
            ),
            (
                "workers",
                Json::Arr(self.workers.iter().map(WorkerMetrics::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stimulus::StimulusBuilder;
    use sushi_cells::{CellKind, PortName};
    use PortName::*;

    fn lib() -> CellLibrary {
        CellLibrary::nb03()
    }

    /// in -> dcsfq -> spl2 -> (tffl, cb) with the other splitter branch
    /// delayed into the CB: equal-time event pairs plus stateful division.
    fn small_design() -> Netlist {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let spl = n.add_cell(CellKind::Spl2, "spl");
        let tff = n.add_cell(CellKind::Tffl, "tff");
        let cb = n.add_cell(CellKind::Cb2, "cb");
        n.connect(src, Dout, spl, Din).unwrap();
        n.connect(spl, DoutA, tff, Din).unwrap();
        n.connect_with_delay(spl, DoutB, cb, DinA, 30.0).unwrap();
        n.connect(tff, Dout, cb, DinB).unwrap();
        n.add_input("in", src, Din).unwrap();
        n.probe("out", cb, Dout).unwrap();
        n.probe("half", tff, Dout).unwrap();
        n
    }

    fn batch(len: usize) -> Vec<Stimulus> {
        (0..len)
            .map(|k| {
                let mut b = StimulusBuilder::new();
                for i in 0..(3 + k % 5) {
                    b = b.pulse("in", 100.0 + 40.0 * i as Ps).unwrap();
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let n = small_design();
        let l = lib();
        let items = batch(13);
        let runner = BatchRunner::new(&n, &l);
        let reference = runner.run_sequential(&items).unwrap();
        for workers in [1, 2, 3, 4, 8] {
            let got = runner.clone().with_workers(workers).run(&items).unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_jitter() {
        let n = small_design();
        let l = lib();
        let items = batch(9);
        let runner = BatchRunner::new(&n, &l).with_config(&SimConfig::new().jitter(0xC0FFEE, 2.0));
        let reference = runner.run_sequential(&items).unwrap();
        for workers in [2, 4] {
            let got = runner.clone().with_workers(workers).run(&items).unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
        // Jitter actually perturbed the waveforms vs the nominal run.
        let nominal = BatchRunner::new(&n, &l).run_sequential(&items).unwrap();
        assert_ne!(reference, nominal);
    }

    #[test]
    fn outcomes_preserve_input_order() {
        let n = small_design();
        let l = lib();
        let items = batch(10);
        let outcomes = BatchRunner::new(&n, &l)
            .with_workers(4)
            .run(&items)
            .unwrap();
        // Item k injected 3 + k%5 pulses; TFFL emits on every 0 -> 1 flip,
        // i.e. on odd-numbered pulses: ceil(p / 2).
        for (k, o) in outcomes.iter().enumerate() {
            assert_eq!(o.pulses("half").len(), (3 + k % 5).div_ceil(2), "item {k}");
        }
    }

    #[test]
    fn earliest_error_wins() {
        let n = small_design();
        let l = lib();
        let mut items = batch(8);
        items[2] = StimulusBuilder::new().pulse("nope", 0.0).unwrap().build();
        items[6] = StimulusBuilder::new()
            .pulse("also_bad", 0.0)
            .unwrap()
            .build();
        for workers in [1, 4] {
            let err = BatchRunner::new(&n, &l)
                .with_workers(workers)
                .run(&items)
                .unwrap_err();
            assert_eq!(
                err,
                SimError::UnknownInput("nope".into()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let n = small_design();
        let l = lib();
        assert_eq!(BatchRunner::new(&n, &l).run(&[]).unwrap(), vec![]);
    }

    /// `sushi_sim::chunk_plan` is re-exported for callers that plan their
    /// own fan-out; it keeps the shared plan's contract.
    #[test]
    fn chunk_plan_is_clamped_balanced_and_covering() {
        assert!(crate::chunk_plan(0, 4).is_empty());
        for (items, workers) in [(1, 1), (1, 8), (3, 16), (5, 4), (10, 6), (100, 7), (7, 7)] {
            let plan = crate::chunk_plan(items, workers);
            assert_eq!(plan.len(), items.min(workers), "({items},{workers})");
            // Contiguous exact cover, no empty chunks.
            let mut next = 0;
            for r in &plan {
                assert_eq!(r.start, next, "({items},{workers})");
                assert!(!r.is_empty(), "({items},{workers})");
                next = r.end;
            }
            assert_eq!(next, items, "({items},{workers})");
            // Balanced: chunk lengths differ by at most one.
            let lens: Vec<usize> = plan.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "({items},{workers}): {lens:?}");
        }
        assert_eq!(crate::chunk_plan(5, 0), vec![0..5]);
    }

    #[test]
    fn report_worker_count_is_clamped_and_balanced() {
        let n = small_design();
        let l = lib();
        // Regression: `workers > items` used to spawn one thread per item,
        // and ceil-chunking left configured workers idle (10 items on 6
        // workers ran as 5 chunks of 2).
        let runner = BatchRunner::new(&n, &l);
        let (_, report) = runner
            .clone()
            .with_workers(16)
            .run_with_report(&batch(3), 1)
            .unwrap();
        assert_eq!(report.workers.len(), 3);
        assert!(report.workers.iter().all(|w| w.items == 1));
        let (_, report) = runner
            .clone()
            .with_workers(6)
            .run_with_report(&batch(10), 1)
            .unwrap();
        assert_eq!(report.workers.len(), 6);
        let loads: Vec<usize> = report.workers.iter().map(|w| w.items).collect();
        assert_eq!(loads, vec![2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let n = small_design();
        let l = lib();
        let items = batch(3);
        let runner = BatchRunner::new(&n, &l);
        let reference = runner.run_sequential(&items).unwrap();
        assert_eq!(
            runner.clone().with_workers(16).run(&items).unwrap(),
            reference
        );
    }

    #[test]
    fn report_run_matches_plain_run_and_counts_everything() {
        let n = small_design();
        let l = lib();
        let items = batch(11);
        let runner = BatchRunner::new(&n, &l).with_config(&SimConfig::new().jitter(0xFEED, 1.5));
        let plain = runner.run(&items).unwrap();
        for workers in [1, 3, 5] {
            let (outcomes, report) = runner
                .clone()
                .with_workers(workers)
                .run_with_report(&items, 3)
                .unwrap();
            assert_eq!(outcomes, plain, "workers={workers}");
            assert_eq!(report.items, items.len());
            let expected_events: u64 = plain.iter().map(|o| o.stats.events_delivered).sum();
            assert_eq!(report.events_delivered, expected_events);
            let expected_viol: u64 = plain.iter().map(|o| o.violations.len() as u64).sum();
            assert_eq!(report.violations, expected_viol);
            assert_eq!(
                report.workers.iter().map(|w| w.items).sum::<usize>(),
                items.len()
            );
            assert!(report.hot_cells.len() <= 3);
            assert!(!report.hot_cells.is_empty());
            // The confluence buffer sees every splitter pulse plus the
            // TFF halves — it must lead the hot-cell table.
            assert_eq!(report.hot_cells[0].label, "cb");
            assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn report_serializes_to_parsable_json() {
        let n = small_design();
        let l = lib();
        let items = batch(6);
        let (_, report) = BatchRunner::new(&n, &l)
            .with_workers(2)
            .run_with_report(&items, 2)
            .unwrap();
        let text = report.to_json().to_string();
        let parsed = crate::json::Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("items").unwrap().as_u64(),
            Some(items.len() as u64)
        );
        assert_eq!(
            parsed.get("events_delivered").unwrap().as_u64(),
            Some(report.events_delivered)
        );
        assert_eq!(
            parsed.get("hot_cells").unwrap().as_arr().unwrap().len(),
            report.hot_cells.len()
        );
    }

    #[test]
    fn report_run_propagates_earliest_error() {
        let n = small_design();
        let l = lib();
        let mut items = batch(8);
        items[3] = StimulusBuilder::new().pulse("nope", 0.0).unwrap().build();
        let err = BatchRunner::new(&n, &l)
            .with_workers(4)
            .run_with_report(&items, 2)
            .unwrap_err();
        assert_eq!(err, SimError::UnknownInput("nope".into()));
    }

    #[test]
    fn report_run_handles_empty_batch() {
        let n = small_design();
        let l = lib();
        let (outcomes, report) = BatchRunner::new(&n, &l).run_with_report(&[], 4).unwrap();
        assert!(outcomes.is_empty());
        assert_eq!(report.items, 0);
        assert!(report.hot_cells.is_empty());
    }

    #[test]
    fn event_limit_propagates() {
        let n = small_design();
        let l = lib();
        let items = batch(4);
        let err = BatchRunner::new(&n, &l)
            .with_config(&SimConfig::new().event_limit(1))
            .with_workers(2)
            .run(&items)
            .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded(1));
    }
}
