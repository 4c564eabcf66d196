//! Cell-accurate execution: compiled slices on the full RSFQ netlist.
//!
//! This is the reproduction of the paper's chip verification (Section 6.2):
//! the same encoded pulse streams that drive the behavioural model are
//! injected into the *cell-level* chip netlist (state controllers, ripple
//! chains, cross-point switches — every SPL, CB, TFF and NDRO), simulated
//! event by event with Table 1 timing checks, and the output pulse trains
//! are compared against the behavioural prediction.

use std::ops::Range;
use sushi_arch::chip::{ChipConfig, ChipNetlist};
use sushi_cells::{CellLibrary, Ps};
use sushi_sim::{
    BatchReport, BatchRunner, EvalOptions, Fault, PulseTrain, SimConfig, SimError, SimOutcome,
};
use sushi_ssnn::binarize::BinaryLayer;
use sushi_ssnn::encode::StepEncoder;

/// A small chip whose netlist is simulated at cell granularity.
///
/// # Examples
///
/// ```
/// use sushi_core::CellAccurateChip;
/// use sushi_ssnn::binarize::BinaryLayer;
///
/// let chip = CellAccurateChip::build(2, 3).unwrap();
/// let layer = BinaryLayer::from_signs(vec![1, 1, 1, -1], 2, 2, vec![2, 1]);
/// let r = chip.run_column_block(&layer, 0..2, &[true, true]).unwrap();
/// assert_eq!(r.fired, chip.expected_column_block(&layer, 0..2, &[true, true]));
/// assert_eq!(r.violations, 0);
/// ```
#[derive(Debug, Clone)]
pub struct CellAccurateChip {
    chip: ChipNetlist,
    library: CellLibrary,
    /// The chip's faults and jitter.
    config: SimConfig,
    /// Netlist input name per [`StepEncoder`] channel id, resolved once.
    channels: Vec<String>,
}

/// Results of a batched [`CellAccurateChip::run_column_blocks`] call:
/// the per-job outcomes plus, when requested via
/// [`EvalOptions::report`](sushi_sim::EvalOptions), the worker pool's
/// metrics report.
#[derive(Debug, Clone)]
pub struct CellBatchRun {
    /// Per-job results, in job order.
    pub results: Vec<CellRunResult>,
    /// Pool metrics, present only when requested.
    pub report: Option<BatchReport>,
}

/// Result of one cell-accurate column-block run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRunResult {
    /// Whether each column neuron emitted at least one spike.
    pub fired: Vec<bool>,
    /// Output pulse trains per column (for waveform comparison).
    pub out_trains: Vec<PulseTrain>,
    /// Timing/logical violations observed.
    pub violations: usize,
    /// Schedule end time, ps.
    pub end_ps: Ps,
}

impl CellAccurateChip {
    /// Builds an `n x n` mesh chip with `sc_per_npe`-bit counters.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8` (cell-accurate runs are for verification-scale
    /// chips).
    pub fn build(n: usize, sc_per_npe: usize) -> Result<Self, sushi_sim::NetlistError> {
        let design = ChipConfig::mesh(n).with_sc_per_npe(sc_per_npe).build();
        let encoder = StepEncoder::new(n, 1u64 << sc_per_npe);
        Ok(Self {
            chip: design.build_netlist()?,
            library: CellLibrary::nb03(),
            config: SimConfig::new(),
            channels: (0..encoder.channel_count())
                .map(|id| encoder.channel_name(id))
                .collect(),
        })
    }

    /// Adds deterministic Gaussian timing jitter (fabrication spread) to
    /// every simulated cell delay (builder style). The spread belongs to
    /// the chip, so every job of a run sees the same `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ps` is negative.
    pub fn with_jitter(mut self, seed: u64, sigma_ps: Ps) -> Self {
        self.config = self.config.jitter(seed, sigma_ps);
        self
    }

    /// Injects a fabrication defect into every cell whose label contains
    /// `label_fragment` (builder style). Used by failure-injection tests to
    /// prove that the waveform-verification flow catches broken chips.
    ///
    /// # Panics
    ///
    /// Panics if no cell label matches.
    pub fn with_fault(mut self, label_fragment: &str, fault: Fault) -> Self {
        let matches: Vec<_> = self
            .chip
            .netlist
            .cells()
            .filter(|(_, c)| c.label.contains(label_fragment))
            .map(|(id, _)| id)
            .collect();
        assert!(
            !matches.is_empty(),
            "no cell label contains {label_fragment:?}"
        );
        self.config = matches
            .into_iter()
            .fold(self.config, |config, id| config.fault(id, fault));
        self
    }

    /// Mesh width.
    pub fn n(&self) -> usize {
        self.chip.n
    }

    /// Counter states per NPE.
    pub fn num_states(&self) -> u64 {
        1u64 << self.chip.sc_per_npe
    }

    /// Number of cells in the netlist.
    pub fn cell_count(&self) -> usize {
        self.chip.netlist.cell_count()
    }

    /// Runs one time step of `layer` restricted to the column block
    /// `cols`, iterating over all row blocks with counter state preserved
    /// between them (the bit-slice method on real cells). A one-job
    /// [`CellAccurateChip::run_column_blocks`] call on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is wider than the chip or `active` mismatches the
    /// layer.
    pub fn run_column_block(
        &self,
        layer: &BinaryLayer,
        cols: Range<usize>,
        active: &[bool],
    ) -> Result<CellRunResult, SimError> {
        let jobs = [(cols, active.to_vec())];
        let mut run = self.run_column_blocks(layer, &jobs, &EvalOptions::new().workers(1))?;
        Ok(run.results.pop().expect("one job, one result"))
    }

    /// Runs many independent column-block time steps in one call, fanned
    /// across the [`BatchRunner`] worker pool under `opts` (worker count,
    /// optional metrics report). Each job is a `(column range, active
    /// inputs)` pair as in [`CellAccurateChip::run_column_block`]; results
    /// come back in job order, bitwise identical to running the jobs one
    /// by one on fresh simulators.
    ///
    /// Each worker builds one simulator from the chip's faults and jitter
    /// and one [`StepEncoder`], and reuses both for its jobs: a job is
    /// encoded on the worker that simulates it. Jitter belongs to the
    /// chip, so every job sees the chip's seed.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the earliest failing job.
    ///
    /// # Panics
    ///
    /// Panics as [`CellAccurateChip::run_column_block`] does on malformed
    /// jobs.
    pub fn run_column_blocks(
        &self,
        layer: &BinaryLayer,
        jobs: &[(Range<usize>, Vec<bool>)],
        opts: &EvalOptions,
    ) -> Result<CellBatchRun, SimError> {
        for (cols, active) in jobs {
            assert!(cols.len() <= self.n(), "column block wider than the chip");
            assert_eq!(active.len(), layer.inputs(), "active width mismatch");
        }
        let runner = BatchRunner::new(&self.chip.netlist, &self.library)
            .with_config(&self.config)
            .with_workers(opts.resolve_workers());
        let (staged, report) = runner.run_each(
            jobs.len(),
            opts.report,
            || StepEncoder::new(self.n(), self.num_states()),
            |enc, sim, i| {
                let (cols, active) = &jobs[i];
                let end_ps = enc.encode(layer, cols.clone(), active);
                for (id, times) in enc.trains() {
                    sim.inject(&self.channels[id], times)?;
                }
                Ok(end_ps)
            },
        )?;
        let results = staged
            .into_iter()
            .zip(jobs)
            .map(|((end_ps, outcome), (cols, _))| Self::package(cols.len(), end_ps, outcome))
            .collect();
        Ok(CellBatchRun { results, report })
    }

    fn package(width: usize, end_ps: Ps, outcome: SimOutcome) -> CellRunResult {
        let out_trains: Vec<PulseTrain> = (0..width)
            .map(|cj| PulseTrain::from_times(outcome.pulses(&format!("out{cj}")).to_vec()))
            .collect();
        CellRunResult {
            fired: out_trains.iter().map(|tr| !tr.is_empty()).collect(),
            out_trains,
            violations: outcome.violations.len(),
            end_ps,
        }
    }

    /// The behavioural prediction for [`CellAccurateChip::run_column_block`]:
    /// hardware first-crossing semantics with the encoder's ascending-row
    /// visit order and this chip's counter capacity.
    pub fn expected_column_block(
        &self,
        layer: &BinaryLayer,
        cols: Range<usize>,
        active: &[bool],
    ) -> Vec<bool> {
        cols.map(|j| {
            let theta = layer.threshold(j).max(1);
            let capacity = self.num_states() as i64;
            let underflow_at = -(capacity - theta.min(capacity));
            let mut v = 0i64;
            let mut fired = false;
            for (i, &a) in active.iter().enumerate() {
                if !a {
                    continue;
                }
                v += i64::from(layer.sign(i, j));
                if (theta <= capacity && v >= theta) || v <= underflow_at {
                    fired = true;
                }
            }
            fired
        })
        .collect()
    }

    /// Runs a full layer step: every column block, batched across the
    /// worker pool. Returns the spike vector of the layer's output
    /// neurons, identical to running the blocks one by one.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_layer(&self, layer: &BinaryLayer, active: &[bool]) -> Result<Vec<bool>, SimError> {
        let jobs: Vec<(Range<usize>, Vec<bool>)> = (0..layer.outputs())
            .step_by(self.n())
            .map(|c0| (c0..(c0 + self.n()).min(layer.outputs()), active.to_vec()))
            .collect();
        Ok(self
            .run_column_blocks(layer, &jobs, &EvalOptions::default())?
            .results
            .into_iter()
            .flat_map(|r| r.fired)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_sim::StimulusBuilder;
    use sushi_ssnn::bitslice::Slice;
    use sushi_ssnn::encode::{SliceEncoder, SETTLE_PS};

    #[test]
    fn single_slice_matches_expected_for_all_input_masks() {
        let chip = CellAccurateChip::build(2, 3).unwrap();
        let layer = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![2, 1]);
        for mask in 0..4u32 {
            let active: Vec<bool> = (0..2).map(|b| mask >> b & 1 == 1).collect();
            let r = chip.run_column_block(&layer, 0..2, &active).unwrap();
            assert_eq!(
                r.fired,
                chip.expected_column_block(&layer, 0..2, &active),
                "mask {mask:02b}"
            );
            assert_eq!(r.violations, 0, "mask {mask:02b}");
        }
    }

    #[test]
    fn multi_row_block_state_preservation() {
        // 6 inputs on a 2-wide chip: 3 row blocks must accumulate.
        let chip = CellAccurateChip::build(2, 4).unwrap();
        let signs = vec![1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1];
        let layer = BinaryLayer::from_signs(signs, 6, 2, vec![3, 2]);
        let active = vec![true; 6];
        let r = chip.run_column_block(&layer, 0..2, &active).unwrap();
        assert_eq!(r.fired, chip.expected_column_block(&layer, 0..2, &active));
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn inhibition_prevents_firing() {
        let chip = CellAccurateChip::build(2, 4).unwrap();
        // Neuron 0: +1, -1, -1, +1 -> never reaches threshold 2.
        let layer = BinaryLayer::from_signs(vec![1, 1, -1, 1, -1, 1, 1, 1], 4, 2, vec![2, 3]);
        let active = vec![true; 4];
        let r = chip.run_column_block(&layer, 0..2, &active).unwrap();
        let expected = chip.expected_column_block(&layer, 0..2, &active);
        assert_eq!(r.fired, expected);
        assert!(!r.fired[0], "inhibited neuron must stay silent");
    }

    /// Regression: row blocks with no active inputs emit no pulses, and
    /// the schedule time must keep moving forward past them (an empty
    /// slice once reset the clock and made later control pulses collide
    /// with earlier ones).
    #[test]
    fn sparse_activity_across_row_blocks_is_violation_free() {
        let chip = CellAccurateChip::build(2, 5).unwrap();
        // 10 inputs = 5 row blocks; only the first and last have activity,
        // with opposite polarities to force a late reconfiguration.
        let mut signs = vec![1i8; 20];
        signs[0] = -1; // (row 0, col 0) inhibitory
        let layer = BinaryLayer::from_signs(signs, 10, 2, vec![2, 2]);
        let mut active = vec![false; 10];
        active[0] = true;
        active[9] = true;
        let run = chip.run_column_block(&layer, 0..2, &active).unwrap();
        assert_eq!(
            run.violations, 0,
            "empty middle blocks must not rewind time"
        );
        assert_eq!(run.fired, chip.expected_column_block(&layer, 0..2, &active));
    }

    /// Fabrication-spread robustness: the encoder's safe margins absorb
    /// picosecond-scale delay jitter — the jittered chip still matches the
    /// behavioural prediction with zero timing violations.
    #[test]
    fn small_jitter_does_not_change_results() {
        let layer = BinaryLayer::from_signs(vec![1, -1, 1, 1, 1, -1, 1, 1], 4, 2, vec![2, 2]);
        let active = vec![true; 4];
        for seed in 0..5u64 {
            let chip = CellAccurateChip::build(2, 4)
                .unwrap()
                .with_jitter(seed, 2.0);
            let run = chip.run_column_block(&layer, 0..2, &active).unwrap();
            assert_eq!(
                run.fired,
                chip.expected_column_block(&layer, 0..2, &active),
                "seed {seed}"
            );
            assert_eq!(run.violations, 0, "seed {seed}");
        }
    }

    /// Failure injection: a chip with a dead carry cell produces outputs
    /// that the verification flow flags as inconsistent with simulation.
    #[test]
    fn verification_catches_a_faulty_chip() {
        // Neuron 0 must fire (sum 2 >= threshold 2) on a healthy chip.
        let layer = BinaryLayer::from_signs(vec![1, 1, 1, 1], 2, 2, vec![2, 3]);
        let active = vec![true, true];
        let healthy = CellAccurateChip::build(2, 3).unwrap();
        let expected = healthy.expected_column_block(&layer, 0..2, &active);
        let ok = healthy.run_column_block(&layer, 0..2, &active).unwrap();
        assert_eq!(ok.fired, expected);
        assert!(expected[0], "test needs a firing neuron");
        // Break the final SC of NPE0's chain: the spike never escapes.
        let broken = CellAccurateChip::build(2, 3)
            .unwrap()
            .with_fault("npe0.sc2.cb_out", Fault::DropOutput);
        let bad = broken.run_column_block(&layer, 0..2, &active).unwrap();
        assert_ne!(bad.fired, expected, "verification must expose the defect");
        assert!(!bad.fired[0]);
    }

    /// The batched path must reproduce the sequential per-block runs
    /// bitwise, including pulse trains and violation counts.
    #[test]
    fn batched_blocks_match_sequential_runs() {
        let chip = CellAccurateChip::build(2, 4).unwrap();
        let signs = vec![1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1];
        let layer = BinaryLayer::from_signs(signs, 6, 2, vec![3, 2]);
        let jobs: Vec<(std::ops::Range<usize>, Vec<bool>)> = (0..8u32)
            .map(|mask| {
                (
                    0..2usize,
                    (0..6).map(|b| mask >> (b % 3) & 1 == 1).collect(),
                )
            })
            .collect();
        let batched = chip
            .run_column_blocks(&layer, &jobs, &EvalOptions::default())
            .unwrap();
        assert!(batched.report.is_none(), "report not requested");
        for (job, got) in jobs.iter().zip(&batched.results) {
            let seq = chip
                .run_column_block(&layer, job.0.clone(), &job.1)
                .unwrap();
            assert_eq!(*got, seq);
        }
    }

    /// Requesting a report yields pool metrics consistent with the jobs,
    /// on a faulty chip too: faults take the same batched path.
    #[test]
    fn batched_blocks_report_metrics_when_asked() {
        let chip = CellAccurateChip::build(2, 3).unwrap();
        let layer = BinaryLayer::from_signs(vec![1, 1, 1, 1], 2, 2, vec![2, 1]);
        let jobs: Vec<(std::ops::Range<usize>, Vec<bool>)> =
            (0..4).map(|_| (0..2usize, vec![true, true])).collect();
        let opts = EvalOptions::new().workers(2).report(true);
        let run = chip.run_column_blocks(&layer, &jobs, &opts).unwrap();
        let report = run.report.expect("report requested");
        assert_eq!(report.items, 4);
        assert_eq!(report.hot_cells.len(), sushi_sim::HOT_CELLS);
        assert!(report.events_delivered > 0);
        // A faulty chip reports as well, and its batch equals its per-job runs.
        let broken = CellAccurateChip::build(2, 3)
            .unwrap()
            .with_fault("npe0.sc2.cb_out", Fault::DropOutput);
        let faulty = broken.run_column_blocks(&layer, &jobs, &opts).unwrap();
        assert!(faulty.report.is_some());
        assert_eq!(faulty.results.len(), 4);
        for ((cols, active), got) in jobs.iter().zip(&faulty.results) {
            let per_job = broken
                .run_column_block(&layer, cols.clone(), active)
                .unwrap();
            assert_eq!(*got, per_job);
        }
    }

    /// The string-keyed encoding and a fresh simulator per job built from
    /// the chip's faults and jitter: the semantics every batched run must
    /// reproduce.
    fn fresh_run(
        chip: &CellAccurateChip,
        layer: &BinaryLayer,
        cols: Range<usize>,
        active: &[bool],
    ) -> CellRunResult {
        let n = chip.n();
        let mut enc = SliceEncoder::new(cols.len(), chip.num_states());
        let mut b = StimulusBuilder::with_min_interval(0.0);
        let mut t = 0.0;
        for r0 in (0..layer.inputs()).step_by(n) {
            let rows = r0..(r0 + n).min(layer.inputs());
            let fires = rows.end == layer.inputs();
            let slice = Slice {
                layer: 0,
                rows,
                cols: cols.clone(),
                fires,
            };
            let sched = enc.next_slice(layer, &slice, active, t);
            for (channel, times) in sched.by_channel() {
                for time in times {
                    b = b.pulse(&channel, time).unwrap();
                }
            }
            t = sched.end_time().max(t) + SETTLE_PS;
        }
        let mut sim = chip.config.clone().build(&chip.chip.netlist, &chip.library);
        b.build().inject_into(&mut sim).unwrap();
        sim.run_to_completion().unwrap();
        CellAccurateChip::package(cols.len(), t, sim.take_outcome())
    }

    /// Faulty and jittered chips take the batched path, and at every
    /// worker count, with and without a report, it equals per-job runs
    /// and fresh simulators bitwise. Identical jobs at different indices
    /// get identical results: every job sees the chip's jitter seed.
    #[test]
    fn faulty_and_jittered_batches_match_per_job_runs() {
        let signs = vec![1, 1, -1, 1, -1, 1, 1, 1, 1, -1, 1, 1, 1, 1, -1, 1, 1, 1];
        let layer = BinaryLayer::from_signs(signs, 6, 3, vec![2, 1, 3]);
        let mut jobs: Vec<(Range<usize>, Vec<bool>)> = (0..6u32)
            .flat_map(|mask| {
                let active: Vec<bool> = (0..6).map(|b| (mask + 1) >> (b % 3) & 1 == 1).collect();
                [(0..2, active.clone()), (2..3, active)]
            })
            .collect();
        jobs.push(jobs[0].clone());
        let healthy = CellAccurateChip::build(2, 3).unwrap();
        let faulty = CellAccurateChip::build(2, 3)
            .unwrap()
            .with_fault("npe0.sc2.cb_out", Fault::DropOutput);
        let jittered = CellAccurateChip::build(2, 3).unwrap().with_jitter(7, 2.0);
        let nominal: Vec<CellRunResult> = jobs
            .iter()
            .map(|(cols, active)| {
                healthy
                    .run_column_block(&layer, cols.clone(), active)
                    .unwrap()
            })
            .collect();
        for (name, chip) in [("faulty", &faulty), ("jittered", &jittered)] {
            let per_job: Vec<CellRunResult> = jobs
                .iter()
                .map(|(cols, active)| chip.run_column_block(&layer, cols.clone(), active).unwrap())
                .collect();
            for ((cols, active), got) in jobs.iter().zip(&per_job) {
                assert_eq!(
                    *got,
                    fresh_run(chip, &layer, cols.clone(), active),
                    "{name}"
                );
            }
            assert_eq!(per_job[0], per_job[jobs.len() - 1], "{name}");
            assert_ne!(
                per_job, nominal,
                "{name} chip must differ from the healthy one"
            );
            for workers in [1, 2, 3] {
                for report in [false, true] {
                    let opts = EvalOptions::new().workers(workers).report(report);
                    let run = chip.run_column_blocks(&layer, &jobs, &opts).unwrap();
                    assert_eq!(
                        run.results, per_job,
                        "{name} workers={workers} report={report}"
                    );
                    assert_eq!(run.report.is_some(), report, "{name}");
                }
            }
        }
    }

    /// Every channel id the step encoder can emit names an input of the
    /// chip netlist.
    #[test]
    fn every_encoder_channel_is_a_chip_input() {
        for (n, sc) in [(1, 3), (2, 3), (4, 6)] {
            let chip = CellAccurateChip::build(n, sc).unwrap();
            let inputs = chip.chip.netlist.inputs();
            for name in &chip.channels {
                assert!(inputs.contains_key(name), "{name} on {n}x{n}");
            }
        }
    }

    #[test]
    fn run_layer_covers_all_columns() {
        let chip = CellAccurateChip::build(2, 3).unwrap();
        // 3 output neurons on a 2-wide chip: two column blocks.
        let layer = BinaryLayer::from_signs(vec![1, 1, 1, 1, 1, 1], 2, 3, vec![1, 2, 3]);
        let fired = chip.run_layer(&layer, &[true, true]).unwrap();
        assert_eq!(fired.len(), 3);
        // Sums are 2, 2, 2 against thresholds 1, 2, 3.
        assert_eq!(fired, vec![true, true, false]);
    }
}
