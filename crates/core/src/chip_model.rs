//! The behavioural SUSHI chip executor.
//!
//! [`SushiChip`] binds an architectural [`ChipDesign`] (resources, timing,
//! power) to a compiled [`ChipProgram`] (binarized network, bucketed
//! orders, bit-slice schedule) and executes inference with the hardware's
//! first-crossing counter semantics, while accounting time the way the
//! chip would spend it (synaptic pipeline + weight reloads, discounted by
//! slice utilization).

use crate::report::{EvalReport, EvalWorkerMetrics};
use std::time::Instant;
use sushi_arch::chip::ChipDesign;
use sushi_arch::ChipConfig;
use sushi_arch::PerfModel;
use sushi_par::fan_out;
use sushi_sim::EvalOptions;
use sushi_snn::data::Dataset;
use sushi_snn::metrics::accuracy;
use sushi_ssnn::reload::{breakdown, ReloadBreakdown};
use sushi_ssnn::stateless::ExecStats;
use sushi_ssnn::{argmax_low, ChipProgram, SsnnExecutor};

/// Result of one inference on the chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceOutcome {
    /// Predicted class.
    pub prediction: usize,
    /// Output spike counts per class over the time steps.
    pub counts: Vec<u32>,
    /// Hardware-semantics execution statistics.
    pub stats: ExecStats,
}

/// Result of evaluating a whole dataset on the chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipEvaluation {
    /// Classification accuracy.
    pub accuracy: f64,
    /// Predicted class per sample.
    pub predictions: Vec<usize>,
    /// Cumulative execution statistics.
    pub stats: ExecStats,
    /// Compute/reload time breakdown.
    pub reload: ReloadBreakdown,
    /// Throughput metrics, present only when requested via
    /// [`EvalOptions::report`] (wall-clock times would otherwise break
    /// bitwise comparisons between runs).
    pub report: Option<EvalReport>,
}

/// The behavioural chip: a [`ChipDesign`] executing [`ChipProgram`]s.
///
/// # Examples
///
/// ```
/// use sushi_core::SushiChip;
///
/// let chip = SushiChip::paper();
/// assert_eq!(chip.design().npe_count(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct SushiChip {
    design: ChipDesign,
}

impl SushiChip {
    /// The paper's peak evaluation configuration: a 16x16 bare-NPE mesh
    /// (32 NPEs, ~1e5 JJs).
    pub fn paper() -> Self {
        Self {
            design: ChipConfig::mesh(16).build(),
        }
    }

    /// A chip from an explicit design.
    pub fn with_design(design: ChipDesign) -> Self {
        Self { design }
    }

    /// The underlying architectural design.
    pub fn design(&self) -> &ChipDesign {
        &self.design
    }

    /// Runs one sample through `program` with hardware semantics.
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled for a different chip width.
    pub fn run_sample(
        &self,
        program: &ChipProgram,
        image: &[f32],
        sample_id: u64,
    ) -> InferenceOutcome {
        self.check_program(program);
        Self::sample_on(&program.executor(), program, image, sample_id)
    }

    /// Runs one sample through `exec`, an executor built from `program`.
    fn sample_on(
        exec: &SsnnExecutor<'_>,
        program: &ChipProgram,
        image: &[f32],
        sample_id: u64,
    ) -> InferenceOutcome {
        let frames = program.encode_input(image, sample_id);
        let (counts, stats) = exec.forward_counts(&frames);
        let prediction = argmax_low(&counts);
        InferenceOutcome {
            prediction,
            counts,
            stats,
        }
    }

    /// Evaluates `program` over `data` under `opts`: worker count (auto by
    /// default) and optional throughput reporting. Sample ids are dataset
    /// indices, numbered as [`TrainedSnn::predict_all`] numbers them, so
    /// the chip sees the Poisson inputs the float reference saw.
    /// Deterministic: samples are independent, assigned to workers in
    /// contiguous chunks and merged back in dataset order, so the result
    /// is bitwise identical regardless of the worker count.
    ///
    /// [`TrainedSnn::predict_all`]: sushi_snn::train::TrainedSnn::predict_all
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled for a different chip width, or
    /// if a worker thread panics.
    pub fn evaluate(
        &self,
        program: &ChipProgram,
        data: &Dataset,
        opts: &EvalOptions,
    ) -> ChipEvaluation {
        self.check_program(program);
        let t0 = Instant::now();
        // The executor's visit orders depend on the program alone: build
        // them once and share them across the workers.
        let exec = program.executor();
        let mut slots: Vec<Option<InferenceOutcome>> = vec![None; data.len()];
        // Per worker: samples run and busy wall seconds.
        let chunks = fan_out(&mut slots, opts.resolve_workers(), 1, |r, out| {
            let w0 = Instant::now();
            for ((i, img), slot) in r.clone().zip(&data.images[r.clone()]).zip(out) {
                *slot = Some(Self::sample_on(&exec, program, img, i as u64));
            }
            (r.len(), w0.elapsed().as_secs_f64())
        });
        let outcomes: Vec<InferenceOutcome> = slots
            .into_iter()
            .map(|slot| slot.expect("every slot written by its worker"))
            .collect();
        // Merge in dataset order — the same fold the sequential loop does.
        let mut predictions = Vec::with_capacity(data.len());
        let mut stats = ExecStats::default();
        for outcome in outcomes {
            predictions.push(outcome.prediction);
            stats.merge(&outcome.stats);
        }
        let reload = breakdown(&stats, self.design.n());
        let report = opts
            .report
            .then(|| Self::make_report(data.len(), &chunks, t0.elapsed().as_secs_f64()));
        ChipEvaluation {
            accuracy: accuracy(&predictions, &data.labels),
            predictions,
            stats,
            reload,
            report,
        }
    }

    fn make_report(samples: usize, chunks: &[(usize, f64)], wall_s: f64) -> EvalReport {
        let workers: Vec<EvalWorkerMetrics> = chunks
            .iter()
            .enumerate()
            .map(|(wi, &(count, w))| EvalWorkerMetrics {
                worker: wi,
                samples: count,
                wall_s: w,
                samples_per_s: if w > 0.0 { count as f64 / w } else { 0.0 },
            })
            .collect();
        let max_wall = workers.iter().map(|w| w.wall_s).fold(0.0, f64::max);
        let busy: f64 = workers.iter().map(|w| w.wall_s).sum();
        EvalReport {
            samples,
            wall_s,
            samples_per_s: if wall_s > 0.0 {
                samples as f64 / wall_s
            } else {
                0.0
            },
            utilization: if workers.is_empty() || max_wall <= 0.0 {
                1.0
            } else {
                busy / (workers.len() as f64 * max_wall)
            },
            workers,
        }
    }

    /// Estimated sustained frames per second for `program` on this chip,
    /// combining the peak synaptic rate, the reload share and the
    /// program's actual slice utilization.
    pub fn estimated_fps(&self, program: &ChipProgram) -> f64 {
        let perf = PerfModel::new(&self.design);
        let synops_per_frame: u64 = program
            .net
            .layers()
            .iter()
            .map(|l| (l.inputs() * l.outputs()) as u64)
            .sum::<u64>()
            * program.time_steps as u64;
        let peak = perf.gsops() * 1e9;
        let effective = peak
            * (1.0 - sushi_arch::power::RELOAD_TIME_SHARE)
            * program.schedule.utilization()
            * sushi_arch::power::SLICE_TRANSITION_EFFICIENCY;
        effective / synops_per_frame as f64
    }

    /// Estimated end-to-end latency of one inference in microseconds
    /// (the reciprocal of the sustained frame rate).
    pub fn estimated_latency_us(&self, program: &ChipProgram) -> f64 {
        1e6 / self.estimated_fps(program)
    }

    fn check_program(&self, program: &ChipProgram) {
        assert_eq!(
            program.config.chip_n,
            self.design.n(),
            "program compiled for a {}-wide chip, this chip is {} wide",
            program.config.chip_n,
            self.design.n()
        );
        assert_eq!(
            program.config.sc_per_npe,
            self.design.sc_per_npe(),
            "program counter depth mismatches the chip"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_snn::data::synth_digits;
    use sushi_snn::train::{TrainConfig, Trainer};
    use sushi_ssnn::compiler::{Compiler, CompilerConfig};

    fn tiny_program() -> (ChipProgram, sushi_snn::train::TrainedSnn) {
        let data = synth_digits(200, 4);
        let mut cfg = TrainConfig::tiny_binary();
        cfg.epochs = 4;
        let model = Trainer::new(cfg).fit(&data);
        let program = Compiler::new(CompilerConfig::paper()).compile(&model);
        (program, model)
    }

    #[test]
    fn run_sample_returns_valid_outcome() {
        let (program, _) = tiny_program();
        let chip = SushiChip::paper();
        let img = synth_digits(1, 9).images[0].clone();
        let out = chip.run_sample(&program, &img, 0);
        assert!(out.prediction < 10);
        assert_eq!(out.counts.len(), 10);
        assert!(out.stats.neuron_steps > 0);
    }

    #[test]
    fn evaluate_beats_chance_on_training_distribution() {
        let (program, _) = tiny_program();
        let chip = SushiChip::paper();
        let data = synth_digits(40, 4);
        let eval = chip.evaluate(&program, &data, &EvalOptions::default());
        assert!(eval.accuracy > 0.3, "accuracy {}", eval.accuracy);
        assert_eq!(eval.predictions.len(), 40);
        assert!(eval.reload.reload_share() < 0.6);
        assert!(eval.report.is_none());
    }

    /// The parallel evaluation is bitwise identical to the sequential one
    /// for any worker count.
    #[test]
    fn evaluate_is_worker_count_invariant() {
        let (program, _) = tiny_program();
        let chip = SushiChip::paper();
        let data = synth_digits(30, 4);
        let reference = chip.evaluate(&program, &data, &EvalOptions::new().workers(1));
        for workers in [2, 4, 7] {
            let got = chip.evaluate(&program, &data, &EvalOptions::new().workers(workers));
            assert_eq!(got, reference, "workers={workers}");
        }
        assert_eq!(
            chip.evaluate(&program, &data, &EvalOptions::default()),
            reference
        );
    }

    /// Requesting a report fills it in with per-worker metrics that add up.
    #[test]
    fn evaluate_report_covers_all_samples() {
        let (program, _) = tiny_program();
        let chip = SushiChip::paper();
        let data = synth_digits(10, 4);
        // Every configured worker gets a near-equal share: 10 samples on
        // 6 workers run as 2,2,2,2,1,1, not as five chunks of 2.
        for workers in [3, 6] {
            let opts = EvalOptions::new().workers(workers).report(true);
            let eval = chip.evaluate(&program, &data, &opts);
            let report = eval.report.expect("report requested");
            assert_eq!(report.samples, 10);
            assert_eq!(report.workers.len(), workers.min(10), "workers={workers}");
            let loads: Vec<usize> = report.workers.iter().map(|w| w.samples).collect();
            assert_eq!(loads.iter().sum::<usize>(), 10, "workers={workers}");
            let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            assert!(max - min <= 1, "workers={workers}: {loads:?}");
            assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        }
    }

    #[test]
    fn fps_estimate_is_in_paper_ballpark() {
        // The Table 3 network on the peak chip: paper reports 2.61e5 FPS.
        let (program, _) = tiny_program();
        let chip = SushiChip::paper();
        let fps = chip.estimated_fps(&program);
        // The tiny model has a smaller hidden layer, so FPS is higher than
        // the paper's 784-800-10 figure, but the same order of magnitude.
        assert!(fps > 1e5 && fps < 1e8, "fps {fps}");
    }

    #[test]
    fn latency_is_reciprocal_of_fps() {
        let (program, _) = tiny_program();
        let chip = SushiChip::paper();
        let fps = chip.estimated_fps(&program);
        let lat = chip.estimated_latency_us(&program);
        assert!((lat * fps - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "wide")]
    fn mismatched_chip_width_panics() {
        let (program, _) = tiny_program();
        let chip = SushiChip::with_design(ChipConfig::mesh(4).build());
        let img = vec![0.0f32; 784];
        let _ = chip.run_sample(&program, &img, 0);
    }
}
