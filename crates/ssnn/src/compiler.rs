//! The offline compilation phase of Fig. 12: trained float SNN in,
//! chip-executable program out.
//!
//! Pipeline: XNOR binarization with threshold folding → per-neuron synapse
//! bucketing/reordering → bit-slice schedule for the target chip width.

use crate::binarize::BinarizedSnn;
use crate::bitslice::SliceSchedule;
use crate::stateless::{FireSemantics, SsnnExecutor};
use sushi_snn::encoding::PoissonEncoder;
use sushi_snn::train::TrainedSnn;

/// Compiler parameters (the target chip's shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerConfig {
    /// Mesh width `n` of the target chip.
    pub chip_n: usize,
    /// State controllers per NPE (counter bits).
    pub sc_per_npe: usize,
    /// Bucketing factor for synapse reordering.
    pub buckets: usize,
}

impl CompilerConfig {
    /// The paper's evaluation chip: 16x16 mesh, 10-SC NPEs, 16 buckets.
    pub fn paper() -> Self {
        Self {
            chip_n: 16,
            sc_per_npe: 10,
            buckets: 16,
        }
    }

    /// Counter states per NPE.
    pub fn num_states(&self) -> u64 {
        1u64 << self.sc_per_npe
    }
}

/// Compiles trained models into [`ChipProgram`]s.
///
/// # Examples
///
/// ```
/// use sushi_snn::data::synth_digits;
/// use sushi_snn::train::{TrainConfig, Trainer};
/// use sushi_ssnn::{Compiler, compiler::CompilerConfig};
///
/// let data = synth_digits(50, 2);
/// let mut cfg = TrainConfig::tiny();
/// cfg.epochs = 1;
/// let model = Trainer::new(cfg).fit(&data);
/// let program = Compiler::new(CompilerConfig::paper()).compile(&model);
/// assert_eq!(program.net.classes(), 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Compiler {
    config: CompilerConfig,
}

impl Compiler {
    /// A compiler for the given target chip.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized chip or counter.
    pub fn new(config: CompilerConfig) -> Self {
        assert!(config.chip_n > 0, "chip width must be positive");
        assert!(
            config.sc_per_npe > 0 && config.sc_per_npe < 32,
            "counter bits in 1..=31"
        );
        assert!(config.buckets > 0, "need at least one bucket");
        Self { config }
    }

    /// Compiles `model` into a chip program.
    pub fn compile(&self, model: &TrainedSnn) -> ChipProgram {
        let net = BinarizedSnn::from_trained(model);
        let schedule = SliceSchedule::for_network(&net, self.config.chip_n);
        ChipProgram {
            net,
            schedule,
            config: self.config,
            time_steps: model.config.time_steps,
            encoder_seed: model.config.seed,
        }
    }
}

/// A compiled, chip-executable program: the binarized network, its slice
/// schedule, and the encoding parameters shared with the float reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipProgram {
    /// The binarized network.
    pub net: BinarizedSnn,
    /// The bit-slice schedule for the target chip.
    pub schedule: SliceSchedule,
    /// The chip shape it was compiled for.
    pub config: CompilerConfig,
    /// Simulation time steps per sample.
    pub time_steps: usize,
    /// Poisson-encoder seed (shared with the float reference so both see
    /// identical spike trains).
    pub encoder_seed: u64,
}

impl ChipProgram {
    /// The hardware-semantics executor for this program.
    pub fn executor(&self) -> SsnnExecutor<'_> {
        SsnnExecutor::new(
            &self.net,
            FireSemantics::FirstCrossing,
            self.config.num_states(),
            self.config.buckets,
        )
    }

    /// The software-reference executor (same orders, end-of-step firing).
    pub fn reference_executor(&self) -> SsnnExecutor<'_> {
        SsnnExecutor::new(
            &self.net,
            FireSemantics::EndOfStep,
            self.config.num_states(),
            self.config.buckets,
        )
    }

    /// Poisson-encodes a sample into binary frames with the shared
    /// convention (`sample_id` = dataset index).
    pub fn encode_input(&self, image: &[f32], sample_id: u64) -> Vec<Vec<bool>> {
        let enc = PoissonEncoder::new(self.encoder_seed);
        enc.encode(image, self.time_steps, sample_id)
            .into_iter()
            .map(|m| m.as_slice().iter().map(|&v| v > 0.5).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_snn::data::synth_digits;
    use sushi_snn::train::{TrainConfig, Trainer};

    fn tiny_model() -> TrainedSnn {
        let data = synth_digits(200, 4);
        let mut cfg = TrainConfig::tiny_binary();
        cfg.epochs = 6;
        Trainer::new(cfg).fit(&data)
    }

    #[test]
    fn compile_produces_consistent_shapes() {
        let model = tiny_model();
        let program = Compiler::new(CompilerConfig::paper()).compile(&model);
        assert_eq!(program.net.layers()[0].inputs(), 784);
        assert_eq!(program.net.classes(), 10);
        assert_eq!(program.schedule.chip_width(), 16);
        assert!(!program.schedule.is_empty());
    }

    #[test]
    fn chip_predictions_mostly_agree_with_float_reference() {
        let model = tiny_model();
        // Evaluate on the training distribution (same generator seed).
        let data = synth_digits(40, 4);
        let program = Compiler::new(CompilerConfig::paper()).compile(&model);
        let float_preds = model.predict_all(&data);
        let mut agree = 0;
        for (i, img) in data.images.iter().enumerate() {
            let frames = program.encode_input(img, i as u64);
            let (p, _) = program.executor().predict(&frames);
            if p == float_preds[i] {
                agree += 1;
            }
        }
        // Binarization costs some consistency but not most of it.
        assert!(agree >= 20, "only {agree}/40 consistent");
    }

    #[test]
    fn hardware_and_reference_executors_share_orders() {
        let model = tiny_model();
        let program = Compiler::new(CompilerConfig::paper()).compile(&model);
        let data = synth_digits(10, 9);
        for (i, img) in data.images.iter().enumerate() {
            let frames = program.encode_input(img, i as u64);
            let (hw, stats) = program.executor().predict(&frames);
            let (sw, _) = program.reference_executor().predict(&frames);
            // With 1024 states and bucketing, hazards are rare; when none
            // occurred the answers must match exactly.
            if stats.premature_fires == 0 && stats.underflows == 0 {
                assert_eq!(hw, sw, "sample {i}");
            }
        }
    }

    #[test]
    fn encode_input_is_binary_and_deterministic() {
        let model = tiny_model();
        let program = Compiler::new(CompilerConfig::paper()).compile(&model);
        let img = vec![0.5f32; 784];
        let a = program.encode_input(&img, 3);
        let b = program.encode_input(&img, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), model.config.time_steps);
        assert_eq!(a[0].len(), 784);
    }

    #[test]
    #[should_panic(expected = "chip width")]
    fn zero_chip_panics() {
        let _ = Compiler::new(CompilerConfig {
            chip_n: 0,
            sc_per_npe: 10,
            buckets: 16,
        });
    }
}
