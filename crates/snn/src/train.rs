//! The training loop: Poisson encoding, BPTT, Adam.

use crate::data::Dataset;
use crate::encoding::PoissonEncoder;
use crate::metrics::{accuracy, Evaluation};
use crate::network::{SnnMlp, TrainScratch};
use crate::optim::Adam;
use crate::tensor::Matrix;

/// Training hyperparameters.
///
/// [`TrainConfig::paper`] reproduces the paper's setup:
/// INPUT28*28-FC800-IF-FC10-IF, T = 5, Poisson encoding, Adam at 1e-3.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Hidden layer sizes (between the input and the 10-class output).
    pub hidden: Vec<usize>,
    /// Input width (pixels).
    pub input: usize,
    /// Output classes.
    pub classes: usize,
    /// Simulation time steps per sample.
    pub time_steps: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed (weights, shuffling, encoding).
    pub seed: u64,
    /// XNOR-Net mode: train with binarized effective weights (STE), so the
    /// chip-binarized network is faithful to what was optimized.
    pub binary_weights: bool,
    /// Stateless-neuron mode: train with per-step membrane reset, matching
    /// the chip's stateless neuron (Section 5.1). When combined with
    /// `residual_mix`, training alternates between both semantics so the
    /// model works under either.
    pub stateless: bool,
    /// Fraction of training batches run with residual (SpikingJelly)
    /// semantics when `stateless` is set; makes the model robust to both
    /// semantics, which is what keeps Table 3's consistency high.
    pub residual_mix: f32,
}

impl TrainConfig {
    /// The paper's configuration (784-800-10, T=5, Adam 1e-3).
    pub fn paper() -> Self {
        Self {
            hidden: vec![800],
            input: 784,
            classes: 10,
            time_steps: 5,
            epochs: 3,
            batch: 32,
            lr: 1e-3,
            seed: 42,
            binary_weights: true,
            stateless: true,
            residual_mix: 0.5,
        }
    }

    /// A down-scaled configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden: vec![64],
            input: 784,
            classes: 10,
            time_steps: 5,
            epochs: 10,
            batch: 16,
            lr: 5e-3,
            seed: 7,
            binary_weights: false,
            stateless: false,
            residual_mix: 0.0,
        }
    }

    /// The tiny configuration in XNOR-Net mode (for chip-pipeline tests).
    pub fn tiny_binary() -> Self {
        Self {
            binary_weights: true,
            stateless: true,
            ..Self::tiny()
        }
    }

    /// The full layer-size vector.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut s = vec![self.input];
        s.extend_from_slice(&self.hidden);
        s.push(self.classes);
        s
    }
}

/// A trained spiking network plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedSnn {
    /// The trained network.
    pub mlp: SnnMlp,
    /// The training configuration.
    pub config: TrainConfig,
}

impl TrainedSnn {
    /// The encoder this model expects (same seed as training).
    pub fn encoder(&self) -> PoissonEncoder {
        PoissonEncoder::new(self.config.seed)
    }

    /// Predicts the class of every sample in `data`, encoding sample `i`
    /// with `sample_id = i` (the convention shared with the chip pipeline,
    /// so both see identical spike trains).
    ///
    /// This is the *float reference* (the paper's "SpikingJelly" column):
    /// the model exactly as trained — floating-point arithmetic and
    /// membrane residuals carried across time steps. The chip pipeline
    /// differs by eliminating those residuals (stateless neuron) and by
    /// integer threshold quantization.
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        let enc = self.encoder();
        // SpikingJelly semantics: residuals carry across time steps.
        let mlp = self.mlp.clone().with_stateless(false);
        let mut preds = Vec::with_capacity(data.len());
        for (i, img) in data.images.iter().enumerate() {
            let frames = enc.encode(img, self.config.time_steps, i as u64);
            preds.push(mlp.predict(&frames)[0]);
        }
        preds
    }

    /// Evaluates accuracy on `data`.
    pub fn evaluate(&self, data: &Dataset) -> Evaluation {
        let predictions = self.predict_all(data);
        Evaluation {
            accuracy: accuracy(&predictions, &data.labels),
            predictions,
        }
    }
}

/// Drives training per a [`TrainConfig`].
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    /// `Some(n)`: split the kernels over `n` workers instead of one per
    /// host CPU. Results are bitwise identical either way (see
    /// [`crate::tensor`]).
    workers: Option<usize>,
}

impl Trainer {
    /// A trainer with the given configuration, splitting its kernels over
    /// one worker per host CPU.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            workers: None,
        }
    }

    /// Splits training's kernels over `workers` workers (builder style).
    /// The trained model is bitwise identical for any worker count —
    /// `training_is_worker_invariant` in `tests/properties.rs` pins this.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Trains on `data` and returns the model.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or image width mismatches the config.
    pub fn fit(&self, data: &Dataset) -> TrainedSnn {
        self.fit_with_history(data).0
    }

    /// As [`Trainer::fit`], also returning the mean training loss per
    /// epoch.
    ///
    /// # Panics
    ///
    /// As [`Trainer::fit`].
    pub fn fit_with_history(&self, data: &Dataset) -> (TrainedSnn, Vec<f32>) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert_eq!(
            data.images[0].len(),
            self.config.input,
            "input width mismatch"
        );
        let cfg = &self.config;
        let mut mlp = SnnMlp::new(&cfg.layer_sizes(), cfg.seed)
            .with_binary_weights(cfg.binary_weights)
            .with_stateless(cfg.stateless);
        let mut opt = Adam::new(cfg.lr);
        let enc = PoissonEncoder::new(cfg.seed);
        let mut step_id: u64 = 1 << 32; // distinct from eval sample ids
        let mix_period = if cfg.stateless && cfg.residual_mix > 0.0 {
            (1.0 / cfg.residual_mix).round().max(1.0) as usize
        } else {
            0
        };
        // XNOR-Net clips latent weights to [-1, 1] (fused into the Adam
        // sweep).
        let clamp = if cfg.binary_weights {
            Some((-1.0f32, 1.0f32))
        } else {
            None
        };
        // One scratch for the whole run: batches reuse
        // every buffer, so the steady-state loop does not touch the heap.
        let mut ws = match self.workers {
            Some(n) => TrainScratch::with_workers(n),
            None => TrainScratch::new(),
        };
        let mut frames: Vec<Matrix> = Vec::new();
        let mut targets = Matrix::default();
        let mut samples: Vec<&[f32]> = Vec::with_capacity(cfg.batch);
        let mut ids: Vec<u64> = Vec::with_capacity(cfg.batch);
        let mut batch_idx = 0usize;
        let mut history = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0f32;
            let mut batches = 0u32;
            let order = data.shuffled_indices(cfg.seed.wrapping_add(epoch as u64));
            for chunk in order.chunks(cfg.batch) {
                if mix_period > 0 {
                    mlp = mlp.with_stateless(!batch_idx.is_multiple_of(mix_period));
                }
                batch_idx += 1;
                samples.clear();
                samples.extend(chunk.iter().map(|&i| data.images[i].as_slice()));
                ids.clear();
                ids.extend((0..samples.len() as u64).map(|k| step_id + k));
                step_id += samples.len() as u64;
                enc.encode_batch_into(&samples, cfg.time_steps, &ids, &mut frames);
                targets.reset_to(samples.len(), cfg.classes);
                for (r, &i) in chunk.iter().enumerate() {
                    targets[(r, data.labels[i] as usize)] = 1.0;
                }
                mlp.forward_record_with(&frames, &mut ws);
                let loss = mlp.backward_with(&frames, &targets, &mut ws);
                epoch_loss += loss;
                batches += 1;
                opt.step_clamped(mlp.weights_mut(), ws.grads(), clamp);
            }
            history.push(epoch_loss / batches.max(1) as f32);
        }
        (
            TrainedSnn {
                mlp,
                config: self.config.clone(),
            },
            history,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synth_digits;

    #[test]
    fn tiny_training_learns_digits() {
        let data = synth_digits(300, 1);
        let (train, test) = data.split(0.8);
        let model = Trainer::new(TrainConfig::tiny()).fit(&train);
        let eval = model.evaluate(&test);
        assert!(eval.accuracy > 0.6, "accuracy {}", eval.accuracy);
    }

    #[test]
    fn training_is_deterministic() {
        let data = synth_digits(60, 2);
        let a = Trainer::new(TrainConfig::tiny()).fit(&data);
        let b = Trainer::new(TrainConfig::tiny()).fit(&data);
        assert_eq!(a.mlp, b.mlp);
    }

    #[test]
    fn evaluation_predictions_align_with_accuracy() {
        let data = synth_digits(100, 3);
        let model = Trainer::new(TrainConfig::tiny()).fit(&data);
        let eval = model.evaluate(&data);
        let manual = crate::metrics::accuracy(&eval.predictions, &data.labels);
        assert_eq!(eval.accuracy, manual);
    }

    #[test]
    fn layer_sizes_assemble() {
        let cfg = TrainConfig::paper();
        assert_eq!(cfg.layer_sizes(), vec![784, 800, 10]);
    }

    #[test]
    fn training_loss_decreases() {
        let data = synth_digits(200, 9);
        let (_, history) = Trainer::new(TrainConfig::tiny()).fit_with_history(&data);
        assert_eq!(history.len(), TrainConfig::tiny().epochs);
        let first = history.first().copied().unwrap();
        let last = history.last().copied().unwrap();
        assert!(last < first, "loss {first} -> {last} did not decrease");
        assert!(history.iter().all(|l| l.is_finite()));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let empty = Dataset {
            name: "x".into(),
            images: vec![],
            labels: vec![],
        };
        let _ = Trainer::new(TrainConfig::tiny()).fit(&empty);
    }
}
