//! The training loop: Poisson encoding, BPTT, Adam.

use std::cell::Cell;

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
    ///
    /// It runs the training forward pass of the model itself, not a copy,
    /// with residuals on: an XNOR model multiplies by its packed sign
    /// words, as it trained, binarized once per call. `data` goes through
    /// in chunks of `config.batch` rows on the thread's training scratch
    /// (see [`Trainer::fit`]).
    /// Every row of a matmul and every neuron is computed independently,
    /// so the predictions carry the same bits as classifying each image
    /// alone with [`SnnMlp::predict`] (stateless off); ties go to the
    /// lowest class ([`Matrix::argmax_rows`]).
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        let enc = self.encoder();
        let batch = self.config.batch.max(1);
        let mut spare = Spare::take(sushi_par::host_workers());
        let Spare { ws, frames, .. } = &mut spare;
        self.mlp.binarize_into(ws);
        let mut samples: Vec<&[f32]> = Vec::with_capacity(batch);
        let mut ids: Vec<u64> = Vec::with_capacity(batch);
        let mut preds = Vec::with_capacity(data.len());
        for (c, chunk) in data.images.chunks(batch).enumerate() {
            samples.clear();
            samples.extend(chunk.iter().map(Vec::as_slice));
            ids.clear();
            ids.extend((0..chunk.len()).map(|k| (c * batch + k) as u64));
            enc.encode_batch_into(&samples, self.config.time_steps, &ids, frames);
            // SpikingJelly semantics: residuals carry across time steps.
            self.mlp.forward_binarized(frames, ws, false);
            preds.extend(ws.record().rates.argmax_rows());
        }
        spare.put_back();
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

/// The working set of one thread's fits and evaluations: the scratch,
/// Adam's moments and the batch buffers, about 10 MB at the paper's
/// 784-800-10 shape. A fit or evaluation takes it from [`SPARE`] and puts
/// it back when it returns, so the next one on the thread reuses every
/// buffer instead of faulting fresh pages in.
struct Spare {
    ws: TrainScratch,
    opt: Adam,
    frames: Vec<Matrix>,
    targets: Matrix,
}

thread_local! {
    /// The thread's spare working set, if a fit or evaluation has
    /// returned one: at most one per thread, dropped when the thread
    /// exits.
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl Spare {
    /// Takes the thread's spare, or builds one, with its matmuls split
    /// over `workers` workers. A caller that panics drops it instead of
    /// putting it back.
    fn take(workers: usize) -> Self {
        let mut spare = SPARE.take().unwrap_or_else(|| Self {
            ws: TrainScratch::with_workers(workers),
            opt: Adam::paper_default(),
            frames: Vec::new(),
            targets: Matrix::default(),
        });
        spare.ws.set_workers(workers);
        spare
    }

    /// Keeps this working set for the thread's next fit or evaluation.
    fn put_back(self) {
        SPARE.set(Some(self));
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
    /// Fits and evaluations ([`TrainedSnn::evaluate`]) on one thread share
    /// one working set: the training scratch, Adam's moments and the batch
    /// buffers, about 10 MB at the paper's shape. The thread keeps it
    /// between calls and frees it when it exits, so a fit on a thread that
    /// has fitted or evaluated before allocates little beyond the returned
    /// model.
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
        let mut spare = Spare::take(self.workers.unwrap_or_else(sushi_par::host_workers));
        spare.opt.restart(cfg.lr);
        let Spare {
            ws,
            opt,
            frames,
            targets,
        } = &mut spare;
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
                enc.encode_batch_into(&samples, cfg.time_steps, &ids, frames);
                targets.reset_to(samples.len(), cfg.classes);
                for (r, &i) in chunk.iter().enumerate() {
                    targets[(r, data.labels[i] as usize)] = 1.0;
                }
                mlp.forward_record_with(frames, ws);
                let loss = mlp.backward_with(frames, targets, ws);
                epoch_loss += loss;
                batches += 1;
                opt.step_clamped(mlp.weights_mut(), ws.grads(), clamp);
            }
            history.push(epoch_loss / batches.max(1) as f32);
        }
        spare.put_back();
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

    /// The chunked float reference against the per-image rule, for a
    /// float and an XNOR model, on 45 held-out images: chunks of
    /// 16 + 16 + 13. Held-out images leave the models unsure enough that
    /// a chunk encoding with the wrong sample ids changes predictions.
    #[test]
    fn batched_evaluation_matches_per_image_predictions() {
        let (train, data) = (synth_digits(45, 4), synth_digits(45, 5));
        for cfg in [TrainConfig::tiny(), TrainConfig::tiny_binary()] {
            assert_eq!(cfg.batch, 16);
            let model = Trainer::new(cfg.clone()).fit(&train);
            let enc = model.encoder();
            let per_image = model.mlp.clone().with_stateless(false);
            let expected: Vec<usize> = data
                .images
                .iter()
                .enumerate()
                .map(|(i, img)| per_image.predict(&enc.encode(img, cfg.time_steps, i as u64))[0])
                .collect();
            assert_eq!(model.predict_all(&data), expected, "{cfg:?}");

            // The once-binarized float copy runs the original's bits, and a
            // batch row gets the rates its image gets alone.
            let binarized = SnnMlp::from_weights(model.mlp.effective_weights(), model.mlp.neuron());
            let samples: Vec<&[f32]> = data.images.iter().map(Vec::as_slice).collect();
            let ids: Vec<u64> = (0..data.len() as u64).collect();
            let frames = enc.encode_batch(&samples, cfg.time_steps, &ids);
            let rates = binarized.forward(&frames);
            assert_eq!(rates, per_image.forward(&frames), "{cfg:?}");
            for (i, img) in data.images.iter().enumerate() {
                let alone = per_image.forward(&enc.encode(img, cfg.time_steps, i as u64));
                assert_eq!(rates.row(i), alone.row(0), "{cfg:?} image {i}");
            }

            let empty = Dataset {
                name: "x".into(),
                images: vec![],
                labels: vec![],
            };
            assert!(model.predict_all(&empty).is_empty());
        }
    }

    /// Fits and evaluations on one thread share its working set, which a
    /// float fit, a paper-shape XNOR fit on three workers and a batch-7
    /// XNOR fit each leave in another shape and mode. Every fit in that
    /// sequence, and its evaluation, must carry the bits of the same fit
    /// on a fresh thread.
    #[test]
    fn warm_fits_equal_fresh_ones() {
        let (data, holdout) = (synth_digits(64, 11), synth_digits(40, 12));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run = |trainer: &Trainer, data: &Dataset, holdout: &Dataset| {
            let (model, history) = trainer.fit_with_history(data);
            let weights: Vec<_> = model
                .mlp
                .weights()
                .iter()
                .map(|w| bits(w.as_slice()))
                .collect();
            let predictions = model.evaluate(holdout).predictions;
            (weights, bits(&history), predictions)
        };
        let trainers = [
            Trainer::new(TrainConfig {
                epochs: 2,
                ..TrainConfig::tiny()
            }),
            Trainer::new(TrainConfig {
                epochs: 1,
                ..TrainConfig::paper()
            })
            .with_workers(3),
            Trainer::new(TrainConfig {
                epochs: 2,
                batch: 7,
                ..TrainConfig::tiny_binary()
            }),
        ];
        for trainer in trainers {
            let warm = run(&trainer, &data, &holdout);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| run(&trainer, &data, &holdout))
                    .join()
                    .expect("fresh-thread fit")
            });
            assert!(warm == fresh, "{:?}", trainer.config);
        }
    }

    /// An evaluation that panics after taking the thread's spare drops it
    /// rather than putting back a working set it left half updated.
    #[test]
    fn a_panicking_evaluation_drops_the_spare() {
        let model = Trainer::new(TrainConfig::tiny()).fit(&synth_digits(20, 1));
        let spare = SPARE.take().expect("the fit put its working set back");
        SPARE.set(Some(spare));
        let narrow = Dataset {
            name: "x".into(),
            images: vec![vec![0.5; 10]],
            labels: vec![0],
        };
        let eval = std::panic::catch_unwind(|| model.predict_all(&narrow));
        assert!(eval.is_err());
        assert!(SPARE.take().is_none());
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
