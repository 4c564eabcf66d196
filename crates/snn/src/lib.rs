//! A minimal spiking-neural-network framework (the SpikingJelly stand-in).
//!
//! The paper trains its SSNN with SpikingJelly: a fully-connected
//! INPUT28*28-Flatten-FC800-IF-FC10-IF network, IF neurons with threshold
//! 1.0, 5 simulation time steps, Poisson-encoded inputs and the Adam
//! optimizer at lr 1e-3. This crate implements exactly those pieces, from
//! scratch:
//!
//! * [`tensor`] — a dense `f32` matrix with runtime-dispatched SIMD
//!   matmul kernels (bitwise identical across tiers), split over output
//!   rows with [`sushi_par::fan_out`] (bitwise identical for any worker
//!   count);
//! * [`neuron`] — the discrete IF neuron (Eqs. 1–3) with surrogate
//!   gradients for training;
//! * [`network`] — the spiking MLP with BPTT forward/backward and the
//!   reusable [`network::TrainScratch`] hot path; binary (XNOR) mode runs
//!   its layers on packed sign bits;
//! * [`encoding`] — the Poisson encoder;
//! * [`optim`] — Adam;
//! * [`data`] — deterministic synthetic stand-ins for MNIST
//!   ([`data::synth_digits`]) and Fashion-MNIST ([`data::synth_fashion`]);
//! * [`metrics`] — accuracy and the paper's "consistency" metric;
//! * [`train`] — the training loop.
//!
//! # Examples
//!
//! Train a tiny SNN on a toy dataset and evaluate it:
//!
//! ```
//! use sushi_snn::data::synth_digits;
//! use sushi_snn::train::{TrainConfig, Trainer};
//!
//! let data = synth_digits(120, 7);
//! let cfg = TrainConfig::tiny();
//! let model = Trainer::new(cfg).fit(&data);
//! let acc = model.evaluate(&data).accuracy;
//! assert!(acc > 0.5, "toy accuracy {acc}");
//! ```

pub mod conv;
pub mod data;
pub mod encoding;
pub mod metrics;
pub mod network;
pub mod neuron;
pub mod optim;
pub mod tensor;
pub mod train;
mod xnor;

pub use conv::Conv2d;
pub use data::Dataset;
pub use encoding::PoissonEncoder;
pub use metrics::{accuracy, consistency, Evaluation};
pub use network::{SnnMlp, TrainScratch};
pub use neuron::IfNeuron;
pub use optim::Adam;
pub use tensor::Matrix;
pub use train::{TrainConfig, TrainedSnn, Trainer};
