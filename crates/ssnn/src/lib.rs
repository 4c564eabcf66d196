//! The superconducting SNN (SSNN) methodology of the paper, Section 5.
//!
//! SUSHI's NPEs process 1-bit pulses with no conventional memory, so a
//! trained SNN must be transformed before it can run on-chip:
//!
//! * [`binarize`] — XNOR-Net binarization: weights become signs, the
//!   per-neuron scaling factor is folded into an integer threshold
//!   ("we normalize the weights to scaling parameters and process them
//!   during thresholding"). [`BinarizedSnn`] holds the model and the
//!   scalar oracle every engine is tested against (`step_scalar`,
//!   `forward_counts_scalar`, `predict_scalar`);
//! * [`stateless`] — the stateless-neuron executor: within a time step the
//!   potential accumulates ±1 pulses and resets to zero at the step end,
//!   with both software (end-of-step) and hardware (first-crossing
//!   carry-out) firing semantics;
//! * [`bucketing`] — the synapse bucketing & reordering algorithm that
//!   bounds the potential excursion (counter under/overflow) and keeps
//!   possible firing spikes last;
//! * [`reload`] — the weight-reload cost model ("optimized weight
//!   reloading accounts for 20% of the total inference time on average");
//! * [`timing`] — asynchronous neuron timing: the rst/write/set/input/read
//!   pulse protocol of Fig. 14;
//! * [`bitslice`] — the bit-slice SSNN method decomposing a network into
//!   chip-sized slices executed in time order (Fig. 15);
//! * [`packed`] — [`PackedSnn`], the one per-image engine: bit-packed
//!   XNOR/popcount over sign columns and spike frames as `u64` words, 64
//!   synapses per word-op, bitwise identical to the scalar oracle.
//!   [`PackedFrames`] is the one frame type: requests travel in it, and
//!   the bool entry points pack into it once and run the same
//!   packed-word loop;
//! * [`batchplane`] — the image-major bitplane batch engine: the same
//!   bit position of up to 64 images per `u64` word, weight-stationary
//!   sweeps amortizing mask loads across the batch, with an
//!   AVX-512/VPOPCNTDQ tier on top of the POPCNT/AVX2 kernels. Both
//!   engines pick their kernels from `sushi_par::cpu_tier`;
//! * [`backend`] — how the batch depth picks between those two engines
//!   ([`BITPLANE_MIN_LANES`]), and the argmax rule ([`argmax_low`])
//!   they and the oracle share;
//! * [`encode`] — pulse-stream encoding for the cell-accurate chip netlist;
//! * [`compiler`] — the offline phase of Fig. 12 tying it all together
//!   into a [`compiler::ChipProgram`].
//!
//! # Examples
//!
//! ```
//! use sushi_snn::data::synth_digits;
//! use sushi_snn::train::{TrainConfig, Trainer};
//! use sushi_ssnn::binarize::BinarizedSnn;
//!
//! let data = synth_digits(60, 3);
//! let model = Trainer::new(TrainConfig::tiny()).fit(&data);
//! let bin = BinarizedSnn::from_trained(&model);
//! assert_eq!(bin.layer_count(), 2);
//! ```

pub mod backend;
pub mod batchplane;
pub mod binarize;
pub mod bitslice;
pub mod bucketing;
pub mod compiler;
pub mod convmap;
pub mod encode;
pub mod packed;
pub mod quantize;
pub mod reload;
pub mod stateless;
pub mod timing;

pub use backend::{argmax_low, BITPLANE_MIN_LANES};
pub use batchplane::{BitplaneBatch, BitplaneScratch};
pub use binarize::{BinarizedSnn, BinaryLayer};
pub use bitslice::{Slice, SliceSchedule};
pub use bucketing::{analyze_excursion, bucketed_order, inhibitory_first, Excursion};
pub use compiler::{ChipProgram, Compiler};
pub use convmap::binarize_conv;
pub use packed::{PackedFrames, PackedLayer, PackedSnn, PredictScratch};
pub use quantize::{QuantizedLayer, QuantizedSnn};
pub use stateless::{ExecStats, FireSemantics, SsnnExecutor};
