//! XNOR-Net binarization with threshold folding (Section 5.1).
//!
//! Each float weight column `W[:, j]` becomes a sign vector
//! `B[:, j] = sign(W[:, j])` and a scaling factor `alpha_j = mean|W[:, j]|`.
//! The float pre-activation `alpha_j * sum_i B_ij S_i` crosses the firing
//! threshold `theta` exactly when the *integer* pulse sum crosses
//! `theta / alpha_j` — so the scale is folded into a per-neuron integer
//! threshold and the chip only ever handles ±1 pulses.

use crate::backend::argmax_low;
use crate::packed::{PackedFrame, PackedLayer};
use sushi_snn::tensor::Matrix;
use sushi_snn::train::TrainedSnn;

/// One binarized fully-connected layer.
///
/// Sign 0 marks a *disconnected* synapse: the mesh's cross-point NDRO
/// switch stays open, so the input pulse never reaches the neuron. This
/// is how sparse layers (e.g. Toeplitz-unrolled convolutions) map onto
/// the chip — "the NDRO cell can be used to design a configurable
/// structure in the mesh network, enabling the implementation of
/// arbitrary connections".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryLayer {
    /// Sign matrix entries (`in x out`, values −1, 0 or +1), row-major.
    signs: Vec<i8>,
    inputs: usize,
    outputs: usize,
    /// Folded integer thresholds per output neuron: the neuron fires iff
    /// the signed pulse sum reaches this value.
    thresholds: Vec<i64>,
    /// The same signs bit-packed column-major for the XNOR/popcount fast
    /// path (see [`crate::packed`]); derived from `signs` at construction,
    /// so equality and clones stay consistent.
    packed: PackedLayer,
}

impl BinaryLayer {
    /// Binarizes one float layer (`in x out`) against firing threshold
    /// `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `theta <= 0`.
    pub fn from_float(weights: &Matrix, theta: f32) -> Self {
        assert!(theta > 0.0, "threshold must be positive");
        let (inputs, outputs) = (weights.rows(), weights.cols());
        let mut signs = vec![0i8; inputs * outputs];
        let mut thresholds = Vec::with_capacity(outputs);
        for j in 0..outputs {
            let mut abs_sum = 0.0f64;
            let mut connected = 0usize;
            for i in 0..inputs {
                let w = weights[(i, j)];
                signs[i * outputs + j] = if w == 0.0 {
                    0 // exact zero: leave the cross-point switch open
                } else if w > 0.0 {
                    1
                } else {
                    -1
                };
                if w != 0.0 {
                    abs_sum += f64::from(w.abs());
                    connected += 1;
                }
            }
            let alpha = if connected == 0 {
                0.0
            } else {
                abs_sum / connected as f64
            };
            let t = if alpha <= 0.0 {
                // Dead column: can never fire.
                inputs as i64 + 1
            } else {
                (f64::from(theta) / alpha).ceil().max(1.0) as i64
            };
            thresholds.push(t);
        }
        let packed = PackedLayer::from_parts(&signs, inputs, outputs, &thresholds);
        Self {
            signs,
            inputs,
            outputs,
            thresholds,
            packed,
        }
    }

    /// Builds a layer from explicit signs and thresholds (for tests and
    /// hand-constructed programs).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or signs other than ±1.
    pub fn from_signs(signs: Vec<i8>, inputs: usize, outputs: usize, thresholds: Vec<i64>) -> Self {
        assert_eq!(signs.len(), inputs * outputs, "sign shape mismatch");
        assert_eq!(thresholds.len(), outputs, "threshold count mismatch");
        assert!(
            signs.iter().all(|&s| (-1..=1).contains(&s)),
            "signs must be -1, 0 or 1"
        );
        let packed = PackedLayer::from_parts(&signs, inputs, outputs, &thresholds);
        Self {
            signs,
            inputs,
            outputs,
            thresholds,
            packed,
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The sign of synapse `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn sign(&self, i: usize, j: usize) -> i8 {
        assert!(
            i < self.inputs && j < self.outputs,
            "synapse ({i},{j}) out of range"
        );
        self.signs[i * self.outputs + j]
    }

    /// The signs feeding output neuron `j`, in input order.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column_signs(&self, j: usize) -> Vec<i8> {
        assert!(j < self.outputs, "neuron {j} out of range");
        (0..self.inputs)
            .map(|i| self.signs[i * self.outputs + j])
            .collect()
    }

    /// Integer firing threshold of neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn threshold(&self, j: usize) -> i64 {
        self.thresholds[j]
    }

    /// The bit-packed column view of this layer (XNOR/popcount fast path).
    pub fn packed(&self) -> &PackedLayer {
        &self.packed
    }

    /// Integer pre-activation of every output neuron for a binary input
    /// frame — the scalar oracle the packed path must match bitwise.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != inputs`.
    pub fn accumulate(&self, input: &[bool]) -> Vec<i64> {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        let mut acc = vec![0i64; self.outputs];
        for (i, &active) in input.iter().enumerate() {
            if !active {
                continue;
            }
            let row = &self.signs[i * self.outputs..(i + 1) * self.outputs];
            for (a, &s) in acc.iter_mut().zip(row) {
                *a += i64::from(s);
            }
        }
        acc
    }

    /// Count of inhibitory (−1) synapses per output neuron, derived from
    /// the packed representation: one `popcount(conn & !pos)` sweep per
    /// column instead of recomputing `i * outputs + j` per element.
    pub fn inhibitory_counts(&self) -> Vec<usize> {
        (0..self.outputs)
            .map(|j| self.packed.inhibitory_count(j))
            .collect()
    }
}

/// A fully binarized network ready for chip mapping.
///
/// # Examples
///
/// ```
/// use sushi_ssnn::binarize::BinaryLayer;
/// use sushi_ssnn::BinarizedSnn;
///
/// let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
/// let net = BinarizedSnn::from_layers(vec![l]);
/// let spikes = net.step(&[true, true]);
/// // Signs are row-major (input x output): neuron 0 sums 1+1 = 2 >= 1,
/// // neuron 1 sums -1+1 = 0 < 2.
/// assert_eq!(spikes, vec![true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinarizedSnn {
    layers: Vec<BinaryLayer>,
}

impl BinarizedSnn {
    /// Binarizes every layer of a trained float SNN.
    pub fn from_trained(model: &TrainedSnn) -> Self {
        let theta = model.mlp.neuron().threshold();
        let layers = model
            .mlp
            .weights()
            .iter()
            .map(|w| BinaryLayer::from_float(w, theta))
            .collect();
        Self { layers }
    }

    /// Builds from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if empty or shapes do not chain.
    pub fn from_layers(layers: Vec<BinaryLayer>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].outputs(), w[1].inputs(), "layer shapes do not chain");
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layers in order.
    pub fn layers(&self) -> &[BinaryLayer] {
        &self.layers
    }

    /// Output classes.
    pub fn classes(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// Bits per input frame (the first layer's input width).
    pub fn input_width(&self) -> usize {
        self.layers.first().expect("non-empty").inputs()
    }

    /// One stateless time step through the whole network with end-of-step
    /// firing (the software reference semantics). Runs on the bit-packed
    /// XNOR/popcount path — bitwise identical to [`Self::step_scalar`],
    /// which is kept as the oracle.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn step(&self, input: &[bool]) -> Vec<bool> {
        let mut x = PackedFrame::from_bools(input);
        let mut y = PackedFrame::default();
        let mut acc = Vec::new();
        for layer in &self.layers {
            layer.packed.step_into(&x, &mut y, &mut acc);
            std::mem::swap(&mut x, &mut y);
        }
        x.to_bools()
    }

    /// The scalar reference for [`Self::step`]: `Vec<i8>` × `Vec<bool>`
    /// inner loops, no packing.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn step_scalar(&self, input: &[bool]) -> Vec<bool> {
        let mut x: Vec<bool> = input.to_vec();
        for layer in &self.layers {
            let acc = layer.accumulate(&x);
            x = acc
                .iter()
                .enumerate()
                .map(|(j, &a)| a >= layer.threshold(j))
                .collect();
        }
        x
    }

    /// Runs `frames` (one bool vec per time step), returning per-class
    /// spike counts. Packed fast path; bitwise identical to the scalar
    /// reference (`sushi_ssnn::ScalarBackend`).
    pub fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        let mut counts = vec![0u32; self.classes()];
        let mut x = PackedFrame::default();
        let mut y = PackedFrame::default();
        let mut acc = Vec::new();
        for f in frames {
            x.fill_from_bools(f);
            for layer in &self.layers {
                layer.packed.step_into(&x, &mut y, &mut acc);
                std::mem::swap(&mut x, &mut y);
            }
            for (j, c) in counts.iter_mut().enumerate() {
                *c += u32::from(x.get(j));
            }
        }
        counts
    }

    /// The scalar reference for [`Self::forward_counts`], used by
    /// `ScalarBackend`.
    pub(crate) fn forward_counts_scalar_impl(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        let mut counts = vec![0u32; self.classes()];
        for f in frames {
            for (c, s) in counts.iter_mut().zip(self.step_scalar(f)) {
                *c += u32::from(s);
            }
        }
        counts
    }

    /// Predicted class for `frames` (argmax of spike counts; ties go to
    /// the lowest index, matching the float reference's argmax). Packed
    /// fast path; bitwise identical to the scalar reference
    /// (`sushi_ssnn::ScalarBackend`).
    pub fn predict(&self, frames: &[Vec<bool>]) -> usize {
        argmax_low(&self.forward_counts(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_and_threshold_fold() {
        // Column 0: weights [0.5, -0.25] -> alpha = 0.375, T = ceil(1/0.375) = 3.
        let w = Matrix::from_rows(&[&[0.5, 0.1], &[-0.25, 0.1]]);
        let l = BinaryLayer::from_float(&w, 1.0);
        assert_eq!(l.sign(0, 0), 1);
        assert_eq!(l.sign(1, 0), -1);
        assert_eq!(l.threshold(0), 3);
        // Column 1: alpha = 0.1, T = 10.
        assert_eq!(l.threshold(1), 10);
    }

    #[test]
    fn binarized_firing_matches_scaled_float() {
        // With uniform-magnitude weights, binarization is exact.
        let w = Matrix::from_rows(&[&[0.5, -0.5], &[0.5, 0.5], &[-0.5, 0.5]]);
        let l = BinaryLayer::from_float(&w, 1.0);
        // alpha = 0.5, T = 2. Input all ones: acc = [1, 1] -> no fire.
        assert_eq!(l.accumulate(&[true, true, true]), vec![1, 1]);
        // Input rows 0 and 1: acc = [2, 0] -> neuron 0 fires (float: 1.0 >= 1.0).
        let acc = l.accumulate(&[true, true, false]);
        assert_eq!(acc, vec![2, 0]);
        assert!(acc[0] >= l.threshold(0));
        assert!(acc[1] < l.threshold(1));
    }

    #[test]
    fn dead_column_never_fires() {
        let w = Matrix::from_rows(&[&[0.0], &[0.0]]);
        let l = BinaryLayer::from_float(&w, 1.0);
        // Zero weights binarize to +1 but the threshold is unreachable.
        assert!(l.threshold(0) > l.inputs() as i64);
    }

    #[test]
    fn inhibitory_counts() {
        let l = BinaryLayer::from_signs(vec![1, -1, -1, -1, 1, 1], 3, 2, vec![1, 1]);
        assert_eq!(l.inhibitory_counts(), vec![1, 2]);
    }

    #[test]
    fn network_step_and_counts() {
        let l1 = BinaryLayer::from_signs(vec![1, 1, 1, -1], 2, 2, vec![2, 1]);
        let l2 = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 1]);
        let net = BinarizedSnn::from_layers(vec![l1, l2]);
        let out = net.step(&[true, true]);
        // l1: acc = [2, 0] -> spikes [true, false]; l2: acc = [1, -1] -> [true, false].
        assert_eq!(out, vec![true, false]);
        let counts = net.forward_counts(&[vec![true, true], vec![true, true]]);
        assert_eq!(counts, vec![2, 0]);
        assert_eq!(net.predict(&[vec![true, true]]), 0);
    }

    #[test]
    fn predict_breaks_ties_low() {
        let l = BinaryLayer::from_signs(vec![1, 1], 1, 2, vec![1, 1]);
        let net = BinarizedSnn::from_layers(vec![l]);
        // Both classes fire equally.
        assert_eq!(net.predict(&[vec![true]]), 0);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_layers_panic() {
        let l1 = BinaryLayer::from_signs(vec![1, 1], 1, 2, vec![1, 1]);
        let l2 = BinaryLayer::from_signs(vec![1, 1, 1], 3, 1, vec![1]);
        let _ = BinarizedSnn::from_layers(vec![l1, l2]);
    }

    #[test]
    fn from_trained_preserves_shapes() {
        use sushi_snn::data::synth_digits;
        use sushi_snn::train::{TrainConfig, Trainer};
        let data = synth_digits(40, 5);
        let mut cfg = TrainConfig::tiny_binary();
        cfg.epochs = 1;
        let model = Trainer::new(cfg).fit(&data);
        let bin = BinarizedSnn::from_trained(&model);
        assert_eq!(bin.layer_count(), 2);
        assert_eq!(bin.layers()[0].inputs(), 784);
        assert_eq!(bin.layers()[0].outputs(), 64);
        assert_eq!(bin.classes(), 10);
    }
}
