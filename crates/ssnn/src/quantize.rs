//! Multi-level weight quantization for the pulse-gain weight structures.
//!
//! The binary SSNN path only needs polarity; the mesh's weight structures
//! (Fig. 10) additionally provide *strength*: a synapse configured to gain
//! `g` turns one input pulse into `g` pulses at the neuron. This module
//! quantizes float weights onto `{±1 .. ±max_gain} * step_j` per output
//! neuron, folds the step into the integer threshold (exactly as the
//! binary path folds alpha), and orders synapses so that "inputs from
//! adjacent batches that pass through the same cross structure share the
//! same weight strength" — minimising strength reloads (Section 4.2.2).

use crate::backend::argmax_low;
use crate::bucketing::inhibitory_first;
use sushi_snn::tensor::Matrix;
use sushi_snn::train::TrainedSnn;

/// One quantized fully-connected layer: per-synapse sign and strength,
/// per-neuron integer threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedLayer {
    /// Signed strengths (`in x out`, row-major): `-g..=-1, 1..=g`.
    levels: Vec<i16>,
    inputs: usize,
    outputs: usize,
    /// Folded integer thresholds: fire iff the strength-weighted pulse sum
    /// reaches this value.
    thresholds: Vec<i64>,
    max_gain: u16,
}

impl QuantizedLayer {
    /// Quantizes a float layer to `max_gain` strength levels against the
    /// firing threshold `theta`.
    ///
    /// Per output neuron `j`, the quantization step is
    /// `step_j = max_i |w_ij| / max_gain`; strengths are
    /// `round(|w| / step)` clamped to `1..=max_gain` (the weight structure
    /// always passes at least the original pulse).
    ///
    /// # Panics
    ///
    /// Panics if `theta <= 0` or `max_gain == 0`.
    pub fn from_float(weights: &Matrix, theta: f32, max_gain: u16) -> Self {
        assert!(theta > 0.0, "threshold must be positive");
        assert!(max_gain >= 1, "need at least one strength level");
        let (inputs, outputs) = (weights.rows(), weights.cols());
        let mut levels = vec![0i16; inputs * outputs];
        let mut thresholds = Vec::with_capacity(outputs);
        for j in 0..outputs {
            let mut max_abs = 0.0f64;
            for i in 0..inputs {
                max_abs = max_abs.max(f64::from(weights[(i, j)].abs()));
            }
            if max_abs <= 0.0 {
                // Dead column: never fires.
                for i in 0..inputs {
                    levels[i * outputs + j] = 1;
                }
                thresholds.push((inputs as i64) * i64::from(max_gain) + 1);
                continue;
            }
            let step = max_abs / f64::from(max_gain);
            for i in 0..inputs {
                let w = f64::from(weights[(i, j)]);
                let g = (w.abs() / step).round().clamp(1.0, f64::from(max_gain)) as i16;
                levels[i * outputs + j] = if w >= 0.0 { g } else { -g };
            }
            thresholds.push((f64::from(theta) / step).ceil().max(1.0) as i64);
        }
        Self {
            levels,
            inputs,
            outputs,
            thresholds,
            max_gain,
        }
    }

    /// Quantizes every layer of a trained model.
    pub fn from_trained(model: &TrainedSnn, max_gain: u16) -> Vec<QuantizedLayer> {
        let theta = model.mlp.neuron().threshold();
        model
            .mlp
            .effective_weights()
            .iter()
            .map(|w| Self::from_float(w, theta, max_gain))
            .collect()
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The maximum strength level.
    pub fn max_gain(&self) -> u16 {
        self.max_gain
    }

    /// Signed strength of synapse `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn level(&self, i: usize, j: usize) -> i16 {
        assert!(
            i < self.inputs && j < self.outputs,
            "synapse ({i},{j}) out of range"
        );
        self.levels[i * self.outputs + j]
    }

    /// Integer threshold of neuron `j`.
    pub fn threshold(&self, j: usize) -> i64 {
        self.thresholds[j]
    }

    /// The signed strengths feeding neuron `j`, in input order.
    pub fn column_levels(&self, j: usize) -> Vec<i16> {
        (0..self.inputs)
            .map(|i| self.levels[i * self.outputs + j])
            .collect()
    }

    /// One stateless step with end-of-step firing.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn step(&self, input: &[bool]) -> Vec<bool> {
        assert_eq!(input.len(), self.inputs, "input width mismatch");
        let mut acc = vec![0i64; self.outputs];
        for (i, &a) in input.iter().enumerate() {
            if !a {
                continue;
            }
            let row = &self.levels[i * self.outputs..(i + 1) * self.outputs];
            for (s, &l) in acc.iter_mut().zip(row) {
                *s += i64::from(l);
            }
        }
        acc.iter()
            .enumerate()
            .map(|(j, &s)| s >= self.thresholds[j])
            .collect()
    }

    /// A strength-sharing visit order for neuron `j`: inhibitory first,
    /// and within each polarity group sorted by strength so consecutive
    /// synapses reuse the weight-structure configuration.
    pub fn strength_sorted_order(&self, j: usize) -> Vec<usize> {
        let lv = self.column_levels(j);
        let signs: Vec<i8> = lv.iter().map(|&l| if l < 0 { -1 } else { 1 }).collect();
        let mut order = inhibitory_first(&signs);
        let n_inh = signs.iter().filter(|&&s| s < 0).count();
        order[..n_inh].sort_by_key(|&i| lv[i].abs());
        order[n_inh..].sort_by_key(|&i| lv[i].abs());
        order
    }

    /// Counts weight-structure reload operations (NDRO set/reset pulses)
    /// along a visit order for one step: each strength change costs the
    /// gain distance, each polarity change one neuron reconfiguration.
    ///
    /// Returns `(strength_ops, polarity_switches)`.
    pub fn reload_ops(&self, j: usize, order: &[usize], active: &[bool]) -> (u64, u64) {
        let lv = self.column_levels(j);
        let mut strength_ops = 0u64;
        let mut polarity_switches = 0u64;
        let mut cur_gain: Option<i16> = None;
        let mut cur_sign: Option<bool> = None;
        for &i in order {
            if !active[i] {
                continue;
            }
            let g = lv[i].abs();
            let s = lv[i] >= 0;
            if let Some(prev) = cur_gain {
                strength_ops += u64::from(prev.abs_diff(g));
            } else {
                strength_ops += u64::from(g.unsigned_abs());
            }
            cur_gain = Some(g);
            if cur_sign != Some(s) {
                if cur_sign.is_some() {
                    polarity_switches += 1;
                }
                cur_sign = Some(s);
            }
        }
        (strength_ops, polarity_switches)
    }
}

/// A stack of quantized layers executed statelessly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedSnn {
    layers: Vec<QuantizedLayer>,
}

impl QuantizedSnn {
    /// Quantizes a trained model at `max_gain` strength levels.
    pub fn from_trained(model: &TrainedSnn, max_gain: u16) -> Self {
        Self {
            layers: QuantizedLayer::from_trained(model, max_gain),
        }
    }

    /// The layers in order.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// Output classes.
    pub fn classes(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// One stateless step through the stack.
    pub fn step(&self, input: &[bool]) -> Vec<bool> {
        let mut x = input.to_vec();
        for l in &self.layers {
            x = l.step(&x);
        }
        x
    }

    /// Per-class spike counts over `frames`.
    pub fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        let mut counts = vec![0u32; self.classes()];
        for f in frames {
            for (c, s) in counts.iter_mut().zip(self.step(f)) {
                *c += u32::from(s);
            }
        }
        counts
    }

    /// Predicted class (argmax, ties low).
    pub fn predict(&self, frames: &[Vec<bool>]) -> usize {
        argmax_low(&self.forward_counts(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_levels_and_threshold() {
        // Column: weights [0.8, -0.4, 0.1], theta 1.0, max_gain 4.
        // step = 0.2; levels = 4, -2, 1 (0.1/0.2 = 0.5 rounds to 0, clamped to 1).
        let w = Matrix::from_vec(3, 1, vec![0.8, -0.4, 0.1]);
        let l = QuantizedLayer::from_float(&w, 1.0, 4);
        assert_eq!(l.level(0, 0), 4);
        assert_eq!(l.level(1, 0), -2);
        assert_eq!(l.level(2, 0), 1);
        // threshold = ceil(1.0 / 0.2) = 5.
        assert_eq!(l.threshold(0), 5);
    }

    #[test]
    fn quantized_step_fires_by_weighted_sum() {
        let w = Matrix::from_vec(3, 1, vec![0.8, -0.4, 0.1]);
        let l = QuantizedLayer::from_float(&w, 1.0, 4);
        // Active 0 and 2: 4 + 1 = 5 >= 5: fires.
        assert_eq!(l.step(&[true, false, true]), vec![true]);
        // Active all: 4 - 2 + 1 = 3 < 5.
        assert_eq!(l.step(&[true, true, true]), vec![false]);
    }

    #[test]
    fn higher_gain_tracks_float_better_than_binary() {
        // A weight column where magnitudes matter: binary treats 0.9 and
        // 0.1 the same, 8-level quantization does not.
        let w = Matrix::from_vec(4, 1, vec![0.9, 0.1, 0.1, 0.1]);
        let theta = 0.85f32;
        let quant = QuantizedLayer::from_float(&w, theta, 8);
        // Float: only input 0 active -> 0.9 >= 0.85 fires.
        assert_eq!(quant.step(&[true, false, false, false]), vec![true]);
        // Float: inputs 1..3 active -> 0.3 < 0.85 silent.
        assert_eq!(quant.step(&[false, true, true, true]), vec![false]);
        // Binary with alpha = 0.3 sees both cases as 1 and 3 pulses vs
        // threshold ceil(0.85/0.3) = 3: it gets the second case wrong.
        let bin = crate::binarize::BinaryLayer::from_float(&w, theta);
        assert_eq!(bin.threshold(0), 3);
    }

    #[test]
    fn dead_column_cannot_fire() {
        let w = Matrix::from_vec(2, 1, vec![0.0, 0.0]);
        let l = QuantizedLayer::from_float(&w, 1.0, 4);
        assert_eq!(l.step(&[true, true]), vec![false]);
    }

    #[test]
    fn strength_sorted_order_groups_polarity_then_strength() {
        let w = Matrix::from_vec(5, 1, vec![0.9, -0.2, 0.3, -0.8, 0.1]);
        let l = QuantizedLayer::from_float(&w, 1.0, 4);
        let order = l.strength_sorted_order(0);
        let lv = l.column_levels(0);
        // First the inhibitory ones, ascending magnitude; then excitatory.
        let n_inh = lv.iter().filter(|&&x| x < 0).count();
        assert!(order[..n_inh].iter().all(|&i| lv[i] < 0));
        for w in order[..n_inh].windows(2) {
            assert!(lv[w[0]].abs() <= lv[w[1]].abs());
        }
        for w in order[n_inh..].windows(2) {
            assert!(lv[w[0]].abs() <= lv[w[1]].abs());
        }
    }

    #[test]
    fn strength_sorting_reduces_reload_ops() {
        // Alternating strong/weak weights: input order reloads constantly.
        let weights: Vec<f32> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.125 })
            .collect();
        let w = Matrix::from_vec(32, 1, weights);
        let l = QuantizedLayer::from_float(&w, 1.0, 8);
        let active = vec![true; 32];
        let natural: Vec<usize> = (0..32).collect();
        let (nat_ops, _) = l.reload_ops(0, &natural, &active);
        let (sorted_ops, _) = l.reload_ops(0, &l.strength_sorted_order(0), &active);
        assert!(
            sorted_ops < nat_ops / 2,
            "sorted {sorted_ops} vs natural {nat_ops}"
        );
    }

    #[test]
    fn snn_stack_predicts() {
        use sushi_snn::data::synth_digits;
        use sushi_snn::train::{TrainConfig, Trainer};
        let data = synth_digits(150, 4);
        let mut cfg = TrainConfig::tiny_binary();
        cfg.epochs = 6;
        let model = Trainer::new(cfg).fit(&data);
        let q = QuantizedSnn::from_trained(&model, 8);
        assert_eq!(q.classes(), 10);
        let enc = model.encoder();
        let mut hits = 0;
        for (i, img) in data.images.iter().take(40).enumerate() {
            let frames: Vec<Vec<bool>> = enc
                .encode(img, model.config.time_steps, i as u64)
                .into_iter()
                .map(|m| m.as_slice().iter().map(|&v| v > 0.5).collect())
                .collect();
            if q.predict(&frames) == data.labels[i] as usize {
                hits += 1;
            }
        }
        assert!(hits > 20, "quantized accuracy {hits}/40");
    }

    #[test]
    #[should_panic(expected = "strength level")]
    fn zero_gain_panics() {
        let w = Matrix::from_vec(1, 1, vec![1.0]);
        let _ = QuantizedLayer::from_float(&w, 1.0, 0);
    }
}
