//! The discrete Integrate-and-Fire neuron (Eqs. 1–3 of the paper) with a
//! surrogate gradient for training.
//!
//! Charging:  `H[t] = V[t-1] + X[t]`
//! Firing:    `S[t] = Θ(H[t] - V_threshold)`
//! Resetting: `V[t] = H[t] * (1 - S[t]) + V_reset * S[t]`  (hard reset; the
//! paper's Eq. 3 contains a typo `1 = S[t]`, we implement the standard
//! form).

use crate::tensor::Matrix;

/// Width of the rectangular surrogate-gradient window around the threshold.
pub const SURROGATE_WINDOW: f32 = 2.0;

/// A layer of IF neurons operating on batched membrane state.
///
/// # Examples
///
/// ```
/// use sushi_snn::{IfNeuron, Matrix};
///
/// let mut layer = IfNeuron::new(1.0, 0.0);
/// let mut v = Matrix::zeros(1, 2);
/// let s1 = layer.step(&mut v, &Matrix::from_rows(&[&[0.6, 1.2]]));
/// assert_eq!(s1.as_slice(), &[0.0, 1.0]); // second neuron fires
/// let s2 = layer.step(&mut v, &Matrix::from_rows(&[&[0.6, 0.1]]));
/// assert_eq!(s2.as_slice(), &[1.0, 0.0]); // first accumulates to 1.2
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IfNeuron {
    threshold: f32,
    reset: f32,
}

impl IfNeuron {
    /// An IF layer with firing `threshold` and reset potential `reset`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold <= reset`.
    pub fn new(threshold: f32, reset: f32) -> Self {
        assert!(
            threshold > reset,
            "threshold must exceed the reset potential"
        );
        Self { threshold, reset }
    }

    /// The paper's configuration: threshold 1.0, reset 0.
    pub fn paper_default() -> Self {
        Self::new(1.0, 0.0)
    }

    /// The firing threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Advances one time step: charges `v` with `input`, fires, resets.
    /// Returns the spike matrix (0.0 / 1.0 entries).
    ///
    /// # Panics
    ///
    /// Panics if `v` and `input` shapes differ.
    pub fn step(&self, v: &mut Matrix, input: &Matrix) -> Matrix {
        assert_eq!(
            (v.rows(), v.cols()),
            (input.rows(), input.cols()),
            "membrane/input shape mismatch"
        );
        let mut spikes = Matrix::zeros(v.rows(), v.cols());
        for (i, (vv, &x)) in v
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .enumerate()
        {
            let h = *vv + x;
            if h >= self.threshold {
                spikes.as_mut_slice()[i] = 1.0;
                *vv = self.reset;
            } else {
                *vv = h;
            }
        }
        spikes
    }

    /// As [`IfNeuron::step`], but also returns the pre-reset potential
    /// `H[t]` needed for BPTT.
    pub fn step_recorded(&self, v: &mut Matrix, input: &Matrix) -> (Matrix, Matrix) {
        let mut spikes = Matrix::default();
        let mut pre = Matrix::default();
        self.step_recorded_into(v, input, &mut spikes, &mut pre);
        (spikes, pre)
    }

    /// As [`IfNeuron::step_recorded`], but fused into one sweep writing
    /// spikes and pre-reset potentials into caller-owned buffers (reshaped
    /// in place, reusing their allocations) — the form the training
    /// scratch uses to keep the hot path allocation-free. Each neuron fires
    /// and resets by select rather than by a branch on its potential; the
    /// bits are those of [`IfNeuron::step`].
    ///
    /// # Panics
    ///
    /// Panics if `v` and `input` shapes differ.
    pub fn step_recorded_into(
        &self,
        v: &mut Matrix,
        input: &Matrix,
        spikes: &mut Matrix,
        pre: &mut Matrix,
    ) {
        assert_eq!(
            (v.rows(), v.cols()),
            (input.rows(), input.cols()),
            "membrane/input shape mismatch"
        );
        spikes.reset_to(v.rows(), v.cols());
        pre.reset_to(v.rows(), v.cols());
        for (((vv, &x), s), p) in v
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .zip(spikes.as_mut_slice())
            .zip(pre.as_mut_slice())
        {
            let h = *vv + x;
            let fire = h >= self.threshold;
            *p = h;
            *s = if fire { 1.0 } else { 0.0 };
            *vv = if fire { self.reset } else { h };
        }
    }

    /// The rectangular surrogate derivative `dS/dH` at pre-activation `h`:
    /// 1 within `SURROGATE_WINDOW / 2` of the threshold, else 0.
    pub fn surrogate_grad(&self, h: f32) -> f32 {
        if (h - self.threshold).abs() < SURROGATE_WINDOW / 2.0 {
            1.0
        } else {
            0.0
        }
    }
}

impl Default for IfNeuron {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_until_threshold() {
        let layer = IfNeuron::paper_default();
        let mut v = Matrix::zeros(1, 1);
        let x = Matrix::from_rows(&[&[0.4]]);
        assert_eq!(layer.step(&mut v, &x).sum(), 0.0);
        assert_eq!(layer.step(&mut v, &x).sum(), 0.0);
        // 0.4 * 3 = 1.2 >= 1.0: fires.
        assert_eq!(layer.step(&mut v, &x).sum(), 1.0);
        // Hard reset to 0: needs to recharge.
        assert_eq!(layer.step(&mut v, &x).sum(), 0.0);
    }

    #[test]
    fn reset_is_hard_to_v_reset() {
        let layer = IfNeuron::new(1.0, 0.25);
        let mut v = Matrix::zeros(1, 1);
        layer.step(&mut v, &Matrix::from_rows(&[&[5.0]]));
        assert_eq!(v.as_slice(), &[0.25]);
    }

    #[test]
    fn negative_input_lowers_potential() {
        let layer = IfNeuron::paper_default();
        let mut v = Matrix::zeros(1, 1);
        layer.step(&mut v, &Matrix::from_rows(&[&[-0.5]]));
        assert_eq!(v.as_slice(), &[-0.5]);
    }

    #[test]
    fn step_recorded_returns_pre_reset_potential() {
        let layer = IfNeuron::paper_default();
        let mut v = Matrix::from_vec(1, 1, vec![0.8]);
        let (s, h) = layer.step_recorded(&mut v, &Matrix::from_rows(&[&[0.6]]));
        assert!((h.as_slice()[0] - 1.4).abs() < 1e-6);
        assert_eq!(s.as_slice(), &[1.0]);
        assert_eq!(v.as_slice(), &[0.0]);
    }

    #[test]
    fn step_recorded_into_matches_step_recorded() {
        let layer = IfNeuron::new(1.0, 0.25);
        let drive = Matrix::from_rows(&[&[0.6, 1.2, -0.3], &[0.9, 0.2, 0.5]]);
        let mut v_a = Matrix::from_vec(2, 3, vec![0.5, 0.0, 0.1, 0.3, 0.9, 0.6]);
        let mut v_b = v_a.clone();
        let mut v_c = v_a.clone();
        let (s_a, h_a) = layer.step_recorded(&mut v_a, &drive);
        let mut s_b = Matrix::zeros(1, 1);
        let mut h_b = Matrix::zeros(1, 1);
        layer.step_recorded_into(&mut v_b, &drive, &mut s_b, &mut h_b);
        assert_eq!(s_a, s_b);
        assert_eq!(h_a, h_b);
        assert_eq!(v_a, v_b);
        // The select form fires and resets exactly as the branching step.
        assert_eq!(layer.step(&mut v_c, &drive), s_b);
        assert_eq!(v_c, v_b);
    }

    #[test]
    fn surrogate_window_is_rectangular() {
        let layer = IfNeuron::paper_default();
        assert_eq!(layer.surrogate_grad(1.0), 1.0);
        assert_eq!(layer.surrogate_grad(0.1), 1.0);
        assert_eq!(layer.surrogate_grad(1.9), 1.0);
        assert_eq!(layer.surrogate_grad(-0.1), 0.0);
        assert_eq!(layer.surrogate_grad(2.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = IfNeuron::new(0.0, 0.0);
    }
}
