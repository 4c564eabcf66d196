//! The optimizer: Adam, the paper's choice at lr 1e-3.

use crate::tensor::Matrix;

/// The Adam optimizer (Kingma & Ba), the paper's training configuration.
///
/// # Examples
///
/// ```
/// use sushi_snn::{Adam, Matrix};
///
/// let mut w = vec![Matrix::zeros(2, 2)];
/// let g = vec![Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]])];
/// let mut opt = Adam::new(1e-3);
/// opt.step(&mut w, &g);
/// assert!(w[0].as_slice().iter().all(|&v| v < 0.0)); // moved against grad
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the given learning rate and standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The paper's optimizer: Adam at lr 1e-3.
    pub fn paper_default() -> Self {
        Self::new(1e-3)
    }

    /// Applies one update step to `weights` given matching `grads`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter/gradient structure changes between calls.
    pub fn step(&mut self, weights: &mut [Matrix], grads: &[Matrix]) {
        self.step_clamped(weights, grads, None);
    }

    /// As [`Adam::step`], but when `clamp` is `Some((lo, hi))` every
    /// updated weight is clamped into `[lo, hi]` in the same sweep — the
    /// fused form of the XNOR-Net latent-weight clip, which used to cost a
    /// second full pass over the weights per batch.
    ///
    /// # Panics
    ///
    /// As [`Adam::step`].
    pub fn step_clamped(
        &mut self,
        weights: &mut [Matrix],
        grads: &[Matrix],
        clamp: Option<(f32, f32)>,
    ) {
        assert_eq!(weights.len(), grads.len(), "weights/grads mismatch");
        if self.m.is_empty() {
            self.m = weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), weights.len(), "parameter count changed");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((w, g), (m, v)) in weights
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(
                (w.rows(), w.cols()),
                (g.rows(), g.cols()),
                "grad shape changed"
            );
            for ((wv, &gv), (mv, vv)) in w
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let m_hat = *mv / b1t;
                let v_hat = *vv / b2t;
                *wv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                if let Some((lo, hi)) = clamp {
                    *wv = wv.clamp(lo, hi);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam should minimise a simple quadratic f(w) = (w - 3)^2.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut w = vec![Matrix::zeros(1, 1)];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = vec![Matrix::from_rows(&[&[2.0 * (w[0].as_slice()[0] - 3.0)]])];
            opt.step(&mut w, &g);
        }
        assert!(
            (w[0].as_slice()[0] - 3.0).abs() < 0.05,
            "w = {}",
            w[0].as_slice()[0]
        );
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut w = vec![Matrix::zeros(1, 1)];
        let mut opt = Adam::new(0.01);
        opt.step(&mut w, &[Matrix::from_rows(&[&[42.0]])]);
        // Bias-corrected first step magnitude ~= lr regardless of grad scale.
        assert!((w[0].as_slice()[0].abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn step_clamped_matches_step_then_clip() {
        // The fused clamp must produce exactly the bits of the old
        // separate step-then-clip passes.
        let g = vec![Matrix::from_rows(&[&[7.0, -3.0], &[0.4, -0.1]])];
        let mut w_fused = vec![Matrix::from_rows(&[&[0.999, -0.999], &[0.2, -0.2]])];
        let mut w_split = w_fused.clone();
        let mut opt_fused = Adam::new(0.05);
        let mut opt_split = Adam::new(0.05);
        for _ in 0..25 {
            opt_fused.step_clamped(&mut w_fused, &g, Some((-1.0, 1.0)));
            opt_split.step(&mut w_split, &g);
            for w in &mut w_split {
                for v in w.as_mut_slice() {
                    *v = v.clamp(-1.0, 1.0);
                }
            }
        }
        assert_eq!(w_fused, w_split);
        assert!(w_fused[0]
            .as_slice()
            .iter()
            .all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_grads_panic() {
        let mut w = vec![Matrix::zeros(1, 1)];
        Adam::new(0.1).step(&mut w, &[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_panics() {
        let _ = Adam::new(0.0);
    }
}
