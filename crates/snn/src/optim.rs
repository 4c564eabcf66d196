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

    /// Starts a new run at learning rate `lr`, as [`Adam::new`] would, but
    /// keeps the moment buffers: the first step of a run reads the moments'
    /// starting `+0.0` as a constant, so it writes the buffers without
    /// reading them and they need no zeroing pass.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub(crate) fn restart(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
        self.t = 0;
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
        self.t += 1;
        let first = self.t == 1;
        if first {
            // The run's first step fixes its parameter shapes. It writes
            // every moment without reading it, so a kept buffer of the
            // right shape stays as it is, and a fresh one (calloc'ed) is
            // faulted in by that write alone.
            for moments in [&mut self.m, &mut self.v] {
                moments.resize_with(weights.len(), Matrix::default);
                for (mo, w) in moments.iter_mut().zip(weights.iter()) {
                    if (mo.rows(), mo.cols()) != (w.rows(), w.cols()) {
                        *mo = Matrix::zeros(w.rows(), w.cols());
                    }
                }
            }
        }
        assert_eq!(self.m.len(), weights.len(), "parameter count changed");
        let hyper = (self.lr, self.beta1, self.beta2, self.eps);
        let bias = (
            1.0 - self.beta1.powi(self.t as i32),
            1.0 - self.beta2.powi(self.t as i32),
        );
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
            assert_eq!(
                (w.rows(), w.cols()),
                (m.rows(), m.cols()),
                "parameter shape changed"
            );
            let (w, g) = (w.as_mut_slice(), g.as_slice());
            let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
            if first {
                sweep::<true>(hyper, bias, clamp, w, g, m, v);
            } else {
                sweep::<false>(hyper, bias, clamp, w, g, m, v);
            }
        }
    }
}

/// One parameter's Adam update with hyperparameters `(lr, beta1, beta2,
/// eps)` and bias corrections `(1 - beta1^t, 1 - beta2^t)`. On a run's
/// first step (`FIRST`) the moments' previous value is the constant
/// `+0.0`, in the same expression, instead of a read of `m` and `v`: the
/// bits equal a step from zeroed buffers, and the buffers are written
/// without being read.
fn sweep<const FIRST: bool>(
    (lr, beta1, beta2, eps): (f32, f32, f32, f32),
    (b1t, b2t): (f32, f32),
    clamp: Option<(f32, f32)>,
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    for ((wv, &gv), (mv, vv)) in w.iter_mut().zip(g).zip(m.iter_mut().zip(v.iter_mut())) {
        let (m0, v0) = if FIRST { (0.0, 0.0) } else { (*mv, *vv) };
        *mv = beta1 * m0 + (1.0 - beta1) * gv;
        *vv = beta2 * v0 + (1.0 - beta2) * gv * gv;
        let m_hat = *mv / b1t;
        let v_hat = *vv / b2t;
        *wv -= lr * m_hat / (v_hat.sqrt() + eps);
        if let Some((lo, hi)) = clamp {
            *wv = wv.clamp(lo, hi);
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

    /// Adam as a plain loop over moments that start at zero in memory and
    /// are read at every step, including the first.
    fn reference_step(
        lr: f32,
        t: u32,
        w: &mut [Matrix],
        g: &[Matrix],
        mv: &mut [(Matrix, Matrix)],
    ) {
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let (b1t, b2t) = (1.0 - b1.powi(t as i32), 1.0 - b2.powi(t as i32));
        for ((w, g), (m, v)) in w.iter_mut().zip(g).zip(mv) {
            for ((wv, &gv), (mv, vv)) in w
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mv = b1 * *mv + (1.0 - b1) * gv;
                *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                *wv -= lr * (*mv / b1t) / ((*vv / b2t).sqrt() + eps);
            }
        }
    }

    fn bits(ws: &[Matrix]) -> Vec<u32> {
        ws.iter()
            .flat_map(|w| w.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// One optimizer restarted across runs keeps the moments of earlier
    /// runs, on other shapes (reallocated) and on the same shapes (kept,
    /// stale). Every run must still step as a fresh `Adam` and as the
    /// zero-initialised reference, bit for bit. Parameter 0 starts at
    /// `-0.0` with a `-0.0` gradient: it stays `-0.0` only if the first
    /// step adds the moments' `+0.0` start (`+0.0 + -0.0` is `+0.0`)
    /// rather than folding it away.
    #[test]
    fn restarted_adam_steps_as_a_fresh_one() {
        let fill = |rows: usize, cols: usize, seed: usize| {
            let data = (0..rows * cols)
                .map(|i| (((i * 7 + seed * 3) % 11) as f32 - 5.0) * 0.1)
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        let runs: [&[(usize, usize)]; 4] = [
            &[(2, 3), (3, 1)],
            &[(3, 2), (2, 2), (1, 4)],
            &[(3, 2), (2, 2), (1, 4)],
            &[(2, 3)],
        ];
        let mut reused = Adam::new(0.3);
        for (run, shapes) in runs.iter().enumerate() {
            let lr = 0.01 * (run + 1) as f32;
            reused.restart(lr);
            let mut fresh = Adam::new(lr);
            let mut w_reused: Vec<Matrix> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| fill(r, c, run * 10 + i))
                .collect();
            w_reused[0].as_mut_slice()[0] = -0.0;
            let mut w_fresh = w_reused.clone();
            let mut w_ref = w_reused.clone();
            let mut moments: Vec<(Matrix, Matrix)> = shapes
                .iter()
                .map(|&(r, c)| (Matrix::zeros(r, c), Matrix::zeros(r, c)))
                .collect();
            for t in 1..=4 {
                let mut g: Vec<Matrix> = shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &(r, c))| fill(r, c, t as usize * 5 + i))
                    .collect();
                g[0].as_mut_slice()[0] = -0.0;
                reused.step(&mut w_reused, &g);
                fresh.step(&mut w_fresh, &g);
                reference_step(lr, t, &mut w_ref, &g, &mut moments);
                assert_eq!(bits(&w_reused), bits(&w_ref), "run {run}, step {t}");
                assert_eq!(bits(&w_fresh), bits(&w_ref), "run {run}, step {t}");
                assert_eq!(reused, fresh, "run {run}, step {t}");
            }
            assert_eq!(w_reused[0].as_slice()[0].to_bits(), (-0.0f32).to_bits());
        }
    }

    /// A parameter reshaped mid-run panics instead of updating only the
    /// part the old moments cover.
    #[test]
    #[should_panic(expected = "parameter shape changed")]
    fn reshaped_parameter_panics() {
        let mut opt = Adam::new(0.1);
        opt.step(
            &mut [Matrix::zeros(1, 2)],
            &[Matrix::from_rows(&[&[1.0, 1.0]])],
        );
        let g = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        opt.step(&mut [Matrix::zeros(2, 2)], &[g]);
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
