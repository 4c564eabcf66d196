//! Convolutional layers for spiking networks.
//!
//! Section 2.2 of the paper: "various topological structures can be
//! developed in SNNs ... linear mapping layers, convolutional layers",
//! and the bit-slice SSNN method maps any layer whose synapses form a
//! (sparse) matrix. This module provides a [`Conv2d`] with an
//! im2col-based forward pass and — crucially for the chip path —
//! [`Conv2d::unroll_to_dense`], the Toeplitz unrolling that turns a
//! convolution into an equivalent fully-connected weight matrix the SSNN
//! compiler already knows how to binarize, bucket and bit-slice.

use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 2-D convolution over square feature maps (valid padding).
///
/// Layout conventions: activations are rows of `batch x (channels*h*w)`,
/// channel-major (`c * h * w + y * w + x`); kernels are stored as an
/// `(in_ch*k*k) x out_ch` matrix so the forward pass is one matmul on the
/// im2col expansion.
///
/// # Examples
///
/// ```
/// use sushi_snn::conv::Conv2d;
/// use sushi_snn::Matrix;
///
/// let conv = Conv2d::new(1, 2, 3, 1, 7);
/// let input = Matrix::zeros(1, 8 * 8);
/// let out = conv.forward(&input, 8, 8);
/// assert_eq!(out.cols(), 2 * 6 * 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    /// `(in_ch * k * k) x out_ch`.
    weights: Matrix,
}

impl Conv2d {
    /// A convolution with Kaiming-uniform initial weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, stride: usize, seed: u64) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0 && stride > 0,
            "zero conv dimension"
        );
        let fan_in = in_ch * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..fan_in * out_ch)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            in_ch,
            out_ch,
            kernel,
            stride,
            weights: Matrix::from_vec(fan_in, out_ch, data),
        }
    }

    /// Builds from explicit weights (`(in_ch*k*k) x out_ch`).
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn from_weights(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        weights: Matrix,
    ) -> Self {
        assert_eq!(
            weights.rows(),
            in_ch * kernel * kernel,
            "kernel shape mismatch"
        );
        assert_eq!(weights.cols(), out_ch, "output channel mismatch");
        Self {
            in_ch,
            out_ch,
            kernel,
            stride,
            weights,
        }
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.kernel && w >= self.kernel,
            "kernel larger than input"
        );
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }

    /// The kernel weights (`(in_ch*k*k) x out_ch`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// im2col: expands `input` (`batch x in_ch*h*w`) into patch rows
    /// (`batch*oh*ow x in_ch*k*k`).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn im2col(&self, input: &Matrix, h: usize, w: usize) -> Matrix {
        assert_eq!(input.cols(), self.in_ch * h * w, "input width mismatch");
        let (oh, ow) = self.out_size(h, w);
        let k = self.kernel;
        let mut col = Matrix::zeros(input.rows() * oh * ow, self.in_ch * k * k);
        for b in 0..input.rows() {
            let row = input.row(b);
            for oy in 0..oh {
                for ox in 0..ow {
                    let crow = col.row_mut((b * oh + oy) * ow + ox);
                    for c in 0..self.in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let y = oy * self.stride + ky;
                                let x = ox * self.stride + kx;
                                crow[(c * k + ky) * k + kx] = row[c * h * w + y * w + x];
                            }
                        }
                    }
                }
            }
        }
        col
    }

    /// Forward pass: `batch x in_ch*h*w` spikes to `batch x out_ch*oh*ow`
    /// pre-activations.
    pub fn forward(&self, input: &Matrix, h: usize, w: usize) -> Matrix {
        let (oh, ow) = self.out_size(h, w);
        let col = self.im2col(input, h, w);
        let out = col.matmul(&self.weights); // (batch*oh*ow) x out_ch
                                             // Transpose the per-position channel layout into channel-major rows.
        let mut res = Matrix::zeros(input.rows(), self.out_ch * oh * ow);
        for b in 0..input.rows() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let src = out.row((b * oh + oy) * ow + ox);
                    let dst = res.row_mut(b);
                    for (c, &v) in src.iter().enumerate() {
                        dst[c * oh * ow + oy * ow + ox] = v;
                    }
                }
            }
        }
        res
    }

    /// Toeplitz unrolling: the equivalent dense weight matrix
    /// (`in_ch*h*w x out_ch*oh*ow`) such that
    /// `input.matmul(&unrolled) == conv.forward(input, h, w)` exactly.
    /// This is how a convolutional SSNN reaches the chip: the unrolled
    /// matrix feeds the same binarize → bucket → bit-slice pipeline as any
    /// fully-connected layer.
    pub fn unroll_to_dense(&self, h: usize, w: usize) -> Matrix {
        let (oh, ow) = self.out_size(h, w);
        let k = self.kernel;
        let mut dense = Matrix::zeros(self.in_ch * h * w, self.out_ch * oh * ow);
        for oc in 0..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let out_idx = oc * oh * ow + oy * ow + ox;
                    for c in 0..self.in_ch {
                        for ky in 0..k {
                            for kx in 0..k {
                                let y = oy * self.stride + ky;
                                let x = ox * self.stride + kx;
                                let in_idx = c * h * w + y * w + x;
                                dense[(in_idx, out_idx)] =
                                    self.weights[((c * k + ky) * k + kx, oc)];
                            }
                        }
                    }
                }
            }
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_input(batch: usize, n: usize) -> Matrix {
        Matrix::from_vec(
            batch,
            n,
            (0..batch * n).map(|i| (i % 7) as f32 - 3.0).collect(),
        )
    }

    #[test]
    fn out_size_valid_padding() {
        let c = Conv2d::new(1, 1, 3, 1, 0);
        assert_eq!(c.out_size(8, 8), (6, 6));
        let s = Conv2d::new(1, 1, 3, 2, 0);
        assert_eq!(s.out_size(9, 9), (4, 4));
    }

    #[test]
    fn identity_kernel_reproduces_input_window() {
        // A 1x1 kernel with weight 1 is the identity on the feature map.
        let w = Matrix::from_rows(&[&[1.0]]);
        let c = Conv2d::from_weights(1, 1, 1, 1, w);
        let x = ramp_input(2, 16);
        let y = c.forward(&x, 4, 4);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel computes window sums.
        let w = Matrix::from_vec(9, 1, vec![1.0; 9]);
        let c = Conv2d::from_weights(1, 1, 3, 1, w);
        let x = Matrix::from_vec(1, 16, vec![1.0; 16]);
        let y = c.forward(&x, 4, 4);
        assert_eq!(y.as_slice(), &[9.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn unrolled_dense_is_exactly_equivalent() {
        for (in_ch, out_ch, k, stride, h, w) in [
            (1usize, 2usize, 3usize, 1usize, 6usize, 6usize),
            (2, 3, 2, 2, 6, 4),
            (3, 1, 3, 1, 5, 5),
        ] {
            let conv = Conv2d::new(in_ch, out_ch, k, stride, 42);
            let x = ramp_input(3, in_ch * h * w);
            let direct = conv.forward(&x, h, w);
            let dense = conv.unroll_to_dense(h, w);
            let via_dense = x.matmul(&dense);
            assert_eq!(direct.cols(), via_dense.cols());
            for (a, b) in direct.as_slice().iter().zip(via_dense.as_slice()) {
                assert!((a - b).abs() < 1e-4, "conv {in_ch},{out_ch},{k},{stride}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn oversized_kernel_panics() {
        let _ = Conv2d::new(1, 1, 5, 1, 0).out_size(4, 4);
    }
}
