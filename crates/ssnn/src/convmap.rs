//! Mapping convolutional layers onto the chip.
//!
//! The bit-slice SSNN method operates on weight *matrices*; a convolution
//! becomes chip-executable through its Toeplitz unrolling
//! ([`Conv2d::unroll_to_dense`]), whose exact zeros turn into open
//! cross-point switches (sign 0) in the [`BinaryLayer`]. The same
//! binarize → bucket → bit-slice pipeline then applies unchanged — this is
//! the "arbitrary topologies" claim of Section 4.2 exercised on a
//! convolutional workload.

use crate::binarize::BinaryLayer;
use sushi_snn::conv::Conv2d;
use sushi_snn::Matrix;

/// Binarizes a convolution over `h x w` feature maps against firing
/// threshold `theta`, producing the sparse chip-executable layer.
///
/// The per-neuron scaling factor is computed over the *connected* synapses
/// only, so every output position of the same out-channel gets the same
/// folded integer threshold (they share the kernel).
pub fn binarize_conv(conv: &Conv2d, h: usize, w: usize, theta: f32) -> BinaryLayer {
    BinaryLayer::from_float(&conv.unroll_to_dense(h, w), theta)
}

/// The float reference for one spiking step of a conv layer: convolve the
/// binary frame and threshold at `theta` (stateless semantics).
pub fn conv_reference_step(
    conv: &Conv2d,
    frame: &[bool],
    h: usize,
    w: usize,
    theta: f32,
) -> Vec<bool> {
    let input = Matrix::from_vec(
        1,
        frame.len(),
        frame.iter().map(|&b| f32::from(b)).collect(),
    );
    let pre = conv.forward(&input, h, w);
    // XNOR scaling: the binarized layer fires iff the sign-sum reaches the
    // folded threshold; with uniform-magnitude kernels this equals the
    // float rule. For the reference we apply the same per-channel alpha.
    let dense = conv.unroll_to_dense(h, w);
    let mut alphas = vec![(0.0f64, 0usize); dense.cols()];
    for i in 0..dense.rows() {
        for (j, a) in alphas.iter_mut().enumerate() {
            let v = dense[(i, j)];
            if v != 0.0 {
                a.0 += f64::from(v.abs());
                a.1 += 1;
            }
        }
    }
    pre.as_slice()
        .iter()
        .enumerate()
        .map(|(j, &p)| {
            let (sum, n) = alphas[j];
            if n == 0 {
                return false;
            }
            let alpha = sum / n as f64;
            // Integer rule: sign-sum >= ceil(theta / alpha).
            let int_threshold = (f64::from(theta) / alpha).ceil().max(1.0);
            // Recover the sign-sum from the float pre-activation only when
            // magnitudes are uniform; otherwise compare the float rule.
            f64::from(p) >= alpha * int_threshold - 1e-9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::BinarizedSnn;
    use crate::bitslice::SliceSchedule;

    /// A kernel with uniform magnitudes binarizes losslessly.
    fn uniform_conv() -> Conv2d {
        // 3x3 edge-ish kernel with entries in {-0.5, 0, 0.5}.
        let w = Matrix::from_vec(9, 1, vec![0.5, -0.5, 0.5, 0.0, 0.5, -0.5, 0.5, 0.0, -0.5]);
        Conv2d::from_weights(1, 1, 3, 1, w)
    }

    #[test]
    fn unrolled_layer_is_sparse() {
        let conv = uniform_conv();
        let layer = binarize_conv(&conv, 5, 5, 1.0);
        assert_eq!(layer.inputs(), 25);
        assert_eq!(layer.outputs(), 9);
        // Each output neuron connects to at most 9 inputs (7 nonzero here).
        for j in 0..9 {
            let connected = layer.column_signs(j).iter().filter(|&&s| s != 0).count();
            assert_eq!(connected, 7, "neuron {j}");
        }
    }

    #[test]
    fn binarized_conv_matches_float_reference() {
        let conv = uniform_conv();
        let (h, w) = (5usize, 5usize);
        let layer = binarize_conv(&conv, h, w, 1.0);
        for seed in 0..32u32 {
            let frame: Vec<bool> = (0..25)
                .map(|i| (seed.wrapping_mul(i as u32 + 7)) % 3 == 0)
                .collect();
            let reference = conv_reference_step(&conv, &frame, h, w, 1.0);
            let acc = layer.accumulate(&frame);
            let chip: Vec<bool> = acc
                .iter()
                .enumerate()
                .map(|(j, &a)| a >= layer.threshold(j))
                .collect();
            assert_eq!(chip, reference, "seed {seed}");
        }
    }

    #[test]
    fn conv_layer_slices_like_any_other() {
        let conv = uniform_conv();
        let layer = binarize_conv(&conv, 5, 5, 1.0);
        let net = BinarizedSnn::from_layers(vec![layer]);
        let sched = SliceSchedule::for_network(&net, 4);
        for seed in 0..16u32 {
            let frame: Vec<bool> = (0..25)
                .map(|i| (seed.wrapping_mul(i as u32 + 3)) % 4 == 0)
                .collect();
            assert_eq!(
                sched.sliced_step(&net, &frame),
                net.step_scalar(&frame),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn shared_kernel_gives_shared_thresholds() {
        let conv = Conv2d::new(1, 2, 3, 1, 9);
        let layer = binarize_conv(&conv, 6, 6, 1.0);
        // All 16 positions of out-channel 0 share the kernel and thus the
        // folded threshold.
        let t0 = layer.threshold(0);
        for j in 1..16 {
            assert_eq!(layer.threshold(j), t0, "position {j}");
        }
        // Channel 1 may differ from channel 0 but is internally uniform.
        let t1 = layer.threshold(16);
        for j in 17..32 {
            assert_eq!(layer.threshold(j), t1, "position {j}");
        }
    }
}
