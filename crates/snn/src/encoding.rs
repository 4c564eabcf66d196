//! The Poisson (rate) encoder.
//!
//! "The input data is generated using the Poisson encoder": each pixel
//! intensity in `[0, 1]` becomes, at every time step, an independent spike
//! with probability equal to the intensity. Encoding is deterministic given
//! the encoder seed and sample index, so the SpikingJelly-equivalent
//! reference and the SUSHI chip path see *identical* spike trains — the
//! paper's consistency metric depends on this.

use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic Poisson rate encoder.
///
/// # Examples
///
/// ```
/// use sushi_snn::PoissonEncoder;
///
/// let enc = PoissonEncoder::new(42);
/// let spikes = enc.encode(&[0.0, 1.0], 5, 7);
/// // Intensity 0 never fires; intensity 1 always fires.
/// assert!(spikes.iter().all(|t| t.as_slice()[0] == 0.0));
/// assert!(spikes.iter().all(|t| t.as_slice()[1] == 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoissonEncoder {
    seed: u64,
}

impl PoissonEncoder {
    /// An encoder with the given base seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Encodes one sample (`pixels` in `[0, 1]`) into `time_steps` binary
    /// spike frames of shape `1 x pixels.len()`. `sample_id` diversifies
    /// the stream across samples while keeping it reproducible.
    pub fn encode(&self, pixels: &[f32], time_steps: usize, sample_id: u64) -> Vec<Matrix> {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ sample_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..time_steps)
            .map(|_| {
                let data = pixels
                    .iter()
                    .map(|&p| f32::from(rng.gen::<f32>() < p.clamp(0.0, 1.0)))
                    .collect();
                Matrix::from_vec(1, pixels.len(), data)
            })
            .collect()
    }

    /// Encodes a batch of samples into `time_steps` frames of shape
    /// `batch x width`; `sample_ids[i]` seeds row `i`.
    ///
    /// # Panics
    ///
    /// Panics if samples have unequal widths or `sample_ids` length
    /// mismatches.
    pub fn encode_batch(
        &self,
        samples: &[&[f32]],
        time_steps: usize,
        sample_ids: &[u64],
    ) -> Vec<Matrix> {
        let mut frames = Vec::new();
        self.encode_batch_into(samples, time_steps, sample_ids, &mut frames);
        frames
    }

    /// As [`PoissonEncoder::encode_batch`], writing into caller-owned
    /// frame buffers (reshaped in place, reusing their allocations) — the
    /// allocation-free form the training loop uses. Spike rows are drawn
    /// directly into the batch frames with exactly the RNG stream of
    /// [`PoissonEncoder::encode`] (per sample: time-major, pixel-minor),
    /// so row `i` still matches an individual encode with `sample_ids[i]`.
    ///
    /// # Panics
    ///
    /// As [`PoissonEncoder::encode_batch`].
    pub fn encode_batch_into(
        &self,
        samples: &[&[f32]],
        time_steps: usize,
        sample_ids: &[u64],
        frames: &mut Vec<Matrix>,
    ) {
        assert_eq!(samples.len(), sample_ids.len(), "one id per sample");
        assert!(!samples.is_empty(), "empty batch");
        let width = samples[0].len();
        frames.resize_with(time_steps, Matrix::default);
        for f in frames.iter_mut() {
            f.reset_to(samples.len(), width);
        }
        for (row, (sample, &id)) in samples.iter().zip(sample_ids).enumerate() {
            assert_eq!(sample.len(), width, "ragged batch");
            let mut rng = StdRng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for frame in frames.iter_mut() {
                for (o, &p) in frame.row_mut(row).iter_mut().zip(sample.iter()) {
                    *o = f32::from(rng.gen::<f32>() < p.clamp(0.0, 1.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_sample_id() {
        let enc = PoissonEncoder::new(7);
        let a = enc.encode(&[0.5; 64], 5, 3);
        let b = enc.encode(&[0.5; 64], 5, 3);
        let c = enc.encode(&[0.5; 64], 5, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rate_approximates_intensity() {
        let enc = PoissonEncoder::new(11);
        let t = 2000;
        let spikes = enc.encode(&[0.3], t, 0);
        let rate: f32 = spikes.iter().map(Matrix::sum).sum::<f32>() / t as f32;
        assert!((rate - 0.3).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn extremes_are_deterministic() {
        let enc = PoissonEncoder::new(0);
        let spikes = enc.encode(&[0.0, 1.0, 2.0, -1.0], 10, 1);
        for f in &spikes {
            assert_eq!(f.as_slice()[0], 0.0);
            assert_eq!(f.as_slice()[1], 1.0);
            assert_eq!(f.as_slice()[2], 1.0); // clamped
            assert_eq!(f.as_slice()[3], 0.0); // clamped
        }
    }

    #[test]
    fn batch_rows_match_individual_encoding() {
        let enc = PoissonEncoder::new(5);
        let s0 = [0.2, 0.8];
        let s1 = [0.9, 0.1];
        let frames = enc.encode_batch(&[&s0, &s1], 4, &[10, 20]);
        let ind0 = enc.encode(&s0, 4, 10);
        let ind1 = enc.encode(&s1, 4, 20);
        for t in 0..4 {
            assert_eq!(frames[t].row(0), ind0[t].row(0));
            assert_eq!(frames[t].row(1), ind1[t].row(0));
        }
    }

    #[test]
    fn encode_batch_into_reuses_buffers_and_matches() {
        let enc = PoissonEncoder::new(5);
        let s0 = [0.2, 0.8, 0.5];
        let s1 = [0.9, 0.1, 0.4];
        let fresh = enc.encode_batch(&[&s0, &s1], 4, &[10, 20]);
        // Stale, differently-shaped buffers must be reshaped in place.
        let mut reused = vec![Matrix::zeros(7, 9); 6];
        enc.encode_batch_into(&[&s0, &s1], 4, &[10, 20], &mut reused);
        assert_eq!(reused, fresh);
    }

    #[test]
    #[should_panic(expected = "one id per sample")]
    fn batch_id_mismatch_panics() {
        let enc = PoissonEncoder::new(5);
        let s = [0.5];
        let _ = enc.encode_batch(&[&s], 3, &[1, 2]);
    }
}
