//! Seeded input generators. Every input the workloads feed the program
//! comes from here, as a pure function of the workload seed.

use std::ops::Range;
use sushi_cells::Ps;
use sushi_sim::{Stimulus, StimulusBuilder};
use sushi_snn::data::{synth_digits, Dataset};
use sushi_snn::PoissonEncoder;
use sushi_ssnn::{BinaryLayer, PackedFrames, PackedLayer, PackedSnn};

/// Time steps per sample, as in the paper (T = 5).
pub const TIME_STEPS: usize = 5;

/// SplitMix64: small, fast and fully specified, so generated inputs never
/// depend on a library's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream` (distinct streams of one
    /// seed are independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `range`.
    pub fn below(&mut self, range: Range<u64>) -> u64 {
        range.start + self.next_u64() % (range.end - range.start)
    }
}

/// Stream ids, one per generated input kind.
const VERIFY_LAYER: u64 = 1;
const VERIFY_SPIKES: u64 = 2;
const MESH_PULSES: u64 = 3;
const INFER_NET: u64 = 4;
const DIGITS: u64 = 5;

/// A binarized `inputs -> outputs` layer with balanced signs and
/// thresholds in `1..=12`, so a sparse input fires some columns and not
/// others.
pub fn verify_layer(seed: u64, inputs: usize, outputs: usize) -> BinaryLayer {
    let mut rng = Rng::new(seed, VERIFY_LAYER);
    let signs = (0..inputs * outputs)
        .map(|_| if rng.next_u64() & 1 == 0 { 1 } else { -1 })
        .collect();
    let thresholds = (0..outputs).map(|_| rng.below(1..13) as i64).collect();
    BinaryLayer::from_signs(signs, inputs, outputs, thresholds)
}

/// Input spike frames for `samples` samples of `TIME_STEPS` steps each,
/// with exactly `active` of the `width` inputs spiking per step (a seeded
/// subset), so every seed asks for the same amount of work.
pub fn spike_frames(
    seed: u64,
    samples: usize,
    width: usize,
    active: usize,
) -> Vec<Vec<Vec<bool>>> {
    let mut rng = Rng::new(seed, VERIFY_SPIKES);
    let mut idx: Vec<usize> = (0..width).collect();
    (0..samples * TIME_STEPS)
        .map(|_| {
            let mut frame = vec![false; width];
            for k in 0..active {
                let j = k + rng.below(0..(width - k) as u64) as usize;
                idx.swap(k, j);
                frame[idx[k]] = true;
            }
            frame
        })
        .collect::<Vec<_>>()
        .chunks(TIME_STEPS)
        .map(<[_]>::to_vec)
        .collect()
}

/// Stimulus for an `npes`-die [`sushi_arch::npe_mesh`] board: every SC
/// set to emit on fall at t = 0, and a dense pulse train of `pulses` on
/// every die's local input with seeded spacing of 150-250 ps (above the
/// cells' safe interval, so the board runs violation-free).
pub fn mesh_stimulus(seed: u64, npes: usize, sc_per_npe: usize, pulses: usize) -> Stimulus {
    let mut rng = Rng::new(seed, MESH_PULSES);
    let mut b = StimulusBuilder::new();
    for i in 0..npes {
        for bit in 0..sc_per_npe {
            b = b
                .pulse(&format!("npe{i}_set1_{bit}"), 0.0)
                .expect("one pulse per channel");
        }
        let mut t: Ps = 500.0 + 37.0 * i as Ps;
        for _ in 0..pulses {
            b = b
                .pulse(&format!("in{i}"), t)
                .expect("spacing exceeds the safe interval");
            t += 150.0 + rng.below(0..101) as Ps;
        }
    }
    b.build()
}

/// A paper-shape (784-800-10) packed network with seeded signs (about a
/// fifth of them zero) and thresholds sized to the expected input sums,
/// so hidden and output neurons fire on digit-like inputs.
pub fn infer_layers(seed: u64) -> Vec<(Vec<i8>, usize, usize, Vec<i64>)> {
    let mut rng = Rng::new(seed, INFER_NET);
    [(784usize, 800usize, 2..9u64), (800, 10, 1..6)]
        .into_iter()
        .map(|(ins, outs, theta)| {
            let signs: Vec<i8> = (0..ins * outs)
                .map(|_| match rng.below(0..10) {
                    0 | 1 => 0,
                    2..=5 => -1,
                    _ => 1,
                })
                .collect();
            let thresholds = (0..outs).map(|_| rng.below(theta.clone()) as i64).collect();
            (signs, ins, outs, thresholds)
        })
        .collect()
}

/// Packs [`infer_layers`] into the serving engine's network.
pub fn pack_network(layers: &[(Vec<i8>, usize, usize, Vec<i64>)]) -> PackedSnn {
    PackedSnn::from_layers(
        layers
            .iter()
            .map(|(s, i, o, t)| PackedLayer::from_parts(s, *i, *o, t))
            .collect(),
    )
}

/// `n` seeded MNIST-like digits.
pub fn digits(seed: u64, n: usize) -> Dataset {
    synth_digits(n, seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ DIGITS)
}

/// Poisson-encoded bool spike frames for every image (sample id = index).
pub fn encode_images(seed: u64, data: &Dataset) -> Vec<Vec<Vec<bool>>> {
    let enc = PoissonEncoder::new(seed);
    data.images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            enc.encode(img, TIME_STEPS, i as u64)
                .into_iter()
                .map(|m| m.as_slice().iter().map(|&v| v > 0.5).collect())
                .collect()
        })
        .collect()
}

/// The same frames in the engine's packed representation.
pub fn pack_frames(width: usize, frames: &[Vec<Vec<bool>>]) -> Vec<PackedFrames> {
    frames
        .iter()
        .map(|f| PackedFrames::from_bool_frames(width, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| (5..9).contains(&r.below(5..9))));
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let layer = |s| verify_layer(s, 40, 6);
        assert_eq!(layer(1), layer(1));
        assert_ne!(layer(1), layer(2));
        let frames = spike_frames(1, 3, 40, 6);
        assert_eq!(frames, spike_frames(1, 3, 40, 6));
        assert_ne!(frames, spike_frames(2, 3, 40, 6));
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().flatten().all(|f| f.iter().filter(|&&b| b).count() == 6));
        let stim = |s| mesh_stimulus(s, 2, 3, 20);
        assert_eq!(stim(5).pulses("in1"), stim(5).pulses("in1"));
        assert_ne!(stim(5).pulses("in1"), stim(6).pulses("in1"));
        assert_eq!(pack_network(&infer_layers(9)), pack_network(&infer_layers(9)));
        assert_ne!(pack_network(&infer_layers(9)), pack_network(&infer_layers(10)));
        assert_eq!(digits(4, 12), digits(4, 12));
        assert_ne!(digits(4, 12).images, digits(5, 12).images);
        let d = digits(4, 3);
        assert_eq!(encode_images(4, &d), encode_images(4, &d));
        assert_ne!(encode_images(4, &d), encode_images(5, &d));
    }

    #[test]
    fn mesh_pulses_respect_the_safe_interval() {
        let stim = mesh_stimulus(11, 3, 2, 200);
        for die in 0..3 {
            let p = stim.pulses(&format!("in{die}"));
            assert_eq!(p.len(), 200);
            assert!(p.windows(2).all(|w| w[1] - w[0] >= 150.0));
        }
    }
}
