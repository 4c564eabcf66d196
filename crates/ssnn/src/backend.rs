//! Which engine runs a batch, and the oracle every engine answers to.
//!
//! Two engines do the work, both over packed `u64` words and both
//! bitwise identical to the scalar `Vec<i8>` × `Vec<bool>` reference:
//!
//! * the per-image packed engine ([`crate::packed`]): one image per
//!   sweep, the lowest latency for a lone image;
//! * the 64-lane bitplane engine ([`crate::batchplane`]): up to 64
//!   images per weight-stationary sweep. It pays one transpose per lane
//!   group, so it only wins once the batch is deep enough.
//!
//! The batch depth alone picks between them: from
//! [`BITPLANE_MIN_LANES`] images on, the bitplane engine; below it, the
//! per-image one. The serving executor applies exactly this rule to
//! every micro-batch. [`ScalarBackend`] is the oracle the proptests hold
//! both engines to, and [`argmax_low`] the one prediction rule all three
//! share.
//!
//! # Examples
//!
//! ```
//! use sushi_ssnn::backend::ScalarBackend;
//! use sushi_ssnn::binarize::{BinaryLayer, BinarizedSnn};
//! use sushi_ssnn::packed::{PackedFrames, PackedSnn};
//!
//! let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
//! let net = BinarizedSnn::from_layers(vec![l]);
//! let packed = PackedSnn::from_network(&net);
//! let frames = vec![vec![true, true]];
//! let items = vec![PackedFrames::from_bool_frames(2, &frames)];
//! let want = ScalarBackend(&net).predict(&frames);
//! assert_eq!(packed.predict_batch_packed(&items, 1), vec![want]);
//! assert_eq!(packed.predict_batch_bitplane_packed(&items, 1), vec![want]);
//! ```

use crate::binarize::BinarizedSnn;

/// The batch depth from which the bitplane engine serves a batch: a
/// micro-batch of at least this many images runs as one lane group,
/// a shallower one image by image on the packed engine.
///
/// On the 784–800–10 paper shape (2-vCPU AVX-512 VM) a lone image costs
/// bitplane about 4× what it costs per-image packed, the two break even
/// near 4 lanes, and at 8 lanes bitplane is about 2× faster per image
/// (EXPERIMENTS.md, "Bitplane crossover").
pub const BITPLANE_MIN_LANES: usize = 8;

/// Argmax with ties to the lowest index, matching the float reference —
/// the one prediction rule shared by every engine. Public so callers
/// that keep their own count buffers (e.g. a serving executor reusing
/// scratch across batches) apply the exact same rule as the engines.
///
/// # Panics
///
/// Panics if `counts` is empty.
pub fn argmax_low(counts: &[u32]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// The scalar oracle: byte-wise `Vec<i8>` × `Vec<bool>` inner loops, no
/// packing anywhere. What every fast path is tested against.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend<'a>(pub &'a BinarizedSnn);

impl ScalarBackend<'_> {
    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.0.classes()
    }

    /// Per-class spike counts over one item's frames.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        self.0.forward_counts_scalar_impl(frames)
    }

    /// Predicted class for one item (argmax of spike counts, ties to the
    /// lowest index).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn predict(&self, frames: &[Vec<bool>]) -> usize {
        argmax_low(&self.forward_counts(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchplane::BitplaneScratch;
    use crate::binarize::BinaryLayer;
    use crate::packed::{PackedFrames, PackedSnn, PredictScratch};

    fn fixture() -> (BinarizedSnn, PackedSnn) {
        let mut st = 0x600Du64;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        let mut layer = |ins: usize, outs: usize| {
            let signs: Vec<i8> = (0..ins * outs)
                .map(|_| match next() % 5 {
                    0 => 0,
                    1 | 2 => -1,
                    _ => 1,
                })
                .collect();
            let thresholds: Vec<i64> = (0..outs).map(|_| 1 + (next() % 4) as i64).collect();
            BinaryLayer::from_signs(signs, ins, outs, thresholds)
        };
        let net = BinarizedSnn::from_layers(vec![layer(70, 20), layer(20, 6)]);
        let packed = PackedSnn::from_network(&net);
        (net, packed)
    }

    fn items(seed: u64, count: usize) -> Vec<Vec<Vec<bool>>> {
        let mut st = seed | 1;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        (0..count)
            .map(|_| {
                (0..3)
                    .map(|_| (0..70).map(|_| next() % 4 == 0).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_backends_agree_on_every_trait_method() {
        let (net, packed) = fixture();
        let data = items(0xA11, 70);
        let packed_items: Vec<PackedFrames> = data
            .iter()
            .map(|it| PackedFrames::from_bool_frames(70, it))
            .collect();
        let oracle = ScalarBackend(&net);
        let want_counts: Vec<Vec<u32>> = data.iter().map(|it| oracle.forward_counts(it)).collect();
        let want_preds: Vec<usize> = data.iter().map(|it| oracle.predict(it)).collect();
        assert_eq!(oracle.classes(), 6);
        assert_eq!(packed.classes(), 6);
        // Per image: the bool entry points and the scratch-reusing
        // packed-word ones.
        let mut s = PredictScratch::new();
        let mut counts = Vec::new();
        for (((it, p), want), &pred) in data
            .iter()
            .zip(&packed_items)
            .zip(&want_counts)
            .zip(&want_preds)
        {
            assert_eq!(&packed.forward_counts(it), want, "packed counts");
            assert_eq!(packed.predict(it), pred, "packed predict");
            packed.forward_counts_packed_into(p, &mut s, &mut counts);
            assert_eq!(&counts, want, "packed-word counts");
            assert_eq!(
                packed.predict_packed_with(p, &mut s),
                pred,
                "packed-word predict"
            );
        }
        // Per 64-lane group on the bitplane engine.
        let mut bs = BitplaneScratch::new();
        let mut group_counts = vec![Vec::new(); 64];
        for (group, want) in packed_items.chunks(64).zip(want_counts.chunks(64)) {
            let got = &mut group_counts[..group.len()];
            packed.bitplane_group_counts_packed(group, &mut bs, got);
            assert_eq!(got, want, "bitplane group counts");
        }
        // Whole batches on both engines.
        for workers in [1usize, 3] {
            assert_eq!(
                packed.predict_batch(&data, workers),
                want_preds,
                "packed batch"
            );
            assert_eq!(
                packed.predict_batch_packed(&packed_items, workers),
                want_preds,
                "packed-word batch"
            );
            assert_eq!(
                packed.predict_batch_bitplane_packed(&packed_items, workers),
                want_preds,
                "bitplane batch"
            );
        }
    }

    #[test]
    fn binarized_snn_implements_the_trait_directly() {
        let (net, packed) = fixture();
        let data = items(0xB0B, 9);
        // `BinarizedSnn`'s own per-item entry points agree with the
        // packed engine's batch and per-item paths.
        let per_item: Vec<usize> = data.iter().map(|it| net.predict(it)).collect();
        assert_eq!(per_item, packed.predict_batch(&data, 4));
        assert_eq!(
            net.forward_counts(&data[0]),
            packed.forward_counts(&data[0])
        );
    }
}
