//! Which engine runs a batch, and the prediction rule every engine
//! shares.
//!
//! Two engines do the work, both over packed `u64` words and both
//! bitwise identical to the scalar `Vec<i8>` × `Vec<bool>` oracle on
//! [`BinarizedSnn`](crate::BinarizedSnn) (`step_scalar`,
//! `forward_counts_scalar`, `predict_scalar`):
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
//! every micro-batch, and [`argmax_low`] is the one prediction rule both
//! engines and the oracle share.
//!
//! # Examples
//!
//! ```
//! use sushi_ssnn::binarize::{BinaryLayer, BinarizedSnn};
//! use sushi_ssnn::packed::{PackedFrames, PackedSnn};
//!
//! let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
//! let net = BinarizedSnn::from_layers(vec![l]);
//! let packed = PackedSnn::from_network(&net);
//! let frames = vec![vec![true, true]];
//! let items = vec![PackedFrames::from_bool_frames(2, &frames)];
//! let want = net.predict_scalar(&frames);
//! assert_eq!(packed.predict_batch_packed(&items, 1), vec![want]);
//! assert_eq!(packed.predict_batch_bitplane_packed(&items, 1), vec![want]);
//! ```

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

#[cfg(test)]
mod tests {
    use crate::batchplane::BitplaneScratch;
    use crate::binarize::{BinarizedSnn, BinaryLayer};
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
        let want_counts: Vec<Vec<u32>> = data
            .iter()
            .map(|it| net.forward_counts_scalar(it))
            .collect();
        let want_preds: Vec<usize> = data.iter().map(|it| net.predict_scalar(it)).collect();
        assert_eq!(net.classes(), 6);
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
        // `BinarizedSnn`'s own per-item oracle agrees with the packed
        // engine's batch and per-item paths.
        let per_item: Vec<usize> = data.iter().map(|it| net.predict_scalar(it)).collect();
        assert_eq!(per_item, packed.predict_batch(&data, 4));
        for it in &data {
            assert_eq!(net.forward_counts_scalar(it), packed.forward_counts(it));
        }
    }
}
