//! The unified inference entry-point API: one [`InferenceBackend`] trait
//! over the three engines, selected at runtime by a [`Backend`] enum.
//!
//! PR 5 grew the engine zoo to three bitwise-identical implementations —
//! the scalar `Vec<i8>` × `Vec<bool>` oracle, the per-image bit-packed
//! XNOR/popcount path ([`crate::packed`]) and now the 64-image bitplane
//! batch path ([`crate::batchplane`]) — each with its own ad-hoc entry
//! points. Consumers (benches, the serving layer, the experiment
//! harness) kept re-implementing the same "which engine?" plumbing. This
//! module is the seam: pick a [`Backend`], call [`Backend::select`], and
//! program against the trait. Because every implementation is bitwise
//! identical (pinned by the proptest oracles), backend choice is purely
//! a performance decision.
//!
//! # Examples
//!
//! ```
//! use sushi_ssnn::backend::{Backend, InferenceBackend};
//! use sushi_ssnn::binarize::{BinaryLayer, BinarizedSnn};
//! use sushi_ssnn::packed::PackedSnn;
//!
//! let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
//! let net = BinarizedSnn::from_layers(vec![l]);
//! let packed = PackedSnn::from_network(&net);
//! let frames = vec![vec![true, true]];
//! let reference = Backend::Scalar.select(&net, &packed).predict(&frames);
//! for b in Backend::ALL {
//!     assert_eq!(b.select(&net, &packed).predict(&frames), reference);
//! }
//! assert_eq!("bitplane".parse::<Backend>(), Ok(Backend::Bitplane));
//! ```

use crate::binarize::BinarizedSnn;
use crate::packed::PackedSnn;
use std::fmt;
use std::str::FromStr;
use sushi_par::fan_out;

/// Which inference engine to run. All three are bitwise identical; the
/// choice only affects throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The `Vec<i8>` × `Vec<bool>` reference path — the oracle every
    /// fast path must match. Slow; for validation and debugging.
    Scalar,
    /// The per-image bit-packed XNOR/popcount engine (PR 5): best
    /// latency for a single image.
    #[default]
    Packed,
    /// The 64-image bitplane batch engine: best throughput once a batch
    /// is deep enough to fill lanes (single images pay transpose
    /// overhead for nothing).
    Bitplane,
}

impl Backend {
    /// Every backend, in oracle-first order.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Packed, Backend::Bitplane];

    /// The backend's canonical lower-case name (what [`FromStr`] parses).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Packed => "packed",
            Backend::Bitplane => "bitplane",
        }
    }

    /// Binds this choice to a network, yielding a ready-to-call
    /// [`InferenceBackend`]. The scalar path runs on `net`, the packed
    /// and bitplane paths on `packed` (callers that only hold a
    /// [`PackedSnn`] — e.g. the serving layer — use it directly and
    /// treat `Scalar` as `Packed`, which is bitwise identical anyway).
    pub fn select<'a>(self, net: &'a BinarizedSnn, packed: &'a PackedSnn) -> SelectedBackend<'a> {
        match self {
            Backend::Scalar => SelectedBackend::Scalar(ScalarBackend(net)),
            Backend::Packed => SelectedBackend::Packed(packed),
            Backend::Bitplane => SelectedBackend::Bitplane(BitplaneBackend(packed)),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| format!("unknown backend {s:?} (scalar, packed or bitplane)"))
    }
}

/// Argmax with ties to the lowest index, matching the float reference —
/// the one prediction rule shared by every backend (previously
/// duplicated privately in `binarize` and `packed`). Public so callers
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

/// A ready-to-call inference engine: per-class spike counts, single-item
/// prediction, and deterministic parallel batch prediction.
///
/// Implementations must be bitwise identical for the same network — the
/// scalar path is the oracle; `predict` must equal the argmax (ties low)
/// of `forward_counts`, and `predict_batch` must be input-ordered and
/// worker-count invariant.
pub trait InferenceBackend: Sync {
    /// Number of output classes.
    fn classes(&self) -> usize;

    /// Per-class spike counts over one item's frames.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32>;

    /// Predicted class for one item (argmax of spike counts, ties to the
    /// lowest index).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        argmax_low(&self.forward_counts(frames))
    }

    /// Predicts every item of a dataset on at most `workers` scoped
    /// threads, input-ordered and worker-count invariant
    /// (`workers <= 1` runs on the calling thread).
    ///
    /// The default splits items into contiguous near-equal chunks and
    /// calls [`InferenceBackend::predict`] per item; engines with
    /// cheaper batch strategies override it.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or if a worker thread panics.
    fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
        Self: Sized,
    {
        let mut preds = vec![0usize; items.len()];
        fan_out(&mut preds, workers, 1, |r, out| {
            for (item, slot) in items[r].iter().zip(out) {
                *slot = self.predict(item.as_ref());
            }
        });
        preds
    }
}

/// The packed per-image engine as a backend (its inherent methods are
/// already the trait shape — including the scratch-reusing parallel
/// `predict_batch`).
impl InferenceBackend for PackedSnn {
    fn classes(&self) -> usize {
        PackedSnn::classes(self)
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        PackedSnn::forward_counts(self, frames)
    }

    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        PackedSnn::predict(self, frames)
    }

    fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
    {
        PackedSnn::predict_batch(self, items, workers)
    }
}

/// A [`BinarizedSnn`] as a backend: its inherent entry points, which run
/// the packed fast path of its embedded [`crate::PackedLayer`]s.
impl InferenceBackend for BinarizedSnn {
    fn classes(&self) -> usize {
        BinarizedSnn::classes(self)
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        BinarizedSnn::forward_counts(self, frames)
    }

    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        BinarizedSnn::predict(self, frames)
    }
}

/// The scalar oracle as a backend: byte-wise `Vec<i8>` × `Vec<bool>`
/// inner loops, no packing anywhere. What every fast path is tested
/// against.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend<'a>(pub &'a BinarizedSnn);

impl InferenceBackend for ScalarBackend<'_> {
    fn classes(&self) -> usize {
        self.0.classes()
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        self.0.forward_counts_scalar_impl(frames)
    }
}

/// The 64-image bitplane batch engine as a backend. Single-item calls
/// run as one-lane batches (correct, but paying the transpose for
/// nothing); `predict_batch` is where it earns its keep.
#[derive(Debug, Clone, Copy)]
pub struct BitplaneBackend<'a>(pub &'a PackedSnn);

impl InferenceBackend for BitplaneBackend<'_> {
    fn classes(&self) -> usize {
        self.0.classes()
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        self.0
            .forward_counts_bitplane(&[frames])
            .pop()
            .expect("one item in, one count vector out")
    }

    fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
    {
        self.0.predict_batch_bitplane(items, workers)
    }
}

/// A runtime-selected backend (the result of [`Backend::select`]):
/// dispatches every trait method to the chosen engine.
#[derive(Debug, Clone, Copy)]
pub enum SelectedBackend<'a> {
    /// The scalar oracle.
    Scalar(ScalarBackend<'a>),
    /// The per-image packed engine.
    Packed(&'a PackedSnn),
    /// The bitplane batch engine.
    Bitplane(BitplaneBackend<'a>),
}

impl SelectedBackend<'_> {
    /// Which [`Backend`] this selection runs.
    pub fn backend(&self) -> Backend {
        match self {
            SelectedBackend::Scalar(_) => Backend::Scalar,
            SelectedBackend::Packed(_) => Backend::Packed,
            SelectedBackend::Bitplane(_) => Backend::Bitplane,
        }
    }
}

impl InferenceBackend for SelectedBackend<'_> {
    fn classes(&self) -> usize {
        match self {
            SelectedBackend::Scalar(b) => b.classes(),
            SelectedBackend::Packed(b) => InferenceBackend::classes(*b),
            SelectedBackend::Bitplane(b) => b.classes(),
        }
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        match self {
            SelectedBackend::Scalar(b) => b.forward_counts(frames),
            SelectedBackend::Packed(b) => InferenceBackend::forward_counts(*b, frames),
            SelectedBackend::Bitplane(b) => b.forward_counts(frames),
        }
    }

    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        match self {
            SelectedBackend::Scalar(b) => b.predict(frames),
            SelectedBackend::Packed(b) => InferenceBackend::predict(*b, frames),
            SelectedBackend::Bitplane(b) => b.predict(frames),
        }
    }

    fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
    {
        match self {
            SelectedBackend::Scalar(b) => b.predict_batch(items, workers),
            SelectedBackend::Packed(b) => InferenceBackend::predict_batch(*b, items, workers),
            SelectedBackend::Bitplane(b) => b.predict_batch(items, workers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::BinaryLayer;

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
    fn backend_parse_display_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(b.to_string().parse::<Backend>(), Ok(b));
        }
        assert_eq!(Backend::default(), Backend::Packed);
        assert!("simd".parse::<Backend>().is_err());
    }

    #[test]
    fn all_backends_agree_on_every_trait_method() {
        let (net, packed) = fixture();
        let data = items(0xA11, 70);
        let oracle = ScalarBackend(&net);
        let want_counts: Vec<Vec<u32>> = data.iter().map(|it| oracle.forward_counts(it)).collect();
        let want_preds = oracle.predict_batch(&data, 1);
        for b in Backend::ALL {
            let sel = b.select(&net, &packed);
            assert_eq!(sel.backend(), b);
            assert_eq!(sel.classes(), 6);
            for (it, want) in data.iter().zip(&want_counts) {
                assert_eq!(&sel.forward_counts(it), want, "{b} counts");
            }
            for workers in [1usize, 3] {
                assert_eq!(sel.predict_batch(&data, workers), want_preds, "{b} batch");
            }
        }
    }

    #[test]
    fn binarized_snn_implements_the_trait_directly() {
        let (net, packed) = fixture();
        let data = items(0xB0B, 9);
        // The default (chunked per-item) batch path agrees too.
        assert_eq!(
            InferenceBackend::predict_batch(&net, &data, 4),
            packed.predict_batch(&data, 4),
        );
        assert_eq!(
            InferenceBackend::forward_counts(&net, &data[0]),
            packed.forward_counts(&data[0]),
        );
    }
}
