//! Bit-packed XNOR/popcount SSNN inference.
//!
//! A ±1-weight, binary-spike network is the textbook case for 64-wide
//! bitwise evaluation: each output neuron's sign column becomes two `u64`
//! bit vectors — a *connectivity* mask (`sign != 0`; zero signs are open
//! cross-point switches) and a *polarity* mask (`sign > 0`) — and each
//! input frame becomes one bit vector of active inputs. The integer
//! pre-activation of neuron `j` is then pure popcount arithmetic:
//!
//! ```text
//! xa    = x & conn_j            // active, connected inputs
//! p     = popcount(xa & pos_j)  // excitatory pulses received
//! acc_j = 2*p - popcount(xa)    // = p - (popcount(xa) - p)
//! ```
//!
//! which is the XNOR-Net identity `acc = ones - 2*popcount(x ^ w)`
//! restricted to active, connected inputs. Every quantity is an exact
//! integer, so packed results are **bitwise identical** to the scalar
//! `Vec<i8>` × `Vec<bool>` path in [`crate::binarize`] — thresholds
//! included. Columns are stored column-major (`words` consecutive `u64`
//! per neuron) so an accumulate is one contiguous sweep per column; pad
//! bits past `inputs` are kept zero by construction on both the column
//! and the frame side.
//!
//! Steps are stateless, so an image's frames run through each layer in
//! blocks of up to eight, one block's spike words per layer output in
//! [`PredictScratch`]. On [`CpuTier::Avx512`] a layer's block step is
//! one kernel that takes eight neurons per pass: per frame, eight `zmm`
//! accumulators over 8-word chunks of the eight columns, one
//! transpose-add that leaves neuron `k`'s sum in lane `k`, and one
//! vector `cmpge` against the group's thresholds for its eight output
//! bits — no horizontal sum and no branch per neuron, and the group's
//! masks stay in L1 across the block. Lower tiers sweep the block one
//! frame at a time (AVX2, POPCNT or portable).
//!
//! [`PackedSnn::predict_batch`] fans a dataset over workers with
//! `sushi_par::fan_out`, in the `sushi_sim::BatchRunner` style: items are
//! assigned to workers in contiguous chunks and each worker writes only
//! its own output slots, so
//! the merged prediction vector is in input order and — predictions being
//! pure functions of the item — bitwise identical for any worker count.
//!
//! # Examples
//!
//! ```
//! use sushi_ssnn::binarize::{BinaryLayer, BinarizedSnn};
//! use sushi_ssnn::packed::PackedSnn;
//!
//! let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
//! let net = BinarizedSnn::from_layers(vec![l]);
//! let packed = PackedSnn::from_network(&net);
//! assert_eq!(packed.step(&[true, true]), net.step_scalar(&[true, true]));
//! ```

use crate::backend::argmax_low;
use crate::binarize::BinarizedSnn;
use std::ops::Range;
use sushi_par::{cpu_tier, fan_out, CpuTier};

/// Frames per block of the per-image forward pass: the AVX-512 block
/// step reuses a neuron group's masks across this many frames, and
/// [`PredictScratch`] holds this many frames per layer output.
const FRAME_BLOCK: usize = 8;

/// A sequence of equal-width frames, each bit-packed into
/// `width.div_ceil(64)` consecutive `u64` words, little end first: bit
/// `i` of a frame lives in word `i / 64` at position `i % 64`, and pad
/// bits past `width` are always zero. Every packed spike vector in the
/// crate (a layer's output, a bit-slice step's input) uses this word
/// layout.
///
/// This is the one frame type and the canonical packed *request*
/// payload: one image's spike
/// frames, packed once at the edge (from bools, wire bytes or raw
/// words) and consumed by the engine without ever expanding back to
/// bools — [`PackedSnn::predict_packed_with`] /
/// [`PackedSnn::predict_batch_packed`] on the per-image path and
/// [`PackedSnn::bitplane_group_counts_packed`] on the batch path.
/// `reset` + `push_frame_*` reuse the word allocation, so a long-lived
/// holder (a serving connection, a load-generator client) refills one
/// of these allocation-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedFrames {
    width: usize,
    words_per_frame: usize,
    count: usize,
    words: Vec<u64>,
}

impl PackedFrames {
    /// An empty sequence of zero-bit frames; call [`PackedFrames::reset`]
    /// to give it a width before pushing frames.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs a slice of equal-width bool frames.
    ///
    /// # Panics
    ///
    /// Panics if any frame's width is not `width`.
    pub fn from_bool_frames<F: AsRef<[bool]>>(width: usize, frames: &[F]) -> Self {
        let mut p = Self::new();
        p.reset(width);
        for f in frames {
            p.push_frame_from_bools(f.as_ref());
        }
        p
    }

    /// Clears all frames and sets the frame width, keeping the word
    /// allocation for reuse.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.words_per_frame = width.div_ceil(64);
        self.count = 0;
        self.words.clear();
    }

    /// Bits per frame.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no frames are held.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Words per packed frame (`width.div_ceil(64)`).
    pub fn words_per_frame(&self) -> usize {
        self.words_per_frame
    }

    /// The packed words of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn frame(&self, t: usize) -> &[u64] {
        assert!(t < self.count, "frame {t} out of {}", self.count);
        &self.words[t * self.words_per_frame..(t + 1) * self.words_per_frame]
    }

    /// The frames in order, each as its packed words.
    pub fn frames(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.count).map(move |t| self.frame(t))
    }

    /// Appends one frame from bools. Packing is branchless and word at a
    /// time: a per-bit `if b { set }` costs a mispredict per spike on
    /// dense frames.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not exactly `width` bools long.
    pub fn push_frame_from_bools(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.width, "frame width mismatch");
        let base = self.words.len();
        self.words.resize(base + self.words_per_frame, 0);
        let dst = &mut self.words[base..];
        let mut chunks = bits.chunks_exact(64);
        let mut w = 0;
        for chunk in &mut chunks {
            let mut word = 0u64;
            for (bit, &b) in chunk.iter().enumerate() {
                word |= u64::from(b) << bit;
            }
            dst[w] = word;
            w += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = 0u64;
            for (bit, &b) in rem.iter().enumerate() {
                word |= u64::from(b) << bit;
            }
            dst[w] = word;
        }
        self.count += 1;
    }

    /// Appends one frame straight from its wire representation:
    /// `width.div_ceil(8)` bytes, bits packed LSB-first (bit `i` in byte
    /// `i / 8` at position `i % 8` — the `sushi-serve` socket frame
    /// layout). Whole words are assembled with one little-endian load
    /// per 8 bytes; pad bits past `width` in the final byte are masked
    /// off, so the pad-bit invariant holds even for sloppy clients.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `width.div_ceil(8)` bytes long.
    pub fn push_frame_from_wire_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.width.div_ceil(8),
            "wire frame byte count mismatch"
        );
        let base = self.words.len();
        self.words.resize(base + self.words_per_frame, 0);
        let dst = &mut self.words[base..];
        let mut chunks = bytes.chunks_exact(8);
        for (w, chunk) in chunks.by_ref().enumerate() {
            dst[w] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            dst[bytes.len() / 8] = u64::from_le_bytes(tail);
        }
        if !self.width.is_multiple_of(64) && self.words_per_frame > 0 {
            dst[self.words_per_frame - 1] &= (1u64 << (self.width % 64)) - 1;
        }
        self.count += 1;
    }

    /// Appends one frame from already-packed words.
    ///
    /// # Panics
    ///
    /// Panics if the word count is not `words_per_frame` or a pad bit
    /// past `width` is set.
    pub fn push_frame_from_words(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.words_per_frame,
            "frame word count mismatch"
        );
        if !self.width.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                assert_eq!(last >> (self.width % 64), 0, "pad bits set past width");
            }
        }
        self.words.extend_from_slice(words);
        self.count += 1;
    }

    /// Unpacks every frame back to bools (diagnostics and tests; the
    /// serving path never does this).
    pub fn to_bool_frames(&self) -> Vec<Vec<bool>> {
        self.frames()
            .map(|w| {
                (0..self.width)
                    .map(|i| w[i >> 6] >> (i & 63) & 1 == 1)
                    .collect()
            })
            .collect()
    }
}

/// One binarized layer with its sign columns bit-packed, column-major.
///
/// Built once from the row-major sign matrix; [`crate::BinaryLayer`]
/// carries one alongside its scalar signs so every consumer can pick the
/// 64-wide path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayer {
    inputs: usize,
    outputs: usize,
    /// Words per column: `inputs.div_ceil(64)`.
    words: usize,
    /// Connectivity masks (`sign != 0`), column `j` at `j*words..`.
    conn: Vec<u64>,
    /// Polarity masks (`sign > 0`), subset of `conn`, same layout.
    pos: Vec<u64>,
    /// Folded integer thresholds, copied from the scalar layer.
    thresholds: Vec<i64>,
}

impl PackedLayer {
    /// Packs a row-major sign matrix (`inputs x outputs`, entries −1, 0 or
    /// +1) and its folded thresholds.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes.
    pub fn from_parts(signs: &[i8], inputs: usize, outputs: usize, thresholds: &[i64]) -> Self {
        assert_eq!(signs.len(), inputs * outputs, "sign shape mismatch");
        assert_eq!(thresholds.len(), outputs, "threshold count mismatch");
        let words = inputs.div_ceil(64);
        let mut conn = vec![0u64; outputs * words];
        let mut pos = vec![0u64; outputs * words];
        for i in 0..inputs {
            let (w, bit) = (i >> 6, 1u64 << (i & 63));
            let row = &signs[i * outputs..(i + 1) * outputs];
            for (j, &s) in row.iter().enumerate() {
                if s != 0 {
                    conn[j * words + w] |= bit;
                }
                if s > 0 {
                    pos[j * words + w] |= bit;
                }
            }
        }
        Self {
            inputs,
            outputs,
            words,
            conn,
            pos,
            thresholds: thresholds.to_vec(),
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Words per packed column.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Integer firing threshold of neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn threshold(&self, j: usize) -> i64 {
        self.thresholds[j]
    }

    /// Neuron `j`'s packed `(connectivity, polarity)` column words.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> (&[u64], &[u64]) {
        assert!(j < self.outputs, "neuron {j} out of range");
        let r = j * self.words..(j + 1) * self.words;
        (&self.conn[r.clone()], &self.pos[r])
    }

    /// The sign of synapse `(i, j)` recovered from the bit masks.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn sign(&self, i: usize, j: usize) -> i8 {
        assert!(
            i < self.inputs && j < self.outputs,
            "synapse ({i},{j}) out of range"
        );
        let (w, bit) = (j * self.words + (i >> 6), i & 63);
        if self.conn[w] >> bit & 1 == 0 {
            0
        } else if self.pos[w] >> bit & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// The raw column-major mask and threshold storage, for the batch
    /// kernels in [`crate::batchplane`] (which index columns themselves
    /// to keep the weight-stationary inner loops tight).
    pub(crate) fn raw_parts(&self) -> (&[u64], &[u64], &[i64]) {
        (&self.conn, &self.pos, &self.thresholds)
    }

    /// Count of inhibitory (−1) synapses feeding neuron `j`: the popcount
    /// of `conn & !pos` over the column.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn inhibitory_count(&self, j: usize) -> usize {
        let (conn, pos) = self.column(j);
        conn.iter()
            .zip(pos)
            .map(|(&c, &p)| (c & !p).count_ones() as usize)
            .sum()
    }

    /// The contiguous popcount sweep over every column: adds each column's
    /// pre-activation into `acc`. Kept `#[inline(always)]` so the
    /// `#[target_feature]` wrappers below compile it with POPCNT/AVX2
    /// enabled — the baseline x86-64 build would otherwise lower
    /// `count_ones` to a multi-op bit hack.
    #[inline(always)]
    fn full_sweep(&self, xw: &[u64], acc: &mut [i64]) {
        for (j, a) in acc.iter_mut().enumerate() {
            let base = j * self.words;
            let conn = &self.conn[base..base + self.words];
            let pos = &self.pos[base..base + self.words];
            let mut active = 0u32;
            let mut excit = 0u32;
            for ((&xv, &c), &p) in xw.iter().zip(conn).zip(pos) {
                let xa = xv & c;
                active += xa.count_ones();
                excit += (xa & p).count_ones();
            }
            *a += 2 * i64::from(excit) - i64::from(active);
        }
    }

    /// `full_sweep` compiled with the POPCNT instruction.
    ///
    /// # Safety
    ///
    /// The caller must have verified `popcnt` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn full_sweep_popcnt(&self, xw: &[u64], acc: &mut [i64]) {
        self.full_sweep(xw, acc);
    }

    /// `full_sweep` with a hand-vectorized AVX2 popcount (Mula's pshufb
    /// nibble lookup): four 64-bit words per step, two byte-wise table
    /// lookups plus one `psadbw` per popcount, accumulated in 64-bit
    /// lanes. Tail words (`words % 4`) fall back to hardware POPCNT.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx2` and `popcnt` support at
    /// runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn full_sweep_avx2(&self, xw: &[u64], acc: &mut [i64]) {
        use std::arch::x86_64::{
            __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_si128,
            _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8,
            _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
            _mm_add_epi64, _mm_extract_epi64,
        };
        // Per-nibble popcounts for the pshufb lookup, repeated per lane.
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        // Byte-wise popcount of `v`: per-nibble lookups summed into byte
        // lanes (each byte ends up <= 8). The caller accumulates these
        // with `add_epi8` and folds into 64-bit lanes via one deferred
        // `psadbw` per block instead of one per chunk.
        let nib8 = |v: __m256i| -> __m256i {
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
            _mm256_add_epi8(
                _mm256_shuffle_epi8(lookup, lo),
                _mm256_shuffle_epi8(lookup, hi),
            )
        };
        let hsum = |v: __m256i| -> i64 {
            let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            _mm_extract_epi64::<0>(s) + _mm_extract_epi64::<1>(s)
        };
        // Each 4-word chunk adds at most 8 to every byte lane, so byte
        // accumulators stay exact for up to 31 chunks (124 words) between
        // `psadbw` flushes.
        const FLUSH_WORDS: usize = 31 * 4;
        let vwords = self.words & !3;
        for (j, a) in acc.iter_mut().enumerate() {
            let base = j * self.words;
            let conn = &self.conn[base..base + self.words];
            let pos = &self.pos[base..base + self.words];
            let mut vactive = _mm256_setzero_si256();
            let mut vexcit = _mm256_setzero_si256();
            let mut w = 0;
            while w < vwords {
                let block_end = vwords.min(w + FLUSH_WORDS);
                let mut acc8_a = _mm256_setzero_si256();
                let mut acc8_e = _mm256_setzero_si256();
                while w < block_end {
                    // SAFETY: `w + 3 < vwords <= words`, the length of
                    // every slice indexed here, so each 32-byte load is in
                    // bounds (loadu has no alignment requirement).
                    let (xv, cv, pv) = unsafe {
                        (
                            _mm256_loadu_si256(xw.as_ptr().add(w).cast()),
                            _mm256_loadu_si256(conn.as_ptr().add(w).cast()),
                            _mm256_loadu_si256(pos.as_ptr().add(w).cast()),
                        )
                    };
                    let xa = _mm256_and_si256(xv, cv);
                    acc8_a = _mm256_add_epi8(acc8_a, nib8(xa));
                    acc8_e = _mm256_add_epi8(acc8_e, nib8(_mm256_and_si256(xa, pv)));
                    w += 4;
                }
                let zero = _mm256_setzero_si256();
                vactive = _mm256_add_epi64(vactive, _mm256_sad_epu8(acc8_a, zero));
                vexcit = _mm256_add_epi64(vexcit, _mm256_sad_epu8(acc8_e, zero));
            }
            let mut active = hsum(vactive);
            let mut excit = hsum(vexcit);
            for w in vwords..self.words {
                let xa = xw[w] & conn[w];
                active += i64::from(xa.count_ones());
                excit += i64::from((xa & pos[w]).count_ones());
            }
            *a += 2 * excit - active;
        }
    }

    /// The full one-frame sweep on the widest kernel `tier` allows: AVX2
    /// from [`CpuTier::Avx2`] up, then POPCNT, then the portable body.
    /// The forward pass only sweeps below [`CpuTier::Avx512`], which runs
    /// the grouped block kernel instead (`step_block_avx512`). Panics if
    /// `tier` exceeds [`cpu_tier`].
    fn full_sweep_on(&self, tier: CpuTier, xw: &[u64], acc: &mut [i64]) {
        assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
        assert_eq!(xw.len(), self.words, "input word count mismatch");
        #[cfg(target_arch = "x86_64")]
        match tier {
            // SAFETY: the host supports `tier` (asserted above), which
            // implies the features each kernel enables.
            CpuTier::Avx2 | CpuTier::Avx512 => return unsafe { self.full_sweep_avx2(xw, acc) },
            CpuTier::Popcnt => return unsafe { self.full_sweep_popcnt(xw, acc) },
            CpuTier::Baseline => {}
        }
        self.full_sweep(xw, acc);
    }

    /// One end-of-step evaluation of `frames` packed input frames held
    /// back to back in `x` ([`PackedFrames`] word layout, pad bits zero):
    /// writes their output spikes to `out` in the same layout, the next
    /// layer's input block. On [`CpuTier::Avx512`] the grouped kernel
    /// takes the whole block; below it each frame is swept into `acc`
    /// and thresholded. Panics if `tier` exceeds [`cpu_tier`].
    fn step_block_on(
        &self,
        tier: CpuTier,
        x: &[u64],
        frames: usize,
        out: &mut Vec<u64>,
        acc: &mut Vec<i64>,
    ) {
        assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
        assert_eq!(x.len(), frames * self.words, "input word count mismatch");
        let out_words = self.outputs.div_ceil(64);
        out.clear();
        out.resize(frames * out_words, 0);
        #[cfg(target_arch = "x86_64")]
        if tier == CpuTier::Avx512 {
            // SAFETY: the host supports `tier` (asserted above), so
            // AVX-512F and VPOPCNTDQ, and both blocks are sized above.
            return unsafe { self.step_block_avx512(x, frames, out) };
        }
        for f in 0..frames {
            acc.clear();
            acc.resize(self.outputs, 0);
            self.full_sweep_on(tier, &x[f * self.words..(f + 1) * self.words], acc);
            let y = &mut out[f * out_words..(f + 1) * out_words];
            for (j, (&a, &t)) in acc.iter().zip(&self.thresholds).enumerate() {
                y[j >> 6] |= u64::from(a >= t) << (j & 63);
            }
        }
    }

    /// The AVX-512/VPOPCNTDQ block step, eight neurons per pass over the
    /// block. Per frame, eight `zmm` accumulators take
    /// `popcnt(x & conn & pos) - popcnt(x & conn & !pos)` per 8-word
    /// chunk of the group's columns, the tail chunk through masked
    /// loads. One transpose-add puts neuron `k`'s sum in lane `k`, and
    /// one `cmpge` against the group's thresholds yields its eight
    /// output bits, a whole byte of the output frame. The group's masks
    /// stay in L1 across the block's frames.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` and `avx512vpopcntdq`
    /// support at runtime. `x` must hold `frames * words` words and
    /// `out` `frames * outputs.div_ceil(64)` zeroed words.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn step_block_avx512(&self, x: &[u64], frames: usize, out: &mut [u64]) {
        use std::arch::x86_64::{
            __m512i, __mmask8, _mm512_add_epi64, _mm512_mask_cmpge_epi64_mask,
            _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64, _mm512_setzero_si512,
            _mm512_shuffle_i64x2, _mm512_sub_epi64, _mm512_ternarylogic_epi64,
            _mm512_unpackhi_epi64, _mm512_unpacklo_epi64,
        };
        let words = self.words;
        let out_words = self.outputs.div_ceil(64);
        let (conn, pos) = (
            self.conn.as_ptr().cast::<i64>(),
            self.pos.as_ptr().cast::<i64>(),
        );
        let full: __mmask8 = !0;
        let tail: __mmask8 = (1 << (words % 8)) - 1;
        // Adds the `mask`ed words of one 8-word chunk at word `w` of the
        // frame at `xf` to the group's accumulators.
        let chunk = |acc: &mut [__m512i; 8], cols: &[usize; 8], xf: *const i64, w, mask| {
            // SAFETY: callers pass `full` only when `w + 8 <= words` and
            // `tail` for the last `words % 8` words, so every word read
            // lies in its frame or column; masked-off words are not read.
            unsafe {
                let xv = _mm512_maskz_loadu_epi64(mask, xf.add(w));
                for (a, &col) in acc.iter_mut().zip(cols) {
                    let c = _mm512_maskz_loadu_epi64(mask, conn.add(col + w));
                    let p = _mm512_maskz_loadu_epi64(mask, pos.add(col + w));
                    // One ternary-logic op each: x & c & p, and x & c & !p.
                    let exc = _mm512_popcnt_epi64(_mm512_ternarylogic_epi64::<0x80>(xv, c, p));
                    let inh = _mm512_popcnt_epi64(_mm512_ternarylogic_epi64::<0x40>(xv, c, p));
                    *a = _mm512_add_epi64(*a, _mm512_sub_epi64(exc, inh));
                }
            }
        };
        // Neuron `k`'s eight partial sums into lane `k`: add unpacked
        // neighbours, then fold 256-bit halves, then 128-bit lanes.
        let transpose_add = |a: [__m512i; 8]| {
            let pair =
                |u, v| _mm512_add_epi64(_mm512_unpacklo_epi64(u, v), _mm512_unpackhi_epi64(u, v));
            let halves = |u, v| {
                _mm512_add_epi64(
                    _mm512_shuffle_i64x2::<0x44>(u, v),
                    _mm512_shuffle_i64x2::<0xEE>(u, v),
                )
            };
            let q0 = halves(pair(a[0], a[1]), pair(a[2], a[3]));
            let q1 = halves(pair(a[4], a[5]), pair(a[6], a[7]));
            _mm512_add_epi64(
                _mm512_shuffle_i64x2::<0x88>(q0, q1),
                _mm512_shuffle_i64x2::<0xDD>(q0, q1),
            )
        };
        for j0 in (0..self.outputs).step_by(8) {
            let live = (self.outputs - j0).min(8);
            let lanes: __mmask8 = ((1u16 << live) - 1) as u8;
            // Pad lanes of a partial group re-read its last column, so
            // every load stays in bounds; `lanes` keeps them from firing.
            let cols: [usize; 8] = std::array::from_fn(|k| (j0 + k.min(live - 1)) * words);
            // SAFETY: lanes past `live` are masked off, so the load stays
            // inside `thresholds`.
            let t = unsafe { _mm512_maskz_loadu_epi64(lanes, self.thresholds.as_ptr().add(j0)) };
            for f in 0..frames {
                // SAFETY: `x` holds `frames` frames of `words` words.
                let xf = unsafe { x.as_ptr().cast::<i64>().add(f * words) };
                let mut acc = [_mm512_setzero_si512(); 8];
                let mut w = 0;
                while w + 8 <= words {
                    chunk(&mut acc, &cols, xf, w, full);
                    w += 8;
                }
                if w < words {
                    chunk(&mut acc, &cols, xf, w, tail);
                }
                let fired = _mm512_mask_cmpge_epi64_mask(lanes, transpose_add(acc), t);
                out[f * out_words + j0 / 64] |= u64::from(fired) << (j0 % 64);
            }
        }
    }

    /// Adds the pre-activation contribution of the `rows`/`cols` tile to
    /// `acc` (indexed by absolute neuron id) — the packed kernel behind
    /// [`crate::SliceSchedule::sliced_step`]. `xw` is one packed input
    /// frame in the [`PackedFrames`] word layout. Partial words at the row
    /// range's edges are masked, so the sweep touches exactly the tile's
    /// synapses.
    ///
    /// # Panics
    ///
    /// Panics if the ranges or the frame fall outside the layer.
    pub fn accumulate_rows_into(
        &self,
        xw: &[u64],
        rows: Range<usize>,
        cols: Range<usize>,
        acc: &mut [i64],
    ) {
        self.accumulate_rows_on(cpu_tier(), xw, rows, cols, acc);
    }

    /// [`Self::accumulate_rows_into`] on the widest window kernel `tier`
    /// allows (POPCNT or portable). Panics if `tier` exceeds [`cpu_tier`].
    fn accumulate_rows_on(
        &self,
        tier: CpuTier,
        xw: &[u64],
        rows: Range<usize>,
        cols: Range<usize>,
        acc: &mut [i64],
    ) {
        assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
        assert_eq!(xw.len(), self.words, "input width mismatch");
        assert!(rows.end <= self.inputs, "row range out of layer");
        assert!(cols.end <= self.outputs, "column range out of layer");
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        let (w0, w1) = (rows.start >> 6, (rows.end - 1) >> 6);
        let lo_mask = !0u64 << (rows.start & 63);
        let hi_mask = !0u64 >> (63 - ((rows.end - 1) & 63));
        #[cfg(target_arch = "x86_64")]
        if tier >= CpuTier::Popcnt {
            // SAFETY: the host supports `tier` (asserted above), so POPCNT.
            return unsafe { self.window_sweep_popcnt(xw, cols, w0, w1, lo_mask, hi_mask, acc) };
        }
        self.window_sweep(xw, cols, w0, w1, lo_mask, hi_mask, acc);
    }

    /// The masked popcount window behind [`Self::accumulate_rows_into`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn window_sweep(
        &self,
        xw: &[u64],
        cols: Range<usize>,
        w0: usize,
        w1: usize,
        lo_mask: u64,
        hi_mask: u64,
        acc: &mut [i64],
    ) {
        let last = w1 - w0;
        for j in cols {
            let base = j * self.words;
            let conn = &self.conn[base + w0..=base + w1];
            let pos = &self.pos[base + w0..=base + w1];
            let mut active = 0u32;
            let mut excit = 0u32;
            for (k, ((&xv, &c), &p)) in xw[w0..=w1].iter().zip(conn).zip(pos).enumerate() {
                let mut xa = xv & c;
                if k == 0 {
                    xa &= lo_mask;
                }
                if k == last {
                    xa &= hi_mask;
                }
                active += xa.count_ones();
                excit += (xa & p).count_ones();
            }
            acc[j] += 2 * i64::from(excit) - i64::from(active);
        }
    }

    /// `window_sweep` compiled with the POPCNT instruction.
    ///
    /// # Safety
    ///
    /// The caller must have verified `popcnt` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn window_sweep_popcnt(
        &self,
        xw: &[u64],
        cols: Range<usize>,
        w0: usize,
        w1: usize,
        lo_mask: u64,
        hi_mask: u64,
        acc: &mut [i64],
    ) {
        self.window_sweep(xw, cols, w0, w1, lo_mask, hi_mask, acc);
    }
}

/// Reusable per-thread buffers for a multi-layer packed forward pass.
///
/// [`PackedSnn::predict`] builds one internally per call; a long-running
/// consumer (the batch engine's workers, `sushi-serve`'s inference loop)
/// holds one per thread and passes it to
/// [`PackedSnn::predict_packed_with`] /
/// [`PackedSnn::forward_counts_packed_into`] so steady-state inference
/// stays allocation-free across requests. The buffers hold one block of
/// at most eight frames per layer output, so they grow with the network
/// and the block, never with a request's frame count.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// The current layer output's spike words for one frame block
    /// ([`PackedFrames`] layout, frames back to back).
    x: Vec<u64>,
    /// The next layer output's block, swapped with `x` per layer.
    y: Vec<u64>,
    /// One frame's pre-activations, for the tiers below AVX-512.
    acc: Vec<i64>,
    counts: Vec<u32>,
}

impl PredictScratch {
    /// Fresh, empty buffers; they size themselves to the network on first
    /// use and are then reused verbatim.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A fully bit-packed network: the XNOR/popcount inference engine.
///
/// Built from a [`BinarizedSnn`]; every result is bitwise identical to
/// the network's scalar oracle ([`BinarizedSnn::step_scalar`],
/// [`BinarizedSnn::forward_counts_scalar`] and
/// [`BinarizedSnn::predict_scalar`]). This is the only fast per-image
/// engine; [`PackedSnn::predict_batch_bitplane_packed`] is its batch
/// counterpart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSnn {
    layers: Vec<PackedLayer>,
}

impl PackedSnn {
    /// Packs every layer of a binarized network.
    pub fn from_network(net: &BinarizedSnn) -> Self {
        Self {
            layers: net.layers().iter().map(|l| l.packed().clone()).collect(),
        }
    }

    /// Builds from explicit packed layers.
    ///
    /// # Panics
    ///
    /// Panics if empty or shapes do not chain.
    pub fn from_layers(layers: Vec<PackedLayer>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].outputs(), w[1].inputs(), "layer shapes do not chain");
        }
        Self { layers }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The packed layers in order.
    pub fn layers(&self) -> &[PackedLayer] {
        &self.layers
    }

    /// Output classes.
    pub fn classes(&self) -> usize {
        self.layers.last().expect("non-empty").outputs()
    }

    /// Bits per input frame (the first layer's input width) — what a
    /// request validator checks before frames reach the engine.
    pub fn input_width(&self) -> usize {
        self.layers.first().expect("non-empty").inputs()
    }

    /// Packs bool frames at the network's input width into `buf`: the
    /// one place a bool entry point meets the packed-word loop.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    fn pack_into<F: AsRef<[bool]>>(&self, frames: &[F], buf: &mut PackedFrames) {
        let width = self.input_width();
        buf.reset(width);
        for f in frames {
            assert_eq!(f.as_ref().len(), width, "input width mismatch");
            buf.push_frame_from_bools(f.as_ref());
        }
    }

    /// One stateless time step with end-of-step firing, 64 synapses per
    /// word-op.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn step(&self, input: &[bool]) -> Vec<bool> {
        // A one-frame run's spike counts are its output spikes.
        let counts = self.forward_counts(&[input.to_vec()]);
        counts.iter().map(|&c| c == 1).collect()
    }

    /// Runs `frames`, returning per-class spike counts.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        let mut packed = PackedFrames::new();
        self.pack_into(frames, &mut packed);
        let mut counts = Vec::new();
        self.forward_counts_packed_into(&packed, &mut PredictScratch::new(), &mut counts);
        counts
    }

    /// Predicted class for `frames` (argmax of spike counts, ties to the
    /// lowest index — the same rule as the scalar and float references).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn predict(&self, frames: &[Vec<bool>]) -> usize {
        argmax_low(&self.forward_counts(frames))
    }

    /// Per-class spike counts of an already-packed frame sequence,
    /// written into a caller-owned `counts` buffer (cleared and resized
    /// here) — the fully allocation-free inner loop of the per-image
    /// engine, which every other per-image entry point runs.
    ///
    /// The frames run through each layer in blocks of up to eight; the
    /// first layer reads a block straight from the request's words, so
    /// a [`PackedFrames`] payload feeds the engine with no copy at all.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch (an empty request must still carry
    /// the network's width via [`PackedFrames::reset`]).
    pub fn forward_counts_packed_into(
        &self,
        frames: &PackedFrames,
        s: &mut PredictScratch,
        counts: &mut Vec<u32>,
    ) {
        assert_eq!(frames.width(), self.input_width(), "input width mismatch");
        counts.clear();
        counts.resize(self.classes(), 0);
        let tier = cpu_tier();
        let (first, rest) = self.layers.split_first().expect("non-empty");
        let (in_words, class_words) = (frames.words_per_frame(), self.classes().div_ceil(64));
        for t0 in (0..frames.len()).step_by(FRAME_BLOCK) {
            let n = FRAME_BLOCK.min(frames.len() - t0);
            let block = &frames.words[t0 * in_words..(t0 + n) * in_words];
            first.step_block_on(tier, block, n, &mut s.x, &mut s.acc);
            for layer in rest {
                layer.step_block_on(tier, &s.x, n, &mut s.y, &mut s.acc);
                std::mem::swap(&mut s.x, &mut s.y);
            }
            for f in 0..n {
                let y = &s.x[f * class_words..(f + 1) * class_words];
                for (j, c) in counts.iter_mut().enumerate() {
                    *c += (y[j >> 6] >> (j & 63) & 1) as u32;
                }
            }
        }
    }

    /// Predicted class of an already-packed frame sequence with
    /// caller-owned buffers — the per-request entry point of the serving
    /// layer. The scratch carries its own counts buffer, so steady-state
    /// calls allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn predict_packed_with(&self, frames: &PackedFrames, s: &mut PredictScratch) -> usize {
        let mut counts = std::mem::take(&mut s.counts);
        self.forward_counts_packed_into(frames, s, &mut counts);
        let class = argmax_low(&counts);
        s.counts = counts;
        class
    }

    /// Predicts every already-packed item on at most `workers` workers
    /// (`sushi_par::fan_out`), clamped to the item count so a small batch
    /// never plans idle workers.
    ///
    /// Items are split into contiguous near-equal chunks, one reused
    /// scratch buffer set per worker, and each worker writes only its own
    /// output slots — so the result is in input order and bitwise
    /// identical to the sequential pass for any worker count
    /// (`workers <= 1` runs on the calling thread).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or if a worker thread panics (none
    /// originate in the engine itself).
    pub fn predict_batch_packed(&self, items: &[PackedFrames], workers: usize) -> Vec<usize> {
        let mut preds = vec![0usize; items.len()];
        fan_out(&mut preds, workers, 1, |r, out| {
            let mut s = PredictScratch::default();
            for (item, slot) in items[r].iter().zip(out) {
                *slot = self.predict_packed_with(item, &mut s);
            }
        });
        preds
    }

    /// [`PackedSnn::predict_batch_packed`] for bool items (one frame
    /// sequence per item): each worker packs its items one at a time
    /// into a reused [`PackedFrames`] and runs the packed-word loop.
    /// Items may be anything that borrows as a frame slice
    /// (`Vec<Vec<bool>>`, `&[Vec<bool>]`, ...).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or if a worker thread panics (none
    /// originate in the engine itself).
    pub fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
    {
        let mut preds = vec![0usize; items.len()];
        fan_out(&mut preds, workers, 1, |r, out| {
            let mut s = PredictScratch::default();
            let mut packed = PackedFrames::new();
            for (item, slot) in items[r].iter().zip(out) {
                self.pack_into(item.as_ref(), &mut packed);
                *slot = self.predict_packed_with(&packed, &mut s);
            }
        });
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::BinaryLayer;

    /// Deterministic xorshift for test fixtures.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_net(seed: u64, shapes: &[(usize, usize)]) -> BinarizedSnn {
        let mut st = seed | 1;
        let layers = shapes
            .iter()
            .map(|&(ins, outs)| {
                let signs: Vec<i8> = (0..ins * outs)
                    .map(|_| match xorshift(&mut st) % 5 {
                        0 => 0,
                        1 | 2 => -1,
                        _ => 1,
                    })
                    .collect();
                let thresholds: Vec<i64> = (0..outs)
                    .map(|_| 1 + (xorshift(&mut st) % 6) as i64)
                    .collect();
                BinaryLayer::from_signs(signs, ins, outs, thresholds)
            })
            .collect();
        BinarizedSnn::from_layers(layers)
    }

    fn random_frame(st: &mut u64, len: usize) -> Vec<bool> {
        (0..len).map(|_| xorshift(st).is_multiple_of(3)).collect()
    }

    /// Every kernel tier this host can run, lowest first.
    fn host_tiers() -> impl Iterator<Item = CpuTier> {
        CpuTier::ALL.into_iter().filter(|&t| t <= cpu_tier())
    }

    /// The full pre-activation of one packed frame on `tier`'s sweep.
    fn accumulate_on(layer: &PackedLayer, tier: CpuTier, xw: &[u64]) -> Vec<i64> {
        let mut acc = vec![0; layer.outputs()];
        layer.full_sweep_on(tier, xw, &mut acc);
        acc
    }

    #[test]
    fn frame_roundtrip_and_pad_bits() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut st = 7 + len as u64;
            let bits = random_frame(&mut st, len);
            let f = PackedFrames::from_bool_frames(len, std::slice::from_ref(&bits));
            assert_eq!(f.to_bool_frames(), vec![bits.clone()], "len {len}");
            let ones: u32 = f.frame(0).iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones as usize, bits.iter().filter(|&&b| b).count());
            // Pad bits stay zero.
            if len % 64 != 0 && !f.frame(0).is_empty() {
                let last = *f.frame(0).last().unwrap();
                assert_eq!(last >> (len % 64), 0, "pad bits set at len {len}");
            }
        }
    }

    #[test]
    fn packed_sign_matches_scalar_sign() {
        let net = random_net(99, &[(70, 9)]);
        let layer = &net.layers()[0];
        for i in 0..70 {
            for j in 0..9 {
                assert_eq!(layer.packed().sign(i, j), layer.sign(i, j), "({i},{j})");
            }
        }
    }

    /// Every sweep tier the host runs matches the scalar oracle. 8,300
    /// inputs (130 words) pass the AVX2 sweep's 124-word byte-accumulator
    /// flush. The AVX-512 tier sweeps with AVX2 here; its block kernel is
    /// pinned by `block_step_matches_scalar_on_every_tier`.
    #[test]
    fn accumulate_matches_scalar_across_word_boundaries() {
        for ins in [1usize, 3, 63, 64, 65, 127, 128, 200, 8_300] {
            let net = random_net(ins as u64 * 31 + 1, &[(ins, 7)]);
            let layer = &net.layers()[0];
            let mut st = 0xABCDu64 + ins as u64;
            let frames: Vec<Vec<bool>> = (0..8).map(|_| random_frame(&mut st, ins)).collect();
            let packed = PackedFrames::from_bool_frames(ins, &frames);
            for tier in host_tiers() {
                for (frame, xw) in frames.iter().zip(packed.frames()) {
                    let got = accumulate_on(layer.packed(), tier, xw);
                    assert_eq!(got, layer.accumulate(frame), "ins {ins} {tier:?}");
                }
            }
        }
        // All ones against fully connected columns adds 8 to every byte
        // lane per 4-word chunk, so a flush later than 31 chunks wraps a
        // byte accumulator.
        let ins = 8_300;
        let l = BinaryLayer::from_signs([1, -1].repeat(ins), ins, 2, vec![1, 1]);
        let ones = PackedFrames::from_bool_frames(ins, &[vec![true; ins]]);
        for tier in host_tiers() {
            let got = accumulate_on(l.packed(), tier, ones.frame(0));
            assert_eq!(got, vec![8_300, -8_300], "{tier:?}");
        }
    }

    /// The block step on every host tier matches the scalar oracle frame
    /// by frame, pad bits included: partial and whole neuron groups
    /// (1/7/8/9/17 outputs), tail-only, tail-free, 13- and 130-word
    /// inputs, 0 to 17 frames in one block, and every neuron cycling
    /// through thresholds that never, sometimes and always fire. Pad
    /// lanes of a partial group must stay silent even when every live
    /// lane fires.
    #[test]
    fn block_step_matches_scalar_on_every_tier() {
        for ins in [1usize, 63, 64, 512, 513, 784, 8_300] {
            let n = ins as i64;
            let levels = [i64::MIN, -n - 1, 0, n, n + 1, i64::MAX];
            let mut st = 0xB10Cu64 + ins as u64;
            let frames: Vec<Vec<bool>> = (0..17).map(|_| random_frame(&mut st, ins)).collect();
            let packed = PackedFrames::from_bool_frames(ins, &frames);
            for outs in [1usize, 7, 8, 9, 17] {
                let signs: Vec<i8> = (0..ins * outs)
                    .map(|_| (xorshift(&mut st) % 3) as i8 - 1)
                    .collect();
                for shift in 0..levels.len() {
                    let thresholds = (0..outs)
                        .map(|j| levels[(j + shift) % levels.len()])
                        .collect();
                    let l = BinaryLayer::from_signs(signs.clone(), ins, outs, thresholds);
                    let net = BinarizedSnn::from_layers(vec![l]);
                    let spikes: Vec<Vec<bool>> =
                        frames.iter().map(|f| net.step_scalar(f)).collect();
                    for count in [0usize, 1, 8, 9, 17] {
                        let want = PackedFrames::from_bool_frames(outs, &spikes[..count]);
                        let x = &packed.words[..count * packed.words_per_frame()];
                        for tier in host_tiers() {
                            let (mut out, mut acc) = (Vec::new(), Vec::new());
                            net.layers()[0]
                                .packed()
                                .step_block_on(tier, x, count, &mut out, &mut acc);
                            assert_eq!(
                                out, want.words,
                                "ins {ins} outs {outs} shift {shift} frames {count} {tier:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A 1,000-frame request leaves one block of spike words per layer
    /// output in the scratch, not a copy of the request.
    #[test]
    fn scratch_holds_one_frame_block_after_a_long_request() {
        let net = random_net(19, &[(130, 70), (70, 5)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0x1000u64;
        let frames: Vec<Vec<bool>> = (0..1_000).map(|_| random_frame(&mut st, 130)).collect();
        let packed = PackedFrames::from_bool_frames(130, &frames);
        let mut s = PredictScratch::new();
        let mut counts = Vec::new();
        p.forward_counts_packed_into(&packed, &mut s, &mut counts);
        assert_eq!(counts, net.forward_counts_scalar(&frames));
        let block = FRAME_BLOCK * 70usize.div_ceil(64);
        for buf in [&s.x, &s.y] {
            assert!(buf.capacity() <= block, "{} words", buf.capacity());
        }
    }

    #[test]
    fn all_inhibitory_column_accumulates_negative() {
        let l = BinaryLayer::from_signs(vec![-1; 100], 100, 1, vec![1]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let p = PackedSnn::from_network(&net);
        let frame = vec![true; 100];
        let packed = PackedFrames::from_bool_frames(100, std::slice::from_ref(&frame));
        assert_eq!(
            accumulate_on(net.layers()[0].packed(), cpu_tier(), packed.frame(0)),
            vec![-100]
        );
        assert_eq!(p.step(&frame), vec![false]);
    }

    #[test]
    fn step_matches_scalar_on_multilayer_net() {
        let net = random_net(5, &[(97, 33), (33, 10)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xFEEDu64;
        for _ in 0..32 {
            let input = random_frame(&mut st, 97);
            assert_eq!(p.step(&input), net.step_scalar(&input));
        }
    }

    #[test]
    fn forward_counts_and_predict_match_scalar() {
        let net = random_net(17, &[(80, 21), (21, 5)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 3u64;
        let frames: Vec<Vec<bool>> = (0..12).map(|_| random_frame(&mut st, 80)).collect();
        assert_eq!(
            p.forward_counts(&frames),
            net.forward_counts_scalar(&frames)
        );
        assert_eq!(p.predict(&frames), net.predict_scalar(&frames));
        // Empty frame sequences are fine and agree too.
        assert_eq!(p.forward_counts(&[]), net.forward_counts_scalar(&[]));
        assert_eq!(p.predict(&[]), net.predict_scalar(&[]));
    }

    /// Tiles summed on every window tier equal the scalar oracle and the
    /// full sweep on every sweep tier, also past the AVX2 sweep's flush.
    #[test]
    fn accumulate_rows_tiles_sum_to_full_accumulate() {
        for (ins, seed) in [(150usize, 23u64), (8_300, 29)] {
            let net = random_net(seed, &[(ins, 11)]);
            let layer = &net.layers()[0];
            let pk = layer.packed();
            let mut st = 0x5EEDu64;
            let bits = random_frame(&mut st, ins);
            let frame = PackedFrames::from_bool_frames(ins, std::slice::from_ref(&bits));
            let xw = frame.frame(0);
            let full = layer.accumulate(&bits);
            for tier in host_tiers() {
                assert_eq!(accumulate_on(pk, tier, xw), full, "ins {ins} {tier:?}");
                for tile in [1usize, 16, 64, 65, 100] {
                    let mut acc = vec![0i64; 11];
                    let mut r0 = 0;
                    while r0 < ins {
                        let r1 = (r0 + tile).min(ins);
                        let mut c0 = 0;
                        while c0 < 11 {
                            let c1 = (c0 + tile).min(11);
                            pk.accumulate_rows_on(tier, xw, r0..r1, c0..c1, &mut acc);
                            c0 = c1;
                        }
                        r0 = r1;
                    }
                    assert_eq!(acc, full, "ins {ins} tile {tile} {tier:?}");
                }
            }
        }
    }

    #[test]
    fn predict_batch_is_worker_invariant_and_input_ordered() {
        let net = random_net(41, &[(90, 17), (17, 6)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xB00Cu64;
        let items: Vec<Vec<Vec<bool>>> = (0..13)
            .map(|_| (0..5).map(|_| random_frame(&mut st, 90)).collect())
            .collect();
        let reference: Vec<usize> = items.iter().map(|it| p.predict(it)).collect();
        for workers in [1usize, 2, 3, 7, 16] {
            assert_eq!(p.predict_batch(&items, workers), reference, "w={workers}");
        }
        assert_eq!(p.predict_batch::<Vec<Vec<bool>>>(&[], 4), vec![]);
    }

    /// Regression: `workers > items` used to chunk at size 1 and spawn one
    /// thread per item. The batch predictors' fan-out (grain 1) now runs
    /// the ranges of the clamped plan on the shared pool, the first on
    /// the calling thread.
    #[test]
    fn chunk_plan_never_exceeds_items_or_workers() {
        let caller = std::thread::current().id();
        for (items, workers) in [(0, 8), (1, 64), (3, 16), (5, 4), (13, 7), (64, 64)] {
            let mut preds = vec![0usize; items];
            let ranges = fan_out(&mut preds, workers, 1, |r, _| {
                (std::thread::current().id(), r)
            });
            assert_eq!(ranges.len(), items.min(workers), "({items},{workers})");
            assert!(ranges.iter().all(|(_, r)| !r.is_empty()));
            assert_eq!(ranges.iter().map(|(_, r)| r.len()).sum::<usize>(), items);
            assert!(ranges.first().is_none_or(|&(id, _)| id == caller));
        }
    }

    #[test]
    fn scratch_reuse_across_requests_matches_fresh_scratch() {
        let net = random_net(61, &[(100, 19), (19, 4)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xCAFEu64;
        let mut s = PredictScratch::new();
        let mut counts = Vec::new();
        for _ in 0..10 {
            let frames: Vec<Vec<bool>> = (0..4).map(|_| random_frame(&mut st, 100)).collect();
            let packed = PackedFrames::from_bool_frames(100, &frames);
            assert_eq!(p.predict_packed_with(&packed, &mut s), p.predict(&frames));
            p.forward_counts_packed_into(&packed, &mut s, &mut counts);
            assert_eq!(counts, p.forward_counts(&frames));
        }
    }

    #[test]
    fn predict_batch_accepts_borrowed_items() {
        let net = random_net(43, &[(70, 12), (12, 3)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xF00Du64;
        let owned: Vec<Vec<Vec<bool>>> = (0..6)
            .map(|_| (0..3).map(|_| random_frame(&mut st, 70)).collect())
            .collect();
        let borrowed: Vec<&[Vec<bool>]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(p.predict_batch(&borrowed, 3), p.predict_batch(&owned, 3));
    }

    #[test]
    fn inhibitory_count_matches_popcount_identity() {
        let net = random_net(77, &[(130, 9)]);
        let layer = &net.layers()[0];
        for j in 0..9 {
            let scalar = (0..130).filter(|&i| layer.sign(i, j) < 0).count();
            assert_eq!(layer.packed().inhibitory_count(j), scalar, "col {j}");
        }
    }

    #[test]
    fn packed_frames_roundtrip_from_every_source() {
        for width in [1usize, 63, 64, 65, 130] {
            let mut st = 0x91u64 + width as u64;
            let frames: Vec<Vec<bool>> = (0..5).map(|_| random_frame(&mut st, width)).collect();
            let from_bools = PackedFrames::from_bool_frames(width, &frames);
            assert_eq!(from_bools.width(), width);
            assert_eq!(from_bools.len(), 5);
            assert_eq!(from_bools.to_bool_frames(), frames, "width {width}");
            // Wire bytes: LSB-first packed bytes, garbage in the pad bits
            // of the last byte must be masked off.
            let mut from_wire = PackedFrames::new();
            from_wire.reset(width);
            for f in &frames {
                let mut bytes = vec![0u8; width.div_ceil(8)];
                for (i, &bit) in f.iter().enumerate() {
                    if bit {
                        bytes[i / 8] |= 1 << (i % 8);
                    }
                }
                if width % 8 != 0 {
                    *bytes.last_mut().unwrap() |= 0xFFu8 << (width % 8);
                }
                from_wire.push_frame_from_wire_bytes(&bytes);
            }
            assert_eq!(from_wire, from_bools, "wire decode at width {width}");
            // Raw words round-trip and keep the pad-bit invariant.
            let mut from_words = PackedFrames::new();
            from_words.reset(width);
            for w in from_bools.frames() {
                from_words.push_frame_from_words(w);
            }
            assert_eq!(from_words, from_bools);
            for w in from_bools.frames() {
                if width % 64 != 0 {
                    assert_eq!(w.last().unwrap() >> (width % 64), 0, "pad bits");
                }
            }
        }
    }

    #[test]
    fn packed_frames_reset_reuses_allocation() {
        let mut st = 3u64;
        let mut p = PackedFrames::new();
        p.reset(100);
        for _ in 0..4 {
            p.push_frame_from_bools(&random_frame(&mut st, 100));
        }
        p.reset(100);
        assert!(p.is_empty());
        let frame = random_frame(&mut st, 100);
        p.push_frame_from_bools(&frame);
        assert_eq!(p.to_bool_frames(), vec![frame]);
    }

    #[test]
    #[should_panic(expected = "pad bits set past width")]
    fn packed_frames_rejects_dirty_pad_words() {
        let mut p = PackedFrames::new();
        p.reset(10);
        p.push_frame_from_words(&[1 << 10]);
    }

    #[test]
    fn packed_request_path_matches_bool_path() {
        let net = random_net(121, &[(97, 23), (23, 6)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0x7E57u64;
        let mut s = PredictScratch::new();
        for n_frames in [0usize, 1, 4] {
            let frames: Vec<Vec<bool>> = (0..n_frames).map(|_| random_frame(&mut st, 97)).collect();
            let mut packed = PackedFrames::from_bool_frames(97, &frames);
            if n_frames == 0 {
                packed.reset(97);
            }
            let mut counts = Vec::new();
            p.forward_counts_packed_into(&packed, &mut PredictScratch::new(), &mut counts);
            assert_eq!(counts, p.forward_counts(&frames), "{n_frames} frames");
            assert_eq!(p.predict_packed_with(&packed, &mut s), p.predict(&frames));
        }
    }

    #[test]
    fn predict_batch_packed_is_worker_invariant_and_matches_bools() {
        let net = random_net(77, &[(90, 17), (17, 6)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xB00Cu64;
        let items: Vec<Vec<Vec<bool>>> = (0..13)
            .map(|_| (0..5).map(|_| random_frame(&mut st, 90)).collect())
            .collect();
        let packed_items: Vec<PackedFrames> = items
            .iter()
            .map(|it| PackedFrames::from_bool_frames(90, it))
            .collect();
        let reference = p.predict_batch(&items, 1);
        for workers in [1usize, 2, 7] {
            assert_eq!(
                p.predict_batch_packed(&packed_items, workers),
                reference,
                "w={workers}"
            );
        }
        assert_eq!(p.predict_batch_packed(&[], 4), vec![]);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let net = random_net(1, &[(10, 3)]);
        let _ = PackedSnn::from_network(&net).step(&[true; 9]);
    }

    /// A worker's panic reaches the caller with its own message.
    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn batch_worker_panic_keeps_its_cause() {
        let net = random_net(1, &[(10, 3)]);
        let ok = PackedFrames::from_bool_frames(10, &[vec![true; 10]]);
        let wrong_width = PackedFrames::from_bool_frames(9, &[vec![true; 9]]);
        let _ = PackedSnn::from_network(&net).predict_batch_packed(&[ok, wrong_width], 2);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn mismatched_packed_layers_panic() {
        let a = PackedLayer::from_parts(&[1, 1], 1, 2, &[1, 1]);
        let b = PackedLayer::from_parts(&[1, 1, 1], 3, 1, &[1]);
        let _ = PackedSnn::from_layers(vec![a, b]);
    }
}
