//! Image-major 64-wide bitplane batch inference (ROADMAP item 3).
//!
//! The per-image packed engine ([`crate::packed`]) is *spike-major*: one
//! image per sweep, with every neuron's `conn`/`pos` masks re-streamed
//! from cache for every image. On the paper shape that is ~156 KB of mask
//! traffic per frame per image — the sweep is memory-bound long before it
//! is popcount-bound. A [`BitplaneBatch`] transposes the batch instead:
//! the same bit position of up to 64 images shares one `u64` word
//! ("bitplane" layout), so a *weight-stationary* sweep loads each
//! neuron's masks **once per 64 images** and holds the whole batch's
//! input words (~6.6 KB at 784 bits) in L1:
//!
//! ```text
//! plane[i]  = bit i of lanes 0..64      (one u64 per input bit)
//! xm[w][l]  = word w of lane l          (64×64-bit tile transpose)
//! acc_j[l] += 2*popcount(xm[w][l] & conn_j[w] & pos_j[w])
//!             - popcount(xm[w][l] & conn_j[w])
//! ```
//!
//! The arithmetic is the exact integer identity of the per-image path, so
//! bitplane results are **bitwise identical** to both the packed and the
//! scalar engines — thresholds, spikes, counts and argmax included
//! (pinned by `bitplane_matches_packed_and_scalar`). Thresholding a
//! neuron produces its fired-lane mask directly, which *is* the output
//! bitplane word — the transpose only happens on the input side of each
//! layer ("transpose in, transpose out"). Lanes past the batch size stay
//! zero by construction on every plane.
//!
//! The sweep matches on [`sushi_par::cpu_tier`] like the per-image
//! kernels — baseline → POPCNT → AVX2 (Mula byte popcount per 4 lanes) →
//! AVX-512/VPOPCNTDQ (8 lanes per `vpopcntq`, fired masks straight from
//! `cmpge`). The wide
//! tier is what this layout exists for: with lanes as the vector axis
//! there are no per-image horizontal reductions and no half-empty words,
//! so AVX-512 finally pays for itself (see DESIGN.md).
//!
//! Input arrives as [`PackedFrames`], the per-image engine's request
//! type: each 64-bit block of a lane group is one word copy per lane
//! plus one `transpose64`, so no bool is ever touched on the way in.
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
//! let items: Vec<PackedFrames> = [[true, true], [false, true]]
//!     .iter()
//!     .map(|f| PackedFrames::from_bool_frames(2, &[f]))
//!     .collect();
//! assert_eq!(
//!     packed.predict_batch_bitplane_packed(&items, 1),
//!     packed.predict_batch_packed(&items, 1),
//! );
//! ```

use crate::backend::argmax_low;
use crate::packed::{PackedFrames, PackedLayer, PackedSnn};
use sushi_par::{cpu_tier, fan_out, CpuTier};

/// Transposes a 64×64 bit matrix in place, LSB-first: afterwards
/// `a[i] >> j & 1` equals the old `a[j] >> i & 1`.
///
/// Recursive block swap (Hacker's Delight 7-3 adapted to LSB-first rows):
/// at step `j` the high-`j`-bit half of each upper row trades places with
/// the low-`j`-bit half of the row `j` below it.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            if k & j == 0 {
                let t = ((a[k] >> j) ^ a[k + j]) & m;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
            k += 1;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// A batch of up to 64 binary frames in bitplane (image-major) layout:
/// one `u64` word per *bit position*, lane `l` of word `i` holding bit
/// `i` of image `l`.
///
/// Lanes at or past [`BitplaneBatch::lanes`] are zero on every plane —
/// the pad-lane invariant the batch kernels rely on (they mask their
/// fired words with [`BitplaneBatch::lane_mask`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitplaneBatch {
    bits: usize,
    lanes: usize,
    planes: Vec<u64>,
}

impl BitplaneBatch {
    /// An all-zero batch of `lanes` frames of `bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    pub fn zeros(bits: usize, lanes: usize) -> Self {
        assert!(lanes <= 64, "at most 64 lanes per batch, got {lanes}");
        Self {
            bits,
            lanes,
            planes: vec![0; bits],
        }
    }

    /// Transposes up to 64 already-packed frames in ("transpose in"):
    /// lane `l` takes the `l`-th word slice (a [`PackedFrames`] frame of
    /// `bits` bits), the tile filled one `u64` copy per lane.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 frames are given or a frame's word count
    /// is not `bits.div_ceil(64)`.
    pub fn from_packed_frames(bits: usize, frames: &[&[u64]]) -> Self {
        let mut b = Self::zeros(bits, frames.len());
        b.fill_from_lane_words(bits, frames.iter().map(|f| Some(*f)));
        b
    }

    /// Repacks this batch from per-lane packed frames, reusing its
    /// allocation: lane `l` takes the `l`-th item's words, `None` lanes
    /// stay all-zero (how shorter frame sequences ride in a mixed
    /// batch). The iterator's length sets the lane count. Each 64-wide
    /// block is one word copy per lane plus one `transpose64`.
    ///
    /// The caller guarantees the frames keep the pad-bit invariant
    /// (bits past `bits` zero), which [`PackedFrames`] enforces on every
    /// push.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 frames are given or a frame's word count
    /// is not `bits.div_ceil(64)`.
    pub fn fill_from_lane_words<'a, I>(&mut self, bits: usize, frames: I)
    where
        I: Iterator<Item = Option<&'a [u64]>>,
    {
        let words_per_frame = bits.div_ceil(64);
        let mut lane_refs: [Option<&[u64]>; 64] = [None; 64];
        let mut lanes = 0usize;
        for f in frames {
            assert!(lanes < 64, "at most 64 lanes per batch");
            if let Some(f) = f {
                assert_eq!(f.len(), words_per_frame, "frame width mismatch");
            }
            lane_refs[lanes] = f;
            lanes += 1;
        }
        self.bits = bits;
        self.lanes = lanes;
        self.planes.clear();
        self.planes.resize(bits, 0);
        let mut tile = [0u64; 64];
        for block in 0..words_per_frame {
            for (l, f) in lane_refs[..lanes].iter().enumerate() {
                tile[l] = f.map_or(0, |f| f[block]);
            }
            tile[lanes..].fill(0);
            transpose64(&mut tile);
            let lo = block * 64;
            let hi = bits.min(lo + 64);
            self.planes[lo..hi].copy_from_slice(&tile[..hi - lo]);
        }
    }

    /// Resizes to `bits` planes of `lanes` lanes, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    pub fn reset(&mut self, bits: usize, lanes: usize) {
        assert!(lanes <= 64, "at most 64 lanes per batch, got {lanes}");
        self.bits = bits;
        self.lanes = lanes;
        self.planes.clear();
        self.planes.resize(bits, 0);
    }

    /// Bits per lane (the frame width).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of occupied lanes (≤ 64).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// True if the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Mask with one bit set per occupied lane.
    pub fn lane_mask(&self) -> u64 {
        if self.lanes == 64 {
            !0
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// The bitplane words, one per bit position.
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// Word of bit position `i` across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn plane(&self, i: usize) -> u64 {
        self.planes[i]
    }

    pub(crate) fn planes_mut(&mut self) -> &mut [u64] {
        &mut self.planes
    }

    /// Reads bit `i` of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, i: usize, l: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of {}", self.bits);
        assert!(l < self.lanes, "lane {l} out of {}", self.lanes);
        self.planes[i] >> l & 1 == 1
    }

    /// Sets bit `i` of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if out of range (which also protects the pad-lane
    /// invariant).
    pub fn set(&mut self, i: usize, l: usize) {
        assert!(i < self.bits, "bit {i} out of {}", self.bits);
        assert!(l < self.lanes, "lane {l} out of {}", self.lanes);
        self.planes[i] |= 1u64 << l;
    }

    /// Transposes lane `l` back out to a bool frame ("transpose out").
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn lane_frame(&self, l: usize) -> Vec<bool> {
        assert!(l < self.lanes, "lane {l} out of {}", self.lanes);
        self.planes.iter().map(|&p| p >> l & 1 == 1).collect()
    }

    /// Every lane transposed back out, in lane order.
    pub fn to_frames(&self) -> Vec<Vec<bool>> {
        (0..self.lanes).map(|l| self.lane_frame(l)).collect()
    }
}

/// Reusable buffers for a multi-layer bitplane forward pass: the two
/// ping-pong plane sets and the word-major transpose scratch. Sizes
/// itself to the network on first use.
#[derive(Debug, Clone, Default)]
pub struct BitplaneScratch {
    x: BitplaneBatch,
    y: BitplaneBatch,
    xm: Vec<u64>,
}

impl BitplaneScratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PackedLayer {
    /// One end-of-step evaluation of a whole lane batch: transposes the
    /// input planes into word-major lane order, runs the
    /// weight-stationary sweep, and thresholds each neuron's
    /// accumulators straight into its output bitplane word (`out` is
    /// resized to this layer's output width, pad lanes zero).
    ///
    /// `xm` is caller-owned scratch (reused across layers and steps).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn batch_step_into(&self, x: &BitplaneBatch, out: &mut BitplaneBatch, xm: &mut Vec<u64>) {
        self.batch_step_on(cpu_tier(), x, out, xm);
    }

    /// [`Self::batch_step_into`] on the widest sweep `tier` allows.
    /// Panics if `tier` exceeds [`cpu_tier`].
    fn batch_step_on(
        &self,
        tier: CpuTier,
        x: &BitplaneBatch,
        out: &mut BitplaneBatch,
        xm: &mut Vec<u64>,
    ) {
        assert_eq!(x.bits(), self.inputs(), "input width mismatch");
        let words = self.words();
        xm.clear();
        xm.resize(words * 64, 0);
        let mut tile = [0u64; 64];
        for w in 0..words {
            let lo = w * 64;
            let hi = self.inputs().min(lo + 64);
            tile[..hi - lo].copy_from_slice(&x.planes()[lo..hi]);
            tile[hi - lo..].fill(0);
            transpose64(&mut tile);
            xm[lo..lo + 64].copy_from_slice(&tile);
        }
        out.reset(self.outputs(), x.lanes());
        self.batch_sweep_on(tier, xm, x.lanes(), out.planes_mut());
    }

    /// The weight-stationary batch sweep: for every output neuron,
    /// accumulate all lanes against the neuron's masks (loaded once),
    /// threshold, and emit the fired-lane bitplane word. Kept
    /// `#[inline(always)]` so the `#[target_feature]` wrappers compile
    /// it with POPCNT enabled.
    #[inline(always)]
    fn batch_sweep(&self, xm: &[u64], lanes: usize, out_planes: &mut [u64]) {
        let (conn, pos, thresholds) = self.raw_parts();
        let words = self.words();
        let mut acc = [0i64; 64];
        for (j, out) in out_planes.iter_mut().enumerate() {
            acc[..lanes].fill(0);
            let base = j * words;
            for w in 0..words {
                let cw = conn[base + w];
                if cw == 0 {
                    continue;
                }
                let pw = pos[base + w];
                let row = &xm[w * 64..w * 64 + lanes];
                for (a, &xv) in acc[..lanes].iter_mut().zip(row) {
                    let xa = xv & cw;
                    *a += 2 * i64::from((xa & pw).count_ones()) - i64::from(xa.count_ones());
                }
            }
            let t = thresholds[j];
            let mut fired = 0u64;
            for (l, &a) in acc[..lanes].iter().enumerate() {
                fired |= u64::from(a >= t) << l;
            }
            *out = fired;
        }
    }

    /// `batch_sweep` compiled with the POPCNT instruction.
    ///
    /// # Safety
    ///
    /// The caller must have verified `popcnt` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn batch_sweep_popcnt(&self, xm: &[u64], lanes: usize, out_planes: &mut [u64]) {
        self.batch_sweep(xm, lanes, out_planes);
    }

    /// `batch_sweep` with AVX2: four lanes per `ymm`, Mula's pshufb
    /// nibble popcount accumulated in byte lanes and folded per lane via
    /// `psadbw` (which conveniently sums each 64-bit lane's bytes — one
    /// per image). Byte accumulators flush every ≤ 31 words so they
    /// cannot saturate.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx2` and `popcnt` support at
    /// runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn batch_sweep_avx2(&self, xm: &[u64], lanes: usize, out_planes: &mut [u64]) {
        use std::arch::x86_64::{
            __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_pd,
            _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_movemask_pd, _mm256_sad_epu8,
            _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256,
            _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_sub_epi64,
        };
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let nib8 = |v: __m256i| -> __m256i {
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
            _mm256_add_epi8(
                _mm256_shuffle_epi8(lookup, lo),
                _mm256_shuffle_epi8(lookup, hi),
            )
        };
        const FLUSH_WORDS: usize = 31;
        let (conn, pos, thresholds) = self.raw_parts();
        let words = self.words();
        let lane_vecs = lanes.div_ceil(4);
        let lane_mask = if lanes == 64 { !0u64 } else { (1 << lanes) - 1 };
        for (j, out) in out_planes.iter_mut().enumerate() {
            let base = j * words;
            let t = _mm256_set1_epi64x(thresholds[j]);
            let mut fired = 0u64;
            for v in 0..lane_vecs {
                let mut vactive = _mm256_setzero_si256();
                let mut vexcit = _mm256_setzero_si256();
                let mut w = 0;
                while w < words {
                    let block_end = words.min(w + FLUSH_WORDS);
                    let mut acc8_a = _mm256_setzero_si256();
                    let mut acc8_e = _mm256_setzero_si256();
                    while w < block_end {
                        let cw = conn[base + w];
                        if cw == 0 {
                            w += 1;
                            continue;
                        }
                        let cv = _mm256_set1_epi64x(cw as i64);
                        let pv = _mm256_set1_epi64x(pos[base + w] as i64);
                        // SAFETY: `v * 4 + 4 <= 64`, and `xm` holds 64
                        // lanes per word, so the 32-byte load is in
                        // bounds (loadu needs no alignment).
                        let x =
                            unsafe { _mm256_loadu_si256(xm.as_ptr().add(w * 64 + v * 4).cast()) };
                        let xa = _mm256_and_si256(x, cv);
                        acc8_a = _mm256_add_epi8(acc8_a, nib8(xa));
                        acc8_e = _mm256_add_epi8(acc8_e, nib8(_mm256_and_si256(xa, pv)));
                        w += 1;
                    }
                    let zero = _mm256_setzero_si256();
                    vactive = _mm256_add_epi64(vactive, _mm256_sad_epu8(acc8_a, zero));
                    vexcit = _mm256_add_epi64(vexcit, _mm256_sad_epu8(acc8_e, zero));
                }
                // acc = 2*excit - active, per 64-bit lane; fired lanes
                // are those where NOT (threshold > acc).
                let acc = _mm256_sub_epi64(_mm256_add_epi64(vexcit, vexcit), vactive);
                let below = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(t, acc)));
                fired |= (!below as u64 & 0xF) << (v * 4);
            }
            *out = fired & lane_mask;
        }
    }

    /// `batch_sweep` with AVX-512/VPOPCNTDQ: eight lanes per `zmm`, one
    /// `vpopcntq` per mask-AND, 64-bit lane accumulators, and the fired
    /// word assembled directly from `cmpge` mask registers — no
    /// horizontal reductions anywhere. This is the tier the bitplane
    /// layout exists to unlock.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` and `avx512vpopcntdq`
    /// support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn batch_sweep_avx512(&self, xm: &[u64], lanes: usize, out_planes: &mut [u64]) {
        use std::arch::x86_64::{
            _mm512_add_epi64, _mm512_and_si512, _mm512_cmpge_epi64_mask, _mm512_loadu_si512,
            _mm512_popcnt_epi64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sub_epi64,
        };
        let (conn, pos, thresholds) = self.raw_parts();
        let words = self.words();
        let lane_vecs = lanes.div_ceil(8);
        let lane_mask = if lanes == 64 { !0u64 } else { (1 << lanes) - 1 };
        for (j, out) in out_planes.iter_mut().enumerate() {
            let base = j * words;
            let mut acc = [_mm512_setzero_si512(); 8];
            for w in 0..words {
                let cw = conn[base + w];
                if cw == 0 {
                    continue;
                }
                // 2*pc(x&c&p) - pc(x&c) == pc(x&c&p) - pc(x&c&!p): with
                // the excitatory and inhibitory masks split on the scalar
                // side, the inner loop is one op shorter per vector.
                let pw = pos[base + w];
                let ev = _mm512_set1_epi64((cw & pw) as i64);
                let nv = _mm512_set1_epi64((cw & !pw) as i64);
                let row = xm.as_ptr().add(w * 64);
                for (v, a) in acc[..lane_vecs].iter_mut().enumerate() {
                    // SAFETY: `v * 8 + 8 <= 64` and `xm` holds 64 lanes
                    // per word, so the 64-byte load is in bounds (loadu
                    // needs no alignment).
                    let x = unsafe { _mm512_loadu_si512(row.add(v * 8).cast()) };
                    let exc = _mm512_popcnt_epi64(_mm512_and_si512(x, ev));
                    let inh = _mm512_popcnt_epi64(_mm512_and_si512(x, nv));
                    *a = _mm512_add_epi64(*a, _mm512_sub_epi64(exc, inh));
                }
            }
            let t = _mm512_set1_epi64(thresholds[j]);
            let mut fired = 0u64;
            for (v, &a) in acc[..lane_vecs].iter().enumerate() {
                fired |= u64::from(_mm512_cmpge_epi64_mask(a, t)) << (v * 8);
            }
            *out = fired & lane_mask;
        }
    }

    /// The batch sweep on the widest kernel `tier` allows: baseline →
    /// POPCNT → AVX2 → AVX-512/VPOPCNTDQ. Panics if `tier`
    /// exceeds [`cpu_tier`].
    fn batch_sweep_on(&self, tier: CpuTier, xm: &[u64], lanes: usize, out_planes: &mut [u64]) {
        assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
        assert_eq!(xm.len(), self.words() * 64, "transpose scratch mismatch");
        if lanes == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        match tier {
            // SAFETY: the host supports `tier` (asserted above), which
            // implies the features each kernel enables.
            CpuTier::Avx512 => return unsafe { self.batch_sweep_avx512(xm, lanes, out_planes) },
            CpuTier::Avx2 => return unsafe { self.batch_sweep_avx2(xm, lanes, out_planes) },
            CpuTier::Popcnt => return unsafe { self.batch_sweep_popcnt(xm, lanes, out_planes) },
            CpuTier::Baseline => {}
        }
        self.batch_sweep(xm, lanes, out_planes);
    }
}

impl PackedSnn {
    /// Per-class spike counts of one ≤ 64-item group of packed
    /// requests, written into `counts` (one `Vec<u32>` per lane,
    /// cleared and resized here). Frames go straight from
    /// [`PackedFrames`] words into bitplane tiles, so the serve hot path
    /// never materialises a bool. Items may have different frame
    /// counts; at step `t` only lanes with more than `t` frames
    /// contribute, so every lane's counts equal its standalone
    /// [`PackedSnn::forward_counts_packed_into`] exactly.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or if `items` has more than 64
    /// entries.
    pub fn bitplane_group_counts_packed(
        &self,
        items: &[PackedFrames],
        s: &mut BitplaneScratch,
        counts: &mut [Vec<u32>],
    ) {
        debug_assert!(items.len() <= 64 && counts.len() == items.len());
        let classes = self.classes();
        let width = self.input_width();
        for it in items {
            assert_eq!(it.width(), width, "input width mismatch");
        }
        for c in counts.iter_mut() {
            c.clear();
            c.resize(classes, 0);
        }
        let max_frames = items.iter().map(PackedFrames::len).max().unwrap_or(0);
        for t in 0..max_frames {
            let mut active = 0u64;
            for (l, it) in items.iter().enumerate() {
                active |= u64::from(it.len() > t) << l;
            }
            s.x.fill_from_lane_words(
                width,
                items.iter().map(|it| (it.len() > t).then(|| it.frame(t))),
            );
            for layer in self.layers() {
                layer.batch_step_into(&s.x, &mut s.y, &mut s.xm);
                std::mem::swap(&mut s.x, &mut s.y);
            }
            for (j, &plane) in s.x.planes()[..classes].iter().enumerate() {
                let mut fired = plane & active;
                while fired != 0 {
                    let l = fired.trailing_zeros() as usize;
                    counts[l][j] += 1;
                    fired &= fired - 1;
                }
            }
        }
    }

    /// Predicts every packed request on the bitplane path: items are
    /// split into 64-wide lane groups, groups into contiguous
    /// per-worker chunks in the [`PackedSnn::predict_batch_packed`]
    /// style — input-ordered and bitwise identical to the per-image
    /// engine and the scalar oracle for any worker count
    /// (`workers <= 1` runs on the calling thread).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or if a worker thread panics
    /// (none originate in the engine itself).
    pub fn predict_batch_bitplane_packed(
        &self,
        items: &[PackedFrames],
        workers: usize,
    ) -> Vec<usize> {
        let mut preds = vec![0usize; items.len()];
        // A grain of 64 hands every worker whole lane groups.
        fan_out(&mut preds, workers, 64, |r, preds| {
            let items = &items[r];
            let mut s = BitplaneScratch::new();
            let mut counts: Vec<Vec<u32>> = vec![Vec::new(); 64.min(items.len())];
            for (group, out) in items.chunks(64).zip(preds.chunks_mut(64)) {
                self.bitplane_group_counts_packed(group, &mut s, &mut counts[..group.len()]);
                for (slot, c) in out.iter_mut().zip(&counts) {
                    *slot = argmax_low(c);
                }
            }
        });
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::{BinarizedSnn, BinaryLayer};

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

    fn random_items(seed: u64, count: usize, width: usize, frames: usize) -> Vec<Vec<Vec<bool>>> {
        let mut st = seed | 1;
        (0..count)
            .map(|_| (0..frames).map(|_| random_frame(&mut st, width)).collect())
            .collect()
    }

    #[test]
    fn transpose64_matches_bitwise_reference() {
        let mut st = 0x7A7Au64;
        let mut a: [u64; 64] = core::array::from_fn(|_| xorshift(&mut st));
        let orig = a;
        transpose64(&mut a);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in orig.iter().enumerate() {
                assert_eq!(row >> j & 1, col >> i & 1, "({i},{j})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig, "transpose is an involution");
    }

    /// Packs bool items at `width`, one [`PackedFrames`] per item.
    fn pack(width: usize, items: &[Vec<Vec<bool>>]) -> Vec<PackedFrames> {
        items
            .iter()
            .map(|it| PackedFrames::from_bool_frames(width, it))
            .collect()
    }

    /// Transposes equal-width bool frames in, one lane per frame, by way
    /// of their packed words.
    fn batch_of(width: usize, frames: &[Vec<bool>]) -> BitplaneBatch {
        let packed = PackedFrames::from_bool_frames(width, frames);
        let refs: Vec<&[u64]> = packed.frames().collect();
        BitplaneBatch::from_packed_frames(width, &refs)
    }

    /// Bitplane spike counts of every item, 64 lanes per group.
    fn bitplane_counts(p: &PackedSnn, items: &[PackedFrames]) -> Vec<Vec<u32>> {
        let mut counts = vec![Vec::new(); items.len()];
        let mut s = BitplaneScratch::new();
        for (group, out) in items.chunks(64).zip(counts.chunks_mut(64)) {
            p.bitplane_group_counts_packed(group, &mut s, out);
        }
        counts
    }

    #[test]
    fn from_frames_roundtrip_and_pad_lanes() {
        for (n, width) in [(1usize, 1usize), (3, 63), (7, 64), (64, 65), (5, 130)] {
            let mut st = 11 + (n * width) as u64;
            let frames: Vec<Vec<bool>> = (0..n).map(|_| random_frame(&mut st, width)).collect();
            let b = batch_of(width, &frames);
            assert_eq!(b.lanes(), n);
            assert_eq!(b.bits(), width);
            assert_eq!(b.to_frames(), frames, "({n},{width})");
            for (i, &p) in b.planes().iter().enumerate() {
                assert_eq!(p & !b.lane_mask(), 0, "pad lanes set in plane {i}");
            }
        }
    }

    #[test]
    fn get_set_agree_with_frames() {
        let frames = [vec![true, false, true], vec![false, false, true]];
        let mut b = batch_of(3, &frames);
        assert!(b.get(0, 0) && !b.get(0, 1) && b.get(2, 1));
        b.set(1, 1);
        assert_eq!(b.lane_frame(1), vec![false, true, true]);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn more_than_64_lanes_panics() {
        let frame = PackedFrames::from_bool_frames(4, &[[true; 4]]);
        let refs: Vec<&[u64]> = (0..65).map(|_| frame.frame(0)).collect();
        let _ = BitplaneBatch::from_packed_frames(4, &refs);
    }

    /// Word input only sees word counts, so the two widths must differ
    /// in words: 64 bits is one word, 65 bits two.
    #[test]
    #[should_panic(expected = "frame width mismatch")]
    fn mixed_widths_panic() {
        let a = PackedFrames::from_bool_frames(64, &[[true; 64]]);
        let b = PackedFrames::from_bool_frames(65, &[[true; 65]]);
        let _ = BitplaneBatch::from_packed_frames(64, &[a.frame(0), b.frame(0)]);
    }

    /// Every sweep tier the host runs matches the scalar oracle per lane.
    #[test]
    fn batch_step_matches_scalar_step_per_lane() {
        // Widths straddle word boundaries, and 2,100 inputs (33 words)
        // pass the AVX2 sweep's 31-word byte-accumulator flush; batch
        // sizes cover 1, 63, 64.
        let cases = [
            (1usize, 1usize),
            (63, 63),
            (64, 64),
            (65, 17),
            (130, 64),
            (2_100, 64),
        ];
        for (ins, lanes) in cases {
            let net = random_net(ins as u64 * 7 + 3, &[(ins, 29)]);
            let mut st = 0x11C0 + lanes as u64;
            let frames: Vec<Vec<bool>> = (0..lanes).map(|_| random_frame(&mut st, ins)).collect();
            assert_batch_step_matches_scalar(&net, &frames);
        }
        // All-ones lanes against fully connected columns add 8 to every
        // byte lane per word, so a flush later than 31 words wraps a
        // byte accumulator.
        let ins = 2_100;
        let l =
            BinaryLayer::from_signs([1, -1].repeat(ins), ins, 2, vec![ins as i64, -(ins as i64)]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let mut frames = vec![vec![true; ins]; 5];
        frames.push(vec![false; ins]);
        assert_batch_step_matches_scalar(&net, &frames);
    }

    /// One batch step of `net`'s only layer on every host tier, checked
    /// lane by lane against the scalar step, with pad lanes silent.
    fn assert_batch_step_matches_scalar(net: &BinarizedSnn, frames: &[Vec<bool>]) {
        let layer = net.layers()[0].packed();
        let ins = layer.inputs();
        let x = batch_of(ins, frames);
        let want: Vec<Vec<bool>> = frames.iter().map(|f| net.step_scalar(f)).collect();
        for tier in CpuTier::ALL.into_iter().filter(|&t| t <= cpu_tier()) {
            let mut out = BitplaneBatch::default();
            let mut xm = Vec::new();
            layer.batch_step_on(tier, &x, &mut out, &mut xm);
            assert_eq!(out.lanes(), frames.len());
            for (l, w) in want.iter().enumerate() {
                assert_eq!(&out.lane_frame(l), w, "ins {ins} lane {l} {tier:?}");
            }
            for (i, &p) in out.planes().iter().enumerate() {
                assert_eq!(
                    p & !out.lane_mask(),
                    0,
                    "pad lane fired: plane {i} {tier:?}"
                );
            }
        }
    }

    #[test]
    fn all_inhibitory_and_zero_threshold_lanes() {
        // Negative/zero thresholds can fire on an all-zero frame; pad and
        // inactive lanes must still stay out of the counts.
        let l = BinaryLayer::from_signs(vec![-1; 100], 100, 1, vec![0]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let p = PackedSnn::from_network(&net);
        let items = vec![
            vec![vec![true; 100]],  // acc -100 < 0: silent
            vec![vec![false; 100]], // acc 0 >= 0: fires
            vec![],                 // no frames: zero counts
        ];
        let counts = bitplane_counts(&p, &pack(100, &items));
        assert_eq!(counts, vec![vec![0], vec![1], vec![0]]);
        for (it, want) in items.iter().zip(&counts) {
            assert_eq!(&p.forward_counts(it), want);
        }
    }

    #[test]
    fn bitplane_matches_packed_across_group_boundaries() {
        let net = random_net(21, &[(90, 33), (33, 7)]);
        let p = PackedSnn::from_network(&net);
        for count in [0usize, 1, 63, 64, 65, 130] {
            let items = random_items(0x5EED + count as u64, count, 90, 3);
            assert_eq!(
                p.predict_batch_bitplane_packed(&pack(90, &items), 1),
                p.predict_batch(&items, 1),
                "count {count}"
            );
        }
    }

    #[test]
    fn mixed_frame_counts_per_lane_match_per_item_counts() {
        let net = random_net(77, &[(70, 20), (20, 5)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xFEEDu64;
        // Frame counts 0..=4 interleaved across one lane group.
        let items: Vec<Vec<Vec<bool>>> = (0..40)
            .map(|k| (0..k % 5).map(|_| random_frame(&mut st, 70)).collect())
            .collect();
        let counts = bitplane_counts(&p, &pack(70, &items));
        for (it, got) in items.iter().zip(&counts) {
            assert_eq!(&p.forward_counts(it), got);
        }
    }

    #[test]
    fn bitplane_predict_batch_is_worker_invariant() {
        let net = random_net(5, &[(100, 30), (30, 6)]);
        let p = PackedSnn::from_network(&net);
        let items = random_items(0xB00C, 150, 100, 2);
        let packed_items = pack(100, &items);
        let reference = p.predict_batch_bitplane_packed(&packed_items, 1);
        assert_eq!(reference, p.predict_batch(&items, 1));
        for workers in [2usize, 3, 7, 16] {
            assert_eq!(
                p.predict_batch_bitplane_packed(&packed_items, workers),
                reference,
                "w={workers}"
            );
        }
        assert_eq!(p.predict_batch_bitplane_packed(&[], 4), vec![]);
    }

    #[test]
    fn bitplane_backend_single_item_matches_scalar() {
        let net = random_net(301, &[(80, 25), (25, 9)]);
        let p = PackedSnn::from_network(&net);
        let items = random_items(0xDEAF, 5, 80, 4);
        // Each item alone as a one-lane group.
        for (it, packed) in items.iter().zip(pack(80, &items)) {
            let one = std::slice::from_ref(&packed);
            assert_eq!(
                bitplane_counts(&p, one),
                vec![net.forward_counts_scalar(it)]
            );
            assert_eq!(
                p.predict_batch_bitplane_packed(one, 1),
                vec![net.predict_scalar(it)]
            );
        }
    }

    /// Bool frames reach the bitplane engine only through
    /// [`PackedFrames`], which rejects a frame of the wrong width as it
    /// packs it.
    #[test]
    #[should_panic(expected = "frame width mismatch")]
    fn width_mismatch_panics() {
        let net = random_net(1, &[(10, 3)]);
        let p = PackedSnn::from_network(&net);
        let item = PackedFrames::from_bool_frames(p.input_width(), &[vec![true; 9]]);
        let _ = p.predict_batch_bitplane_packed(&[item], 1);
    }

    #[test]
    fn fill_from_lane_words_matches_bool_fill() {
        for (n, width) in [(1usize, 1usize), (3, 63), (7, 64), (64, 65), (5, 130)] {
            let mut st = 0xACE0 + (n * width) as u64;
            let frames: Vec<Vec<bool>> = (0..n).map(|_| random_frame(&mut st, width)).collect();
            let packed = PackedFrames::from_bool_frames(width, &frames);
            // The reference, set bit by bit.
            let mut from_bools = BitplaneBatch::zeros(width, n);
            for (l, f) in frames.iter().enumerate() {
                for i in f.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i) {
                    from_bools.set(i, l);
                }
            }
            let word_refs: Vec<&[u64]> = packed.frames().collect();
            let from_words = BitplaneBatch::from_packed_frames(width, &word_refs);
            assert_eq!(from_words.planes(), from_bools.planes(), "({n},{width})");
            assert_eq!(from_words.lanes(), n);
            assert_eq!(from_words.bits(), width);
            // None lanes stay zero and keep their lane slot.
            let mut gappy = BitplaneBatch::default();
            gappy.fill_from_lane_words(
                width,
                packed
                    .frames()
                    .enumerate()
                    .map(|(i, f)| (i % 2 == 0).then_some(f)),
            );
            assert_eq!(gappy.lanes(), n);
            for l in (1..n).step_by(2) {
                assert_eq!(gappy.lane_frame(l), vec![false; width], "lane {l}");
            }
        }
    }

    #[test]
    fn packed_bitplane_matches_bool_bitplane_and_packed_engine() {
        let net = random_net(91, &[(90, 33), (33, 7)]);
        let p = PackedSnn::from_network(&net);
        for count in [0usize, 1, 63, 64, 65, 130] {
            let items = random_items(0xC0DE + count as u64, count, 90, 3);
            let packed_items = pack(90, &items);
            let reference: Vec<usize> = items.iter().map(|it| net.predict_scalar(it)).collect();
            for workers in [1usize, 2, 7] {
                assert_eq!(
                    p.predict_batch_bitplane_packed(&packed_items, workers),
                    reference,
                    "count {count} workers {workers}"
                );
            }
            assert_eq!(p.predict_batch_packed(&packed_items, 1), reference);
            assert_eq!(p.predict_batch(&items, 1), reference);
        }
    }

    #[test]
    fn packed_group_counts_handle_mixed_frame_counts() {
        let net = random_net(77, &[(70, 20), (20, 5)]);
        let p = PackedSnn::from_network(&net);
        let mut st = 0xFEEDu64;
        let items: Vec<Vec<Vec<bool>>> = (0..40)
            .map(|k| (0..k % 5).map(|_| random_frame(&mut st, 70)).collect())
            .collect();
        let packed_items = pack(70, &items);
        let mut s = BitplaneScratch::new();
        let mut counts: Vec<Vec<u32>> = vec![Vec::new(); packed_items.len()];
        p.bitplane_group_counts_packed(&packed_items, &mut s, &mut counts);
        for (it, got) in items.iter().zip(&counts) {
            assert_eq!(&p.forward_counts(it), got);
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn packed_group_counts_width_mismatch_panics() {
        let net = random_net(1, &[(10, 3)]);
        let p = PackedSnn::from_network(&net);
        let bad = PackedFrames::from_bool_frames(9, &[vec![true; 9]]);
        let mut s = BitplaneScratch::new();
        let mut counts = vec![Vec::new()];
        p.bitplane_group_counts_packed(&[bad], &mut s, &mut counts);
    }
}
