//! XNOR layers on packed sign bits.
//!
//! In binary mode ([`SnnMlp::with_binary_weights`](crate::SnnMlp::with_binary_weights))
//! a layer multiplies by XNOR-Net weights: weight `(i, j)` is `-alpha_j`
//! where the latent weight is negative (or NaN) and `+alpha_j` elsewhere
//! (`+0.0` and `-0.0` included), with `alpha_j` the mean of column `j`'s
//! absolute latent weights. [`SignWords`] holds exactly that: one bit per
//! synapse, as the chip's packed engine does, and one scale per column,
//! 1/32 of the bytes of a dense `f32` copy. It is the crate's one
//! binarization rule: the training passes multiply by it, and
//! [`xnor_effective`](crate::network::xnor_effective) and
//! [`SnnMlp::effective_weights`](crate::SnnMlp::effective_weights) expand
//! it into the dense matrix that `sushi_ssnn` quantizes.
//!
//! # Kernels and determinism
//!
//! [`SignWords::matmul_into`] computes `a @ W`. Every output element sums
//! `a[i][p] * (±alpha_j)` over row `i`'s nonzero inputs in ascending `p`,
//! one rounding for the multiply and one for the add, starting from
//! `+0.0`: the dense kernel's contract ([`crate::tensor`]) on the expanded
//! matrix, so both produce the same bits. Which kernel runs is fixed when
//! the layer is binarized:
//!
//! * on [`CpuTier::Avx512`], a sign-bit kernel takes 64 columns per pass
//!   with up to four `zmm` accumulators. Each 16-bit slice of a sign word
//!   is the blend mask between `alpha` and its sign-flipped copy, then one
//!   `mul` and one `add` (never FMA) per 16 columns; a row whose inputs
//!   are all spikes (`1.0`) skips the `mul`, which would not change a bit.
//!   It walks per-row nonzero lists built once per product
//!   ([`Nonzeros`]) and reads 8 bytes of weight per input and 64 columns,
//!   not 256;
//! * below it, the words are expanded once per binarization into the
//!   dense `±alpha` matrix and the dense kernel runs: sign-bit kernels on
//!   AVX2 or portable code measured slower than the dense AVX2 kernel
//!   (EXPERIMENTS.md, "Sign-bit XNOR layers").
//!
//! Rows split over [`sushi_par::fan_out`] above the dense kernel's
//! parallel threshold, whole output rows per range, so the bits do not
//! depend on the worker count either.

#[cfg(target_arch = "x86_64")]
use std::ops::Range;

use crate::tensor::Matrix;
use sushi_par::{cpu_tier, CpuTier};

/// Columns per sign word.
const WORD: usize = 64;

/// The sign bit of one latent weight: set where the XNOR weight is
/// `-alpha` (`w` negative or NaN), clear for `+0.0` and `-0.0`.
#[inline(always)]
fn negative(w: f32) -> u64 {
    if w >= 0.0 {
        0
    } else {
        1
    }
}

/// One layer's XNOR weights as packed sign bits and per-column scales,
/// reused across binarizations.
#[derive(Debug, Default)]
pub(crate) struct SignWords {
    /// Inputs (latent rows).
    rows: usize,
    /// Outputs (latent columns).
    cols: usize,
    /// `alpha_j`, zero-padded to a whole number of 64-column words.
    alphas: Vec<f32>,
    /// Bit `j % 64` of `words[(j / 64) * rows + i]` is set iff weight
    /// `(i, j)` is `-alpha_j`: each 64-column block's words run over the
    /// rows contiguously, in the order the kernel reads them.
    words: Vec<u64>,
    /// Whether [`SignWords::matmul_into`] runs the AVX-512 sign-bit
    /// kernel; if not, `dense` holds the expanded matrix.
    avx512: bool,
    /// Below AVX-512 only: the words expanded to the dense `±alpha`
    /// matrix the dense kernel multiplies by.
    dense: Matrix,
}

impl SignWords {
    /// Binarizes `w` into these buffers, reusing their allocations. One
    /// read pass over the latent weights sets the sign bits and sums each
    /// `alpha_j` over the rows in ascending order. Below
    /// [`CpuTier::Avx512`] it also expands them into the dense matrix the
    /// products then multiply by.
    ///
    /// # Panics
    ///
    /// Panics if `tier` exceeds [`cpu_tier`].
    pub(crate) fn binarize(&mut self, w: &Matrix, tier: CpuTier) {
        assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
        let (rows, cols) = (w.rows(), w.cols());
        self.rows = rows;
        self.cols = cols;
        self.alphas.clear();
        self.alphas.resize(cols.div_ceil(WORD) * WORD, 0.0);
        self.words.clear();
        self.words.resize(cols.div_ceil(WORD) * rows, 0);
        let (w, alphas, words) = (w.as_slice(), &mut self.alphas, &mut self.words);
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the host supports `tier` (asserted above).
            CpuTier::Avx512 => unsafe { binarize_avx512(w, rows, cols, alphas, words) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            CpuTier::Avx2 => unsafe { binarize_avx2(w, rows, cols, alphas, words) },
            _ => binarize_body(w, rows, cols, alphas, words),
        }
        for a in &mut self.alphas[..cols] {
            *a /= rows as f32;
        }
        self.avx512 = tier >= CpuTier::Avx512;
        if self.avx512 {
            self.dense.reset_to(0, 0);
        } else {
            let mut dense = std::mem::take(&mut self.dense);
            self.expand_on(tier, &mut dense);
            self.dense = dense;
        }
    }

    /// The dense `rows x cols` matrix of `±alpha_j` these words stand
    /// for, written into `out` (reshaped, reusing its allocation).
    pub(crate) fn expand_into(&self, out: &mut Matrix) {
        self.expand_on(cpu_tier(), out);
    }

    /// [`SignWords::expand_into`] on the widest build `tier` allows (AVX2
    /// or portable). Panics if `tier` exceeds [`cpu_tier`].
    fn expand_on(&self, tier: CpuTier, out: &mut Matrix) {
        assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
        out.reset_to(self.rows, self.cols);
        #[cfg(target_arch = "x86_64")]
        if tier >= CpuTier::Avx2 {
            // SAFETY: the host supports `tier` (asserted above), so AVX2.
            return unsafe { self.expand_avx2(out.as_mut_slice()) };
        }
        self.expand_body(out.as_mut_slice());
    }

    /// Writes the expanded matrix into `out` (`rows x cols`), flipping
    /// each `alpha_j`'s sign bit where the weight's bit is set: `-a`
    /// flips the sign bit too, so the bits equal `if set { -a } else { a }`.
    #[inline(always)]
    fn expand_body(&self, out: &mut [f32]) {
        let (rows, cols) = (self.rows, self.cols);
        if cols == 0 {
            return;
        }
        for (i, orow) in out.chunks_exact_mut(cols).enumerate() {
            for (b, (oblock, ablock)) in orow
                .chunks_mut(WORD)
                .zip(self.alphas.chunks(WORD))
                .enumerate()
            {
                let word = self.words[b * rows + i];
                for (bit, (o, &a)) in oblock.iter_mut().zip(ablock).enumerate() {
                    *o = f32::from_bits(a.to_bits() ^ (((word >> bit) as u32) << 31));
                }
            }
        }
    }

    /// [`SignWords::expand_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx2` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn expand_avx2(&self, out: &mut [f32]) {
        self.expand_body(out);
    }

    /// The transpose of [`SignWords::expand_into`]'s matrix
    /// (`cols x rows`), written into `out`: the backward pass's
    /// `gH @ W^T` operand.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        let rows = self.rows;
        out.reset_to(self.cols, rows);
        if rows == 0 {
            return;
        }
        for (j, orow) in out.as_mut_slice().chunks_exact_mut(rows).enumerate() {
            let (a, bit) = (self.alphas[j], j % WORD);
            let words = &self.words[j / WORD * rows..(j / WORD + 1) * rows];
            for (o, &word) in orow.iter_mut().zip(words) {
                *o = if (word >> bit) & 1 == 0 { a } else { -a };
            }
        }
    }

    /// `a @ W` into `out` (reshaped, reusing its allocation), `W` the
    /// `±alpha` matrix, on the kernel [`SignWords::binarize`] chose.
    /// `nonzeros` is reused scratch for the sign-bit kernel's row lists.
    /// Above the parallel FLOP threshold and with more than one worker,
    /// [`sushi_par::fan_out`] splits whole output rows over at most
    /// `workers` ranges.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) fn matmul_into(
        &self,
        a: &Matrix,
        out: &mut Matrix,
        workers: usize,
        nonzeros: &mut Nonzeros,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.avx512 {
            // SAFETY: `avx512` is set only by a binarization on a host with
            // AVX-512F.
            return unsafe { self.matmul_avx512(a, out, workers, nonzeros) };
        }
        a.matmul_into(&self.dense, out, workers);
    }

    /// [`SignWords::matmul_into`] on the sign-bit kernel.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    unsafe fn matmul_avx512(
        &self,
        a: &Matrix,
        out: &mut Matrix,
        workers: usize,
        nonzeros: &mut Nonzeros,
    ) {
        assert_eq!(
            a.cols(),
            self.rows,
            "matmul {}x{} @ {}x{}",
            a.rows(),
            a.cols(),
            self.rows,
            self.cols
        );
        let (k, n) = (self.rows, self.cols);
        out.reset_to(a.rows(), n);
        if k == 0 || n == 0 {
            return;
        }
        // SAFETY: the caller verified AVX-512F.
        unsafe { nonzeros.build_avx512(a.as_slice(), k) };
        let nonzeros = &*nonzeros;
        // SAFETY: as above; `nonzeros` lists `a`'s rows.
        let kernel = |rows: Range<usize>, chunk: &mut [f32]| unsafe {
            self.rows_avx512(a.as_slice(), nonzeros, rows, chunk)
        };
        if workers <= 1 || a.rows() * k * n < crate::tensor::PARALLEL_FLOP_THRESHOLD {
            kernel(0..a.rows(), out.as_mut_slice());
        } else {
            sushi_par::fan_out(out.as_mut_slice(), workers, n, |r, chunk| {
                kernel(r.start / n..r.end / n, chunk)
            });
        }
    }

    /// The sign-bit kernel over output rows `rows` of `a`, whose rows
    /// `nonzeros` lists, written into `out` (their `rows.len() x cols`
    /// block): per row, per 64-column block, one pass over the row's
    /// nonzero inputs, with as many 16-lane accumulators as the block has
    /// columns.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn rows_avx512(
        &self,
        a: &[f32],
        nonzeros: &Nonzeros,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let k = self.rows;
        for (i, orow) in rows.zip(out.chunks_exact_mut(self.cols)) {
            let arow = &a[i * k..(i + 1) * k];
            let (list, ones) = nonzeros.row(i);
            for (b, oblock) in orow.chunks_mut(WORD).enumerate() {
                let words = &self.words[b * k..(b + 1) * k];
                let alphas = &self.alphas[b * WORD..(b + 1) * WORD];
                // SAFETY: AVX-512F is on (caller).
                unsafe {
                    if ones {
                        block_avx512::<true>(arow, list, words, alphas, oblock);
                    } else {
                        block_avx512::<false>(arow, list, words, alphas, oblock);
                    }
                }
            }
        }
    }
}

/// Portable body of [`SignWords::binarize`]'s read pass: the sign words
/// and the column sums of `|w|` (not yet divided by the row count).
#[inline(always)]
fn binarize_body(w: &[f32], rows: usize, cols: usize, alphas: &mut [f32], words: &mut [u64]) {
    if cols == 0 {
        return;
    }
    for (i, row) in w.chunks_exact(cols).enumerate() {
        for (a, &v) in alphas.iter_mut().zip(row) {
            *a += v.abs();
        }
        for (b, chunk) in row.chunks(WORD).enumerate() {
            words[b * rows + i] = chunk
                .iter()
                .enumerate()
                .fold(0, |word, (bit, &v)| word | (negative(v) << bit));
        }
    }
}

/// [`binarize_body`] compiled for AVX2.
///
/// # Safety
///
/// The caller must have verified `avx2` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn binarize_avx2(
    w: &[f32],
    rows: usize,
    cols: usize,
    alphas: &mut [f32],
    words: &mut [u64],
) {
    binarize_body(w, rows, cols, alphas, words);
}

/// [`binarize_body`] 16 weights at a time, each read once: the masked
/// load zeroes a partial chunk's pad lanes, which leave their (padding)
/// `alpha` sums at zero, and `_CMP_NGE_UQ` is true exactly where
/// `!(v >= 0.0)`, NaN included.
///
/// # Safety
///
/// The caller must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn binarize_avx512(
    w: &[f32],
    rows: usize,
    cols: usize,
    alphas: &mut [f32],
    words: &mut [u64],
) {
    use std::arch::x86_64::{
        _mm512_abs_ps, _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_maskz_loadu_ps,
        _mm512_setzero_ps, _mm512_storeu_ps, _CMP_NGE_UQ,
    };
    if cols == 0 {
        return;
    }
    for (i, row) in w.chunks_exact(cols).enumerate() {
        for (b, chunk) in row.chunks(WORD).enumerate() {
            let mut word = 0u64;
            for (s, part) in chunk.chunks(16).enumerate() {
                let lanes = ((1u32 << part.len()) - 1) as u16;
                let a = &mut alphas[b * WORD + 16 * s..][..16];
                // SAFETY: the masked load reads only `part`'s lanes; the
                // full-width load and store cover exactly `a`.
                unsafe {
                    let v = _mm512_maskz_loadu_ps(lanes, part.as_ptr());
                    let sum = _mm512_add_ps(_mm512_loadu_ps(a.as_ptr()), _mm512_abs_ps(v));
                    _mm512_storeu_ps(a.as_mut_ptr(), sum);
                    let neg = _mm512_cmp_ps_mask::<_CMP_NGE_UQ>(v, _mm512_setzero_ps()) & lanes;
                    word |= u64::from(neg) << (16 * s);
                }
            }
            words[b * rows + i] = word;
        }
    }
}

/// One 64-column block of one output row: picks the accumulator count
/// for [`block_on`] from the block's width.
///
/// # Safety
///
/// The caller must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn block_avx512<const ONES: bool>(
    arow: &[f32],
    list: &[u32],
    words: &[u64],
    alphas: &[f32],
    out: &mut [f32],
) {
    // SAFETY: AVX-512F is on (caller).
    unsafe {
        match out.len().div_ceil(16) {
            1 => block_on::<1, ONES>(arow, list, words, alphas, out),
            2 => block_on::<2, ONES>(arow, list, words, alphas, out),
            3 => block_on::<3, ONES>(arow, list, words, alphas, out),
            _ => block_on::<4, ONES>(arow, list, words, alphas, out),
        }
    }
}

/// One block of up to `16 * S` columns of one output row on `S` 16-lane
/// accumulators: for every nonzero input `p` (ascending), blend `alpha`
/// and `-alpha` by the 16-bit slices of sign word `words[p]`, multiply by
/// `a[p]`, add. A row of spikes (`ONES`: every listed input is exactly
/// `1.0`) adds the blend itself, since `1.0 * w` is `w` bit for bit.
/// Writes the block's `out.len()` columns.
///
/// # Safety
///
/// The caller must have verified `avx512f` support at runtime.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn block_on<const S: usize, const ONES: bool>(
    arow: &[f32],
    list: &[u32],
    words: &[u64],
    alphas: &[f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_castps_si512, _mm512_castsi512_ps, _mm512_loadu_ps,
        _mm512_mask_blend_ps, _mm512_mask_storeu_ps, _mm512_mul_ps, _mm512_set1_epi32,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm512_xor_si512,
    };
    let sign = _mm512_set1_epi32(i32::MIN);
    let mut pos = [_mm512_setzero_ps(); S];
    let mut neg = [_mm512_setzero_ps(); S];
    for s in 0..S {
        // SAFETY: the load covers exactly the 16-scale slice.
        pos[s] = unsafe { _mm512_loadu_ps(alphas[16 * s..][..16].as_ptr()) };
        // -alpha by flipping the sign bit, as `-a` does (0.0 -> -0.0).
        neg[s] = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(pos[s]), sign));
    }
    let mut acc: [__m512; S] = [_mm512_setzero_ps(); S];
    for &p in list {
        let word = words[p as usize];
        for s in 0..S {
            let w = _mm512_mask_blend_ps((word >> (16 * s)) as u16, pos[s], neg[s]);
            let term = if ONES {
                w
            } else {
                let av = arow[p as usize];
                _mm512_mul_ps(_mm512_set1_ps(av), w)
            };
            acc[s] = _mm512_add_ps(acc[s], term);
        }
    }
    for (s, part) in out.chunks_mut(16).enumerate() {
        // SAFETY: each store covers only `part`'s lanes.
        unsafe {
            if part.len() == 16 {
                _mm512_storeu_ps(part.as_mut_ptr(), acc[s]);
            } else {
                let lanes = ((1u32 << part.len()) - 1) as u16;
                _mm512_mask_storeu_ps(part.as_mut_ptr(), lanes, acc[s]);
            }
        }
    }
}

/// Per-row lists of a left-hand matrix's nonzero columns, ascending: the
/// inputs a sign-bit product visits. Built once per product into reused
/// buffers, before the rows fan out. Only the AVX-512 kernel lists rows.
#[derive(Debug, Default)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Nonzeros {
    /// Row width of the listed matrix.
    k: usize,
    /// Row `i`'s list is `cols[i * k..i * k + lens[i]]`; 16 slots of
    /// slack after the last row take the build's full-width stores.
    cols: Vec<u32>,
    lens: Vec<usize>,
    /// Whether every listed input of row `i` is exactly `1.0`.
    ones: Vec<bool>,
}

impl Nonzeros {
    /// Lists the nonzero columns of every `k`-wide row of `a` (`k > 0`),
    /// 16 columns per step: `_CMP_NEQ_UQ` is true where `v != 0.0`, NaN
    /// included, as the dense kernel's skip has it, and a compress packs
    /// those columns' indices to the front of one full-width store.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn build_avx512(&mut self, a: &[f32], k: usize) {
        use std::arch::x86_64::{
            _mm512_add_epi32, _mm512_cmp_ps_mask, _mm512_maskz_compress_epi32,
            _mm512_maskz_loadu_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32,
            _mm512_setzero_ps, _mm512_storeu_si512, _CMP_EQ_OQ, _CMP_NEQ_UQ,
        };
        self.k = k;
        if self.cols.len() < a.len() + 16 {
            self.cols.resize(a.len() + 16, 0);
        }
        self.lens.clear();
        self.ones.clear();
        let ramp = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for (i, row) in a.chunks_exact(k).enumerate() {
            let mut end = i * k;
            let mut ones = true;
            for (c, part) in row.chunks(16).enumerate() {
                let lanes = ((1u32 << part.len()) - 1) as u16;
                // SAFETY: the masked load reads only `part`'s lanes (pad
                // lanes read as `+0.0`, so they are never listed). The
                // store's 16 slots start at `end <= (i + 1) * k - 1`
                // before the row's last step, inside `cols`' slack.
                unsafe {
                    let v = _mm512_maskz_loadu_ps(lanes, part.as_ptr());
                    let nonzero = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps());
                    let unit = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(v, _mm512_set1_ps(1.0));
                    ones &= (nonzero & !unit) == 0;
                    let cols = _mm512_add_epi32(ramp, _mm512_set1_epi32((16 * c) as i32));
                    _mm512_storeu_si512(
                        self.cols.as_mut_ptr().add(end).cast(),
                        _mm512_maskz_compress_epi32(nonzero, cols),
                    );
                    end += nonzero.count_ones() as usize;
                }
            }
            self.lens.push(end - i * k);
            self.ones.push(ones);
        }
    }

    /// Row `i`'s nonzero columns, and whether each of them holds `1.0`.
    #[cfg(target_arch = "x86_64")]
    fn row(&self, i: usize) -> (&[u32], bool) {
        let start = i * self.k;
        (&self.cols[start..start + self.lens[i]], self.ones[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The XNOR rule written out on its own: per column, `alpha` is the
    /// mean of `|w|` summed over the rows in ascending order, and a
    /// weight that is not `>= 0.0` becomes `-alpha`.
    fn reference(w: &Matrix) -> Matrix {
        let (rows, cols) = (w.rows(), w.cols());
        let mut alphas = vec![0.0f32; cols];
        for i in 0..rows {
            for (a, &v) in alphas.iter_mut().zip(w.row(i)) {
                *a += v.abs();
            }
        }
        for a in &mut alphas {
            *a /= rows as f32;
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                out[(i, j)] = if w[(i, j)] >= 0.0 {
                    alphas[j]
                } else {
                    -alphas[j]
                };
            }
        }
        out
    }

    /// Weights with `+0.0`, `-0.0`, negative and positive values, and an
    /// all-zero first column (`alpha = 0`, so its weights are `±0.0`).
    fn weights(rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|x| match x * 7919 % 11 {
                _ if x % cols == 0 => 0.0,
                0 => 0.0,
                1 => -0.0,
                v => (v as f32 - 5.5) * 0.173,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Rows of zeros, of spikes (so the kernel's no-multiply path runs),
    /// of arbitrary values mixed with zeros, and of ones.
    fn inputs(rows: usize, k: usize) -> Matrix {
        let data = (0..rows * k)
            .map(|x| match (x / k % 4, x * 104_729 % 5) {
                (0, _) => 0.0,
                (1, 0..=2) | (3, _) => 1.0,
                (1, _) | (2, 0) => 0.0,
                (_, v) => v as f32 * 0.37 - 0.9,
            })
            .collect();
        Matrix::from_vec(rows, k, data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// On every tier the host runs, binarizing and multiplying by the
    /// sign words gives the bits of the dense kernel on the directly
    /// binarized matrix, for widths around the 64-column word, any worker
    /// count (the last shape crosses the parallel threshold), and
    /// expansion and transpose too. Below AVX-512 this runs the
    /// expansion path, so an AVX-512 host tests both kernels.
    #[test]
    fn sign_kernel_tiers_match_dense_kernel_bitwise() {
        let shapes = [
            (5, 37, 1),
            (5, 37, 10),
            (6, 70, 63),
            (4, 64, 64),
            (7, 33, 65),
            (3, 129, 129),
            (64, 256, 256),
        ];
        let mut nonzeros = Nonzeros::default();
        for (m, k, n) in shapes {
            let (w, a) = (weights(k, n), inputs(m, k));
            let dense = reference(&w);
            let expected = bits(&a.matmul(&dense));
            for tier in CpuTier::ALL.into_iter().filter(|&t| t <= cpu_tier()) {
                let at = format!("{m}x{k} @ {k}x{n} on {tier:?}");
                let mut signs = SignWords::default();
                signs.binarize(&w, tier);
                let mut out = Matrix::default();
                signs.expand_on(tier, &mut out);
                assert_eq!(bits(&out), bits(&dense), "expand {at}");
                signs.transpose_into(&mut out);
                assert_eq!(bits(&out), bits(&dense.transpose()), "transpose {at}");
                for workers in [1, 2, 7] {
                    signs.matmul_into(&a, &mut out, workers, &mut nonzeros);
                    assert_eq!((out.rows(), out.cols()), (m, n), "{at}");
                    assert_eq!(bits(&out), expected, "{at}, {workers} workers");
                }
            }
        }
    }

    /// NaN weights take the negative sign, `-0.0` the positive one, on
    /// every tier, as `xnor_effective` always did.
    #[test]
    fn sign_bits_follow_the_not_greater_or_equal_rule() {
        let w = Matrix::from_rows(&[&[f32::NAN, -0.0, 0.0, -1.0, 2.0, -f32::NAN]]);
        for tier in CpuTier::ALL.into_iter().filter(|&t| t <= cpu_tier()) {
            let mut signs = SignWords::default();
            signs.binarize(&w, tier);
            assert_eq!(signs.words, vec![0b101001], "{tier:?}");
            let mut out = Matrix::default();
            signs.expand_on(tier, &mut out);
            assert_eq!(bits(&out), bits(&reference(&w)), "{tier:?}");
        }
    }
}
