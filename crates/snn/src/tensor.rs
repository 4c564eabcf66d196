//! A dense row-major `f32` matrix with the handful of operations the SNN
//! framework needs.
//!
//! # Kernel tiers and determinism
//!
//! Every matmul reduces to an axpy inner loop (`out[j] += a * b[j]`), which
//! preserves per-element accumulation order: element `out[i][j]` is always
//! the sum over `k` ascending, one rounding per multiply and one per add.
//! The kernels are compiled twice from one `#[inline(always)]` body — a
//! baseline build and an AVX2 `#[target_feature]` build, picked by
//! matching on [`sushi_par::cpu_tier`] like the `sushi_ssnn` popcount
//! kernels. Rust never contracts mul+add into FMA, so the AVX2 build is
//! bitwise identical to the baseline one; `matmul_tiers_agree_bitwise`
//! runs both, and `simd_matmul_matches_scalar_bitwise` in
//! `tests/properties.rs` pins the dispatched kernel against a scalar
//! replica.
//!
//! Large kernels take a worker count and split their output rows over
//! [`sushi_par::fan_out`]. Each output element still sums over `k` in
//! ascending order on whichever thread owns its row, so where the rows
//! are cut does not change a bit: results are also bitwise identical for
//! any worker count.

use std::fmt;
use std::ops::{Index, IndexMut};
use sushi_par::{cpu_tier, fan_out, host_workers, CpuTier};

/// Minimum FLOP count before a matmul is split across workers.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 22;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use sushi_snn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Matrix {
    /// A `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place to an all-zero `rows x cols`, reusing the
    /// existing allocation when it is large enough. This is what makes
    /// the `*_into` kernels allocation-free across training batches.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self @ other`.
    ///
    /// Splits over [`host_workers`] workers above the parallel threshold;
    /// see [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out, host_workers());
        out
    }

    /// `self @ other`, written into `out` (reshaped and zeroed, reusing
    /// its allocation).
    ///
    /// Below the parallel FLOP threshold the sequential kernel runs
    /// inline. Above it, [`sushi_par::fan_out`] splits the output rows
    /// into at most `workers` ranges of whole rows (one worker runs them
    /// all inline); every output element is produced by one range running
    /// the same kernel, so the result is bitwise identical for any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix, workers: usize) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset_to(self.rows, other.cols);
        let (k, n) = (self.cols, other.cols);
        let flops = self.rows * k * n;
        let tier = cpu_tier();
        if flops < PARALLEL_FLOP_THRESHOLD {
            matmul_rows(tier, &self.data, &other.data, &mut out.data, k, n);
            return;
        }
        fan_out(&mut out.data, workers, n, |r, chunk| {
            let a_block = &self.data[r.start / n * k..r.end / n * k];
            matmul_rows(tier, a_block, &other.data, chunk, k, n);
        });
    }

    /// `self @ other^T` (common in backprop).
    ///
    /// Materializes `other^T` once and reuses the row-major kernel (and
    /// parallel dispatch) of [`Matrix::matmul`]: the inner sweep then runs
    /// along contiguous output rows with the sparse-row skip, instead of
    /// the naive triple loop's strided dot products.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul(&other.transpose())
    }

    /// `self^T @ other` (weight-gradient accumulation).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_acc_into(other, &mut out, host_workers());
        out
    }

    /// Accumulates `self^T @ other` into `out` (`out += self^T @ other`),
    /// the BPTT weight-gradient kernel: gradients sum over time steps, so
    /// accumulating in place removes a full temporary-plus-add pass per
    /// step.
    ///
    /// The loop runs output-row-major (`i` outer, `k` inner): each output
    /// row stays hot in cache across the whole `k` sweep, and the
    /// per-element `k`-ascending accumulation order of the naive kernel is
    /// preserved exactly. Above the parallel threshold the output rows are
    /// split over at most `workers` ranges, as in [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if `out` is not
    /// `self.cols x other.cols`.
    pub fn transpose_matmul_acc_into(&self, other: &Matrix, out: &mut Matrix, workers: usize) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "t_matmul accumulator is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.cols,
            other.cols
        );
        let (a_cols, n) = (self.cols, other.cols);
        let flops = self.rows * a_cols * n;
        let tier = cpu_tier();
        if flops < PARALLEL_FLOP_THRESHOLD {
            t_matmul_acc(tier, &self.data, &other.data, &mut out.data, 0, a_cols, n);
            return;
        }
        fan_out(&mut out.data, workers, n, |r, chunk| {
            t_matmul_acc(tier, &self.data, &other.data, chunk, r.start / n, a_cols, n);
        });
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// The transpose, written into `out` (reshaped, reusing its
    /// allocation).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset_to(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale by `k`.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise product, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.hadamard_into(other, &mut out);
        out
    }

    /// Element-wise product, written into `out` (reshaped, reusing its
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&other.data).map(|(a, b)| a * b));
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN in argmax"))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Kernel tiers
//
// One `#[inline(always)]` body per kernel, compiled under AVX2 by a thin
// `#[target_feature]` wrapper and picked by matching on the host's
// `CpuTier` (the idiom of the `sushi_ssnn` popcount kernels). Under AVX2
// the axpy loop vectorizes 8-wide with separate vmulps/vaddps — Rust
// never contracts them into FMA, so both builds produce identical bits.
// ---------------------------------------------------------------------------

/// `out[j] += a * b[j]` — the axpy inner loop every matmul kernel reduces
/// to. Per-element: one rounding for the multiply, one for the add, in
/// index order; this is the contract the SIMD tiers must (and do)
/// preserve.
#[inline(always)]
fn axpy(out: &mut [f32], b: &[f32], a: f32) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// Row-block matmul: `out[i] = sum_p a[i][p] * b[p]` for a contiguous row
/// block (`a` holds the block's rows, `out` the matching output rows).
#[inline(always)]
fn matmul_rows_body(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue; // spike matrices are sparse
            }
            axpy(orow, &b[p * n..(p + 1) * n], av);
        }
    }
}

/// Transposed-matmul accumulation for a contiguous output-row block:
/// `out[i][j] += sum_k a[k][i0 + i] * b[k][j]`, `k` ascending — the same
/// per-element order as the naive `k`-outer loop, restructured so each
/// output row stays cache-hot across the `k` sweep.
#[inline(always)]
fn t_matmul_acc_body(
    a: &[f32],
    b: &[f32],
    out_chunk: &mut [f32],
    i0: usize,
    a_cols: usize,
    n: usize,
) {
    if a_cols == 0 || n == 0 {
        return;
    }
    for (local, orow) in out_chunk.chunks_exact_mut(n).enumerate() {
        let i = i0 + local;
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let av = a[kk * a_cols + i];
            if av == 0.0 {
                continue; // spike inputs are sparse
            }
            axpy(orow, brow, av);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_rows_avx2(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    matmul_rows_body(a, b, out, k, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn t_matmul_acc_avx2(
    a: &[f32],
    b: &[f32],
    out_chunk: &mut [f32],
    i0: usize,
    a_cols: usize,
    n: usize,
) {
    t_matmul_acc_body(a, b, out_chunk, i0, a_cols, n);
}

/// The row-block matmul kernel on the widest build `tier` allows: AVX2
/// from [`CpuTier::Avx2`] up, else the baseline. Panics if `tier`
/// exceeds [`cpu_tier`].
fn matmul_rows(tier: CpuTier, a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
    #[cfg(target_arch = "x86_64")]
    if tier >= CpuTier::Avx2 {
        // SAFETY: the host supports `tier` (asserted above), so AVX2.
        return unsafe { matmul_rows_avx2(a, b, out, k, n) };
    }
    matmul_rows_body(a, b, out, k, n);
}

/// The transposed-matmul accumulation kernel on the widest build `tier`
/// allows, as [`matmul_rows`].
fn t_matmul_acc(
    tier: CpuTier,
    a: &[f32],
    b: &[f32],
    out_chunk: &mut [f32],
    i0: usize,
    a_cols: usize,
    n: usize,
) {
    assert!(tier <= cpu_tier(), "{tier:?} exceeds the host tier");
    #[cfg(target_arch = "x86_64")]
    if tier >= CpuTier::Avx2 {
        // SAFETY: the host supports `tier` (asserted above), so AVX2.
        return unsafe { t_matmul_acc_avx2(a, b, out_chunk, i0, a_cols, n) };
    }
    t_matmul_acc_body(a, b, out_chunk, i0, a_cols, n);
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(12) {
                write!(f, "{:>8.3}", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 12 { " ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    fn patterned(n: usize) -> (Matrix, Matrix) {
        let mut a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 7 + j * 3) % 11) as f32 - 5.0;
                b[(i, j)] = ((i * 5 + j * 13) % 7) as f32 - 3.0;
            }
        }
        (a, b)
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Big enough to cross the parallel threshold.
        let n = 260;
        let (a, b) = patterned(n);
        let big = a.matmul(&b);
        // Serial reference on a few spot cells.
        for &(i, j) in &[(0, 0), (17, 211), (259, 259), (100, 3)] {
            let expect: f32 = (0..n).map(|k| a[(i, k)] * b[(k, j)]).sum();
            assert!((big[(i, j)] - expect).abs() < 1e-3, "({i},{j})");
        }
    }

    #[test]
    fn matmul_is_pool_size_invariant() {
        // Above the parallel threshold every worker count must produce
        // identical bits: a range holds whole output rows, and each
        // element sums `k` in ascending order wherever its row runs.
        let n = 260;
        let (a, b) = patterned(n);
        let mut reference = Matrix::default();
        a.matmul_into(&b, &mut reference, 1);
        let mut acc_seq = Matrix::zeros(n, n);
        a.transpose_matmul_acc_into(&b, &mut acc_seq, 1);
        for workers in [2, 7] {
            let mut out = Matrix::default();
            a.matmul_into(&b, &mut out, workers);
            assert_eq!(out, reference, "workers={workers}");
            let mut acc = Matrix::zeros(n, n);
            a.transpose_matmul_acc_into(&b, &mut acc, workers);
            assert_eq!(acc, acc_seq, "t_matmul workers={workers}");
        }
    }

    /// The baseline and AVX2 builds of both kernels produce the same bits
    /// on every tier the host runs, sparse skips included.
    #[test]
    fn matmul_tiers_agree_bitwise() {
        let (m, k, n) = (37, 53, 29);
        let fill = |len: usize, mul: usize, scale: f32| -> Vec<f32> {
            (0..len)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    _ => ((i * mul) % 23) as f32 * scale - 1.7,
                })
                .collect()
        };
        let a = fill(m * k, 7919, 0.37);
        let b = fill(k * n, 104_729, 0.21);
        let c = fill(m * n, 6151, 0.13);
        let mut runs = Vec::new();
        for tier in CpuTier::ALL.into_iter().filter(|&t| t <= cpu_tier()) {
            let mut prod = vec![0.0f32; m * n];
            matmul_rows(tier, &a, &b, &mut prod, k, n);
            let mut grad = vec![0.5f32; k * n];
            t_matmul_acc(tier, &a, &c, &mut grad, 0, k, n);
            let bits: Vec<u32> = prod.iter().chain(&grad).map(|v| v.to_bits()).collect();
            runs.push((tier, bits));
        }
        let (_, reference) = &runs[0];
        for (tier, bits) in &runs {
            assert_eq!(bits, reference, "{tier:?}");
        }
    }

    #[test]
    fn matmul_into_reuses_allocation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let mut out = Matrix::zeros(8, 8); // larger than needed
        let cap_ptr = out.data.as_ptr();
        a.matmul_into(&b, &mut out, host_workers());
        assert_eq!(out, a);
        assert_eq!(out.data.as_ptr(), cap_ptr, "buffer must be reused");
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_matmul_acc_accumulates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let mut acc = Matrix::from_rows(&[&[100.0], &[200.0]]);
        a.transpose_matmul_acc_into(&b, &mut acc, host_workers());
        // a^T @ b = [[1*5+3*6], [2*5+4*6]] = [[23], [34]]
        assert_eq!(acc, Matrix::from_rows(&[&[123.0], &[234.0]]));
    }

    #[test]
    fn reset_to_zeroes_and_reshapes() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        m.reset_to(2, 2);
        assert_eq!(m, Matrix::zeros(2, 2));
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut out = Matrix::default();
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        assert_eq!(out.rows(), 3);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Matrix::from_rows(&[&[0.1, 0.9, 0.3], &[1.0, -1.0, 0.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn map_and_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(a.hadamard(&a), Matrix::from_rows(&[&[1.0, 4.0]]));
        let mut out = Matrix::default();
        a.hadamard_into(&a, &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[1.0, 4.0]]));
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        a.add_assign(&Matrix::from_rows(&[&[0.5, 0.5]]));
        a.scale(2.0);
        assert_eq!(a, Matrix::from_rows(&[&[3.0, 5.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_shape_checked() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(2, 2);
        assert!(a.to_string().contains("Matrix 2x2"));
    }
}
