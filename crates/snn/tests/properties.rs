//! Property-based tests on the SNN framework's algebra and dynamics.

use proptest::prelude::*;
use sushi_snn::data::synth_digits;
use sushi_snn::{accuracy, consistency, IfNeuron, Matrix, PoissonEncoder, TrainConfig, Trainer};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Spike-like matrices: a mix of zeros (exercising the sparse skip) and
/// arbitrary finite values.
fn sparse_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec((any::<bool>(), -4.0f32..4.0), rows * cols).prop_map(move |cells| {
        let v = cells
            .into_iter()
            .map(|(zero, x)| if zero { 0.0 } else { x })
            .collect();
        Matrix::from_vec(rows, cols, v)
    })
}

/// The scalar reference kernel for `Matrix::matmul`: row-major axpy with
/// k-ascending accumulation and the zero-row skip — the exact operation
/// order the SIMD tiers must reproduce bit for bit.
fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[(i, p)];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[(p, j)];
            }
        }
    }
    Matrix::from_vec(m, n, out)
}

/// The scalar reference for `Matrix::transpose_matmul` (same contract).
fn scalar_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[(kk, i)];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[(kk, j)];
            }
        }
    }
    Matrix::from_vec(m, n, out)
}

proptest! {
    /// (A @ B)^T == B^T @ A^T.
    #[test]
    fn matmul_transpose_identity(a in matrix(3, 4), b in matrix(4, 5)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// matmul distributes over addition: A @ (B + C) == A @ B + A @ C.
    #[test]
    fn matmul_distributes(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// The transpose helpers agree with explicit transposition.
    #[test]
    fn transpose_helpers_agree(a in matrix(3, 5), b in matrix(4, 5), c in matrix(3, 2)) {
        let mt = a.matmul_transpose(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in mt.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let tm = a.transpose_matmul(&c);
        let explicit = a.transpose().matmul(&c);
        for (x, y) in tm.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// IF dynamics invariant: after any step the membrane sits strictly
    /// below threshold, and the spike count over T steps with constant
    /// drive x approximates floor-rate coding.
    #[test]
    fn if_neuron_invariants(x in 0.0f32..3.0, steps in 1usize..40) {
        let layer = IfNeuron::paper_default();
        let mut v = Matrix::zeros(1, 1);
        let drive = Matrix::from_vec(1, 1, vec![x]);
        let mut spikes = 0u32;
        for _ in 0..steps {
            spikes += layer.step(&mut v, &drive).sum() as u32;
            prop_assert!(v.as_slice()[0] < layer.threshold());
        }
        // Rate coding: total input x*steps produces between floor and ceil
        // of x*steps spikes (threshold 1, hard reset discards overshoot
        // only at firing instants, so the bound is one-sided but safe).
        prop_assert!(f64::from(spikes) <= (f64::from(x) * steps as f64).ceil());
    }

    /// Poisson encoding: deterministic per (seed, id), binary-valued, and
    /// all-ones/all-zeros at the extremes.
    #[test]
    fn poisson_encoding_properties(seed in any::<u64>(), id in any::<u64>(), p in 0.0f32..1.0) {
        let enc = PoissonEncoder::new(seed);
        let a = enc.encode(&[p, 0.0, 1.0], 6, id);
        let b = enc.encode(&[p, 0.0, 1.0], 6, id);
        prop_assert_eq!(&a, &b);
        for frame in &a {
            let s = frame.as_slice();
            prop_assert!(s[0] == 0.0 || s[0] == 1.0);
            prop_assert_eq!(s[1], 0.0);
            prop_assert_eq!(s[2], 1.0);
        }
    }

    /// The runtime-dispatched matmul kernels (AVX2 tier included, when the
    /// host has it) are *bitwise* identical to the scalar reference, across
    /// off-lane widths (17, 33), degenerate 1×N / N×1 shapes, and sparse
    /// zero rows.
    #[test]
    fn simd_matmul_matches_scalar_bitwise(
        (a, b, c) in (0usize..5, 0usize..7, 0usize..5).prop_flat_map(|(mi, ki, ni)| {
            const MS: [usize; 5] = [1, 2, 3, 5, 8];
            const KS: [usize; 7] = [1, 3, 7, 8, 16, 17, 33];
            const NS: [usize; 5] = [1, 5, 8, 17, 33];
            let (m, k, n) = (MS[mi], KS[ki], NS[ni]);
            (sparse_matrix(m, k), sparse_matrix(k, n), sparse_matrix(m, n))
        })
    ) {
        let fast = a.matmul(&b);
        let slow = scalar_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul {} vs {}", x, y);
        }
        let fast_t = a.transpose_matmul(&c);
        let slow_t = scalar_transpose_matmul(&a, &c);
        for (x, y) in fast_t.as_slice().iter().zip(slow_t.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "transpose_matmul {} vs {}", x, y);
        }
    }

    /// Metric bounds: accuracy and consistency live in [0, 1];
    /// consistency is reflexive and symmetric.
    #[test]
    fn metric_properties(preds_a in prop::collection::vec(0usize..10, 1..50), seed in any::<u64>()) {
        let labels: Vec<u8> = preds_a.iter().map(|&p| ((p as u64 + seed) % 10) as u8).collect();
        let acc = accuracy(&preds_a, &labels);
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert_eq!(consistency(&preds_a, &preds_a), 1.0);
        let preds_b: Vec<usize> = preds_a.iter().map(|&p| (p + 1) % 10).collect();
        prop_assert_eq!(consistency(&preds_a, &preds_b), consistency(&preds_b, &preds_a));
    }
}

/// The trained model is bitwise identical for any worker count: the
/// matmuls split their output rows over `sushi_par::fan_out`, and every
/// output element is produced by exactly one range running the same
/// sequential kernel, summing `k` in ascending order. The hidden layer is
/// sized so the per-batch FLOP count crosses `PARALLEL_FLOP_THRESHOLD` —
/// the 2- and 7-worker runs genuinely take the parallel path while the
/// 1-worker run stays sequential.
#[test]
fn training_is_worker_invariant() {
    let mut cfg = TrainConfig::tiny();
    cfg.hidden = vec![300];
    cfg.batch = 32;
    cfg.epochs = 1;
    let data = synth_digits(64, 3);
    let models: Vec<_> = [1usize, 2, 7]
        .iter()
        .map(|&w| Trainer::new(cfg.clone()).with_workers(w).fit(&data))
        .collect();
    assert_eq!(models[0].mlp, models[1].mlp, "1 vs 2 workers");
    assert_eq!(models[0].mlp, models[2].mlp, "1 vs 7 workers");
}
