//! The spiking MLP with BPTT (spatio-temporal backpropagation through the
//! surrogate gradient).
//!
//! Architecture: `Flatten - FC(h1) - IF - FC(h2) - IF - ... - FC(10) - IF`,
//! the paper's INPUT28*28-Flatten-FC800-IF-FC10-IF being the two-layer
//! instance. The loss is the mean-squared error between the output firing
//! rate over `T` time steps and the one-hot target — the classic
//! SpikingJelly recipe.
//!
//! # Hot path
//!
//! Training runs through [`SnnMlp::forward_record_with`] and
//! [`SnnMlp::backward_with`], which thread a reusable [`TrainScratch`]
//! through the whole pass: every intermediate matrix (membranes,
//! activations, spike records, gradient carriers) and, in binary mode,
//! every layer's packed XNOR sign words live in the scratch and are
//! reshaped in place. With one worker a warm pass does not allocate; with
//! more, each matmul split over [`sushi_par::fan_out`] allocates its range
//! plan (see [`TrainScratch`]). The convenience wrappers
//! [`SnnMlp::forward_record`] and [`SnnMlp::backward`] allocate a fresh
//! scratch per call.

use crate::neuron::IfNeuron;
use crate::tensor::Matrix;
use crate::xnor::{Nonzeros, SignWords};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sushi_par::cpu_tier;

/// A fully-connected spiking network with IF neurons after every layer.
///
/// # Examples
///
/// ```
/// use sushi_snn::{Matrix, SnnMlp};
///
/// let net = SnnMlp::new(&[4, 8, 2], 42);
/// let frames = vec![Matrix::zeros(1, 4); 5];
/// let rates = net.forward(&frames);
/// assert_eq!((rates.rows(), rates.cols()), (1, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SnnMlp {
    /// Per-layer latent weights, each `in x out`.
    weights: Vec<Matrix>,
    neuron: IfNeuron,
    /// XNOR-Net mode: the passes multiply by `alpha_j * sign(W[:, j])`,
    /// held as packed sign bits, instead of the latent floats; gradients
    /// pass straight through.
    binary: bool,
    /// Stateless-neuron mode (Section 5.1): membranes reset to zero at the
    /// end of every time step instead of carrying residuals.
    stateless: bool,
}

/// XNOR-Net effective weights: per output column `j`,
/// `alpha_j * sign(w_ij)` with `alpha_j = mean_i |w_ij|` (summed over `i`
/// ascending); `+0.0` and `-0.0` count as positive, NaN as negative.
///
/// This is the dense expansion of the packed sign words that binary mode
/// trains and evaluates on, so it carries exactly the bits those passes
/// multiply by.
pub fn xnor_effective(w: &Matrix) -> Matrix {
    let mut signs = SignWords::default();
    signs.binarize(w, cpu_tier());
    let mut out = Matrix::default();
    signs.expand_into(&mut out);
    out
}

/// Caches recorded by a forward pass, consumed by the backward pass.
///
/// Layer inputs are not stored: layer 0 reads the encoded frames (passed
/// to the backward pass directly) and layer `l > 0` reads
/// `spikes[l - 1][t]`.
#[derive(Debug, Clone, Default)]
pub struct ForwardRecord {
    /// `pre_acts[l][t]`: pre-reset potentials `H[t]` of layer `l`.
    pub pre_acts: Vec<Vec<Matrix>>,
    /// `spikes[l][t]`: output spikes of layer `l` at time `t`.
    pub spikes: Vec<Vec<Matrix>>,
    /// Mean output firing rate over time (`batch x classes`).
    pub rates: Matrix,
}

/// Reusable buffers for the BPTT hot path.
///
/// One scratch lives across a whole training loop; every forward/backward
/// pass reuses its matrices (reshaped in place via `Matrix::reset_to`)
/// and, in binary mode, its per-layer sign words and the sign-bit
/// kernel's nonzero lists. A scratch is tied to nothing: the first pass
/// shapes it, and it reshapes itself whenever the network, batch size, or
/// time-step count changes. It also holds the worker count its matmuls
/// split over ([`Matrix::matmul_into`]).
///
/// With one worker a warm pass allocates nothing. With more, every matmul
/// large enough to split (at the paper's 784-800-10 shape, batch 32 and
/// `T = 5`: the five layer-0 forward products and the five layer-0 weight
/// gradients) allocates its [`sushi_par::fan_out`] range plan, result
/// slots and queued job, 30 allocations per batch on two workers;
/// `tests/alloc_train.rs` pins both counts.
#[derive(Debug)]
pub struct TrainScratch {
    workers: usize,
    /// The record of the last forward pass.
    record: ForwardRecord,
    /// Per-layer membrane potentials (forward).
    membranes: Vec<Matrix>,
    /// Per-layer pre-synaptic matmul buffers (forward).
    acts: Vec<Matrix>,
    /// Packed XNOR sign words and scales of the last binary-mode forward
    /// pass; the backward pass reuses them (straight-through estimator).
    /// Float-mode passes read the latent weights in place and leave this
    /// alone.
    signs: Vec<SignWords>,
    /// Per-row nonzero input lists of the sign-bit kernel.
    nonzeros: Nonzeros,
    /// Transposed effective weights of the layers above the first
    /// (backward propagation).
    wt: Vec<Matrix>,
    /// Top-layer `dL/dS` (identical at every time step).
    g_top: Matrix,
    /// `g_spikes[l][t]`: `dL/dS` for layers below the top.
    g_spikes: Vec<Vec<Matrix>>,
    /// Current-step `dL/dH` / next-step `dL/dV` swap buffers.
    g_h: Matrix,
    g_v: Matrix,
    /// Per-layer weight gradients of the last backward pass.
    grads: Vec<Matrix>,
}

impl TrainScratch {
    /// A scratch whose matmuls split over one worker per host CPU
    /// ([`sushi_par::host_workers`]).
    pub fn new() -> Self {
        Self::with_workers(sushi_par::host_workers())
    }

    /// A scratch whose matmuls split over at most `workers` workers (zero
    /// counts as one). Results are bitwise identical for any worker count
    /// (see [`crate::tensor`]); this exists for explicit sizing and the
    /// worker-invariance tests.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            record: ForwardRecord::default(),
            membranes: Vec::new(),
            acts: Vec::new(),
            signs: Vec::new(),
            nonzeros: Nonzeros::default(),
            wt: Vec::new(),
            g_top: Matrix::default(),
            g_spikes: Vec::new(),
            g_h: Matrix::default(),
            g_v: Matrix::default(),
            grads: Vec::new(),
        }
    }

    /// Splits later passes over `workers` workers, as
    /// [`TrainScratch::with_workers`] does, keeping every buffer.
    pub(crate) fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// The record of the last [`SnnMlp::forward_record_with`] pass.
    pub fn record(&self) -> &ForwardRecord {
        &self.record
    }

    /// Per-layer weight gradients of the last [`SnnMlp::backward_with`]
    /// pass.
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }
}

impl Default for TrainScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SnnMlp {
    /// A network with the given layer sizes (input first, classes last) and
    /// Kaiming-uniform initial weights; IF threshold 1.0.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "zero-sized layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = sizes
            .windows(2)
            .map(|w| {
                let (fan_in, fan_out) = (w[0], w[1]);
                let bound = (6.0 / fan_in as f32).sqrt();
                let data = (0..fan_in * fan_out)
                    .map(|_| rng.gen_range(-bound..bound))
                    .collect();
                Matrix::from_vec(fan_in, fan_out, data)
            })
            .collect();
        Self {
            weights,
            neuron: IfNeuron::paper_default(),
            binary: false,
            stateless: false,
        }
    }

    /// Switches the forward pass between latent-float and XNOR-binary
    /// effective weights (builder style).
    pub fn with_binary_weights(mut self, binary: bool) -> Self {
        self.binary = binary;
        self
    }

    /// Whether the forward pass binarizes weights.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Switches the stateless-neuron simplification on or off (builder
    /// style): when on, membrane potentials reset to zero at every time
    /// step, matching the chip's stateless neuron.
    pub fn with_stateless(mut self, stateless: bool) -> Self {
        self.stateless = stateless;
        self
    }

    /// Whether membranes reset at each time step.
    pub fn is_stateless(&self) -> bool {
        self.stateless
    }

    /// The weights the passes multiply by, as dense matrices: the latent
    /// floats, or in binary mode their XNOR form ([`xnor_effective`]), the
    /// expansion of the sign words the passes actually read. The chip
    /// compiler quantizes this; a float-mode network built from it runs
    /// the same bits as this one.
    pub fn effective_weights(&self) -> Vec<Matrix> {
        if !self.binary {
            return self.weights.clone();
        }
        self.weights.iter().map(xnor_effective).collect()
    }

    /// In binary mode, binarizes the latent weights into `ws`'s reused
    /// sign words; in float mode it does nothing, since the passes read
    /// the latent weights in place. [`SnnMlp::forward_record_with`] starts
    /// with it; a caller that runs many batches through unchanged weights
    /// calls it once and then [`SnnMlp::forward_binarized`] per batch.
    pub(crate) fn binarize_into(&self, ws: &mut TrainScratch) {
        if self.binary {
            let tier = cpu_tier();
            ws.signs.resize_with(self.weights.len(), SignWords::default);
            for (w, s) in self.weights.iter().zip(ws.signs.iter_mut()) {
                s.binarize(w, tier);
            }
        }
    }

    /// Builds a network from explicit weights (each `in x out`).
    ///
    /// # Panics
    ///
    /// Panics if consecutive shapes do not chain or `weights` is empty.
    pub fn from_weights(weights: Vec<Matrix>, neuron: IfNeuron) -> Self {
        assert!(!weights.is_empty(), "need at least one layer");
        for w in weights.windows(2) {
            assert_eq!(w[0].cols(), w[1].rows(), "layer shapes do not chain");
        }
        Self {
            weights,
            neuron,
            binary: false,
            stateless: false,
        }
    }

    /// Layer sizes (input first).
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.weights.iter().map(Matrix::rows).collect();
        s.push(self.weights.last().expect("non-empty").cols());
        s
    }

    /// The per-layer weights (`in x out` each).
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Mutable access to the weights (for the optimizer).
    pub fn weights_mut(&mut self) -> &mut [Matrix] {
        &mut self.weights
    }

    /// The IF neuron configuration.
    pub fn neuron(&self) -> IfNeuron {
        self.neuron
    }

    /// Runs `frames` (one `batch x input` spike matrix per time step)
    /// through the network and returns output firing rates
    /// (`batch x classes`).
    ///
    /// Each call allocates a one-shot [`TrainScratch`] and, in binary
    /// mode, binarizes every weight afresh into packed sign words (see
    /// [`SnnMlp::forward_record_with`]); to classify many images, use
    /// [`TrainedSnn::predict_all`](crate::TrainedSnn::predict_all), which
    /// binarizes once and runs training-sized batches on one scratch.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or widths mismatch the input layer.
    pub fn forward(&self, frames: &[Matrix]) -> Matrix {
        self.forward_record(frames).rates
    }

    /// As [`SnnMlp::forward`], recording everything BPTT needs.
    ///
    /// Convenience wrapper over [`SnnMlp::forward_record_with`] with a
    /// one-shot scratch; training loops should hold a [`TrainScratch`]
    /// instead.
    ///
    /// # Panics
    ///
    /// As [`SnnMlp::forward`].
    pub fn forward_record(&self, frames: &[Matrix]) -> ForwardRecord {
        let mut ws = TrainScratch::new();
        self.forward_record_with(frames, &mut ws);
        ws.record
    }

    /// Runs the recorded forward pass entirely inside `ws`, leaving the
    /// [`ForwardRecord`] in [`TrainScratch::record`]. Reshapes the scratch
    /// as needed; in steady state (same network/batch/`T`) only the
    /// parallel split allocates (see [`TrainScratch`]).
    ///
    /// In binary mode it first binarizes every layer into the scratch's
    /// packed sign words, one read pass over the latent weights, and the
    /// layer products multiply by those words directly (see
    /// `crates/snn/src/xnor.rs`): the bits equal those of a float-mode
    /// network built from [`SnnMlp::effective_weights`].
    ///
    /// # Panics
    ///
    /// As [`SnnMlp::forward`].
    pub fn forward_record_with(&self, frames: &[Matrix], ws: &mut TrainScratch) {
        self.binarize_into(ws);
        self.forward_binarized(frames, ws, self.stateless);
    }

    /// [`SnnMlp::forward_record_with`] on the sign words already in `ws`
    /// (in binary mode, [`SnnMlp::binarize_into`] must have run on this
    /// network's current weights), with membranes reset at every time
    /// step if `stateless`, whatever this network's own setting.
    pub(crate) fn forward_binarized(
        &self,
        frames: &[Matrix],
        ws: &mut TrainScratch,
        stateless: bool,
    ) {
        assert!(!frames.is_empty(), "need at least one time step");
        let batch = frames[0].rows();
        assert_eq!(
            frames[0].cols(),
            self.weights[0].rows(),
            "input width mismatch"
        );
        let num_layers = self.weights.len();
        let t_steps = frames.len();

        ws.record.pre_acts.resize_with(num_layers, Vec::new);
        ws.record.spikes.resize_with(num_layers, Vec::new);
        ws.membranes.resize_with(num_layers, Matrix::default);
        ws.acts.resize_with(num_layers, Matrix::default);
        for (l, w) in self.weights.iter().enumerate() {
            ws.record.pre_acts[l].resize_with(t_steps, Matrix::default);
            ws.record.spikes[l].resize_with(t_steps, Matrix::default);
            ws.membranes[l].reset_to(batch, w.cols());
        }
        let classes = self.weights[num_layers - 1].cols();
        ws.record.rates.reset_to(batch, classes);
        for (t, frame) in frames.iter().enumerate() {
            for l in 0..num_layers {
                let (below, at) = ws.record.spikes.split_at_mut(l);
                let input: &Matrix = if l == 0 { frame } else { &below[l - 1][t] };
                if self.binary {
                    ws.signs[l].matmul_into(input, &mut ws.acts[l], ws.workers, &mut ws.nonzeros);
                } else {
                    input.matmul_into(&self.weights[l], &mut ws.acts[l], ws.workers);
                }
                self.neuron.step_recorded_into(
                    &mut ws.membranes[l],
                    &ws.acts[l],
                    &mut at[0][t],
                    &mut ws.record.pre_acts[l][t],
                );
            }
            ws.record
                .rates
                .add_assign(&ws.record.spikes[num_layers - 1][t]);
            if stateless {
                for m in &mut ws.membranes {
                    for v in m.as_mut_slice() {
                        *v = 0.0;
                    }
                }
            }
        }
        ws.record.rates.scale(1.0 / t_steps as f32);
    }

    /// Computes the MSE loss against one-hot `targets` and the weight
    /// gradients by BPTT with the rectangular surrogate and detached
    /// reset. `frames` are the encoded inputs the forward pass consumed
    /// (layer 0's inputs, which the record does not duplicate).
    ///
    /// Returns `(loss, per-layer gradients)`.
    ///
    /// Convenience wrapper over [`SnnMlp::backward_with`] with a one-shot
    /// scratch; training loops should hold a [`TrainScratch`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `targets` shape mismatches the output rates or `frames`
    /// disagrees with the record.
    pub fn backward(
        &self,
        frames: &[Matrix],
        record: &ForwardRecord,
        targets: &Matrix,
    ) -> (f32, Vec<Matrix>) {
        let mut ws = TrainScratch::new();
        ws.record = record.clone();
        self.binarize_into(&mut ws);
        let loss = self.backward_with(frames, targets, &mut ws);
        (loss, std::mem::take(&mut ws.grads))
    }

    /// The BPTT backward pass over the record left in `ws` by
    /// [`SnnMlp::forward_record_with`] (which must have run on the same
    /// network with the same `frames`). Returns the loss; the per-layer
    /// gradients land in [`TrainScratch::grads`]. In steady state only the
    /// parallel split allocates (see [`TrainScratch`]).
    ///
    /// # Panics
    ///
    /// Panics if `ws` does not hold a matching forward record or `targets`
    /// shape mismatches the output rates.
    pub fn backward_with(&self, frames: &[Matrix], targets: &Matrix, ws: &mut TrainScratch) -> f32 {
        let record = &ws.record;
        let rates = &record.rates;
        assert_eq!(
            (rates.rows(), rates.cols()),
            (targets.rows(), targets.cols()),
            "target shape mismatch"
        );
        let num_layers = self.weights.len();
        assert_eq!(
            record.spikes.len(),
            num_layers,
            "scratch holds no forward record for this network"
        );
        let steps = record.spikes[0].len();
        assert_eq!(
            frames.len(),
            steps,
            "frame count differs from the recorded forward pass"
        );
        let batch = rates.rows() as f32;
        let classes = rates.cols() as f32;
        let t_steps = steps as f32;

        // Loss and the top-layer dL/dS, which is the same at every time
        // step: d(rate)/d(S[t]) = 1/T, so gS = (2/(batch*classes)) * diff
        // * (1/T).
        ws.g_top.reset_to(rates.rows(), rates.cols());
        let g_scale = 2.0 / (batch * classes);
        let mut loss = 0.0f32;
        for ((g, &r), &tv) in ws
            .g_top
            .as_mut_slice()
            .iter_mut()
            .zip(rates.as_slice())
            .zip(targets.as_slice())
        {
            let d = r - tv;
            loss += d * d;
            *g = (d * g_scale) * (1.0 / t_steps);
        }
        let loss = loss / (batch * classes);

        ws.g_spikes
            .resize_with(num_layers.saturating_sub(1), Vec::new);
        for gs in ws.g_spikes.iter_mut() {
            gs.resize_with(steps, Matrix::default);
        }
        ws.grads.resize_with(num_layers, Matrix::default);
        for (g, w) in ws.grads.iter_mut().zip(&self.weights) {
            g.reset_to(w.rows(), w.cols());
        }
        // Backprop flows through the weights the forward pass used (in
        // binary mode, expanded from the sign words `forward_record_with`
        // left in the scratch); there the gradient reaches the latent
        // floats via the straight-through estimator
        // (d effective / d latent ~= 1). Layer 0 propagates no input
        // gradient, so only the layers above it are transposed.
        ws.wt.resize_with(num_layers, Matrix::default);
        for l in 1..num_layers {
            if self.binary {
                ws.signs[l].transpose_into(&mut ws.wt[l]);
            } else {
                self.weights[l].transpose_into(&mut ws.wt[l]);
            }
        }

        for l in (0..num_layers).rev() {
            let width = self.weights[l].cols();
            ws.g_h.reset_to(rates.rows(), width);
            ws.g_v.reset_to(rates.rows(), width);
            let mut have_gv = false;
            for t in (0..steps).rev() {
                // gH = gS * sigma'(H) + gV_next * (1 - S), fused into one
                // sweep (same multiply/add order as the matrix-op form).
                {
                    let h = ws.record.pre_acts[l][t].as_slice();
                    let s = ws.record.spikes[l][t].as_slice();
                    let g_s = if l == num_layers - 1 {
                        ws.g_top.as_slice()
                    } else {
                        ws.g_spikes[l][t].as_slice()
                    };
                    let gh = ws.g_h.as_mut_slice();
                    // Temporal coupling exists only when residuals carry
                    // over; the stateless neuron severs it.
                    if !self.stateless && have_gv {
                        let gv = ws.g_v.as_slice();
                        for i in 0..gh.len() {
                            gh[i] =
                                g_s[i] * self.neuron.surrogate_grad(h[i]) + gv[i] * (1.0 - s[i]);
                        }
                    } else {
                        for i in 0..gh.len() {
                            gh[i] = g_s[i] * self.neuron.surrogate_grad(h[i]);
                        }
                    }
                }
                // gW += input^T @ gH, accumulated in place across time.
                let input: &Matrix = if l == 0 {
                    &frames[t]
                } else {
                    &ws.record.spikes[l - 1][t]
                };
                input.transpose_matmul_acc_into(&ws.g_h, &mut ws.grads[l], ws.workers);
                // gInput = gH @ W^T propagates to the layer below.
                if l > 0 {
                    ws.g_h
                        .matmul_into(&ws.wt[l], &mut ws.g_spikes[l - 1][t], ws.workers);
                }
                std::mem::swap(&mut ws.g_h, &mut ws.g_v);
                have_gv = true;
            }
        }
        loss
    }

    /// Predicted class per batch row (argmax of firing rates, ties to the
    /// lowest class).
    ///
    /// As [`SnnMlp::forward`], each call allocates a scratch and
    /// re-binarizes the weights; many images should go through
    /// [`TrainedSnn::predict_all`](crate::TrainedSnn::predict_all).
    pub fn predict(&self, frames: &[Matrix]) -> Vec<usize> {
        self.forward(frames).argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_frames(t: usize, batch: usize, width: usize, v: f32) -> Vec<Matrix> {
        vec![Matrix::from_vec(batch, width, vec![v; batch * width]); t]
    }

    #[test]
    fn forward_shapes() {
        let net = SnnMlp::new(&[6, 10, 3], 1);
        let rates = net.forward(&constant_frames(4, 2, 6, 1.0));
        assert_eq!((rates.rows(), rates.cols()), (2, 3));
        assert_eq!(net.layer_sizes(), vec![6, 10, 3]);
    }

    #[test]
    fn rates_bounded_by_one() {
        let net = SnnMlp::new(&[5, 8, 4], 2);
        let rates = net.forward(&constant_frames(6, 1, 5, 1.0));
        assert!(rates.as_slice().iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn zero_input_produces_zero_rate() {
        let net = SnnMlp::new(&[5, 8, 4], 3);
        let rates = net.forward(&constant_frames(5, 1, 5, 0.0));
        assert_eq!(rates.sum(), 0.0);
    }

    #[test]
    fn from_weights_validates_chaining() {
        let w1 = Matrix::zeros(4, 6);
        let w2 = Matrix::zeros(6, 2);
        let net = SnnMlp::from_weights(vec![w1, w2], IfNeuron::paper_default());
        assert_eq!(net.layer_sizes(), vec![4, 6, 2]);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn from_weights_rejects_mismatched() {
        let _ = SnnMlp::from_weights(
            vec![Matrix::zeros(4, 6), Matrix::zeros(5, 2)],
            IfNeuron::paper_default(),
        );
    }

    #[test]
    fn backward_returns_finite_grads_of_right_shape() {
        let net = SnnMlp::new(&[6, 9, 3], 4);
        let frames = constant_frames(5, 2, 6, 1.0);
        let rec = net.forward_record(&frames);
        let targets = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let (loss, grads) = net.backward(&frames, &rec, &targets);
        assert!(loss.is_finite() && loss >= 0.0);
        assert_eq!(grads.len(), 2);
        assert_eq!((grads[0].rows(), grads[0].cols()), (6, 9));
        assert_eq!((grads[1].rows(), grads[1].cols()), (9, 3));
        assert!(grads
            .iter()
            .all(|g| g.as_slice().iter().all(|v| v.is_finite())));
    }

    /// The scratch-threaded hot path must produce exactly the bits of the
    /// convenience wrappers, in every float/binary and stateful/stateless
    /// mode and across repeated reuse of one scratch. The weights change
    /// between rounds, as the optimizer changes them between batches, so
    /// a pass that read weights left in the scratch by an earlier pass
    /// would fail here.
    #[test]
    fn scratch_paths_match_one_shot_paths() {
        for binary in [false, true] {
            for stateless in [false, true] {
                let mut net = SnnMlp::new(&[6, 9, 3], 5)
                    .with_binary_weights(binary)
                    .with_stateless(stateless);
                let targets = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
                let mut ws = TrainScratch::new();
                for round in 0..3 {
                    let at = format!("round {round} binary={binary} stateless={stateless}");
                    let frames = constant_frames(5, 2, 6, 0.4 + 0.2 * round as f32);
                    let rec = net.forward_record(&frames);
                    let (loss, grads) = net.backward(&frames, &rec, &targets);
                    net.forward_record_with(&frames, &mut ws);
                    assert_eq!(ws.record().rates, rec.rates, "{at}");
                    assert_eq!(ws.record().spikes, rec.spikes, "{at}");
                    assert_eq!(ws.record().pre_acts, rec.pre_acts, "{at}");
                    let loss_ws = net.backward_with(&frames, &targets, &mut ws);
                    assert_eq!(loss_ws, loss, "{at}");
                    assert_eq!(ws.grads(), &grads[..], "{at}");
                    for w in net.weights_mut() {
                        for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                            *v += 0.1 * ((i % 7) as f32 - 3.0);
                        }
                    }
                }
            }
        }
    }

    /// Finite-difference check of the output-layer gradient through the
    /// surrogate: nudging a weight changes the loss in the predicted
    /// direction whenever the surrogate window is active.
    #[test]
    fn gradient_direction_matches_finite_difference() {
        let mut net = SnnMlp::new(&[4, 5, 2], 7);
        let frames = constant_frames(5, 3, 4, 1.0);
        let targets = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        let rec = net.forward_record(&frames);
        let (_, grads) = net.backward(&frames, &rec, &targets);
        // Take a few steps along -grad; the loss must not increase much.
        let loss_before = {
            let rec = net.forward_record(&frames);
            net.backward(&frames, &rec, &targets).0
        };
        for (w, g) in net.weights_mut().iter_mut().zip(&grads) {
            let mut step = g.clone();
            step.scale(-0.5);
            w.add_assign(&step);
        }
        let loss_after = {
            let rec = net.forward_record(&frames);
            net.backward(&frames, &rec, &targets).0
        };
        assert!(
            loss_after <= loss_before + 1e-4,
            "descent step increased loss {loss_before} -> {loss_after}"
        );
    }

    #[test]
    fn deterministic_init() {
        let a = SnnMlp::new(&[4, 4, 2], 11);
        let b = SnnMlp::new(&[4, 4, 2], 11);
        let c = SnnMlp::new(&[4, 4, 2], 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
