//! `train`: `Trainer::fit` with the paper's configuration (784-800-10,
//! T = 5, batch 32, XNOR weights with the stateless/residual mix) on
//! seeded synthetic digits, then the trained model's held-out evaluation.

use std::time::{Duration, Instant};

use sushi_snn::data::Dataset;
use sushi_snn::{Adam, Matrix, PoissonEncoder, SnnMlp, TrainConfig, TrainScratch, TrainedSnn, Trainer};
use sushi_ssnn::compiler::CompilerConfig;
use sushi_ssnn::{Compiler, PackedFrames, PackedSnn};

use crate::inputs;
use crate::spans::{Recorder, Trace};
use crate::stats::{median, quiet, Fnv, Latencies, Stopwatch};
use crate::{timed, Report};

/// Training shards; fit `i` trains on shard `i % SHARDS` and must repeat
/// the weights of the shard's first fit bitwise.
const SHARDS: usize = 16;
/// Samples per shard (one fit = one epoch over a shard). Small enough
/// that a run's quiet windows hold a hundred fits for the tail.
const SHARD: usize = 128;
/// Held-out samples for the evaluation phase and the compile gate.
const HOLDOUT: usize = 256;
/// Held-out accuracy the gate model must reach as a float network and
/// once binarized and compiled (chance is 0.1).
const FLOAT_FLOOR: f64 = 0.7;
const COMPILED_FLOOR: f64 = 0.3;
/// Share of the measured time spent fitting (the rest evaluates).
const PHASE1_SHARE: f64 = 0.75;

/// Training shards, their union and the held-out set.
pub struct Setup {
    shards: Vec<Dataset>,
    all: Dataset,
    holdout: Dataset,
}

/// Generates every sample.
pub fn setup(seed: u64) -> Setup {
    let data = inputs::digits(seed, SHARDS * SHARD + HOLDOUT);
    let part = |r: std::ops::Range<usize>| Dataset {
        name: data.name.clone(),
        images: data.images[r.clone()].to_vec(),
        labels: data.labels[r].to_vec(),
    };
    Setup {
        shards: (0..SHARDS).map(|i| part(i * SHARD..(i + 1) * SHARD)).collect(),
        all: part(0..SHARDS * SHARD),
        holdout: part(SHARDS * SHARD..SHARDS * SHARD + HOLDOUT),
    }
}

/// The paper configuration, one epoch per fit, seeded by the workload.
fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        seed,
        ..TrainConfig::paper()
    }
}

fn weights_digest(mlp: &SnnMlp) -> u64 {
    let mut h = Fnv::default();
    for w in mlp.weights() {
        for v in w.as_slice() {
            h.u64(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

/// Binarizes and compiles `model`, then checks on the held-out set that
/// the bitplane engine equals the packed one. Returns the compiled
/// network's accuracy.
fn compile_gate(model: &TrainedSnn, holdout: &Dataset, nproc: usize, report: &mut Report) -> f64 {
    let program = Compiler::new(CompilerConfig::paper()).compile(model);
    let net = PackedSnn::from_network(&program.net);
    let items: Vec<PackedFrames> = holdout
        .images
        .iter()
        .enumerate()
        .map(|(i, img)| {
            PackedFrames::from_bool_frames(net.input_width(), &program.encode_input(img, i as u64))
        })
        .collect();
    let bitplane = net.predict_batch_bitplane_packed(&items, nproc);
    let packed = net.predict_batch_packed(&items, nproc);
    let mismatched = bitplane.iter().zip(&packed).filter(|(a, b)| a != b).count();
    report.tally.record(items.len() as u64, mismatched as u64);
    let correct = bitplane
        .iter()
        .zip(&holdout.labels)
        .filter(|(p, l)| **p == usize::from(**l))
        .count();
    correct as f64 / holdout.len() as f64
}

/// The timed run.
pub fn run(seed: u64, secs: f64, nproc: usize) -> Report {
    let (s, setup_s) = crate::repeated_setup(|| setup(seed));
    let mut report = Report::new(setup_s);
    let cfg = config(seed);

    // Phase 1: rounds that fit every shard once; each round is a window.
    let mut first = [None; SHARDS];
    let mut rounds = Vec::new();
    let phase1 = Duration::from_secs_f64(secs * PHASE1_SHARE);
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed() < phase1 {
        let (mut units, mut lat) = (0.0, Latencies::default());
        let sw = Stopwatch::start();
        for (shard, digest) in s.shards.iter().zip(&mut first) {
            let ((model, history), dt) =
                timed(|| Trainer::new(cfg.clone()).fit_with_history(shard));
            lat.push(dt);
            let d = weights_digest(&model.mlp);
            let repeats = *digest.get_or_insert(d) == d;
            report.tally.check(repeats && history.iter().all(|l| l.is_finite()));
            units += (shard.len() * cfg.epochs) as f64;
        }
        rounds.push(sw.window(units, lat));
    }

    // The gate model: the paper's full configuration on every shard,
    // untimed.
    let gate_cfg = TrainConfig {
        seed,
        ..TrainConfig::paper()
    };
    let (model, history) = Trainer::new(gate_cfg).fit_with_history(&s.all);
    report.tally.check(history.iter().all(|l| l.is_finite()));

    // Phase 2: held-out evaluation of the gate model, one window per pass.
    let mut passes = Vec::new();
    let mut reference = None;
    let t1 = Instant::now();
    let phase2 = Duration::from_secs_f64(secs * (1.0 - PHASE1_SHARE));
    while passes.len() < 4 || t1.elapsed() < phase2 {
        let sw = Stopwatch::start();
        let eval = model.evaluate(&s.holdout);
        passes.push(sw.window(s.holdout.len() as f64, Latencies::default()));
        let first = reference.get_or_insert_with(|| eval.clone());
        report.tally.check(first.predictions == eval.predictions);
    }
    let accuracy = reference.expect("at least one evaluation").accuracy;
    let compiled = compile_gate(&model, &s.holdout, nproc, &mut report);
    for (what, acc, floor) in [("float", accuracy, FLOAT_FLOOR), ("compiled", compiled, COMPILED_FLOOR)] {
        report.tally.check(acc >= floor);
        if acc < floor {
            report.note(format!("{what} held-out accuracy {acc:.3} below {floor}"));
        }
    }

    let (fits, bulk) = (quiet(&rounds), quiet(&passes));
    report.main_phase(&fits);
    report.bulk(&bulk);
    report.note(format!(
        "throughput_per_s = training samples/s over the fastest {} of {} rounds of \
         {SHARDS} fits; p50/tail = one Trainer::fit of {SHARD} samples (1 epoch, batch {}) \
         in those rounds; bulk_per_s = held-out images/s of TrainedSnn::evaluate, fastest \
         {} of {} passes; gate model ({} epochs on {} samples) held-out accuracy \
         {accuracy:.3} (float), {compiled:.3} (compiled)",
        fits.kept,
        fits.windows,
        cfg.batch,
        bulk.kept,
        bulk.windows,
        TrainConfig::paper().epochs,
        s.all.len()
    ));
    report
}

/// Dense multiply-add FLOPs of one forward and one backward pass over a
/// batch of `rows`, derived from the layer shapes: forward is `T` matmuls
/// per layer; backward adds the weight gradients of every layer and the
/// input gradients of every layer above the first.
fn flops(sizes: &[usize], rows: usize, t: usize) -> (f64, f64) {
    let per_layer: Vec<f64> = sizes
        .windows(2)
        .map(|w| 2.0 * (rows * w[0] * w[1] * t) as f64)
        .collect();
    let forward: f64 = per_layer.iter().sum();
    let backward = forward + per_layer[1..].iter().sum::<f64>();
    (forward, backward)
}

/// `Trainer::fit_with_history` replayed through the public layer calls
/// (shuffle -> encode -> forward -> backward -> Adam step) with the same
/// stateless/residual mix, each call in its span. Returns the model, the
/// loss history and the FLOPs of the forward and backward passes.
fn replay_fit(
    cfg: &TrainConfig,
    data: &Dataset,
    rec: &mut Recorder,
    fit: u64,
) -> (SnnMlp, Vec<f32>, (f64, f64)) {
    let root = rec.open("snn.fit", None, fit);
    let mut mlp = SnnMlp::new(&cfg.layer_sizes(), cfg.seed)
        .with_binary_weights(cfg.binary_weights)
        .with_stateless(cfg.stateless);
    let mut opt = Adam::new(cfg.lr);
    let enc = PoissonEncoder::new(cfg.seed);
    let mut step_id: u64 = 1 << 32;
    let mix_period = if cfg.stateless && cfg.residual_mix > 0.0 {
        (1.0 / cfg.residual_mix).round().max(1.0) as usize
    } else {
        0
    };
    let clamp = cfg.binary_weights.then_some((-1.0f32, 1.0f32));
    let mut ws = TrainScratch::new();
    let mut frames: Vec<Matrix> = Vec::new();
    let mut targets = Matrix::default();
    let mut samples: Vec<&[f32]> = Vec::with_capacity(cfg.batch);
    let mut ids: Vec<u64> = Vec::with_capacity(cfg.batch);
    let mut batch_idx = 0usize;
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut ops = (0.0, 0.0);
    let sizes = cfg.layer_sizes();
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f32;
        let mut batches = 0u32;
        let order = rec.time("snn.shuffle", Some(root), fit, || {
            data.shuffled_indices(cfg.seed.wrapping_add(epoch as u64))
        });
        for chunk in order.chunks(cfg.batch) {
            let id = batch_idx as u64;
            if mix_period > 0 {
                mlp = mlp.with_stateless(!batch_idx.is_multiple_of(mix_period));
            }
            batch_idx += 1;
            samples.clear();
            samples.extend(chunk.iter().map(|&i| data.images[i].as_slice()));
            ids.clear();
            ids.extend((0..samples.len() as u64).map(|k| step_id + k));
            step_id += samples.len() as u64;
            rec.time("snn.encode", Some(root), id, || {
                enc.encode_batch_into(&samples, cfg.time_steps, &ids, &mut frames)
            });
            targets.reset_to(samples.len(), cfg.classes);
            for (r, &i) in chunk.iter().enumerate() {
                targets[(r, data.labels[i] as usize)] = 1.0;
            }
            rec.time("snn.forward", Some(root), id, || {
                mlp.forward_record_with(&frames, &mut ws)
            });
            let loss = rec.time("snn.backward", Some(root), id, || {
                mlp.backward_with(&frames, &targets, &mut ws)
            });
            epoch_loss += loss;
            batches += 1;
            rec.time("snn.optim", Some(root), id, || {
                opt.step_clamped(mlp.weights_mut(), ws.grads(), clamp)
            });
            let (f, b) = flops(&sizes, samples.len(), cfg.time_steps);
            ops.0 += f;
            ops.1 += b;
        }
        history.push(epoch_loss / batches.max(1) as f32);
    }
    rec.close(root);
    (mlp, history, ops)
}

/// The traced run: fits untraced and replayed in pairs, compared bitwise.
pub fn traced(
    seed: u64,
    budget: Duration,
    main: &mut Recorder,
    trace: &mut Trace,
    report: &mut Report,
) {
    let data_s = median(
        &(0..3)
            .map(|_| {
                let (_, dt) = timed(|| main.time("snn.data", None, 0, || setup(seed)));
                dt.as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let s = setup(seed);
    let cfg = config(seed);
    let mut untraced_s = 0.0;
    let mut replay_s = 0.0;
    let mut ops = (0.0, 0.0);
    let t0 = Instant::now();
    let mut fit = 0;
    let mut rec = main.child();
    while fit < 2 || t0.elapsed() < budget {
        let shard = &s.shards[fit % SHARDS];
        let ((model, history), u) = timed(|| Trainer::new(cfg.clone()).fit_with_history(shard));
        let ((mlp, replay_history, o), r) = timed(|| replay_fit(&cfg, shard, &mut rec, fit as u64));
        let bits = |h: &[f32]| h.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        report
            .tally
            .check(mlp == model.mlp && bits(&history) == bits(&replay_history));
        untraced_s += u.as_secs_f64();
        replay_s += r.as_secs_f64();
        ops.0 += o.0;
        ops.1 += o.1;
        fit += 1;
    }
    trace.absorb(rec);
    let forward_s = trace.total_s("snn.forward");
    let backward_s = trace.total_s("snn.backward");
    report.metric("snn.data_s", data_s, "s");
    report.metric("snn.shuffle_s", trace.total_s("snn.shuffle"), "s");
    report.metric("snn.encode_s", trace.total_s("snn.encode"), "s");
    report.metric("snn.forward_s", forward_s, "s");
    report.metric("snn.backward_s", backward_s, "s");
    report.metric("snn.optim_s", trace.total_s("snn.optim"), "s");
    report.metric("snn.batches", trace.count("snn.forward") as f64, "count");
    report.metric("snn.forward_gflop_per_s", ops.0 * 1e-9 / forward_s, "GFLOP/s");
    report.metric("snn.backward_gflop_per_s", ops.1 * 1e-9 / backward_s, "GFLOP/s");
    report.metric("trace.train.overhead_s", replay_s - untraced_s, "s");
    report.note(format!(
        "snn.*_gflop_per_s: dense multiply-add counts derived from the 784-800-10 shapes \
         over {fit} replayed fits; snn.*_s are summed over those fits"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts_follow_the_shapes() {
        let (f, b) = flops(&[784, 800, 10], 32, 5);
        let l1 = 2.0 * (32 * 784 * 800 * 5) as f64;
        let l2 = 2.0 * (32 * 800 * 10 * 5) as f64;
        assert_eq!(f, l1 + l2);
        assert_eq!(b, l1 + 2.0 * l2);
    }
}
