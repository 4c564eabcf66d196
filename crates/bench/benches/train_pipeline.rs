//! Training-pipeline benches: BPTT forward, backward, a full training
//! epoch, and the trained model's held-out evaluation on the paper's
//! 784-800-10 network (T = 5, batch 32, XNOR-Net mode), feeding
//! `BENCH_train.json` via `scripts/bench.sh`.
//!
//! The forward/backward rows run the allocation-free `TrainScratch` hot
//! path exactly as `Trainer::fit` drives it: one scratch reused across
//! iterations, so the steady state measures kernels — not the allocator.
//! The evaluation row times `TrainedSnn::evaluate` (the float reference),
//! which runs the same forward pass in batches of the training size.

use criterion::{criterion_group, Criterion, Throughput};
use std::time::Duration;
use sushi_snn::data::synth_digits;
use sushi_snn::train::{TrainConfig, Trainer};
use sushi_snn::{Matrix, PoissonEncoder, SnnMlp, TrainScratch};

const BATCH: usize = 32;
const EPOCH_SAMPLES: usize = 256;
const HELD_OUT: usize = 256;

fn paper_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::paper();
    cfg.epochs = 1;
    cfg
}

fn bench(c: &mut Criterion) {
    let cfg = paper_cfg();
    let mlp = SnnMlp::new(&cfg.layer_sizes(), cfg.seed)
        .with_binary_weights(cfg.binary_weights)
        .with_stateless(cfg.stateless);
    let data = synth_digits(BATCH, 11);
    let enc = PoissonEncoder::new(cfg.seed);
    let samples: Vec<&[f32]> = data.images.iter().map(Vec::as_slice).collect();
    let ids: Vec<u64> = (0..BATCH as u64).collect();
    let frames = enc.encode_batch(&samples, cfg.time_steps, &ids);
    let mut targets = Matrix::zeros(BATCH, cfg.classes);
    for (r, &label) in data.labels.iter().enumerate() {
        targets[(r, label as usize)] = 1.0;
    }
    let mut ws = TrainScratch::new();

    let mut g = c.benchmark_group("train_pipeline");
    g.measurement_time(Duration::from_secs(5)).sample_size(10);
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function("train_forward_784_800_10", |b| {
        b.iter(|| {
            mlp.forward_record_with(&frames, &mut ws);
            ws.record().rates.sum()
        })
    });
    mlp.forward_record_with(&frames, &mut ws);
    g.bench_function("train_backward_784_800_10", |b| {
        b.iter(|| mlp.backward_with(&frames, &targets, &mut ws))
    });
    g.throughput(Throughput::Elements(EPOCH_SAMPLES as u64));
    let epoch_data = synth_digits(EPOCH_SAMPLES, 1);
    g.bench_function("train_epoch_784_800_10", |b| {
        b.iter(|| Trainer::new(cfg.clone()).fit(&epoch_data).mlp.weights()[0].as_slice()[0])
    });
    g.throughput(Throughput::Elements(HELD_OUT as u64));
    let model = Trainer::new(cfg.clone()).fit(&epoch_data);
    let held_out = synth_digits(HELD_OUT, 2);
    g.bench_function("train_evaluate_784_800_10", |b| {
        b.iter(|| model.evaluate(&held_out).accuracy)
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
    criterion::Criterion::default().final_summary();
}
