//! Table 3 bench: regenerates the accuracy/consistency comparison (quick
//! scale), measures the chip pipeline's per-sample inference cost, and
//! races the bit-packed XNOR/popcount SSNN engine against the scalar
//! oracle on the paper's 784–800–10 evaluation shape (`BENCH_ssnn.json`
//! headline, assembled by `scripts/bench.sh`), and the bitplane batch
//! engine against the per-image one at 1 to 64 lanes (the crossover
//! behind `sushi_ssnn::BITPLANE_MIN_LANES`).

use criterion::{criterion_group, Criterion, Throughput};
use std::time::Duration;
use sushi_core::experiments::{table3, Scale};
use sushi_core::SushiChip;
use sushi_sim::EvalOptions;
use sushi_snn::data::synth_digits;
use sushi_snn::train::{TrainConfig, Trainer};
use sushi_ssnn::binarize::{BinarizedSnn, BinaryLayer};
use sushi_ssnn::compiler::{Compiler, CompilerConfig};
use sushi_ssnn::packed::{PackedFrames, PackedSnn};

/// Images per benchmark iteration of the packed-vs-scalar groups.
const SSNN_IMAGES: usize = 16;
/// Images per iteration of the bitplane group: one full 64-lane batch.
const SSNN_BATCH: usize = 64;
/// Poisson time steps per image.
const SSNN_FRAMES: usize = 10;

/// The paper's 784–800–10 MNIST shape with deterministic pseudorandom
/// signs and thresholds — throughput depends only on the shape and the
/// input activity, not on trained weights.
fn paper_shape_net(seed: u64) -> BinarizedSnn {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    let mut layer = |ins: usize, outs: usize| {
        let signs: Vec<i8> = (0..ins * outs)
            .map(|_| match next() % 8 {
                0 => 0, // open cross-point switch
                1..=3 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| 4 + (next() % 20) as i64).collect();
        BinaryLayer::from_signs(signs, ins, outs, thresholds)
    };
    BinarizedSnn::from_layers(vec![layer(784, 800), layer(800, 10)])
}

/// `count` images of `SSNN_FRAMES` deterministic ~30%-dense spike frames.
fn spike_images(seed: u64, count: usize) -> Vec<Vec<Vec<bool>>> {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    (0..count)
        .map(|_| {
            (0..SSNN_FRAMES)
                .map(|_| (0..784).map(|_| next() % 10 < 3).collect())
                .collect()
        })
        .collect()
}

fn bench_ssnn_packed(c: &mut Criterion) {
    let net = paper_shape_net(0xD1CE);
    let packed = PackedSnn::from_network(&net);
    let images = spike_images(0xACED, SSNN_IMAGES);
    // Sanity: the packed engine is a bitwise drop-in before we time it.
    for img in &images {
        assert_eq!(packed.predict(img), net.predict_scalar(img));
    }

    let mut g = c.benchmark_group("ssnn_packed");
    g.measurement_time(Duration::from_secs(3)).sample_size(20);
    g.throughput(Throughput::Elements(SSNN_IMAGES as u64));
    g.bench_function("scalar_predict_784_800_10", |b| {
        b.iter(|| -> usize { images.iter().map(|img| net.predict_scalar(img)).sum() })
    });
    g.bench_function("packed_predict_784_800_10", |b| {
        b.iter(|| -> usize { images.iter().map(|img| packed.predict(img)).sum() })
    });
    let workers = sushi_par::host_workers();
    g.bench_function(format!("packed_predict_batch_{workers}_workers"), |b| {
        b.iter(|| packed.predict_batch(&images, workers))
    });
    g.finish();
}

fn bench_ssnn_bitplane(c: &mut Criterion) {
    let net = paper_shape_net(0xD1CE);
    let packed = PackedSnn::from_network(&net);
    let images = spike_images(0xB17E, SSNN_BATCH);
    // Packed once, outside every timed loop: each row below times an
    // engine on the same `PackedFrames`, never the packing.
    let items: Vec<PackedFrames> = images
        .iter()
        .map(|img| PackedFrames::from_bool_frames(784, img))
        .collect();
    // Sanity: bitplane results are bitwise identical before we time them.
    assert_eq!(
        packed.predict_batch_bitplane_packed(&items, 1),
        packed.predict_batch_packed(&items, 1)
    );

    // Single worker on every row, so bitplane_over_packed_speedup
    // isolates the layout + kernel win from thread-pool scaling.
    let mut g = c.benchmark_group("ssnn_bitplane");
    g.measurement_time(Duration::from_secs(3)).sample_size(20);
    g.throughput(Throughput::Elements(SSNN_BATCH as u64));
    g.bench_function("bitplane_predict_batch64_784_800_10", |b| {
        b.iter(|| packed.predict_batch_bitplane_packed(&items, 1))
    });
    g.bench_function("packed_predict_batch64_784_800_10", |b| {
        b.iter(|| packed.predict_batch_packed(&items, 1))
    });
    // Shallower lane groups: a group's fixed cost is shared by fewer
    // images, and the crossover with per-image packed lies in this range.
    for lanes in [1usize, 2, 4, 8, 16, 32] {
        g.throughput(Throughput::Elements(lanes as u64));
        g.bench_function(format!("bitplane_predict_batch{lanes}_784_800_10"), |b| {
            b.iter(|| packed.predict_batch_bitplane_packed(&items[..lanes], 1))
        });
    }
    g.finish();
}

fn bench(c: &mut Criterion) {
    let data = synth_digits(300, 1);
    let mut cfg = TrainConfig::tiny_binary();
    cfg.epochs = 4;
    let model = Trainer::new(cfg).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let img = data.images[0].clone();

    let mut g = c.benchmark_group("table3");
    g.measurement_time(Duration::from_secs(3)).sample_size(20);
    g.bench_function("chip_inference_one_sample", |b| {
        b.iter(|| chip.run_sample(&program, &img, 0).prediction)
    });
    // Whole-dataset evaluation, sequential vs the parallel batch layer.
    let slice = synth_digits(60, 2);
    g.bench_function("evaluate_60_samples_1_worker", |b| {
        b.iter(|| {
            chip.evaluate(&program, &slice, &EvalOptions::new().workers(1))
                .accuracy
        })
    });
    // "host_workers" (not the count) keeps the id distinct from the fixed
    // 1-worker row above — a 1-CPU host used to produce the colliding pair
    // `evaluate_60_samples_1_worker` / `..._1_workers` in BENCH_ssnn.json.
    let workers = sushi_par::host_workers();
    g.bench_function("evaluate_60_samples_host_workers", |b| {
        b.iter(|| {
            chip.evaluate(&program, &slice, &EvalOptions::new().workers(workers))
                .accuracy
        })
    });
    g.bench_function("float_reference_one_sample", |b| {
        let enc = model.encoder();
        b.iter(|| {
            let frames = enc.encode(&img, model.config.time_steps, 0);
            model.mlp.predict(&frames)[0]
        })
    });
    g.bench_function("compile_program", |b| {
        b.iter(|| {
            Compiler::new(CompilerConfig::paper())
                .compile(&model)
                .schedule
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench, bench_ssnn_packed, bench_ssnn_bitplane);

fn main() {
    println!("{}", table3(Scale::quick()).1);
    benches();
    criterion::Criterion::default().final_summary();
}
