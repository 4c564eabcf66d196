//! End-to-end integration: train -> binarize -> bucket -> slice -> chip.

use sushi_core::SushiChip;
use sushi_sim::EvalOptions;
use sushi_snn::data::{synth_digits, synth_fashion};
use sushi_snn::metrics::consistency;
use sushi_snn::train::{TrainConfig, Trainer};
use sushi_ssnn::compiler::{Compiler, CompilerConfig};
use sushi_ssnn::packed::{PackedFrames, PackedSnn};

fn quick_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::tiny_binary();
    cfg.epochs = 16;
    // Five Poisson steps make the chip's spike counts too coarse to track
    // the float reference at this scale; ten keeps them consistent.
    cfg.time_steps = 10;
    cfg
}

/// The headline pipeline: a trained SNN runs on the chip with accuracy
/// close to the float reference and high prediction consistency — the
/// Table 3 claim at test scale.
#[test]
fn digits_pipeline_reaches_table3_shape() {
    let data = synth_digits(600, 1);
    let (train, test) = data.split(0.8);
    let model = Trainer::new(quick_cfg()).fit(&train);
    let float_preds = model.predict_all(&test);
    let float_acc = sushi_snn::metrics::accuracy(&float_preds, &test.labels);

    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let eval = chip.evaluate(&program, &test, &EvalOptions::default());

    assert!(float_acc > 0.85, "reference accuracy {float_acc}");
    assert!(eval.accuracy > 0.80, "chip accuracy {}", eval.accuracy);
    let cons = consistency(&float_preds, &eval.predictions);
    assert!(cons > 0.80, "consistency {cons}");
    // The chip may differ from the reference but not collapse.
    assert!((float_acc - eval.accuracy).abs() < 0.15);
}

/// Fashion (the harder dataset) keeps the same ordering as the paper:
/// lower accuracy than digits.
#[test]
fn fashion_is_harder_than_digits() {
    let digits = synth_digits(600, 1);
    let fashion = synth_fashion(600, 1);
    let chip = SushiChip::paper();
    let mut accs = Vec::new();
    for data in [&digits, &fashion] {
        let (train, test) = data.split(0.8);
        let model = Trainer::new(quick_cfg()).fit(&train);
        let program = Compiler::new(CompilerConfig::paper()).compile(&model);
        accs.push(
            chip.evaluate(&program, &test, &EvalOptions::default())
                .accuracy,
        );
    }
    assert!(
        accs[0] > accs[1],
        "digits {} should beat fashion {}",
        accs[0],
        accs[1]
    );
}

/// The bit-slice schedule execution is exactly equivalent to the unsliced
/// network for the trained model on real encoded inputs.
#[test]
fn bit_slicing_preserves_every_step_output() {
    let data = synth_digits(200, 2);
    let model = Trainer::new(quick_cfg()).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    for (i, img) in data.images.iter().take(10).enumerate() {
        let frames = program.encode_input(img, i as u64);
        for f in &frames {
            assert_eq!(
                program.schedule.sliced_step(&program.net, f),
                program.net.step_scalar(f),
                "sample {i}"
            );
        }
    }
}

/// The scalar oracle, the per-image packed engine and the bitplane batch
/// engine agree image by image on a trained, compiled network. Its
/// thresholds are folded from trained weights (13 to 22 on the hidden
/// layer), above the small thresholds of the random-network oracles.
/// 130 images fill two 64-lane bitplane groups and leave a partial third.
#[test]
fn trained_network_predicts_alike_on_every_engine() {
    let data = synth_digits(200, 2);
    let model = Trainer::new(quick_cfg()).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let net = &program.net;
    let packed = PackedSnn::from_network(net);
    let frames: Vec<Vec<Vec<bool>>> = data
        .images
        .iter()
        .take(130)
        .enumerate()
        .map(|(i, img)| program.encode_input(img, i as u64))
        .collect();
    let requests: Vec<PackedFrames> = frames
        .iter()
        .map(|f| PackedFrames::from_bool_frames(packed.input_width(), f))
        .collect();
    let scalar: Vec<usize> = frames.iter().map(|f| net.predict_scalar(f)).collect();
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(
            packed.forward_counts(f),
            net.forward_counts_scalar(f),
            "counts, image {i}"
        );
    }
    for (engine, preds) in [
        (
            "packed, 1 worker",
            packed.predict_batch_packed(&requests, 1),
        ),
        (
            "packed, 3 workers",
            packed.predict_batch_packed(&requests, 3),
        ),
        (
            "bitplane, 1 worker",
            packed.predict_batch_bitplane_packed(&requests, 1),
        ),
        (
            "bitplane, 2 workers",
            packed.predict_batch_bitplane_packed(&requests, 2),
        ),
    ] {
        assert_eq!(preds.len(), scalar.len(), "{engine}");
        for (i, (got, want)) in preds.iter().zip(&scalar).enumerate() {
            assert_eq!(got, want, "{engine}, image {i}");
        }
    }
}

/// Hardware first-crossing semantics agrees with the end-of-step reference
/// on the overwhelming majority of neuron-steps once bucketing is applied.
#[test]
fn hazard_rate_is_small_with_bucketing() {
    let data = synth_digits(300, 3);
    let model = Trainer::new(quick_cfg()).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let exec = program.executor();
    let mut total = sushi_ssnn::stateless::ExecStats::default();
    for (i, img) in data.images.iter().take(30).enumerate() {
        let frames = program.encode_input(img, i as u64);
        let (_, stats) = exec.forward_counts(&frames);
        total.merge(&stats);
    }
    assert!(total.neuron_steps > 0);
    // Bucketing trades a small premature-fire rate for bounded counter
    // excursions; the paper reports the combined accuracy impact < 1%.
    assert!(
        total.hazard_rate() < 0.08,
        "hazard rate {} too high",
        total.hazard_rate()
    );
}

/// The same program produced twice is identical, and chip evaluation is
/// deterministic end to end.
#[test]
fn full_pipeline_is_deterministic() {
    let data = synth_digits(150, 5);
    let m1 = Trainer::new(quick_cfg()).fit(&data);
    let m2 = Trainer::new(quick_cfg()).fit(&data);
    let p1 = Compiler::new(CompilerConfig::paper()).compile(&m1);
    let p2 = Compiler::new(CompilerConfig::paper()).compile(&m2);
    assert_eq!(p1, p2);
    let chip = SushiChip::paper();
    let e1 = chip.evaluate(&p1, &data, &EvalOptions::default());
    let e2 = chip.evaluate(&p2, &data, &EvalOptions::default());
    assert_eq!(e1.predictions, e2.predictions);
}

/// The parallel batch evaluation of a fixed digits slice is bitwise
/// identical to the sequential evaluation: same predictions, same merged
/// stats, same accuracy — for every worker count.
#[test]
fn parallel_evaluation_matches_sequential_on_fixed_slice() {
    let data = synth_digits(120, 7);
    let model = Trainer::new(quick_cfg()).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let sequential = chip.evaluate(&program, &data, &EvalOptions::new().workers(1));
    for workers in [2, 3, 4, 8] {
        let parallel = chip.evaluate(&program, &data, &EvalOptions::new().workers(workers));
        assert_eq!(parallel, sequential, "workers={workers}");
    }
}

/// Executors with either firing semantics give the same prediction on
/// samples where no hazards occurred.
#[test]
fn semantics_agree_when_no_hazards_occur() {
    let data = synth_digits(100, 6);
    let model = Trainer::new(quick_cfg()).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let hw = program.executor();
    let sw = program.reference_executor();
    for (i, img) in data.images.iter().take(15).enumerate() {
        let frames = program.encode_input(img, i as u64);
        let (hw_pred, stats) = hw.predict(&frames);
        let (sw_pred, _) = sw.predict(&frames);
        if stats.premature_fires == 0 && stats.underflows == 0 {
            assert_eq!(hw_pred, sw_pred, "sample {i}");
        }
    }
}
