//! Integration of the multi-level weight path: a float-trained model runs
//! through pulse-gain quantization (Fig. 10 weight structures) instead of
//! XNOR binarization.

use sushi_snn::data::synth_digits;
use sushi_snn::metrics::accuracy;
use sushi_snn::train::{TrainConfig, Trainer};
use sushi_ssnn::binarize::BinarizedSnn;
use sushi_ssnn::packed::PackedSnn;
use sushi_ssnn::quantize::QuantizedSnn;

fn float_model() -> (sushi_snn::train::TrainedSnn, sushi_snn::data::Dataset) {
    let data = synth_digits(400, 2);
    let (train, test) = data.split(0.8);
    let mut cfg = TrainConfig::tiny(); // float weights, residual semantics
    cfg.epochs = 8;
    cfg.stateless = true; // chip semantics in the loop, weights stay float
    (Trainer::new(cfg).fit(&train), test)
}

fn frames_for(model: &sushi_snn::train::TrainedSnn, img: &[f32], id: u64) -> Vec<Vec<bool>> {
    model
        .encoder()
        .encode(img, model.config.time_steps, id)
        .into_iter()
        .map(|m| m.as_slice().iter().map(|&v| v > 0.5).collect())
        .collect()
}

/// Multi-level quantization recovers most of the float accuracy that
/// naive binarization destroys on a float-trained model.
#[test]
fn quantization_beats_binarization_on_float_models() {
    let (model, test) = float_model();
    let bin = PackedSnn::from_network(&BinarizedSnn::from_trained(&model));
    let q8 = QuantizedSnn::from_trained(&model, 8);
    let mut bin_preds = Vec::new();
    let mut q_preds = Vec::new();
    for (i, img) in test.images.iter().enumerate() {
        let frames = frames_for(&model, img, i as u64);
        bin_preds.push(bin.predict(&frames));
        q_preds.push(q8.predict(&frames));
    }
    let bin_acc = accuracy(&bin_preds, &test.labels);
    let q_acc = accuracy(&q_preds, &test.labels);
    assert!(
        q_acc > bin_acc + 0.1,
        "8-level {q_acc} should clearly beat binary {bin_acc} on a float model"
    );
    assert!(q_acc > 0.6, "quantized accuracy {q_acc}");
}

/// More strength levels never hurt much: 16 levels >= 4 levels - epsilon.
#[test]
fn precision_is_monotone_in_gain_levels() {
    let (model, test) = float_model();
    let mut accs = Vec::new();
    for gain in [2u16, 4, 16] {
        let q = QuantizedSnn::from_trained(&model, gain);
        let preds: Vec<usize> = test
            .images
            .iter()
            .enumerate()
            .map(|(i, img)| q.predict(&frames_for(&model, img, i as u64)))
            .collect();
        accs.push(accuracy(&preds, &test.labels));
    }
    assert!(
        accs[2] + 0.05 >= accs[1],
        "16-level {} vs 4-level {}",
        accs[2],
        accs[1]
    );
    assert!(
        accs[1] + 0.05 >= accs[0],
        "4-level {} vs 2-level {}",
        accs[1],
        accs[0]
    );
}

/// Strength-sorted ordering cuts weight-structure reload operations on
/// real trained weights, not just synthetic patterns.
#[test]
fn strength_sorting_saves_reloads_on_trained_weights() {
    let (model, test) = float_model();
    let q = QuantizedSnn::from_trained(&model, 8);
    let layer = &q.layers()[0];
    let frames = frames_for(&model, &test.images[0], 0);
    let natural: Vec<usize> = (0..layer.inputs()).collect();
    let mut nat_ops = 0u64;
    let mut sorted_ops = 0u64;
    for f in &frames {
        for j in 0..layer.outputs().min(16) {
            nat_ops += layer.reload_ops(j, &natural, f).0;
            sorted_ops += layer.reload_ops(j, &layer.strength_sorted_order(j), f).0;
        }
    }
    assert!(
        sorted_ops * 2 < nat_ops,
        "sorted {sorted_ops} should at least halve natural {nat_ops}"
    );
}
