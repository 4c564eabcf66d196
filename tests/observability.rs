//! Observability integration: the metrics reports emitted by the batch
//! layer and the chip evaluator are consistent with the runs they
//! describe, round-trip through JSON, and never perturb results.

use sushi_cells::{CellKind, CellLibrary, PortName};
use sushi_core::{CellAccurateChip, SushiChip};
use sushi_sim::{
    ActivityProfiler, BatchRunner, EvalOptions, Json, Netlist, SimConfig, StimulusBuilder,
    HOT_CELLS,
};
use sushi_snn::data::synth_digits;
use sushi_snn::train::{TrainConfig, Trainer};
use sushi_ssnn::binarize::BinaryLayer;
use sushi_ssnn::compiler::{Compiler, CompilerConfig};

/// A TFF divider netlist and a batch of simple stimuli.
fn divider() -> (Netlist, CellLibrary, Vec<sushi_sim::Stimulus>) {
    let mut n = Netlist::new();
    let src = n.add_cell(CellKind::DcSfq, "src");
    let tff = n.add_cell(CellKind::Tffl, "tff");
    n.add_input("in", src, PortName::Din).unwrap();
    n.connect(src, PortName::Dout, tff, PortName::Din).unwrap();
    n.probe("out", tff, PortName::Dout).unwrap();
    let items: Vec<_> = (1..=6usize)
        .map(|k| {
            let mut b = StimulusBuilder::new();
            for p in 0..k {
                b = b.pulse("in", 100.0 + p as f64 * 80.0).unwrap();
            }
            b.build()
        })
        .collect();
    (n, CellLibrary::nb03(), items)
}

/// The BatchRunner's report JSON parses back and its totals match both
/// the outcomes and the per-worker breakdown.
#[test]
fn batch_report_json_is_consistent_with_outcomes() {
    let (n, lib, items) = divider();
    let runner = BatchRunner::new(&n, &lib).with_workers(3);
    let (outcomes, report) = runner.run_with_report(&items).unwrap();
    assert_eq!(outcomes.len(), 6);
    assert_eq!(report.items, 6);
    let delivered: u64 = outcomes.iter().map(|o| o.stats.events_delivered).sum();
    assert_eq!(report.events_delivered, delivered);
    let per_worker: u64 = report.workers.iter().map(|w| w.events_delivered).sum();
    assert_eq!(per_worker, delivered);
    assert_eq!(report.hot_cells.len(), 2);

    let parsed = Json::parse(&report.to_json().to_string()).unwrap();
    assert_eq!(parsed.get("items").unwrap().as_u64(), Some(6));
    assert_eq!(
        parsed.get("events_delivered").unwrap().as_u64(),
        Some(delivered)
    );
    assert_eq!(
        parsed.get("workers").unwrap().as_arr().unwrap().len(),
        report.workers.len()
    );
    let hot = parsed.get("hot_cells").unwrap().as_arr().unwrap();
    assert_eq!(hot.len(), 2);
    assert!(hot[0].get("label").unwrap().as_str().is_some());
}

/// The chip evaluator's report covers every sample, its JSON parses back,
/// and requesting it does not change the evaluation itself.
#[test]
fn eval_report_json_is_consistent_and_harmless() {
    let data = synth_digits(24, 4);
    let mut cfg = TrainConfig::tiny_binary();
    cfg.epochs = 3;
    let model = Trainer::new(cfg).fit(&data);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();

    let plain = chip.evaluate(&program, &data, &EvalOptions::new().workers(2));
    let mut reported = chip.evaluate(&program, &data, &EvalOptions::new().workers(2).report(true));
    let report = reported.report.take().expect("report requested");
    assert_eq!(reported, plain, "reporting must not perturb the evaluation");
    assert_eq!(report.samples, 24);
    assert_eq!(report.workers.iter().map(|w| w.samples).sum::<usize>(), 24);

    let parsed = Json::parse(&report.to_json().to_string()).unwrap();
    assert_eq!(parsed.get("samples").unwrap().as_u64(), Some(24));
    assert!(parsed.get("samples_per_s").unwrap().as_f64().is_some());
}

/// The cell-accurate batch path surfaces the same report plumbing, with
/// hot cells naming real netlist labels.
#[test]
fn cell_accurate_report_names_real_cells() {
    let chip = CellAccurateChip::build(2, 3).unwrap();
    let layer = BinaryLayer::from_signs(vec![1, 1, 1, -1], 2, 2, vec![2, 1]);
    let jobs: Vec<(std::ops::Range<usize>, Vec<bool>)> =
        (0..3).map(|_| (0..2usize, vec![true, true])).collect();
    let run = chip
        .run_column_blocks(&layer, &jobs, &EvalOptions::new().report(true))
        .unwrap();
    let report = run.report.expect("report requested");
    assert_eq!(run.results.len(), 3);
    assert_eq!(report.hot_cells.len(), HOT_CELLS);
    for hot in &report.hot_cells {
        assert!(!hot.label.is_empty());
        assert!(hot.deliveries > 0);
    }
}

/// An observer attached to a built simulator sees exactly the traffic
/// the run's own statistics record.
#[test]
fn attached_observer_matches_run_stats() {
    let (n, lib, items) = divider();
    let mut sim = SimConfig::new().build(&n, &lib);
    sim.attach_observer(ActivityProfiler::new());
    items[5].inject_into(&mut sim).unwrap();
    sim.run_to_completion().unwrap();
    let delivered = sim.stats().events_delivered;
    let profiler: ActivityProfiler = sim.take_observer_as().expect("attached above");
    assert_eq!(profiler.total_deliveries(), delivered);
    assert_eq!(profiler.runs(), 1);
}

/// The repository's own JSON documents (the benchmark declaration, the
/// benchmark's golden totals and the tracked bench baselines) parse
/// within the parser's nesting limit.
#[test]
fn repository_json_documents_parse() {
    for (name, text) in [
        ("BENCHMARK.json", include_str!("../BENCHMARK.json")),
        (
            "perfbench/golden/verify.json",
            include_str!("../perfbench/golden/verify.json"),
        ),
        ("BENCH_sim.json", include_str!("../BENCH_sim.json")),
        ("BENCH_ssnn.json", include_str!("../BENCH_ssnn.json")),
        ("BENCH_serve.json", include_str!("../BENCH_serve.json")),
        ("BENCH_train.json", include_str!("../BENCH_train.json")),
    ] {
        if let Err(e) = Json::parse(text) {
            panic!("{name}: {e}");
        }
    }
}
