//! Experiment runners: one function per table and figure of the paper.
//!
//! Each runner returns both structured data and a rendered text block, so
//! the `experiments` binary (and EXPERIMENTS.md) can print exactly the
//! rows/series the paper reports. Paper-reported values are included in
//! the rendering for side-by-side comparison.

use crate::cell_accurate::CellAccurateChip;
use crate::eval::{efficiency_ratio, speedup_vs_truenorth, table4_rows};
use crate::oscilloscope::Oscilloscope;
use crate::report::{batch_worker_table, eval_worker_table, hot_cell_table, TextTable};
use crate::SushiChip;
use sushi_arch::chip::{ChipConfig, WeightConfig};
use sushi_arch::{PerfModel, ResourceReport};
use sushi_cells::{CellKind, CellLibrary};
use sushi_par::{cpu_tier, host_workers};
use sushi_sim::{BatchReport, EvalOptions, PulseTrain};
use sushi_snn::data::{synth_digits, synth_fashion, Dataset};
use sushi_snn::metrics::consistency;
use sushi_snn::train::{TrainConfig, TrainedSnn, Trainer};
use sushi_ssnn::argmax_low;
use sushi_ssnn::bucketing::{bucketed_order, inhibitory_first, worst_case_excursion};
use sushi_ssnn::compiler::{Compiler, CompilerConfig};
use sushi_ssnn::reload::breakdown;
use sushi_ssnn::stateless::{FireSemantics, SsnnExecutor};
use sushi_ssnn::timing::TimingSchedule;

/// The NPE counts / mesh sizes swept by Figs. 13 and 19–21.
pub const SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Workload scale for the training-based experiments (Table 3, ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Samples generated per dataset (80/20 train/test split).
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Learning rate (small datasets need larger steps than the paper's
    /// 1e-3).
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
}

impl Scale {
    /// Paper-comparable scale (~30 s of training per dataset in release).
    pub fn full() -> Self {
        Self {
            samples: 5000,
            epochs: 8,
            hidden: 800,
            lr: 1e-3,
            batch: 32,
        }
    }

    /// A quick scale for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            samples: 1000,
            epochs: 15,
            hidden: 96,
            lr: 5e-3,
            batch: 16,
        }
    }

    fn config(&self) -> TrainConfig {
        let mut cfg = TrainConfig::paper();
        cfg.hidden = vec![self.hidden];
        cfg.epochs = self.epochs;
        cfg.lr = self.lr;
        cfg.batch = self.batch;
        cfg
    }
}

/// Table 1: the RSFQ cell constraints, rendered from the library.
pub fn table1() -> String {
    let lib = CellLibrary::nb03();
    let mut t = TextTable::new(&["cell", "constraint", "min separation (ps)"]);
    for kind in [
        CellKind::Cb2,
        CellKind::Spl2,
        CellKind::Dff,
        CellKind::Ndro,
        CellKind::Tffl,
        CellKind::Jtl,
    ] {
        for rule in lib.constraints(kind).rules() {
            t = t.row_owned(vec![
                kind.to_string(),
                format!("{}-{}", rule.first, rule.second),
                format!("{:.2}", rule.min_ps),
            ]);
        }
    }
    format!("## Table 1: RSFQ cell constraints\n{t}")
}

/// Table 2: resource overhead of the 4x4 mesh with weight structures.
pub fn table2() -> (ResourceReport, String) {
    let chip = ChipConfig::mesh(4)
        .with_weights(WeightConfig::full())
        .build();
    let r = chip.resources();
    let text = format!(
        "## Table 2: resource overhead of a 4x4 mesh of NPEs\n\
         measured: total {} JJs, wiring {} ({:.2}%), logic {} ({:.2}%), area {:.2} mm^2\n\
         paper:    total 45,542 JJs, wiring 31,026 (68.13%), logic 14,516 (31.87%), area 44.73 mm^2\n\n{}",
        r.total_jj(),
        r.wiring_jj(),
        r.wiring_fraction() * 100.0,
        r.logic_jj(),
        (1.0 - r.wiring_fraction()) * 100.0,
        r.area_mm2(),
        r
    );
    (r, text)
}

/// One point of the Fig. 13 scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Point {
    /// Mesh dimension.
    pub n: usize,
    /// NPE count (`2n`).
    pub npes: usize,
    /// Total JJs.
    pub total_jj: u64,
    /// Logic JJs.
    pub logic_jj: u64,
    /// Wiring JJs.
    pub wiring_jj: u64,
    /// Area in mm².
    pub area_mm2: f64,
    /// The linear reference (smallest point scaled by NPE count).
    pub linear_ref_jj: f64,
}

/// Fig. 13: JJs (logic/wiring split) and area vs NPE count.
pub fn fig13() -> (Vec<Fig13Point>, String) {
    let mut points = Vec::new();
    for &n in &SWEEP {
        let r = ChipConfig::mesh(n).build().resources();
        points.push(Fig13Point {
            n,
            npes: 2 * n,
            total_jj: r.total_jj(),
            logic_jj: r.logic_jj(),
            wiring_jj: r.wiring_jj(),
            area_mm2: r.area_mm2(),
            linear_ref_jj: 0.0,
        });
    }
    let base = points[0].total_jj as f64 / points[0].npes as f64;
    for p in &mut points {
        p.linear_ref_jj = base * p.npes as f64;
    }
    let mut t = TextTable::new(&[
        "NPEs (mesh)",
        "JJs",
        "logic",
        "wiring",
        "linear ref",
        "area mm^2",
    ]);
    for p in &points {
        t = t.row_owned(vec![
            format!("{} ({}x{})", p.npes, p.n, p.n),
            p.total_jj.to_string(),
            p.logic_jj.to_string(),
            p.wiring_jj.to_string(),
            format!("{:.0}", p.linear_ref_jj),
            format!("{:.2}", p.area_mm2),
        ]);
    }
    let text = format!(
        "## Fig 13: resource overhead vs number of NPEs\n\
         paper anchors: 32 NPEs ~ 99,982 JJs / 103.75 mm^2; growth slightly above linear\n{t}"
    );
    (points, text)
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Dataset name.
    pub dataset: String,
    /// Float-reference (SpikingJelly-like) accuracy.
    pub reference_accuracy: f64,
    /// SUSHI chip-pipeline accuracy.
    pub sushi_accuracy: f64,
    /// Fraction of samples where both predict the same label.
    pub consistency: f64,
}

/// Trains the paper's network on one dataset and evaluates both platforms.
fn table3_one(data: &Dataset, scale: Scale) -> Table3Row {
    let (train, test) = data.split(0.8);
    let model = Trainer::new(scale.config()).fit(&train);
    let float_preds = model.predict_all(&test);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let eval = chip.evaluate(&program, &test, &EvalOptions::default());
    Table3Row {
        dataset: data.name.clone(),
        reference_accuracy: sushi_snn::metrics::accuracy(&float_preds, &test.labels),
        sushi_accuracy: eval.accuracy,
        consistency: consistency(&float_preds, &eval.predictions),
    }
}

/// Table 3: SpikingJelly-reference vs SUSHI accuracy and consistency on
/// both datasets.
pub fn table3(scale: Scale) -> (Vec<Table3Row>, String) {
    let rows = vec![
        table3_one(&synth_digits(scale.samples, 1), scale),
        table3_one(&synth_fashion(scale.samples, 1), scale),
    ];
    let mut t = TextTable::new(&["dataset", "reference acc", "SUSHI acc", "consistency"]);
    for r in &rows {
        t = t.row_owned(vec![
            r.dataset.clone(),
            format!("{:.2}%", r.reference_accuracy * 100.0),
            format!("{:.2}%", r.sushi_accuracy * 100.0),
            format!("{:.2}%", r.consistency * 100.0),
        ]);
    }
    let text = format!(
        "## Table 3: inference differences, reference vs SUSHI\n\
         paper: MNIST 98.65% vs 97.84% (consistency 98.18%); Fashion-MNIST 88.90% vs 86.23% (consistency 88.71%)\n\
         (datasets here are the synthetic stand-ins SynthDigits / SynthFashion; see DESIGN.md)\n{t}"
    );
    (rows, text)
}

/// Fig 14: the asynchronous neuron timing example, rendered as pulse rows
/// with the level-converted input/output view.
pub fn fig14() -> String {
    let sched = TimingSchedule::fig14_example(6);
    assert!(sched.validate().is_empty(), "fig14 schedule must be valid");
    let by = sched.by_channel();
    let end = sched.end_time() + 100.0;
    let rows: Vec<(&str, &[f64])> = by.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();
    let art = sushi_sim::render_pulse_rows(&rows, 0.0, end, 60);
    // Level conversion of the input channel (the "real input" of Fig 14).
    let input = PulseTrain::from_times(by.get("input").cloned().unwrap_or_default());
    let levels = input.to_levels();
    format!(
        "## Fig 14: asynchronous neuron timing (6 input pulses)\n{art}\
         input pulses: {}; level-converted 'real input' toggles: {}\n\
         constraints honoured: write follows rst, input follows set, read aligned with rst\n",
        input.len(),
        levels.toggle_count()
    )
}

/// Result of the Fig. 16 chip-vs-simulation verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Result {
    /// Per-label per-time-step firing from the cell-accurate "chip".
    pub chip_fires: Vec<Vec<bool>>,
    /// Per-label per-time-step firing from the behavioural simulation.
    pub sim_fires: Vec<Vec<bool>>,
    /// Fig. 16(d)-style label lines from the oscilloscope model.
    pub label_lines: Vec<String>,
    /// Inference result read off the chip.
    pub chip_prediction: usize,
    /// Inference result from the behavioural simulation.
    pub sim_prediction: usize,
    /// Timing/logical violations observed in the cell-accurate run.
    pub violations: usize,
}

impl Fig16Result {
    /// The verification criterion: every waveform matches.
    pub fn waveforms_match(&self) -> bool {
        self.chip_fires == self.sim_fires
    }
}

/// Fig 16: run one sample's output layer on the cell-level chip netlist
/// (like the fabricated 2-NPE chip) and compare against simulation.
///
/// A small network is trained for this experiment (the cell-accurate
/// netlist holds every SPL/CB/TFF/NDRO, so the layer must stay small).
pub fn fig16() -> (Fig16Result, String) {
    let (result, _, text) = fig16_with_report(false);
    (result, text)
}

/// [`fig16`], optionally instrumented: when `want_report` is set the
/// batched cell-accurate runs also return the worker pool's
/// [`BatchReport`] (hot cells, per-worker throughput).
pub fn fig16_with_report(want_report: bool) -> (Fig16Result, Option<BatchReport>, String) {
    // Train a 784-16-10 network quickly.
    let data = synth_digits(400, 1);
    let (train, test) = data.split(0.9);
    let mut cfg = TrainConfig::paper();
    cfg.hidden = vec![16];
    cfg.epochs = 10;
    cfg.lr = 5e-3;
    cfg.batch = 16;
    let model = Trainer::new(cfg).fit(&train);
    let program = Compiler::new(CompilerConfig {
        chip_n: 2,
        sc_per_npe: 6,
        buckets: 4,
    })
    .compile(&model);
    // Pick the first test sample whose behavioural output actually spikes,
    // so the waveforms show pulses (like the paper's label1: 0-1-1-1-1).
    let sample = (0..test.len())
        .find(|&i| {
            let frames = program.encode_input(&test.images[i], i as u64);
            let counts = program.net.forward_counts_scalar(&frames);
            counts.iter().any(|&c| c > 0)
        })
        .unwrap_or(0);
    let frames = program.encode_input(&test.images[sample], sample as u64);
    let hidden_layer = &program.net.layers()[0];
    let out_layer = &program.net.layers()[1];

    // Like the fabricated chip: 2 output NPEs, bit-sliced over labels.
    let chip = CellAccurateChip::build(2, 6).expect("verification chip builds");
    let t_steps = frames.len();
    let labels = out_layer.outputs();
    let mut chip_fires = vec![vec![false; t_steps]; labels];
    let mut sim_fires = vec![vec![false; t_steps]; labels];
    // Every (time step, column block) run is independent: collect them all
    // and fan them across the batch layer in one call.
    let mut jobs = Vec::new();
    let mut job_at = Vec::new();
    for (t, frame) in frames.iter().enumerate() {
        // Hidden spikes drive the output layer.
        let acc = hidden_layer.accumulate(frame);
        let hidden: Vec<bool> = acc
            .iter()
            .enumerate()
            .map(|(j, &a)| a >= hidden_layer.threshold(j))
            .collect();
        for c0 in (0..labels).step_by(chip.n()) {
            let cols = c0..(c0 + chip.n()).min(labels);
            jobs.push((cols.clone(), hidden.clone()));
            job_at.push((t, cols));
        }
    }
    let opts = EvalOptions::new().report(want_report);
    let run = chip
        .run_column_blocks(out_layer, &jobs, &opts)
        .expect("cell-accurate runs succeed");
    let report = run.report;
    let mut violations = 0;
    for (run, ((t, cols), (_, hidden))) in run.results.iter().zip(job_at.into_iter().zip(&jobs)) {
        violations += run.violations;
        let expect = chip.expected_column_block(out_layer, cols.clone(), hidden);
        for (k, j) in cols.enumerate() {
            chip_fires[j][t] = run.fired[k];
            sim_fires[j][t] = expect[k];
        }
    }

    // Oscilloscope readout: one window per time step.
    let osc = Oscilloscope::default();
    let window = 1000.0;
    let mut label_lines = Vec::new();
    let mut counts = Vec::new();
    for (j, fires) in chip_fires.iter().enumerate() {
        let times: Vec<f64> = fires
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .map(|(t, _)| t as f64 * window + window / 2.0)
            .collect();
        let train = PulseTrain::from_times(times);
        label_lines.push(osc.label_line(j, &train, t_steps as f64 * window, t_steps));
        counts.push(train.len() as u32);
    }
    let chip_prediction = argmax_low(&counts);
    let sim_counts: Vec<u32> = sim_fires
        .iter()
        .map(|f| f.iter().filter(|x| **x).count() as u32)
        .collect();
    let sim_prediction = argmax_low(&sim_counts);

    let result = Fig16Result {
        chip_fires,
        sim_fires,
        label_lines,
        chip_prediction,
        sim_prediction,
        violations,
    };
    let text = format!(
        "## Fig 16: chip (cell-accurate netlist) vs simulation waveforms\n\
         {}\n\
         waveforms match: {}; timing violations: {}\n\
         chip inference: {} | simulation inference: {} | true label: {}\n",
        result.label_lines.join("\n"),
        result.waveforms_match(),
        result.violations,
        result.chip_prediction,
        result.sim_prediction,
        test.labels[sample]
    );
    (result, report, text)
}

/// Table 4: comparison with TrueNorth and Tianjic.
pub fn table4() -> String {
    let mut t = TextTable::new(&[
        "Platform",
        "Model",
        "Memory",
        "Technology",
        "Clock (MHz)",
        "Area (mm^2)",
        "Power (mW)",
        "GSOPS",
        "GSOPS/W",
    ]);
    for r in table4_rows() {
        t = t.row_owned(vec![
            r.name.clone(),
            r.model.clone(),
            r.memory.clone(),
            r.technology.clone(),
            r.clock.clone(),
            format!("{:.2}", r.area_mm2),
            r.power_mw.clone(),
            r.gsops.map_or("-".to_owned(), |g| format!("{g:.0}")),
            format!("{:.0}", r.gsops_per_w),
        ]);
    }
    format!(
        "## Table 4: comparison with state-of-the-art neuromorphic chips\n{t}\
         ratios: {:.1}x TrueNorth throughput (paper 23x); {:.1}x TrueNorth efficiency (paper 81x); \
         {:.1}x Tianjic efficiency (paper 50x)\n",
        speedup_vs_truenorth(),
        efficiency_ratio(&crate::Baseline::truenorth()),
        efficiency_ratio(&crate::Baseline::tianjic()),
    )
}

/// Figs 19/20/21: performance, power and efficiency vs NPE count.
pub fn fig19_20_21() -> (Vec<sushi_arch::power::PerfPoint>, String) {
    let points: Vec<_> = SWEEP
        .iter()
        .map(|&n| PerfModel::new(&ChipConfig::mesh(n).build()).evaluate())
        .collect();
    let mut t = TextTable::new(&[
        "NPEs (mesh)",
        "GSOPS",
        "power (mW)",
        "GSOPS/W",
        "wire delay share",
    ]);
    for p in &points {
        t = t.row_owned(vec![
            format!("{} ({}x{})", p.npes, p.n, p.n),
            format!("{:.1}", p.gsops),
            format!("{:.2}", p.power_mw),
            format!("{:.0}", p.gsops_per_w),
            format!("{:.1}%", p.wire_share() * 100.0),
        ]);
    }
    let text = format!(
        "## Figs 19-21: performance / power / efficiency vs NPEs\n\
         paper anchors: 1,355 GSOPS and 32,366 GSOPS/W at 32 NPEs; TrueNorth 58 GSOPS / 400 GSOPS/W; Tianjic 649 GSOPS/W\n\
         (crossover with TrueNorth's 58 GSOPS falls at the 4x4 mesh, as in Fig 19)\n{t}"
    );
    (points, text)
}

/// Section 6.3A: transmission-delay share vs design size (~6% at 1x1,
/// ~53% at 16x16).
pub fn delay_ablation() -> String {
    let mut t = TextTable::new(&["mesh", "logic (ps)", "wire (ps)", "wire share"]);
    for &n in &SWEEP {
        let p = PerfModel::new(&ChipConfig::mesh(n).build()).evaluate();
        t = t.row_owned(vec![
            format!("{n}x{n}"),
            format!("{:.1}", p.logic_ps),
            format!("{:.1}", p.wire_ps),
            format!("{:.1}%", p.wire_share() * 100.0),
        ]);
    }
    format!(
        "## Transmission delay ablation (Section 6.3A)\n\
         paper: ~6% of per-pulse time at 1x1, ~53% at 16x16\n{t}"
    )
}

/// Trains a small model and measures ordering strategies against each
/// other: reload share, hazards and consistency with the software
/// reference (Sections 4.2.2 and 5.1).
pub fn reload_ablation(scale: Scale) -> String {
    let data = synth_digits(scale.samples, 1);
    let (train, test) = data.split(0.8);
    let mut cfg = scale.config();
    cfg.hidden = vec![scale.hidden.min(64)]; // per-neuron reorder sweep stays cheap
    let model = Trainer::new(cfg).fit(&train);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let reference = program.reference_executor();
    let eval_n = test.len().min(60);

    let mut table = TextTable::new(&[
        "ordering",
        "polarity switches / neuron-step",
        "reload share",
        "hazard rate",
        "consistency vs reference",
    ]);
    for (name, buckets, natural) in [
        ("natural (input order)", 1usize, true),
        ("inhibitory-first", 1, false),
        ("bucketed x16", 16, false),
    ] {
        let mut exec = SsnnExecutor::new(
            &program.net,
            FireSemantics::FirstCrossing,
            program.config.num_states(),
            buckets,
        );
        if natural {
            for (l, layer) in program.net.layers().iter().enumerate() {
                for j in 0..layer.outputs() {
                    exec.set_order(l, j, (0..layer.inputs()).collect());
                }
            }
        }
        let mut agree = 0usize;
        let mut stats = sushi_ssnn::stateless::ExecStats::default();
        for (i, img) in test.images.iter().take(eval_n).enumerate() {
            let frames = program.encode_input(img, i as u64);
            let (hw, s) = exec.predict(&frames);
            stats.merge(&s);
            let (sw, _) = reference.predict(&frames);
            agree += usize::from(hw == sw);
        }
        let b = breakdown(&stats, 16);
        table = table.row_owned(vec![
            name.to_owned(),
            format!(
                "{:.1}",
                stats.polarity_switches as f64 / stats.neuron_steps as f64
            ),
            format!("{:.1}%", b.reload_share() * 100.0),
            format!("{:.4}", stats.hazard_rate()),
            format!("{:.1}%", agree as f64 / eval_n as f64 * 100.0),
        ]);
    }
    format!(
        "## Reload / ordering ablation (Sections 4.2.2, 5.1)\n\
         paper: optimized reloading ~20% of inference time; bucketing+reordering accuracy impact < 1%\n{table}"
    )
}

/// Section 4.1.2: how many counter states a trained network actually
/// needs, with and without bucketing ("~500 states is adequate").
pub fn states_ablation(scale: Scale) -> String {
    let data = synth_digits(scale.samples, 1);
    let (train, _) = data.split(0.8);
    let model = Trainer::new(scale.config()).fit(&train);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let mut table = TextTable::new(&["ordering", "max required states", "fits 1024-state NPE"]);
    for (name, buckets) in [("inhibitory-first", 1usize), ("bucketed x16", 16)] {
        let mut worst = 0u64;
        for layer in program.net.layers() {
            for j in 0..layer.outputs() {
                let signs = layer.column_signs(j);
                let order = if buckets == 1 {
                    inhibitory_first(&signs)
                } else {
                    bucketed_order(&signs, buckets)
                };
                let req = worst_case_excursion(&signs, &order, layer.threshold(j))
                    .required_states(layer.threshold(j));
                worst = worst.max(req);
            }
        }
        table = table.row_owned(vec![
            name.to_owned(),
            worst.to_string(),
            (worst <= 1024).to_string(),
        ]);
    }
    format!(
        "## Neuron state requirement (Section 4.1.2)\n\
         paper: ~500 states is adequate for SNN inference; the 10-SC NPE provides 1024\n{table}"
    )
}

/// Multi-chip scale-out study: aggregate throughput, efficiency and the
/// communication break-even point of SUSHI boards (TrueNorth-style
/// "multi-chip expansion" applied to SUSHI's scalable architecture).
pub fn scaleout_study() -> String {
    use sushi_arch::MultiChip;
    let mut t = TextTable::new(&[
        "chips",
        "total JJs",
        "peak GSOPS",
        "power (mW)",
        "GSOPS/W",
        "sustained @10% cross-chip",
        "break-even fraction",
    ]);
    for chips in [1usize, 2, 4, 8, 16] {
        let b = MultiChip::new(chips, 16);
        t = t.row_owned(vec![
            chips.to_string(),
            b.total_jj().to_string(),
            format!("{:.0}", b.aggregate_gsops()),
            format!("{:.1}", b.power_mw()),
            format!("{:.0}", b.gsops_per_w()),
            format!("{:.0}", b.sustained_gsops(0.10)),
            format!("{:.3}", b.break_even_fraction()),
        ]);
    }
    format!(
        "## Multi-chip scale-out (16x16 dies, 4 links/chip)\n\
         inter-chip links leave the superconducting domain, so workloads with heavy\n\
         cross-chip spike traffic saturate the link fabric\n{t}"
    )
}

/// Convolutional topology demo (Sections 2.2 / 4.2): a conv layer reaches
/// the chip through Toeplitz unrolling, with open cross-point switches
/// realising its zero synapses — behavioural, bit-sliced and cell-accurate
/// paths must all agree.
pub fn conv_demo() -> String {
    use sushi_snn::conv::Conv2d;
    use sushi_snn::Matrix;
    use sushi_ssnn::binarize::BinarizedSnn;
    use sushi_ssnn::binarize_conv;
    use sushi_ssnn::bitslice::SliceSchedule;

    let w = Matrix::from_vec(4, 1, vec![0.5, -0.5, 0.5, 0.5]);
    let conv = Conv2d::from_weights(1, 1, 2, 1, w);
    let (h, wdt) = (4usize, 4usize);
    let layer = binarize_conv(&conv, h, wdt, 1.0);
    let connected: usize = (0..layer.outputs())
        .map(|j| layer.column_signs(j).iter().filter(|&&s| s != 0).count())
        .sum();
    let total = layer.inputs() * layer.outputs();
    let net = BinarizedSnn::from_layers(vec![layer.clone()]);
    let sched = SliceSchedule::for_network(&net, 3);
    let chip = CellAccurateChip::build(3, 4).expect("demo chip builds");
    let mut all_match = true;
    let mut cell_match = true;
    for seed in 0..12u32 {
        let frame: Vec<bool> = (0..16)
            .map(|i| (seed.wrapping_mul(i as u32 + 5)) % 3 == 0)
            .collect();
        let behavioural = net.step_scalar(&frame);
        all_match &= sched.sliced_step(&net, &frame) == behavioural;
        let mut cell = Vec::new();
        let mut expected = Vec::new();
        for c0 in (0..layer.outputs()).step_by(3) {
            let cols = c0..(c0 + 3).min(layer.outputs());
            cell.extend(
                chip.run_column_block(&layer, cols.clone(), &frame)
                    .expect("cell run")
                    .fired,
            );
            expected.extend(chip.expected_column_block(&layer, cols, &frame));
        }
        cell_match &= cell == expected;
    }
    format!(
        "## Convolution on the chip (Toeplitz unrolling)\n\
         2x2 kernel over a 4x4 map -> {}x{} sparse matrix ({} of {} synapses connected; \
         open cross-point switches realise the zeros)\n\
         sliced == unsliced on 12 random frames: {all_match}\n\
         cell-accurate chip == behavioural prediction: {cell_match}\n",
        layer.inputs(),
        layer.outputs(),
        connected,
        total,
    )
}

/// Process-scaling ablation: the same 32-NPE SUSHI design on the Nb03
/// process vs an advanced (SFQ5ee-like) process — the circuit scale
/// is "further compressible or expandable based on the level of
/// superconducting circuit technology".
pub fn process_ablation() -> String {
    let mut t = TextTable::new(&[
        "process",
        "area (mm^2)",
        "GSOPS",
        "power (mW)",
        "GSOPS/W",
        "safe interval (ps)",
    ]);
    for (name, lib) in [
        ("SIMIT-Nb03-like (2 um)", CellLibrary::nb03()),
        ("SFQ5ee-like (advanced)", CellLibrary::advanced()),
    ] {
        let safe = lib.constraints(CellKind::Ndro).worst_case_ps();
        let chip = ChipConfig::mesh(16).build_with_library(lib);
        let perf = PerfModel::new(&chip).evaluate();
        t = t.row_owned(vec![
            name.to_owned(),
            format!("{:.2}", chip.area_mm2()),
            format!("{:.0}", perf.gsops),
            format!("{:.2}", perf.power_mw),
            format!("{:.0}", perf.gsops_per_w),
            format!("{:.1}", safe),
        ]);
    }
    format!("## Process-scaling ablation (same 32-NPE design, two processes)\n{t}")
}

/// Section 3 motivation: SUSHI's asynchronous, memory-free design vs a
/// conventional synchronous RSFQ accelerator (SuperNPU-like) with a clock
/// tree and shift-register weight memory.
pub fn sync_baseline_ablation() -> String {
    use sushi_arch::SyncAccelerator;
    let sync = SyncAccelerator::supernpu_like();
    let sync_res = sync.resources();
    let sushi = ChipConfig::mesh(16).build();
    let sushi_res = sushi.resources();
    let perf = PerfModel::new(&sushi);
    let mut t = TextTable::new(&[
        "design",
        "JJs",
        "wiring share",
        "peak GSOPS",
        "sustained GSOPS",
        "GSOPS/W",
    ]);
    t = t.row_owned(vec![
        "synchronous (SuperNPU-like)".to_owned(),
        sync_res.total_jj().to_string(),
        format!("{:.1}%", sync_res.wiring_fraction() * 100.0),
        format!("{:.0}", sync.peak_gsops()),
        format!(
            "{:.1} ({:.0}% of peak)",
            sync.sustained_gsops(),
            sync.sustained_utilization() * 100.0
        ),
        format!("{:.0}", sync.gsops_per_w()),
    ]);
    t = t.row_owned(vec![
        "SUSHI (asynchronous)".to_owned(),
        sushi_res.total_jj().to_string(),
        format!("{:.1}%", sushi_res.wiring_fraction() * 100.0),
        format!("{:.0}", perf.gsops()),
        format!(
            "{:.0} ({:.0}% of peak)",
            perf.gsops()
                * sushi_arch::power::SLICE_UTILIZATION
                * (1.0 - sushi_arch::power::RELOAD_TIME_SHARE),
            sushi_arch::power::SLICE_UTILIZATION
                * (1.0 - sushi_arch::power::RELOAD_TIME_SHARE)
                * 100.0
        ),
        format!("{:.0}", perf.gsops_per_w()),
    ]);
    format!(
        "## Synchronous-baseline ablation (Section 3)\n\
         paper claims: synchronous RSFQ wiring ~80% of the design; SuperNPU sustained only 16% of peak\n{t}"
    )
}

/// Weight-precision ablation: binary (the paper's deployed XNOR path) vs
/// multi-level pulse-gain quantization using the weight structures of
/// Fig. 10, including the strength-reload savings from sorting synapses
/// so adjacent batches share the same weight strength (Section 4.2.2).
pub fn quantization_ablation(scale: Scale) -> String {
    use sushi_ssnn::quantize::QuantizedSnn;
    let data = synth_digits(scale.samples, 1);
    let (train, test) = data.split(0.8);
    let mut cfg = scale.config();
    cfg.hidden = vec![scale.hidden.min(64)];
    // Train in float: multi-level weight structures exist precisely so
    // that networks need not be binarized; only the stateless neuron
    // semantics must match the chip.
    cfg.binary_weights = false;
    let model = Trainer::new(cfg).fit(&train);
    let float_preds = model.predict_all(&test);
    let enc = model.encoder();
    let frames_of = |i: usize, img: &Vec<f32>| -> Vec<Vec<bool>> {
        enc.encode(img, model.config.time_steps, i as u64)
            .into_iter()
            .map(|m| m.as_slice().iter().map(|&v| v > 0.5).collect())
            .collect()
    };
    let mut table = TextTable::new(&[
        "weights",
        "accuracy",
        "consistency vs float",
        "reload ops / neuron-step",
    ]);
    // Binary path.
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let eval = chip.evaluate(&program, &test, &EvalOptions::default());
    table = table.row_owned(vec![
        "binary (±1)".to_owned(),
        format!("{:.2}%", eval.accuracy * 100.0),
        format!(
            "{:.2}%",
            consistency(&float_preds, &eval.predictions) * 100.0
        ),
        format!(
            "{:.1}",
            eval.stats.polarity_switches as f64 / eval.stats.neuron_steps as f64
        ),
    ]);
    // Quantized paths.
    for max_gain in [4u16, 16] {
        let q = QuantizedSnn::from_trained(&model, max_gain);
        let mut preds = Vec::new();
        let mut reload_sorted = 0u64;
        let mut reload_natural = 0u64;
        let mut neuron_steps = 0u64;
        for (i, img) in test.images.iter().enumerate() {
            let frames = frames_of(i, img);
            preds.push(q.predict(&frames));
            if i < 10 {
                // Reload accounting on a sample of inputs.
                let layer = &q.layers()[0];
                for f in &frames {
                    for j in 0..layer.outputs().min(16) {
                        let natural: Vec<usize> = (0..layer.inputs()).collect();
                        reload_natural += layer.reload_ops(j, &natural, f).0;
                        reload_sorted += layer.reload_ops(j, &layer.strength_sorted_order(j), f).0;
                        neuron_steps += 1;
                    }
                }
            }
        }
        let acc = sushi_snn::metrics::accuracy(&preds, &test.labels);
        table = table.row_owned(vec![
            format!("{max_gain}-level pulse gain"),
            format!("{:.2}%", acc * 100.0),
            format!("{:.2}%", consistency(&float_preds, &preds) * 100.0),
            format!(
                "{:.1} sorted / {:.1} natural",
                reload_sorted as f64 / neuron_steps as f64,
                reload_natural as f64 / neuron_steps as f64
            ),
        ]);
    }
    format!(
        "## Weight-precision ablation (Fig 10 weight structures)\n\
         binary is the deployed XNOR path; multi-level gains use the configurable weight structures,\n\
         with strength-sorted synapse order sharing configurations between adjacent batches\n{table}"
    )
}

/// Section 6.3: frames per second of the Table 3 network on the peak chip
/// (paper: up to 2.61e5 FPS).
pub fn fps(model: &TrainedSnn) -> String {
    let program = Compiler::new(CompilerConfig::paper()).compile(model);
    let chip = SushiChip::paper();
    let fps = chip.estimated_fps(&program);
    let sizes = model.mlp.layer_sizes();
    format!(
        "## FPS (Section 6.3)\n\
         network {:?} on the 32-NPE chip: {:.3e} FPS (paper: 2.61e5 for 784-800-10)\n",
        sizes, fps
    )
}

/// FPS of the exact paper network shape (untrained weights suffice — FPS
/// depends only on the shape and schedule).
pub fn fps_paper_shape() -> String {
    let cfg = TrainConfig::paper();
    let model = TrainedSnn {
        mlp: sushi_snn::SnnMlp::new(&cfg.layer_sizes(), cfg.seed),
        config: cfg,
    };
    fps(&model)
}

/// The observability report behind `sushi-bench -- bench`: what the
/// components report about themselves. A header names the SIMD tier and
/// the pool size the runs used; then the Fig 16 cell-accurate run with
/// the worker pool instrumented (hot cells, per-worker throughput) and an
/// end-to-end behavioural evaluation with its throughput report, each
/// rendered as tables and as one JSON line. Engine, serving and training
/// speeds are timed by the criterion benches and perfbench, not here.
pub fn bench_metrics(scale: Scale) -> String {
    let mut out = format!(
        "## Bench: component reports | cpu tier: {} | pool workers: {}\n\n",
        cpu_tier().name(),
        host_workers(),
    );

    // Cell-accurate path: fig16's batched column-block runs, instrumented.
    let (result, report, _) = fig16_with_report(true);
    let report = report.expect("fig16 batch path carries a report");
    out.push_str(&format!(
        "## Bench: fig16 cell-accurate run (instrumented)\n\
         jobs {} | events delivered {} | sim time {:.0} ps | {:.1} jobs/s | utilization {:.0}%\n\
         waveforms match: {} | violations: {}\n\nhot cells:\n{}\nworkers:\n{}\njson: {}\n",
        report.items,
        report.events_delivered,
        report.sim_time_ps,
        report.items_per_s,
        report.utilization * 100.0,
        result.waveforms_match(),
        result.violations,
        hot_cell_table(&report.hot_cells),
        batch_worker_table(&report),
        report.to_json(),
    ));

    // Behavioural path: train quickly, evaluate end to end with a report.
    let data = synth_digits(scale.samples.min(400), 4);
    let (train, test) = data.split(0.8);
    let mut cfg = scale.config();
    cfg.hidden = vec![scale.hidden.min(64)];
    let model = Trainer::new(cfg).fit(&train);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let eval = chip.evaluate(&program, &test, &EvalOptions::new().report(true));
    let er = eval.report.expect("report requested");
    out.push_str(&format!(
        "\n## Bench: end-to-end behavioural evaluation\n\
         samples {} | {:.1} samples/s | wall {:.3} s | utilization {:.0}% | accuracy {:.1}%\n\nworkers:\n{}\njson: {}\n",
        er.samples,
        er.samples_per_s,
        er.wall_s,
        er.utilization * 100.0,
        eval.accuracy * 100.0,
        eval_worker_table(&er),
        er.to_json(),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_key_constraints() {
        let s = table1();
        assert!(s.contains("39.90"));
        assert!(s.contains("ndro"));
        assert!(s.contains("5.70"));
    }

    #[test]
    fn table2_render_mentions_paper_anchor() {
        let (r, s) = table2();
        assert!(s.contains("45,542"));
        assert!(r.total_jj() > 40_000);
    }

    #[test]
    fn fig13_is_monotone_and_anchored() {
        let (points, s) = fig13();
        assert_eq!(points.len(), 5);
        assert!(points.windows(2).all(|w| w[1].total_jj > w[0].total_jj));
        let last = points.last().unwrap();
        assert_eq!(last.npes, 32);
        assert!((last.total_jj as f64 - 99_982.0).abs() / 99_982.0 < 0.10);
        assert!(s.contains("32 (16x16)"));
    }

    #[test]
    fn fig14_renders_valid_schedule() {
        let s = fig14();
        assert!(s.contains("input pulses: 6"));
        assert!(s.contains("toggles: 6"));
    }

    #[test]
    fn table4_lists_all_platforms() {
        let s = table4();
        assert!(s.contains("TrueNorth"));
        assert!(s.contains("Tianjic"));
        assert!(s.contains("SUSHI"));
        assert!(s.contains("RSFQ"));
    }

    #[test]
    fn fig19_21_sweep_has_truenorth_crossover_at_4x4() {
        let (points, _) = fig19_20_21();
        assert!(points[1].gsops < 58.0);
        assert!(points[2].gsops > 58.0);
    }

    #[test]
    fn delay_ablation_mentions_both_ends() {
        let s = delay_ablation();
        assert!(s.contains("1x1"));
        assert!(s.contains("16x16"));
    }

    #[test]
    fn sync_baseline_shows_both_designs() {
        let s = sync_baseline_ablation();
        assert!(s.contains("SuperNPU-like"));
        assert!(s.contains("SUSHI (asynchronous)"));
        assert!(s.contains("% of peak"));
    }

    #[test]
    fn process_ablation_shows_both_processes() {
        let s = process_ablation();
        assert!(s.contains("Nb03"));
        assert!(s.contains("SFQ5ee"));
    }

    #[test]
    fn conv_demo_verifies_equivalence() {
        let s = conv_demo();
        assert!(
            s.contains("sliced == unsliced on 12 random frames: true"),
            "{s}"
        );
        assert!(
            s.contains("cell-accurate chip == behavioural prediction: true"),
            "{s}"
        );
    }

    #[test]
    fn scaleout_study_covers_board_sizes() {
        let s = scaleout_study();
        assert!(s.contains("| 16    |"), "{s}");
        assert!(s.contains("break-even"));
    }

    #[test]
    fn fps_paper_shape_mentions_anchor() {
        let s = fps_paper_shape();
        assert!(s.contains("2.61e5"));
        assert!(s.contains("784, 800, 10"));
    }
}
