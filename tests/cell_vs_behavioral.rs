//! Cross-checks between the cell-accurate netlist simulation and the
//! behavioural models — the reproduction of the paper's chip-vs-simulation
//! verification methodology (Section 6.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sushi_arch::npe::{NpeChain, NpeNetlist};
use sushi_arch::state_controller::{ScBehavior, ScNetlist};
use sushi_cells::{CellLibrary, Ps};
use sushi_core::CellAccurateChip;
use sushi_sim::{Netlist, SimConfig};
use sushi_ssnn::binarize::{BinarizedSnn, BinaryLayer};
use sushi_ssnn::{FireSemantics, SsnnExecutor};

/// Random pulse trains through a cell-level SC match the behavioural SC
/// for both gating modes.
#[test]
fn state_controller_agrees_under_random_stimulus() {
    let lib = CellLibrary::nb03();
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..20 {
        let pulses = rng.gen_range(1..12usize);
        let rise_mode = rng.gen_bool(0.5);
        // Behavioural.
        let mut sc = ScBehavior::new();
        if rise_mode {
            sc.set0();
        } else {
            sc.set1();
        }
        let expected = (0..pulses).filter(|_| sc.pulse_in()).count();
        // Cell-level.
        let mut n = Netlist::new();
        let ports = ScNetlist::build(&mut n, "sc").unwrap();
        n.add_input("in", ports.input.cell, ports.input.port)
            .unwrap();
        n.add_input("set0", ports.set0.cell, ports.set0.port)
            .unwrap();
        n.add_input("set1", ports.set1.cell, ports.set1.port)
            .unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        let mut sim = SimConfig::new().build(&n, &lib);
        sim.inject(if rise_mode { "set0" } else { "set1" }, &[0.0])
            .unwrap();
        let times: Vec<Ps> = (0..pulses).map(|i| 500.0 + 300.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(
            sim.pulses("out").len(),
            expected,
            "trial {trial}: pulses={pulses} rise={rise_mode}"
        );
        assert!(sim.violations().is_empty(), "trial {trial}");
    }
}

/// Random preload/pulse-count combinations through a cell-level NPE chain
/// match the behavioural ripple counter.
#[test]
fn npe_chain_agrees_under_random_programs() {
    let lib = CellLibrary::nb03();
    let mut rng = StdRng::seed_from_u64(23);
    for trial in 0..12 {
        let k = rng.gen_range(2..5usize);
        let threshold = rng.gen_range(1..=(1u64 << k));
        let pulses = rng.gen_range(0..2 * (1usize << k));
        // Behavioural.
        let mut chain = NpeChain::new(k);
        chain.preload_threshold(threshold);
        let expected = (0..pulses).filter(|_| chain.pulse_in()).count();
        // Cell-level.
        let mut n = Netlist::new();
        let ports = NpeNetlist::build(&mut n, "npe", k).unwrap();
        n.add_input("in", ports.input.cell, ports.input.port)
            .unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        for (i, sc) in ports.scs.iter().enumerate() {
            n.add_input(format!("set1_{i}"), sc.set1.cell, sc.set1.port)
                .unwrap();
            n.add_input(format!("write_{i}"), sc.write.cell, sc.write.port)
                .unwrap();
        }
        let mut sim = SimConfig::new().build(&n, &lib);
        let preload = (1u64 << k) - threshold;
        for i in 0..k {
            if (preload >> i) & 1 == 1 {
                sim.inject(&format!("write_{i}"), &[100.0 + 60.0 * i as Ps])
                    .unwrap();
            }
            sim.inject(&format!("set1_{i}"), &[1500.0]).unwrap();
        }
        let times: Vec<Ps> = (0..pulses).map(|i| 3000.0 + 500.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(
            sim.pulses("out").len(),
            expected,
            "trial {trial}: k={k} threshold={threshold} pulses={pulses}"
        );
        assert!(sim.violations().is_empty(), "trial {trial}");
    }
}

/// Random binary layers on the cell-accurate chip match the behavioural
/// first-crossing prediction, across row blocks and input patterns.
#[test]
fn random_layers_match_on_cell_accurate_chip() {
    let chip = CellAccurateChip::build(2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(37);
    for trial in 0..10 {
        let inputs = rng.gen_range(2..8usize);
        let signs: Vec<i8> = (0..inputs * 2)
            .map(|_| if rng.gen_bool(0.35) { -1 } else { 1 })
            .collect();
        let thresholds = vec![rng.gen_range(1..5i64), rng.gen_range(1..5i64)];
        let layer = BinaryLayer::from_signs(signs, inputs, 2, thresholds);
        let active: Vec<bool> = (0..inputs).map(|_| rng.gen_bool(0.7)).collect();
        let run = chip.run_column_block(&layer, 0..2, &active).unwrap();
        let expected = chip.expected_column_block(&layer, 0..2, &active);
        assert_eq!(
            run.fired, expected,
            "trial {trial}: layer={layer:?} active={active:?}"
        );
        assert_eq!(run.violations, 0, "trial {trial}");
    }
}

/// The two behavioural models of the NPE counter's first-crossing and
/// underflow rule agree: `SsnnExecutor` under `FirstCrossing` with the
/// ascending visit order the encoder uses, and
/// `CellAccurateChip::expected_column_block`. Seeded one-layer nets with
/// 1-6 SC bits and 25% of inputs active; every threshold in
/// `1..capacity`, and `capacity` itself when every synapse is connected
/// (with an open switch at `theta == capacity` the two models part).
#[test]
fn behavioural_counter_models_agree_within_capacity() {
    const SEEDS: u64 = 20;
    const OUTPUTS: usize = 10;
    const STEPS: usize = 30;
    for sc_bits in 1..=6usize {
        let chip = CellAccurateChip::build(1, sc_bits).unwrap();
        let capacity = chip.num_states() as i64;
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed << 3 | sc_bits as u64);
            let inputs = rng.gen_range(8..=80usize);
            for connected in [false, true] {
                let signs: Vec<i8> = (0..inputs * OUTPUTS)
                    .map(|_| {
                        if !connected && rng.gen_bool(1.0 / 3.0) {
                            0
                        } else if rng.gen_bool(0.5) {
                            1
                        } else {
                            -1
                        }
                    })
                    .collect();
                // Over the seeds the thresholds cycle through the whole
                // range: `1..=capacity` connected, `1..capacity` otherwise.
                let range = if connected { capacity } else { capacity - 1 };
                let thresholds: Vec<i64> = (0..OUTPUTS)
                    .map(|j| 1 + (seed as i64 * OUTPUTS as i64 + j as i64) % range)
                    .collect();
                let net = BinarizedSnn::from_layers(vec![BinaryLayer::from_signs(
                    signs, inputs, OUTPUTS, thresholds,
                )]);
                let layer = &net.layers()[0];
                let mut exec =
                    SsnnExecutor::new(&net, FireSemantics::FirstCrossing, capacity as u64, 1);
                for j in 0..OUTPUTS {
                    exec.set_order(0, j, (0..inputs).collect());
                }
                for step in 0..STEPS {
                    let active: Vec<bool> = (0..inputs).map(|_| rng.gen_bool(0.25)).collect();
                    assert_eq!(
                        exec.step(&active).0,
                        chip.expected_column_block(layer, 0..OUTPUTS, &active),
                        "sc_bits {sc_bits} seed {seed} connected {connected} step {step}"
                    );
                }
            }
        }
    }
}

/// A convolutional layer, Toeplitz-unrolled to a sparse matrix, runs on
/// the cell-accurate chip: open cross-point switches realise the zero
/// synapses, and switch connectivity is reconfigured between row blocks.
#[test]
fn unrolled_convolution_runs_on_the_cell_accurate_chip() {
    use sushi_snn::conv::Conv2d;
    use sushi_snn::Matrix;
    use sushi_ssnn::binarize_conv;
    // A 2x2 kernel over a 3x3 map: 4 output positions, 9 inputs, sparse.
    let w = Matrix::from_vec(4, 1, vec![0.5, -0.5, 0.5, 0.5]);
    let conv = Conv2d::from_weights(1, 1, 2, 1, w);
    let layer = binarize_conv(&conv, 3, 3, 1.0);
    assert_eq!((layer.inputs(), layer.outputs()), (9, 4));
    let chip = CellAccurateChip::build(2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..6 {
        let active: Vec<bool> = (0..9).map(|_| rng.gen_bool(0.6)).collect();
        let fired = chip.run_layer(&layer, &active).unwrap();
        let mut expected = Vec::new();
        for c0 in (0..4).step_by(2) {
            expected.extend(chip.expected_column_block(&layer, c0..c0 + 2, &active));
        }
        assert_eq!(fired, expected, "trial {trial} active {active:?}");
    }
}

/// The tree-network chip broadcasts every input to every NPE with unit
/// weight: each neuron is a pure counting neuron firing after
/// `threshold` active inputs.
#[test]
fn tree_chip_counts_broadcast_pulses() {
    use sushi_arch::ChipConfig;
    use sushi_sim::SimConfig;
    let lib = CellLibrary::nb03();
    let design = ChipConfig::tree(3).with_sc_per_npe(3).build();
    let cn = design.build_netlist().unwrap();
    for threshold in [1u64, 2, 3] {
        let mut sim = SimConfig::new().build(&cn.netlist, &lib);
        // Preload both NPE counters to 8 - threshold while disabled.
        let preload = 8 - threshold;
        for j in 0..3 {
            for b in 0..3 {
                if (preload >> b) & 1 == 1 {
                    sim.inject(&format!("npe{j}_write_{b}"), &[100.0 + 60.0 * b as Ps])
                        .unwrap();
                }
                sim.inject(&format!("npe{j}_set1_{b}"), &[1000.0]).unwrap();
            }
        }
        // Fire inputs 0 and 2 (2 active): every neuron sees 2 pulses.
        sim.inject("in0", &[2000.0]).unwrap();
        sim.inject("in2", &[3000.0]).unwrap();
        sim.run_to_completion().unwrap();
        let expect = usize::from(2 >= threshold);
        for j in 0..3 {
            assert_eq!(
                sim.pulses(&format!("out{j}")).len(),
                expect,
                "threshold {threshold} neuron {j}"
            );
        }
        assert!(sim.violations().is_empty(), "threshold {threshold}");
    }
}

/// The chip netlist itself is structurally sound: every input port is
/// either driven, an external input, or a documented control line.
#[test]
fn chip_netlist_has_no_unexpected_dangling_inputs() {
    let chip = CellAccurateChip::build(2, 3).unwrap();
    assert!(chip.cell_count() > 50);
    // Constructing a simulator validates probe/input wiring.
    let lib = CellLibrary::nb03();
    let design = sushi_arch::ChipConfig::mesh(2).with_sc_per_npe(3).build();
    let netlist = design.build_netlist().unwrap().netlist;
    let _sim = SimConfig::new().build(&netlist, &lib);
    // Undriven inputs must all be registered control channels (they are
    // reachable via named external inputs), not floating cell ports.
    for dangling in netlist.undriven_inputs() {
        let registered = netlist.inputs().values().any(|&p| p == dangling);
        assert!(registered, "floating input port {dangling}");
    }
}
