//! Verification under imperfect silicon: fabrication-spread jitter, dead
//! cells, and VCD waveform export.
//!
//! The paper validates SUSHI by matching oscilloscope waveforms against
//! simulation. This example shows the same flow with adversity added:
//! a chip with realistic timing jitter still verifies, a chip with a dead
//! cell is caught, and the traces export as standard VCD for any waveform
//! viewer.
//!
//! The example is also a gate: it exits non-zero unless the healthy chip
//! and jitter seeds 0–2 verify and the dead cell is caught.
//!
//! Run with: `cargo run --release -p sushi-core --example fault_and_jitter`

use sushi_cells::{CellKind, CellLibrary, PortName};
use sushi_core::CellAccurateChip;
use sushi_sim::vcd::VcdBuilder;
use sushi_sim::{Fault, Netlist, RingTracer, SimConfig};
use sushi_ssnn::binarize::BinaryLayer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small layer that must fire neuron 0 (sum 3 >= threshold 2).
    let layer = BinaryLayer::from_signs(vec![1, 1, 1, -1, 1, 1], 3, 2, vec![2, 3]);
    let active = vec![true, true, true];

    // --- Healthy chip, nominal timing --------------------------------
    let healthy = CellAccurateChip::build(2, 4)?;
    let expected = healthy.expected_column_block(&layer, 0..2, &active);
    let nominal = healthy.run_column_block(&layer, 0..2, &active)?;
    println!(
        "healthy chip:   fired {:?}, violations {}",
        nominal.fired, nominal.violations
    );
    println!("simulation:     fired {expected:?}");
    let mut failures = Vec::new();
    if nominal.fired != expected || nominal.violations != 0 {
        failures.push("the healthy chip does not verify".to_owned());
    }

    // --- Fabrication spread: 2 ps sigma on every cell delay ----------
    for seed in 0..3u64 {
        let jittery = CellAccurateChip::build(2, 4)?.with_jitter(seed, 2.0);
        let run = jittery.run_column_block(&layer, 0..2, &active)?;
        let verified = run.fired == expected && run.violations == 0;
        println!(
            "jitter seed {seed}: fired {:?}, violations {} -> {}",
            run.fired,
            run.violations,
            if verified { "VERIFIED" } else { "REJECTED" }
        );
        if !verified {
            failures.push(format!("jitter seed {seed} does not verify"));
        }
    }

    // --- A dead output cell in NPE0's final state controller ---------
    let broken = CellAccurateChip::build(2, 4)?.with_fault("npe0.sc3.cb_out", Fault::DropOutput);
    let bad = broken.run_column_block(&layer, 0..2, &active)?;
    let caught = bad.fired != expected;
    println!(
        "faulty chip:    fired {:?} -> {}",
        bad.fired,
        if caught {
            "DEFECT CAUGHT"
        } else {
            "escaped detection (!)"
        }
    );
    if !caught {
        failures.push("the dead cell escaped detection".to_owned());
    }

    // --- VCD export of a state-controller trace ----------------------
    let mut n = Netlist::new();
    let ports = sushi_arch::ScNetlist::build(&mut n, "sc")?;
    n.add_input("in", ports.input.cell, ports.input.port)?;
    n.add_input("set1", ports.set1.cell, ports.set1.port)?;
    n.probe("out", ports.out.cell, ports.out.port)?;
    // Also watch the raw converter output feeding the SC.
    let pad = n.add_cell(CellKind::SfqDc, "pad");
    n.connect(ports.out.cell, ports.out.port, pad, PortName::Din)?;
    n.probe("dc_level", pad, PortName::Dout)?;
    let lib = CellLibrary::nb03();
    let mut sim = SimConfig::new()
        .observer(RingTracer::new(64))
        .build(&n, &lib);
    sim.inject("set1", &[0.0])?;
    sim.inject("in", &[200.0, 400.0, 600.0, 800.0])?;
    sim.run_to_completion()?;
    let vcd = VcdBuilder::new("sushi_sc").from_simulator(&sim).render();
    println!("\n--- VCD export (load in GTKWave) ---\n{vcd}");

    // --- The same run, seen through the event tracer -----------------
    let tracer: RingTracer = sim.take_observer_as().expect("tracer attached above");
    println!(
        "--- last {} of {} traced events (ring capacity {}) ---",
        tracer.len().min(5),
        tracer.len() + tracer.dropped() as usize,
        tracer.capacity()
    );
    let events: Vec<_> = tracer.events().collect();
    for ev in events.iter().skip(events.len().saturating_sub(5)) {
        println!("  t={:7.1} ps  {:?}", ev.time, ev.what);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; ").into())
    }
}
