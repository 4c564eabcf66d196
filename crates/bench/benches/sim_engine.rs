//! Simulator microbenches: event throughput of the RSFQ engine on the
//! structures SUSHI is built from.

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use std::time::Duration;
use sushi_arch::npe::NpeNetlist;
use sushi_arch::scaleout::npe_mesh;
use sushi_arch::state_controller::ScNetlist;
use sushi_cells::{CellKind, CellLibrary, PortName, Ps};
use sushi_sim::{BatchRunner, Netlist, SimConfig, Stimulus, StimulusBuilder};

/// A deep JTL pipeline: the raw event-propagation path.
fn jtl_pipeline(depth: usize) -> Netlist {
    let mut n = Netlist::new();
    let src = n.add_cell(CellKind::DcSfq, "src");
    n.add_input("in", src, PortName::Din).unwrap();
    let mut prev = (src, PortName::Dout);
    for i in 0..depth {
        let j = n.add_cell(CellKind::Jtl, format!("j{i}"));
        n.connect(prev.0, prev.1, j, PortName::Din).unwrap();
        prev = (j, PortName::Dout);
    }
    n.probe("out", prev.0, prev.1).unwrap();
    n
}

fn bench(c: &mut Criterion) {
    let lib = CellLibrary::nb03();
    let mut g = c.benchmark_group("sim_engine");
    g.measurement_time(Duration::from_secs(3)).sample_size(20);

    let depth = 200usize;
    let pulses: Vec<Ps> = (0..100).map(|i| i as Ps * 40.0).collect();
    let pipeline = jtl_pipeline(depth);
    g.throughput(Throughput::Elements((depth * pulses.len()) as u64));
    g.bench_function("jtl_pipeline_200x100_pulses", |b| {
        b.iter_batched(
            || {
                let mut sim = SimConfig::new().build(&pipeline, &lib);
                sim.inject("in", &pulses).unwrap();
                sim
            },
            |mut sim| {
                sim.run_to_completion().unwrap();
                sim.stats().events_delivered
            },
            BatchSize::SmallInput,
        )
    });

    // One SC, driven hard.
    let mut sc_net = Netlist::new();
    let ports = ScNetlist::build(&mut sc_net, "sc").unwrap();
    sc_net
        .add_input("in", ports.input.cell, ports.input.port)
        .unwrap();
    sc_net
        .add_input("set1", ports.set1.cell, ports.set1.port)
        .unwrap();
    sc_net.probe("out", ports.out.cell, ports.out.port).unwrap();
    let sc_pulses: Vec<Ps> = (0..200).map(|i| 100.0 + i as Ps * 120.0).collect();
    g.throughput(Throughput::Elements(sc_pulses.len() as u64));
    g.bench_function("state_controller_200_pulses", |b| {
        b.iter_batched(
            || {
                let mut sim = SimConfig::new().build(&sc_net, &lib);
                sim.inject("set1", &[0.0]).unwrap();
                sim.inject("in", &sc_pulses).unwrap();
                sim
            },
            |mut sim| {
                sim.run_to_completion().unwrap();
                sim.pulses("out").len()
            },
            BatchSize::SmallInput,
        )
    });

    // A 6-SC NPE ripple counter overflowing repeatedly.
    let mut npe_net = Netlist::new();
    let npe = NpeNetlist::build(&mut npe_net, "npe", 6).unwrap();
    npe_net
        .add_input("in", npe.input.cell, npe.input.port)
        .unwrap();
    for (i, sc) in npe.scs.iter().enumerate() {
        npe_net
            .add_input(format!("set1_{i}"), sc.set1.cell, sc.set1.port)
            .unwrap();
    }
    npe_net.probe("out", npe.out.cell, npe.out.port).unwrap();
    let npe_pulses: Vec<Ps> = (0..256).map(|i| 1000.0 + i as Ps * 500.0).collect();
    g.throughput(Throughput::Elements(npe_pulses.len() as u64));
    g.bench_function("npe_counter_256_pulses", |b| {
        b.iter_batched(
            || {
                let mut sim = SimConfig::new().build(&npe_net, &lib);
                for i in 0..6 {
                    sim.inject(&format!("set1_{i}"), &[0.0]).unwrap();
                }
                sim.inject("in", &npe_pulses).unwrap();
                sim
            },
            |mut sim| {
                sim.run_to_completion().unwrap();
                sim.pulses("out").len()
            },
            BatchSize::SmallInput,
        )
    });
    // A 4-die NPE mesh with dense per-die stimulus: one large netlist
    // whose event loop the partitioned engine shards at the 2 ns board
    // links. Identical netlist and stimulus in both rows, so the time
    // ratio is the partitioned-engine speedup (~1x on a single-CPU
    // host, where the workers just time-slice one core).
    let (mesh_npes, mesh_scs) = (4usize, 16usize);
    let mesh = npe_mesh(mesh_npes, mesh_scs).unwrap();
    let mesh_pulses: Vec<Ps> = (0..512).map(|i| 500.0 + i as Ps * 120.0).collect();
    fn mesh_sim<'a>(
        netlist: &'a Netlist,
        lib: &'a CellLibrary,
        (npes, scs): (usize, usize),
        pulses: &[Ps],
    ) -> sushi_sim::Simulator<'a> {
        let mut sim = SimConfig::new().build(netlist, lib);
        for i in 0..npes {
            for b in 0..scs {
                sim.inject(&format!("npe{i}_set1_{b}"), &[0.0]).unwrap();
            }
            // Stagger each die's local train so link overflows interleave
            // with it inside the merge CBs.
            let local: Vec<Ps> = pulses.iter().map(|t| t + i as Ps * 37.0).collect();
            sim.inject(&format!("in{i}"), &local).unwrap();
        }
        sim
    }
    g.throughput(Throughput::Elements((mesh_npes * mesh_pulses.len()) as u64));
    g.bench_function("partitioned_mesh_sequential", |b| {
        b.iter_batched(
            || mesh_sim(&mesh, &lib, (mesh_npes, mesh_scs), &mesh_pulses),
            |mut sim| {
                sim.run_to_completion().unwrap();
                sim.stats().events_delivered
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("partitioned_mesh_4w", |b| {
        b.iter_batched(
            || mesh_sim(&mesh, &lib, (mesh_npes, mesh_scs), &mesh_pulses),
            |mut sim| {
                sim.run_partitioned(mesh_npes).unwrap();
                sim.stats().events_delivered
            },
            BatchSize::SmallInput,
        )
    });
    // Batch inference over the same pipeline: 32 independent stimulus
    // sets, one worker (the calling thread) vs the shared worker pool.
    // Same total event count, so the time ratio is the batch-layer
    // speedup.
    let batch_items: Vec<Stimulus> = (0..32)
        .map(|k| {
            let mut b = StimulusBuilder::new();
            for i in 0..(60 + k) {
                b = b.pulse("in", i as Ps * 40.0).unwrap();
            }
            b.build()
        })
        .collect();
    let total_pulses: usize = batch_items.iter().map(Stimulus::pulse_count).sum();
    let runner = BatchRunner::new(&pipeline, &lib);
    g.throughput(Throughput::Elements(
        (depth * total_pulses / batch_items.len()) as u64,
    ));
    let one = runner.clone().with_workers(1);
    g.bench_function("jtl_batch32_sequential", |b| {
        b.iter(|| one.run(&batch_items).unwrap().len())
    });
    // "host_workers" (not the count) keeps the id distinct from the fixed
    // 4-worker row below on any core count (a 4-core host would otherwise
    // emit two `jtl_batch32_parallel_4w` rows).
    g.bench_function("jtl_batch32_parallel_host_workers", |b| {
        b.iter(|| runner.run(&batch_items).unwrap().len())
    });
    // Fixed worker count, so machines with different core counts still
    // produce a comparable row (on a single-CPU host this only measures
    // the scoped-thread overhead).
    let four = runner.clone().with_workers(4);
    g.bench_function("jtl_batch32_parallel_4w", |b| {
        b.iter(|| four.run(&batch_items).unwrap().len())
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
    criterion::Criterion::default().final_summary();
}
