//! `experiments` — regenerate every table and figure of the SUSHI paper.
//!
//! Usage:
//!   cargo run --release -p sushi-bench -- [--quick] [EXPERIMENT...]
//!
//! With no arguments, runs everything at full scale. `--quick` uses the
//! reduced training scale. The EXPERIMENT names are [`EXPERIMENTS`]; an
//! unknown name or another flag prints them to stderr and exits with
//! status 2.
//!
//! The extra `bench` name (not part of the default run) prints what the
//! components report about themselves: the CPU tier and pool size, then
//! hot-cell and per-worker metrics tables for the fig16 cell-accurate
//! run and an end-to-end evaluation. Engine, serving and training speeds
//! are timed by the criterion benches and perfbench instead. The extra
//! `serve` name (also opt-in) runs the serving-throughput scenarios
//! (serialized / micro-batched / overload) on the server's default
//! zero-hold dispatch and, when `SERVE_JSON` names a file, writes the
//! `BENCH_serve.json` payload there.

use sushi_core::experiments as exp;

mod serve_bench;

/// Every name the command accepts. `bench` and `serve` are opt-in: a run
/// without names skips them.
const EXPERIMENTS: [&str; 21] = [
    "bench",
    "serve",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig13",
    "fig14",
    "fig16",
    "fig19",
    "fig20",
    "fig21",
    "delay",
    "reload",
    "states",
    "quantization",
    "sync",
    "process",
    "conv",
    "scaleout",
    "fps",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick {
        exp::Scale::quick()
    } else {
        exp::Scale::full()
    };
    let selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    if let Some(bad) = selected.iter().find(|a| !EXPERIMENTS.contains(a)) {
        eprintln!(
            "unknown experiment {bad:?}\n\
             usage: sushi-bench [--quick] [EXPERIMENT...]\n\
             experiments: {}",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    let want = |name: &str| selected.is_empty() || selected.contains(&name);

    // Opt-in only: metrics instrumentation is not part of the paper run.
    if selected.contains(&"bench") {
        println!("{}\n", exp::bench_metrics(scale));
    }
    // Opt-in only: the serving-throughput scenarios (BENCH_serve.json).
    if selected.contains(&"serve") {
        println!("{}\n", serve_bench::serve_report(quick));
    }
    if want("table1") {
        println!("{}\n", exp::table1());
    }
    if want("table2") {
        println!("{}\n", exp::table2().1);
    }
    if want("fig13") {
        println!("{}\n", exp::fig13().1);
    }
    if want("table3") {
        println!("{}\n", exp::table3(scale).1);
    }
    if want("fig14") {
        println!("{}\n", exp::fig14());
    }
    if want("fig16") {
        println!("{}\n", exp::fig16().1);
    }
    if want("table4") {
        println!("{}\n", exp::table4());
    }
    if want("fig19") || want("fig20") || want("fig21") {
        println!("{}\n", exp::fig19_20_21().1);
    }
    if want("delay") {
        println!("{}\n", exp::delay_ablation());
    }
    if want("reload") {
        println!("{}\n", exp::reload_ablation(scale));
    }
    if want("states") {
        println!("{}\n", exp::states_ablation(scale));
    }
    if want("quantization") {
        println!("{}\n", exp::quantization_ablation(scale));
    }
    if want("sync") {
        println!("{}\n", exp::sync_baseline_ablation());
    }
    if want("process") {
        println!("{}\n", exp::process_ablation());
    }
    if want("conv") {
        println!("{}\n", exp::conv_demo());
    }
    if want("scaleout") {
        println!("{}\n", exp::scaleout_study());
    }
    if want("fps") {
        println!("{}\n", exp::fps_paper_shape());
    }
}
