//! The repository's benchmark: three workloads over the chip-verification,
//! training and serving paths, each checked for correct outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify|train|infer> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced and prints the
//! end-to-end metrics; with `--trace 1` the traced run replays all three
//! workloads through the public layer calls and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for what each metric means.

mod infer;
mod inputs;
mod spans;
mod stats;
mod train;
mod verify;

use std::time::{Duration, Instant};

use spans::{Recorder, Trace};
use stats::{median, Quiet, Tally};
use sushi_sim::Json;

/// End-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("bulk_per_s", "1/s"),
];

/// Per-layer metrics the traced run reports, with their units.
const PER_LAYER: [(&str, &str); 47] = [
    ("arch.chip_netlist_build_s", "s"),
    ("arch.mesh_netlist_build_s", "s"),
    ("sim.partition.plan_s", "s"),
    ("sim.partition.k", "count"),
    ("sim.partition.cut_wires", "count"),
    ("sim.partition.lookahead_ps", "ps"),
    ("ssnn.slice_encode_s", "s"),
    ("sim.build_s", "s"),
    ("sim.inject_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.pulses_emitted", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.batch.utilization", "ratio"),
    ("core.verify_overhead_s", "s"),
    ("trace.verify.overhead_s", "s"),
    ("sim.mesh.sequential_run_s", "s"),
    ("sim.mesh.partitioned_run_s", "s"),
    ("sim.mesh.partition_speedup", "x"),
    ("snn.data_s", "s"),
    ("snn.shuffle_s", "s"),
    ("snn.encode_s", "s"),
    ("snn.forward_s", "s"),
    ("snn.backward_s", "s"),
    ("snn.optim_s", "s"),
    ("snn.batches", "count"),
    ("snn.forward_gflop_per_s", "GFLOP/s"),
    ("snn.backward_gflop_per_s", "GFLOP/s"),
    ("trace.train.overhead_s", "s"),
    ("ssnn.pack_s", "s"),
    ("serve.start_s", "s"),
    ("ssnn.packed.image_us", "us"),
    ("ssnn.bitplane.lanes1_us", "us"),
    ("ssnn.bitplane.lanes2_us", "us"),
    ("ssnn.bitplane.lanes64_us", "us"),
    ("ssnn.bitplane.transpose_us", "us"),
    ("serve.handle.p50_us", "us"),
    ("serve.handle.p99_us", "us"),
    ("serve.socket_overhead_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"),
    ("serve.bitplane_batches", "count"),
    ("serve.stolen_batches", "count"),
    ("serve.rejected", "count"),
    ("serve.max_queue_depth", "count"),
    ("trace.infer.overhead_s", "s"),
];

/// Times each set-up is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Runs `f` and returns its result with the host time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Runs a workload's set-up [`SETUP_REPS`] times, each on a clean slate
/// (the previous one is dropped first, untimed), and returns the last
/// result with the median set-up time in seconds.
pub fn repeated_setup<S>(mut f: impl FnMut() -> S) -> (S, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (s, dt) = timed(&mut f);
        times.push(dt.as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Metrics, failure accounting and notes of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// An untraced run's report, starting with its set-up time.
    pub fn new(setup_s: f64) -> Self {
        let mut r = Report::default();
        r.metric("setup_s", setup_s, "s");
        r
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The workload's main phase: its rate, and the median and tail of
    /// its per-operation latency.
    pub fn main_phase(&mut self, q: &Quiet) {
        self.metric("throughput_per_s", q.per_s, "1/s");
        match q.lat.summary() {
            Some(s) => {
                self.metric("p50_us", s.p50_us, "us");
                self.metric("tail_us", s.tail_us, "us");
                self.note(format!(
                    "tail_us is p{} of {} samples; {:.1}% of the phase's host time was stolen",
                    s.tail_p,
                    s.count,
                    q.stolen_share * 100.0
                ));
            }
            None => {
                self.note(format!("only {} latency samples: no tail", q.lat.len()));
                self.tally.check(false);
            }
        }
    }

    /// The workload's bulk-phase rate.
    pub fn bulk(&mut self, q: &Quiet) {
        self.metric("bulk_per_s", q.per_s, "1/s");
    }

    /// Adds a line of explanation to the human-readable output.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Fails the run on a metric that is missing, repeated, not finite,
    /// in the wrong unit, or outside the `expected` set.
    fn validate(&mut self, expected: &[(&str, &str)]) {
        for (name, unit) in expected {
            let found: Vec<_> = self.metrics.iter().filter(|m| m.0 == *name).collect();
            let ok = found.len() == 1 && found[0].2 == *unit && found[0].1.is_finite();
            if !ok {
                self.notes.push(format!("metric {name} missing, repeated or not finite"));
                self.tally.check(false);
            }
        }
        let extra = self.metrics.iter().any(|m| !expected.iter().any(|e| e.0 == m.0));
        if extra {
            self.notes.push("metric outside the declared set".to_owned());
            self.tally.check(false);
        }
    }

    /// Prints the human-readable lines, then the JSON result line.
    fn print(mut self, expected: &[(&str, &str)]) {
        self.validate(expected);
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        println!(
            "error_rate                       {:>16.6} ({} failed of {} attempted)",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.1.is_finite())
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    Json::obj(vec![("value", Json::Num(*value)), ("unit", Json::Str((*unit).to_owned()))]),
                )
            })
            .collect();
        let out = Json::obj(vec![
            ("correct", Json::Bool(self.tally.failed == 0 && self.tally.attempted > 0)),
            ("attempted", Json::UInt(self.tally.attempted.max(1))),
            ("failed", Json::UInt(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{out}");
    }
}

/// Command-line options.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_golden: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record_golden: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record-golden" => {
                let n = value()?.parse().map_err(|e| format!("--record-golden: {e}"))?;
                args.record_golden = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.record_golden.is_none() && !["verify", "train", "infer"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be verify, train or infer, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// The traced run: all three workloads replayed through the public layer
/// calls, so every per-layer metric comes from one run. The spans go to
/// `.bench_run/trace-<workload>-<seed>.json`.
fn traced(args: &Args, nproc: usize) -> Report {
    let mut report = Report::default();
    let origin = Instant::now();
    let mut main = Recorder::new(origin);
    let mut trace = Trace::default();
    let share = Duration::from_secs_f64(args.seconds / 3.0);
    verify::traced(args.seed, nproc, &mut main, &mut trace, &mut report);
    train::traced(args.seed, share, &mut main, &mut trace, &mut report);
    infer::traced(args.seed, share, nproc, &mut main, &mut trace, &mut report);
    trace.absorb(main);
    let out = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("nproc", Json::UInt(nproc as u64)),
        ("spans", trace.to_json()),
    ]);
    let path = std::path::Path::new(infer::RUN_DIR)
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(infer::RUN_DIR)
        .and_then(|()| std::fs::write(&path, out.to_string()));
    match written {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            trace.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = stats::nproc();
    if let Some(count) = args.record_golden {
        println!("{}", verify::record_golden(count, nproc));
        return;
    }
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced(&args, nproc).print(&PER_LAYER);
    } else {
        let mut report = match args.workload.as_str() {
            "verify" => verify::run(args.seed, args.seconds, nproc),
            "train" => train::run(args.seed, args.seconds, nproc),
            _ => infer::run(args.seed, args.seconds, nproc),
        };
        report.metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN), "MB");
        report.print(&END_TO_END);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the program checks its output against are the
    /// ones `BENCHMARK.json` declares, in name and unit.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string field").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn validation_fails_a_run_with_a_bad_metric_set() {
        let expected = [("setup_s", "s"), ("throughput_per_s", "1/s")];
        let mut ok = Report::new(0.5);
        ok.metric("throughput_per_s", 10.0, "1/s");
        ok.tally.record(3, 0);
        ok.validate(&expected);
        assert_eq!(ok.tally, Tally { attempted: 3, failed: 0 });
        let mut missing = Report::new(0.5);
        missing.validate(&expected);
        assert_eq!(missing.tally.failed, 1);
        let mut extra = Report::new(f64::NAN);
        extra.metric("throughput_per_s", 1.0, "1/s");
        extra.metric("other", 1.0, "s");
        extra.validate(&expected);
        assert_eq!(extra.tally.failed, 2, "non-finite setup_s and an undeclared metric");
    }
}
