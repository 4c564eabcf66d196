//! `verify`: the paper's chip-vs-simulation verification flow (Sec. 6.2,
//! Fig. 16) at larger scale, then one large multi-die board.
//!
//! Phase 1 verifies a seeded binarized 800 -> 10 output layer on a
//! cell-level 4x4 mesh with 6-bit SCs: every (time step x column block)
//! job of a sample goes through `CellAccurateChip::run_column_blocks` on
//! `nproc` workers and must match the behavioural model with zero timing
//! violations. Phase 2 runs one large `npe_mesh` board through the
//! partitioned engine.

use std::ops::Range;
use std::time::{Duration, Instant};

use sushi_arch::chip::ChipConfig;
use sushi_arch::npe_mesh;
use sushi_cells::{CellLibrary, Ps};
use sushi_core::{CellAccurateChip, CellRunResult};
use sushi_sim::{
    chunk_plan, EvalOptions, Json, Netlist, PartitionPlan, PulseTrain, SimConfig, SimOutcome,
    SimStats, Stimulus, StimulusBuilder,
};
use sushi_ssnn::encode::{SliceEncoder, SETTLE_PS};
use sushi_ssnn::{BinaryLayer, Slice};

use crate::inputs;
use crate::spans::{Recorder, SpanId, Trace};
use crate::stats::{median, quiet, Fnv, Latencies, Stopwatch};
use crate::{timed, Report};

/// Mesh width of the cell-level chip (the largest that verifies cleanly).
const MESH_N: usize = 4;
/// State controllers per NPE.
const SC_PER_NPE: usize = 6;
/// Verified layer shape (the paper network's output layer).
const INPUTS: usize = 800;
const OUTPUTS: usize = 10;
/// Samples per pass; the recorded statistics cover one full pass.
const SAMPLES: usize = 32;
/// Board shape: dies, SCs per die, and local input pulses per die.
const BOARD_NPES: usize = 16;
const BOARD_SCS: usize = 16;
const BOARD_PULSES: usize = 3000;
/// Inputs spiking per time step (2.5% of the layer). At 5% about one seed
/// in twenty gives a job that fires where the behavioural model does not.
const ACTIVE: usize = 20;

/// Share of the measured time spent in phase 1 (the rest is the board).
const PHASE1_SHARE: f64 = 0.6;

/// Simulated results recorded per seed (see `golden/verify.json`).
const GOLDEN: &str = include_str!("../golden/verify.json");

/// One (column range, active inputs) job.
type Job = (Range<usize>, Vec<bool>);

/// Everything the workload builds before it measures.
pub struct Setup {
    chip: CellAccurateChip,
    layer: BinaryLayer,
    /// Jobs per sample: `TIME_STEPS` x column blocks.
    jobs: Vec<Vec<Job>>,
    board: Netlist,
    stimulus: Stimulus,
    k: usize,
}

/// Builds the chip, the board, the partition plan and every input.
pub fn setup(seed: u64, nproc: usize) -> Setup {
    let chip = CellAccurateChip::build(MESH_N, SC_PER_NPE).expect("chip netlist builds");
    let layer = inputs::verify_layer(seed, INPUTS, OUTPUTS);
    let jobs = inputs::spike_frames(seed, SAMPLES, INPUTS, ACTIVE)
        .iter()
        .map(|frames| sample_jobs(frames))
        .collect();
    let board = npe_mesh(BOARD_NPES, BOARD_SCS).expect("board netlist builds");
    let stimulus = inputs::mesh_stimulus(seed, BOARD_NPES, BOARD_SCS, BOARD_PULSES);
    let k = PartitionPlan::suggest_k(&board, nproc);
    Setup {
        chip,
        layer,
        jobs,
        board,
        stimulus,
        k,
    }
}

fn sample_jobs(frames: &[Vec<bool>]) -> Vec<Job> {
    frames
        .iter()
        .flat_map(|active| {
            (0..OUTPUTS)
                .step_by(MESH_N)
                .map(move |c0| (c0..(c0 + MESH_N).min(OUTPUTS), active.clone()))
        })
        .collect()
}

/// Simulated statistics that a simulator-speed change must leave intact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    events: u64,
    pulses: u64,
    final_ps: f64,
    energy_pj: f64,
}

impl SimTotals {
    fn add(&mut self, stats: &SimStats, lib: &CellLibrary) {
        self.events += stats.events_delivered;
        self.pulses += stats.pulses_emitted;
        self.final_ps += stats.final_time_ps;
        self.energy_pj += stats.switching_energy_pj(lib);
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("events", Json::UInt(self.events)),
            ("pulses", Json::UInt(self.pulses)),
            ("final_ps_bits", Json::UInt(self.final_ps.to_bits())),
            ("energy_pj_bits", Json::UInt(self.energy_pj.to_bits())),
            ("final_ps", Json::Num(self.final_ps)),
            ("energy_pj", Json::Num(self.energy_pj)),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            events: j.get("events")?.as_u64()?,
            pulses: j.get("pulses")?.as_u64()?,
            final_ps: f64::from_bits(j.get("final_ps_bits")?.as_u64()?),
            energy_pj: f64::from_bits(j.get("energy_pj_bits")?.as_u64()?),
        })
    }
}

/// What was recorded for one seed: the digest of one pass of job results
/// and the simulated totals of that pass and of one board run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Golden {
    jobs_digest: u64,
    jobs: SimTotals,
    board: SimTotals,
}

impl Golden {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("jobs_digest", Json::UInt(self.jobs_digest)),
            ("jobs", self.jobs.to_json()),
            ("board", self.board.to_json()),
        ])
    }

    fn lookup(seed: u64) -> Option<Self> {
        let all = Json::parse(GOLDEN).expect("golden/verify.json parses");
        let g = all.get("seeds")?.get(&seed.to_string())?;
        Some(Self {
            jobs_digest: g.get("jobs_digest")?.as_u64()?,
            jobs: SimTotals::from_json(g.get("jobs")?)?,
            board: SimTotals::from_json(g.get("board")?)?,
        })
    }
}

/// Fingerprint of one sample's job results: fired bits, every output
/// pulse time, violation counts and schedule ends.
fn digest(results: &[CellRunResult]) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        for &f in &r.fired {
            h.u64(u64::from(f));
        }
        for train in &r.out_trains {
            h.u64(train.len() as u64);
            for t in train.times() {
                h.u64(t.to_bits());
            }
        }
        h.u64(r.violations as u64);
        h.u64(r.end_ps.to_bits());
    }
    h.finish()
}

fn pass_digest(samples: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in samples {
        h.u64(d);
    }
    h.finish()
}

/// Number of jobs whose outputs differ from the behavioural model or that
/// recorded a timing violation.
fn job_failures(results: &[CellRunResult], expected: &[Vec<bool>]) -> u64 {
    results
        .iter()
        .zip(expected)
        .filter(|(r, e)| r.fired != **e || r.violations != 0)
        .count() as u64
}

/// One board run on a fresh simulator; returns its outcome and host time.
fn board_run(s: &Setup, lib: &CellLibrary, workers: usize) -> (SimOutcome, Duration) {
    let t = Instant::now();
    let mut sim = SimConfig::new().build(&s.board, lib);
    s.stimulus.inject_into(&mut sim).expect("board inputs exist");
    if workers > 1 {
        sim.run_partitioned(workers).expect("board runs");
    } else {
        sim.run_to_completion().expect("board runs");
    }
    let dt = t.elapsed();
    (sim.take_outcome(), dt)
}

fn totals(outcome: &SimOutcome, lib: &CellLibrary) -> SimTotals {
    let mut t = SimTotals::default();
    t.add(&outcome.stats, lib);
    t
}

/// Checks the recorded statistics for `seed`, when there are any.
fn check_golden(
    report: &mut Report,
    seed: u64,
    what: &str,
    got: impl Fn(&Golden) -> bool,
) {
    match Golden::lookup(seed) {
        Some(g) => {
            let ok = got(&g);
            report.tally.check(ok);
            if !ok {
                report.note(format!("{what} differ from the values recorded for seed {seed}"));
            }
        }
        None => report.note(format!(
            "no recorded {what} for seed {seed}: checked run-to-run repeatability only"
        )),
    }
}

/// The timed run.
pub fn run(seed: u64, secs: f64, nproc: usize) -> Report {
    let (s, setup_s) = crate::repeated_setup(|| setup(seed, nproc));
    let lib = CellLibrary::nb03();
    let expected: Vec<Vec<Vec<bool>>> = s
        .jobs
        .iter()
        .map(|jobs| {
            jobs.iter()
                .map(|(cols, active)| s.chip.expected_column_block(&s.layer, cols.clone(), active))
                .collect()
        })
        .collect();
    let mut report = Report::new(setup_s);
    let opts = EvalOptions::new().workers(nproc);

    // Phase 1: whole passes of verification calls, one call per sample;
    // each pass is a window, and a sample repeated in a later pass must
    // reproduce its first results bitwise.
    let mut digests: Vec<Option<u64>> = vec![None; SAMPLES];
    let mut passes = Vec::new();
    let t0 = Instant::now();
    let phase1 = Duration::from_secs_f64(secs * PHASE1_SHARE);
    while passes.is_empty() || t0.elapsed() < phase1 {
        let (mut units, mut lat) = (0.0, Latencies::default());
        let sw = Stopwatch::start();
        for (sample, jobs) in s.jobs.iter().enumerate() {
            let (run, dt) = timed(|| s.chip.run_column_blocks(&s.layer, jobs, &opts));
            lat.push(dt);
            let n = jobs.len() as u64;
            match run {
                Ok(run) => {
                    let mut bad = job_failures(&run.results, &expected[sample]);
                    if bad > 0 && passes.is_empty() {
                        report.note(format!(
                            "sample {sample}: {bad} jobs differ from the behavioural model or \
                             have violations, first {:?}",
                            run.results
                                .iter()
                                .zip(jobs.iter().zip(&expected[sample]))
                                .find(|(r, (_, e))| r.fired != **e || r.violations != 0)
                                .map(|(r, ((cols, _), e))| (cols, &r.fired, e, r.violations))
                        ));
                    }
                    let d = digest(&run.results);
                    if *digests[sample].get_or_insert(d) != d {
                        bad = n;
                    }
                    report.tally.record(n, bad);
                }
                Err(e) => {
                    report.note(format!("sample {sample}: {e:?}"));
                    report.tally.record(n, n);
                }
            }
            units += n as f64;
        }
        passes.push(sw.window(units, lat));
    }
    let pass: Vec<u64> = digests.iter().map(|d| d.unwrap_or(0)).collect();
    check_golden(&mut report, seed, "job results", |g| {
        g.jobs_digest == pass_digest(&pass)
    });

    // Phase 2: the board on the partitioned engine, one window per run.
    let mut runs = Vec::new();
    let mut first: Option<SimTotals> = None;
    let t1 = Instant::now();
    let phase2 = Duration::from_secs_f64(secs * (1.0 - PHASE1_SHARE));
    while runs.len() < 4 || t1.elapsed() < phase2 {
        let sw = Stopwatch::start();
        let (outcome, _) = board_run(&s, &lib, s.k);
        runs.push(sw.window(outcome.stats.events_delivered as f64, Latencies::default()));
        let t = totals(&outcome, &lib);
        let same = *first.get_or_insert(t) == t;
        report.tally.check(same && outcome.violations.is_empty());
    }
    let board = first.expect("at least one board run");
    check_golden(&mut report, seed, "board statistics", |g| g.board == board);

    let (calls, bulk) = (quiet(&passes), quiet(&runs));
    report.main_phase(&calls);
    report.bulk(&bulk);
    report.note(format!(
        "throughput_per_s = verified jobs/s over the fastest {} of {} passes of {SAMPLES} \
         samples ({nproc} workers); p50/tail = one sample's run_column_blocks call ({} \
         jobs) in those passes; bulk_per_s = simulated events/s on a {BOARD_NPES}-die \
         board, k={} partitions, {} events per run, fastest {} of {} runs",
        calls.kept,
        calls.windows,
        s.jobs[0].len(),
        s.k,
        board.events,
        bulk.kept,
        bulk.windows
    ));
    report
}

/// Encodes one column-block time step exactly as
/// `CellAccurateChip::run_column_blocks` does: `SliceEncoder::next_slice`
/// per row block plus a `StimulusBuilder`.
fn block_stimulus(layer: &BinaryLayer, cols: Range<usize>, active: &[bool]) -> (Stimulus, Ps) {
    let mut enc = SliceEncoder::new(cols.len(), 1u64 << SC_PER_NPE);
    let mut b = StimulusBuilder::with_min_interval(0.0);
    let mut t = 0.0;
    let row_blocks: Vec<Range<usize>> = (0..layer.inputs())
        .step_by(MESH_N)
        .map(|r0| r0..(r0 + MESH_N).min(layer.inputs()))
        .collect();
    let last = row_blocks.len() - 1;
    for (rb, rows) in row_blocks.into_iter().enumerate() {
        let slice = Slice {
            layer: 0,
            rows,
            cols: cols.clone(),
            fires: rb == last,
        };
        let sched = enc.next_slice(layer, &slice, active, t);
        for (channel, times) in sched.by_channel() {
            for &time in &times {
                b = b
                    .pulse(&channel, time)
                    .expect("encoder emits monotonic channels");
            }
        }
        t = sched.end_time().max(t) + SETTLE_PS;
    }
    (b.build(), t)
}

/// Runs one job as encode -> build -> inject -> run, each in its span.
fn replay_job(
    rec: &mut Recorder,
    call: SpanId,
    id: u64,
    netlist: &Netlist,
    lib: &CellLibrary,
    layer: &BinaryLayer,
    (cols, active): &Job,
) -> (CellRunResult, SimStats) {
    let width = cols.len();
    let (stim, end_ps) = rec.time("ssnn.slice_encode", Some(call), id, || {
        block_stimulus(layer, cols.clone(), active)
    });
    let mut sim = rec.time("sim.build", Some(call), id, || {
        SimConfig::new().build(netlist, lib)
    });
    rec.time("sim.inject", Some(call), id, || stim.inject_into(&mut sim))
        .expect("chip inputs exist");
    rec.time("sim.run", Some(call), id, || sim.run_to_completion())
        .expect("chip runs");
    let outcome = sim.take_outcome();
    let out_trains: Vec<PulseTrain> = (0..width)
        .map(|cj| PulseTrain::from_times(outcome.pulses(&format!("out{cj}")).to_vec()))
        .collect();
    let result = CellRunResult {
        fired: out_trains.iter().map(|tr| !tr.is_empty()).collect(),
        out_trains,
        violations: outcome.violations.len(),
        end_ps,
    };
    (result, outcome.stats)
}

/// Replays one `run_column_blocks` call with the same chunk plan on
/// `nproc` scoped threads, each recording its own spans.
#[allow(clippy::too_many_arguments)]
fn replay_call(
    main: &mut Recorder,
    trace: &mut Trace,
    sample: usize,
    netlist: &Netlist,
    lib: &CellLibrary,
    layer: &BinaryLayer,
    jobs: &[Job],
    nproc: usize,
) -> Vec<(CellRunResult, SimStats)> {
    let call = main.open("core.run_column_blocks", None, sample as u64);
    let plan = chunk_plan(jobs.len(), nproc);
    let base = (sample * jobs.len()) as u64;
    let workers: Vec<Recorder> = plan.iter().map(|_| main.child()).collect();
    let mut out: Vec<Vec<(CellRunResult, SimStats)>> = Vec::new();
    let mut recs = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .zip(workers)
            .map(|(r, mut rec)| {
                let chunk = &jobs[r.clone()];
                let start = r.start as u64;
                scope.spawn(move || {
                    let results = chunk
                        .iter()
                        .enumerate()
                        .map(|(j, job)| {
                            replay_job(&mut rec, call, base + start + j as u64, netlist, lib, layer, job)
                        })
                        .collect::<Vec<_>>();
                    (results, rec)
                })
            })
            .collect();
        for h in handles {
            let (results, rec) = h.join().expect("replay worker panicked");
            out.push(results);
            recs.push(rec);
        }
    });
    main.close(call);
    for rec in recs {
        trace.absorb(rec);
    }
    out.into_iter().flatten().collect()
}

/// The traced run: the same flow through the public layer calls, checked
/// bitwise against the untraced call.
pub fn traced(seed: u64, nproc: usize, main: &mut Recorder, trace: &mut Trace, report: &mut Report) {
    let lib = CellLibrary::nb03();
    let reps = 3;
    let chip_build = median(
        &(0..reps)
            .map(|_| {
                let (nl, dt) = timed(|| {
                    main.time("arch.chip_netlist_build", None, 0, || {
                        ChipConfig::mesh(MESH_N)
                            .with_sc_per_npe(SC_PER_NPE)
                            .build()
                            .build_netlist()
                    })
                });
                drop(nl.expect("chip netlist builds"));
                dt.as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let board_build = median(
        &(0..reps)
            .map(|_| {
                let (nl, dt) = timed(|| {
                    main.time("arch.mesh_netlist_build", None, 0, || {
                        npe_mesh(BOARD_NPES, BOARD_SCS)
                    })
                });
                drop(nl.expect("board netlist builds"));
                dt.as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let s = setup(seed, nproc);
    let mut plan = None;
    let plan_s = median(
        &(0..reps)
            .map(|_| {
                let (p, dt) = timed(|| {
                    main.time("sim.partition.plan", None, 0, || {
                        let k = PartitionPlan::suggest_k(&s.board, nproc);
                        PartitionPlan::plan(&s.board, k)
                    })
                });
                plan = p;
                dt.as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    report.metric("arch.chip_netlist_build_s", chip_build, "s");
    report.metric("arch.mesh_netlist_build_s", board_build, "s");
    report.metric("sim.partition.plan_s", plan_s, "s");
    report.metric("sim.partition.k", s.k as f64, "count");
    report.metric(
        "sim.partition.cut_wires",
        plan.as_ref().map_or(0.0, |p| p.cut_wires as f64),
        "count",
    );
    report.metric(
        "sim.partition.lookahead_ps",
        plan.as_ref().map_or(0.0, |p| p.lookahead_ps),
        "ps",
    );

    // One pass untraced, one replayed, one with the pool report.
    let opts = EvalOptions::new().workers(nproc);
    let (untraced, untraced_dt) = timed(|| {
        s.jobs
            .iter()
            .map(|jobs| {
                s.chip
                    .run_column_blocks(&s.layer, jobs, &opts)
                    .expect("chip runs")
                    .results
            })
            .collect::<Vec<_>>()
    });
    let chip_nl = ChipConfig::mesh(MESH_N)
        .with_sc_per_npe(SC_PER_NPE)
        .build()
        .build_netlist()
        .expect("chip netlist builds");
    let mut calls = main.child();
    let (replayed, replay_dt) = timed(|| {
        s.jobs
            .iter()
            .enumerate()
            .map(|(sample, jobs)| {
                replay_call(
                    &mut calls,
                    trace,
                    sample,
                    &chip_nl.netlist,
                    &lib,
                    &s.layer,
                    jobs,
                    nproc,
                )
            })
            .collect::<Vec<_>>()
    });
    trace.absorb(calls);
    let mut job_totals = SimTotals::default();
    let mut digests = Vec::new();
    for (sample, (plain, replay)) in untraced.iter().zip(&replayed).enumerate() {
        let results: Vec<CellRunResult> = replay.iter().map(|(r, _)| r.clone()).collect();
        for (_, stats) in replay {
            job_totals.add(stats, &lib);
        }
        let same = *plain == results;
        report.tally.check(same);
        if !same {
            report.note(format!("verify sample {sample}: replay differs from run_column_blocks"));
        }
        digests.push(digest(plain));
    }
    let mut utilization = Vec::new();
    for (jobs, plain) in s.jobs.iter().zip(&untraced) {
        let run = s
            .chip
            .run_column_blocks(&s.layer, jobs, &opts.clone().report(true))
            .expect("chip runs");
        report.tally.check(run.results == *plain);
        utilization.push(run.report.map_or(0.0, |r| r.utilization));
    }
    check_golden(report, seed, "job results and statistics", |g| {
        g.jobs_digest == pass_digest(&digests) && g.jobs == job_totals
    });

    let run_s = trace.total_s("sim.run");
    report.metric("ssnn.slice_encode_s", trace.total_s("ssnn.slice_encode"), "s");
    report.metric("sim.build_s", trace.total_s("sim.build"), "s");
    report.metric("sim.inject_s", trace.total_s("sim.inject"), "s");
    report.metric("sim.run_s", run_s, "s");
    report.metric("sim.events", job_totals.events as f64, "count");
    report.metric("sim.pulses_emitted", job_totals.pulses as f64, "count");
    report.metric("sim.ns_per_event", run_s * 1e9 / job_totals.events.max(1) as f64, "ns");
    report.metric("sim.batch.utilization", median(&utilization), "ratio");
    report.metric("core.verify_overhead_s", trace.self_s("core.run_column_blocks"), "s");
    report.metric(
        "trace.verify.overhead_s",
        replay_dt.as_secs_f64() - untraced_dt.as_secs_f64(),
        "s",
    );

    // The board: sequential and partitioned, which must agree bitwise.
    let mut seq = Vec::new();
    let mut par = Vec::new();
    let mut board = None;
    for _ in 0..reps {
        let (a, dt) = main.time("sim.mesh.sequential_run", None, 0, || board_run(&s, &lib, 1));
        seq.push(dt.as_secs_f64());
        let (b, dt) = main.time("sim.mesh.partitioned_run", None, 0, || {
            board_run(&s, &lib, s.k)
        });
        par.push(dt.as_secs_f64());
        report.tally.check(a == b && a.violations.is_empty());
        board = Some(totals(&b, &lib));
    }
    let board = board.expect("board ran");
    check_golden(report, seed, "board statistics", |g| g.board == board);
    let (seq, par) = (median(&seq), median(&par));
    report.metric("sim.mesh.sequential_run_s", seq, "s");
    report.metric("sim.mesh.partitioned_run_s", par, "s");
    report.metric("sim.mesh.partition_speedup", seq / par, "x");
    report.note(format!(
        "sim.mesh.partition_speedup = sequential / partitioned run of the same board \
         (base: the sequential engine), k={} on nproc={nproc}",
        s.k
    ));
}

/// Computes the recorded values for seeds `0..count` (the contents of
/// `golden/verify.json`), one seed per line.
pub fn record_golden(count: u64, nproc: usize) -> String {
    let lib = CellLibrary::nb03();
    let seeds: Vec<String> = (0..count)
        .map(|seed| {
            let s = setup(seed, nproc);
            let chip_nl = ChipConfig::mesh(MESH_N)
                .with_sc_per_npe(SC_PER_NPE)
                .build()
                .build_netlist()
                .expect("chip netlist builds");
            let mut rec = Recorder::new(Instant::now());
            let call = rec.open("record", None, 0);
            let mut jobs = SimTotals::default();
            let digests: Vec<u64> = s
                .jobs
                .iter()
                .map(|sample| {
                    let results: Vec<CellRunResult> = sample
                        .iter()
                        .map(|job| {
                            let (r, stats) =
                                replay_job(&mut rec, call, 0, &chip_nl.netlist, &lib, &s.layer, job);
                            jobs.add(&stats, &lib);
                            r
                        })
                        .collect();
                    let expected: Vec<Vec<bool>> = sample
                        .iter()
                        .map(|(cols, active)| s.chip.expected_column_block(&s.layer, cols.clone(), active))
                        .collect();
                    let bad = job_failures(&results, &expected);
                    if bad > 0 {
                        eprintln!("seed {seed}: {bad} jobs fail verification");
                    }
                    digest(&results)
                })
                .collect();
            let (outcome, _) = board_run(&s, &lib, 1);
            let g = Golden {
                jobs_digest: pass_digest(&digests),
                jobs,
                board: totals(&outcome, &lib),
            };
            format!("\"{seed}\": {}", g.to_json())
        })
        .collect();
    format!("{{\"seeds\": {{\n{}\n}}}}", seeds.join(",\n"))
}
