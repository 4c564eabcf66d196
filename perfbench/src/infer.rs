//! `infer`: a seeded paper-shape `PackedSnn` served behind
//! `Server::start(ServeConfig::default())` and the Unix-socket front end.
//!
//! Online phase: `nproc` closed-loop `SocketClient` connections, each
//! sending its next request only after the previous reply. Offline
//! phase: the same network classifies a larger image set with the 64-lane
//! bitplane engine on `nproc` workers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sushi_serve::socket::{SocketClient, SocketServer};
use sushi_serve::{PackedRequest, ServeConfig, ServeHandle, Server, ServerStats};
use sushi_ssnn::{argmax_low, BitplaneBatch, BitplaneScratch, PackedFrames, PackedSnn, PredictScratch};

use crate::inputs;
use crate::spans::{Recorder, Trace};
use crate::stats::{median, quiet, Latencies, Stopwatch, Tally};
use crate::{timed, Report};

/// Images served over the socket (cycled) — the first part of the
/// offline set.
const SERVED: usize = 1024;
/// Images classified per offline call.
const OFFLINE: usize = 4096;
/// Share of the measured time spent serving (the rest is offline).
const PHASE1_SHARE: f64 = 0.7;
/// Length of one online window (see [`quiet`]).
const WINDOW: Duration = Duration::from_millis(500);
/// Directory, relative to the working directory, for the socket file.
pub const RUN_DIR: &str = ".bench_run";

/// The network, its inputs, and a running server with connected clients.
/// Fields drop in order: clients hang up, then the socket front end
/// stops, then the server drains and joins its executors.
pub struct Setup {
    clients: Vec<SocketClient>,
    /// Held for its listener; dropping it stops accepting connections.
    _socket: SocketServer,
    server: Server,
    net: PackedSnn,
    frames: Vec<Vec<Vec<bool>>>,
    packed: Vec<PackedFrames>,
}

fn socket_path() -> PathBuf {
    PathBuf::from(RUN_DIR).join(format!("serve-{}.sock", std::process::id()))
}

/// Generates the network and images, starts the server and connects
/// `nproc` clients.
pub fn setup(seed: u64, nproc: usize) -> Setup {
    let net = inputs::pack_network(&inputs::infer_layers(seed));
    let frames = inputs::encode_images(seed, &inputs::digits(seed, OFFLINE));
    let packed = inputs::pack_frames(net.input_width(), &frames);
    let server = Server::start(net.clone(), ServeConfig::default());
    std::fs::create_dir_all(RUN_DIR).expect("create the run directory");
    let socket = SocketServer::bind(socket_path(), server.handle()).expect("bind the socket");
    let clients = (0..nproc)
        .map(|_| SocketClient::connect(socket.path()).expect("connect to the socket"))
        .collect();
    Setup {
        clients,
        _socket: socket,
        server,
        net,
        frames,
        packed,
    }
}

/// Per-client outcome of a closed-loop phase.
#[derive(Default)]
struct Load {
    lat: Latencies,
    tally: Tally,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.lat.extend(&other.lat);
        self.tally.merge(other.tally);
    }
}

/// Runs every client in a closed loop on its own thread until `stop`
/// says so; client `c` sends images `c, c + n, c + 2n, ...` of the
/// served set. `trace` wraps each request in a span.
fn socket_phase(
    s: &mut Setup,
    expected: &[usize],
    stop: impl Fn(usize, Instant) -> bool + Sync,
    trace: Option<&Recorder>,
) -> (Load, Vec<Recorder>) {
    let n = s.clients.len();
    let frames = &s.frames;
    let stop = &stop;
    let mut total = Load::default();
    let mut recs = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut rec = trace.map(Recorder::child);
                scope.spawn(move || {
                    let mut load = Load::default();
                    let start = Instant::now();
                    let mut sent = 0;
                    while !stop(sent, start) {
                        let img = (c + sent * n) % SERVED;
                        let request = sent * n + c;
                        let span = rec
                            .as_mut()
                            .map(|r| r.open("serve.socket.request", None, request as u64));
                        let (reply, dt) = timed(|| client.predict(&frames[img]));
                        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
                            r.close(id);
                        }
                        load.lat.push(dt);
                        load.tally
                            .check(matches!(reply, Ok(Ok(p)) if p.class == expected[img]));
                        sent += 1;
                    }
                    (load, rec)
                })
            })
            .collect();
        for h in handles {
            let (load, rec) = h.join().expect("client thread panicked");
            total.merge(load);
            recs.extend(rec);
        }
    });
    (total, recs)
}

/// The timed run.
pub fn run(seed: u64, secs: f64, nproc: usize) -> Report {
    let (mut s, setup_s) = crate::repeated_setup(|| setup(seed, nproc));
    let expected = s.net.predict_batch(&s.frames, nproc);
    let mut report = Report::new(setup_s);

    let phase1 = Duration::from_secs_f64(secs * PHASE1_SHARE);
    let t0 = Instant::now();
    let mut windows = Vec::new();
    while windows.is_empty() || t0.elapsed() < phase1 {
        let sw = Stopwatch::start();
        let (load, _) = socket_phase(&mut s, &expected, |_, start| start.elapsed() >= WINDOW, None);
        report.tally.merge(load.tally);
        windows.push(sw.window(load.lat.len() as f64, load.lat));
    }

    let mut calls = Vec::new();
    let t1 = Instant::now();
    let phase2 = Duration::from_secs_f64(secs * (1.0 - PHASE1_SHARE));
    while calls.len() < 4 || t1.elapsed() < phase2 {
        let sw = Stopwatch::start();
        let preds = s.net.predict_batch_bitplane_packed(&s.packed, nproc);
        calls.push(sw.window(preds.len() as f64, Latencies::default()));
        let bad = preds.iter().zip(&expected).filter(|(a, b)| a != b).count();
        report.tally.record(preds.len() as u64, bad as u64);
    }

    let (served, bulk) = (quiet(&windows), quiet(&calls));
    report.main_phase(&served);
    report.bulk(&bulk);
    report.note(format!(
        "throughput_per_s = images/s served over the socket by {nproc} closed-loop \
         connections over the fastest {} of {} windows of {} ms; p50/tail = one request's \
         round trip in those windows; bulk_per_s = images/s of \
         predict_batch_bitplane_packed over {OFFLINE} images on {nproc} workers, fastest \
         {} of {} calls",
        served.kept,
        served.windows,
        WINDOW.as_millis(),
        bulk.kept,
        bulk.windows
    ));
    report
}

/// Median per-call time in µs of `f` over `reps` calls.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| timed(&mut f).1.as_secs_f64() * 1e6).collect();
    median(&v)
}

/// Closed-loop load straight on the in-process handle, with the same
/// client count and shard pinning as the socket front end.
fn handle_phase(
    handle: &ServeHandle,
    packed: &[PackedFrames],
    expected: &[usize],
    nproc: usize,
    budget: Duration,
    main: &Recorder,
) -> (Load, Vec<Recorder>) {
    let mut total = Load::default();
    let mut recs = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                let h = handle.clone().with_affinity(c);
                let mut rec = main.child();
                scope.spawn(move || {
                    let mut load = Load::default();
                    let mut request = PackedRequest::new();
                    let start = Instant::now();
                    let mut sent = 0;
                    while start.elapsed() < budget {
                        let img = (c + sent * nproc) % SERVED;
                        request.clone_from(&packed[img]);
                        let id = (sent * nproc + c) as u64;
                        let (reply, dt) = timed(|| {
                            rec.time("serve.handle.request", None, id, || h.predict_packed(&mut request))
                        });
                        load.lat.push(dt);
                        load.tally
                            .check(matches!(reply, Ok(p) if p.class == expected[img]));
                        sent += 1;
                    }
                    (load, rec)
                })
            })
            .collect();
        for h in handles {
            let (load, rec) = h.join().expect("handle client panicked");
            total.merge(load);
            recs.push(rec);
        }
    });
    (total, recs)
}

fn stats_delta(before: ServerStats, after: ServerStats) -> ServerStats {
    ServerStats {
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        served: after.served - before.served,
        batches: after.batches - before.batches,
        bitplane_batches: after.bitplane_batches - before.bitplane_batches,
        stolen_batches: after.stolen_batches - before.stolen_batches,
        max_queue_depth: after.max_queue_depth,
    }
}

/// The traced run: the engine, the handle and the socket measured in
/// turn, every served class checked against the offline engine.
pub fn traced(
    seed: u64,
    budget: Duration,
    nproc: usize,
    main: &mut Recorder,
    trace: &mut Trace,
    report: &mut Report,
) {
    let layers = inputs::infer_layers(seed);
    let pack_s = per_call_us(3, || {
        main.time("ssnn.pack", None, 0, || drop(inputs::pack_network(&layers)))
    }) * 1e-6;
    let start_s = per_call_us(3, || {
        let net = inputs::pack_network(&layers);
        let mut server = main.time("serve.start", None, 0, || {
            Server::start(net, ServeConfig::default())
        });
        server.shutdown();
    }) * 1e-6;
    report.metric("ssnn.pack_s", pack_s, "s");
    report.metric("serve.start_s", start_s, "s");

    let mut s = setup(seed, nproc);
    let expected = s.net.predict_batch(&s.frames, nproc);
    let served = &s.packed[..SERVED];

    // Engine: per-image packed, and bitplane at 1, 2 and 64 lanes.
    let mut scratch = PredictScratch::new();
    let mut rec = main.child();
    let mut classes = Vec::with_capacity(SERVED);
    let packed_us = per_call_us(3, || {
        classes.clear();
        for (i, item) in served.iter().enumerate() {
            let c = rec.time("ssnn.packed.image", None, i as u64, || {
                s.net.predict_packed_with(item, &mut scratch)
            });
            classes.push(c);
        }
    }) / SERVED as f64;
    report.tally.check(classes == expected[..SERVED]);
    let mut bp = BitplaneScratch::new();
    let mut counts: Vec<Vec<u32>> = vec![Vec::new(); 64];
    let mut lanes_us = |lanes: usize, name: &'static str, rec: &mut Recorder, tally: &mut Tally| {
        let mut got = Vec::with_capacity(SERVED);
        let us = per_call_us(3, || {
            got.clear();
            for (g, group) in served.chunks(lanes).enumerate() {
                let c = &mut counts[..group.len()];
                rec.time(name, None, g as u64, || {
                    s.net.bitplane_group_counts_packed(group, &mut bp, c)
                });
                got.extend(c.iter().map(|c| argmax_low(c)));
            }
        }) / SERVED as f64;
        tally.check(got == expected[..SERVED]);
        us
    };
    let lanes1 = lanes_us(1, "ssnn.bitplane.lanes1", &mut rec, &mut report.tally);
    let lanes2 = lanes_us(2, "ssnn.bitplane.lanes2", &mut rec, &mut report.tally);
    let lanes64 = lanes_us(64, "ssnn.bitplane.lanes64", &mut rec, &mut report.tally);
    let groups: Vec<Vec<&[u64]>> = served
        .chunks(64)
        .flat_map(|g| (0..inputs::TIME_STEPS).map(move |t| g.iter().map(|p| p.frame(t)).collect()))
        .collect();
    let width = s.net.input_width();
    let transpose_us = per_call_us(3, || {
        for (i, words) in groups.iter().enumerate() {
            let b = rec.time("ssnn.bitplane.transpose", None, i as u64, || {
                BitplaneBatch::from_packed_frames(width, words)
            });
            drop(std::hint::black_box(b));
        }
    }) / groups.len() as f64;
    trace.absorb(rec);
    report.metric("ssnn.packed.image_us", packed_us, "us");
    report.metric("ssnn.bitplane.lanes1_us", lanes1, "us");
    report.metric("ssnn.bitplane.lanes2_us", lanes2, "us");
    report.metric("ssnn.bitplane.lanes64_us", lanes64, "us");
    report.metric("ssnn.bitplane.transpose_us", transpose_us, "us");

    // Handle, then socket: untraced once and traced once with the same
    // request count, so the difference is the tracing overhead.
    let phase = budget / 3;
    let (handle_load, recs) = handle_phase(
        &s.server.handle(),
        served,
        &expected,
        nproc,
        phase,
        main,
    );
    for r in recs {
        trace.absorb(r);
    }
    report.tally.merge(handle_load.tally);
    let handle = handle_load.lat.summary().expect("enough handle requests");

    let (plain, plain_dt) = timed(|| {
        socket_phase(&mut s, &expected, |_, start| start.elapsed() >= phase, None).0
    });
    report.tally.merge(plain.tally);
    let per_client = plain.lat.len() / nproc;
    let before = s.server.stats();
    let ((traced_load, recs), traced_dt) = timed(|| {
        socket_phase(&mut s, &expected, |sent, _| sent >= per_client, Some(main))
    });
    let delta = stats_delta(before, s.server.stats());
    for r in recs {
        trace.absorb(r);
    }
    report.tally.merge(traced_load.tally);
    let socket = traced_load.lat.summary().expect("enough socket requests");
    let plain_s = plain_dt.as_secs_f64() * (per_client * nproc) as f64 / plain.lat.len() as f64;

    report.metric("serve.handle.p50_us", handle.p50_us, "us");
    report.metric("serve.handle.p99_us", handle.tail_us, "us");
    report.metric("serve.socket_overhead_us", socket.p50_us - handle.p50_us, "us");
    report.metric("serve.queue_wait_us", handle.p50_us - packed_us, "us");
    report.metric("serve.batches", delta.batches as f64, "count");
    report.metric("serve.mean_batch_size", delta.mean_batch_size(), "count");
    report.metric("serve.bitplane_batches", delta.bitplane_batches as f64, "count");
    report.metric("serve.stolen_batches", delta.stolen_batches as f64, "count");
    report.metric("serve.rejected", delta.rejected as f64, "count");
    report.metric("serve.max_queue_depth", delta.max_queue_depth as f64, "count");
    report.metric("trace.infer.overhead_s", traced_dt.as_secs_f64() - plain_s, "s");
    report.note(format!(
        "serve.handle.p99_us is the p{} of {} handle requests; socket p50 {:.1} us over {} \
         requests; ServerStats deltas cover the traced socket phase ({} served); \
         max_queue_depth is the server's running maximum",
        handle.tail_p, handle.count, socket.p50_us, socket.count, delta.served
    ));
}
