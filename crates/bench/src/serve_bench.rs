//! Serving-throughput benchmark: drives `sushi-serve` over the paper's
//! 784–800–10 shape with the crate's own load generator and emits the
//! `BENCH_serve.json` payload (assembled and validated by
//! `scripts/bench.sh`).
//!
//! Three scenarios:
//!
//! 1. **serialized** — `max_batch = 1`, one closed-loop client: every
//!    request is its own dispatch; the no-coalescing baseline.
//! 2. **batched** — `max_batch = 32`, 32 closed-loop clients: the
//!    micro-batcher coalesces concurrent requests into engine batches.
//! 3. **overload** — open-loop arrivals at 2x the measured batched
//!    rate: admission control must shed (`rejected > 0`) while the p99
//!    of *served* requests stays bounded by the queue, not the backlog.

use std::time::Duration;

use sushi_serve::loadgen::{self, LoadReport};
use sushi_serve::{ServeConfig, Server};
use sushi_sim::Json;
use sushi_ssnn::{PackedLayer, PackedSnn};

/// Images cycled through by the load generators.
const IMAGES: usize = 64;
/// Poisson time steps per image (matches the table 3 bench).
const FRAMES: usize = 10;

/// The paper's 784–800–10 shape with deterministic pseudorandom signs
/// and thresholds — the same recipe as `table3_inference.rs`, packed
/// directly.
fn paper_shape_packed(seed: u64) -> PackedSnn {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    let mut layer = |ins: usize, outs: usize| {
        let signs: Vec<i8> = (0..ins * outs)
            .map(|_| match next() % 8 {
                0 => 0, // open cross-point switch
                1..=3 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| 4 + (next() % 20) as i64).collect();
        PackedLayer::from_parts(&signs, ins, outs, &thresholds)
    };
    PackedSnn::from_layers(vec![layer(784, 800), layer(800, 10)])
}

/// `IMAGES` deterministic ~30%-dense spike images.
fn spike_images(seed: u64) -> Vec<Vec<Vec<bool>>> {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    (0..IMAGES)
        .map(|_| {
            (0..FRAMES)
                .map(|_| (0..784).map(|_| next() % 10 < 3).collect())
                .collect()
        })
        .collect()
}

fn report_lines(name: &str, r: &LoadReport) -> String {
    format!(
        "  {name:<11} {:>9.0} img/s  p50 {:>8.0} us  p99 {:>8.0} us  ok {:>7}  shed {:>6}",
        r.images_per_s, r.latency.p50_us, r.latency.p99_us, r.ok, r.rejected
    )
}

/// Runs the three scenarios and returns the human-readable table. When
/// the `SERVE_JSON` environment variable names a file, the raw JSON
/// payload is written there for `scripts/bench.sh` to assemble.
pub fn serve_report(quick: bool) -> String {
    let duration = if quick {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(3)
    };
    let host_cpus = sushi_par::host_workers();
    let snn = paper_shape_packed(0xD1CE);
    let images = spike_images(0xACED);
    // Served results must be bitwise identical to offline inference; pin
    // that before timing anything.
    let offline = snn.predict_batch(&images, host_cpus);

    // 1. Serialized baseline: no coalescing possible.
    let server = Server::start(
        snn.clone(),
        ServeConfig::new()
            .max_batch(1)
            .max_delay(Duration::from_micros(50))
            .shards(1)
            .executors(1),
    );
    {
        let handle = server.handle();
        for (img, &want) in images.iter().zip(&offline) {
            assert_eq!(
                handle.predict(img.clone()).expect("serve ok").class,
                want,
                "served prediction diverged from offline batch"
            );
        }
    }
    let serialized = loadgen::closed_loop(&server.handle(), &images, 1, duration);
    drop(server);

    // 2. Micro-batched: 32 concurrent clients, size trigger 32. The
    // queue bound (two full batches) keeps worst-case queueing delay —
    // and with it the overload p99 — small and predictable. Coalesced
    // batches of at least `sushi_ssnn::BITPLANE_MIN_LANES` take the
    // 64-lane bitplane path (`bitplane_batches` reports how many did).
    let shards = host_cpus.min(4);
    let batched_cfg = ServeConfig::new()
        .max_batch(32)
        .max_delay(Duration::from_millis(2))
        .queue_capacity(64)
        .shards(shards)
        .executors(host_cpus);
    let server = Server::start(snn.clone(), batched_cfg.clone());
    let batched = loadgen::closed_loop(&server.handle(), &images, 32, duration);
    let batched_stats = server.stats();
    drop(server);

    // 3. Overload: open-loop arrivals at 2x the measured batched rate.
    // The sender pool is sized well past the queue bound so arrivals keep
    // their schedule even while admitted requests block on the drain —
    // admission control, not generator starvation, does the shedding.
    let target_rate = (2.0 * batched.images_per_s).max(100.0);
    let senders = 4 * batched_cfg.queue_capacity;
    let server = Server::start(snn, batched_cfg);
    let overload = loadgen::open_loop(&server.handle(), &images, target_rate, duration, senders);
    drop(server);

    let speedup = if serialized.images_per_s > 0.0 {
        batched.images_per_s / serialized.images_per_s
    } else {
        0.0
    };

    if let Ok(path) = std::env::var("SERVE_JSON") {
        let payload = Json::obj(vec![
            ("host_cpus", Json::UInt(host_cpus as u64)),
            ("images", Json::UInt(IMAGES as u64)),
            ("frames_per_image", Json::UInt(FRAMES as u64)),
            ("overload_target_rate_per_s", Json::Num(target_rate)),
            ("serialized", serialized.to_json()),
            ("batched", batched.to_json()),
            ("overload", overload.to_json()),
            (
                "headline",
                Json::obj(vec![
                    (
                        "serialized_images_per_s",
                        Json::Num(serialized.images_per_s),
                    ),
                    ("serialized_p50_us", Json::Num(serialized.latency.p50_us)),
                    ("batched_images_per_s", Json::Num(batched.images_per_s)),
                    ("batch_speedup", Json::Num(speedup)),
                    ("shards", Json::UInt(shards as u64)),
                    ("executors", Json::UInt(host_cpus as u64)),
                    ("stolen_batches", Json::UInt(batched_stats.stolen_batches)),
                    (
                        "mean_batch_size",
                        Json::Num(batched_stats.mean_batch_size()),
                    ),
                    (
                        "bitplane_batches",
                        Json::UInt(batched_stats.bitplane_batches),
                    ),
                    ("batched_p99_us", Json::Num(batched.latency.p99_us)),
                    ("overload_rejected", Json::UInt(overload.rejected)),
                    ("overload_p99_us", Json::Num(overload.latency.p99_us)),
                ]),
            ),
        ]);
        std::fs::write(&path, format!("{payload}\n")).expect("write SERVE_JSON");
    }

    let mut out = String::new();
    out.push_str(&format!(
        "serving throughput (sushi-serve, 784-800-10, {host_cpus} cpu):\n"
    ));
    out.push_str(&report_lines("serialized", &serialized));
    out.push('\n');
    out.push_str(&report_lines("batched", &batched));
    out.push('\n');
    out.push_str(&report_lines("overload", &overload));
    out.push('\n');
    out.push_str(&format!(
        "  batch speedup {speedup:.2}x, mean batch {:.1}, bitplane batches {}, overload target {target_rate:.0}/s\n",
        batched_stats.mean_batch_size(),
        batched_stats.bitplane_batches,
    ));
    out.push_str(&format!(
        "  pipeline: {shards} shards x {host_cpus} executors, {} stolen batches",
        batched_stats.stolen_batches,
    ));
    out
}
