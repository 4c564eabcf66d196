//! End-to-end tests of the serving layer: determinism against offline
//! inference, the work-conserving default and both triggers of an
//! opt-in hold, backpressure, shutdown drain, the socket front end and
//! the load generator.

use std::time::Duration;

use sushi_serve::loadgen;
use sushi_serve::{ServeConfig, ServeError, Server};
use sushi_ssnn::{PackedLayer, PackedSnn, BITPLANE_MIN_LANES};

/// A deterministic 32-16-10 packed network (xorshift weights, the same
/// recipe as the benchmark fixtures, scaled down for test speed).
fn test_net(seed: u64) -> PackedSnn {
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
                0 => 0,
                1..=3 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| (next() % 9) as i64 - 4).collect();
        PackedLayer::from_parts(&signs, ins, outs, &thresholds)
    };
    PackedSnn::from_layers(vec![layer(32, 16), layer(16, 10)])
}

/// Deterministic ~30%-dense spike images, `frames` frames each.
fn spike_images(seed: u64, count: usize, width: usize, frames: usize) -> Vec<Vec<Vec<bool>>> {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    (0..count)
        .map(|_| {
            (0..frames)
                .map(|_| (0..width).map(|_| next() % 10 < 3).collect())
                .collect()
        })
        .collect()
}

#[test]
fn served_predictions_match_offline_batch_bitwise() {
    let snn = test_net(0xBEEF);
    let images = spike_images(0xACED, 64, snn.input_width(), 4);
    let offline = snn.predict_batch(&images, 1);

    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(8)
            .max_delay(Duration::from_millis(1))
            .workers(1),
    );
    let handle = server.handle();
    // Hammer from several client threads so requests actually coalesce.
    let served: Vec<usize> = std::thread::scope(|scope| {
        let chunks: Vec<_> = images
            .chunks(16)
            .map(|chunk| {
                let h = handle.clone();
                scope.spawn(move || -> Vec<usize> {
                    chunk
                        .iter()
                        .map(|img| h.predict(img.clone()).expect("serve ok").class)
                        .collect()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served, offline);
    let stats = server.stats();
    assert_eq!(stats.served, images.len() as u64);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn bitplane_served_classes_match_offline_batch_bitwise() {
    let snn = test_net(0xB17);
    let per_client = 6;
    let images = spike_images(
        0xB17E,
        BITPLANE_MIN_LANES * per_client,
        snn.input_width(),
        4,
    );
    let offline = snn.predict_batch(&images, 1);
    // One sequential client per lane, one shard and a hold no test
    // outlives: only the size trigger dispatches, so every micro-batch
    // is exactly `BITPLANE_MIN_LANES` deep and takes the bitplane path.
    // test_net's negative thresholds make pad-lane masking observable if
    // it broke.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(BITPLANE_MIN_LANES)
            .max_delay(Duration::from_secs(60))
            .shards(1)
            .executors(1),
    );
    let handle = server.handle();
    let served: Vec<usize> = std::thread::scope(|scope| {
        let chunks: Vec<_> = images
            .chunks(per_client)
            .map(|chunk| {
                let h = handle.clone();
                scope.spawn(move || -> Vec<usize> {
                    chunk
                        .iter()
                        .map(|img| h.predict(img.clone()).expect("serve ok").class)
                        .collect()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served, offline);
    let stats = server.stats();
    assert_eq!(stats.served, images.len() as u64);
    assert!(stats.batches > 0);
    assert_eq!(
        stats.bitplane_batches, stats.batches,
        "every micro-batch took the bitplane path"
    );
}

#[test]
fn packed_backend_never_takes_the_bitplane_path() {
    let snn = test_net(0x9ACD);
    let images = spike_images(0x9A5, 8, snn.input_width(), 2);
    let offline = snn.predict_batch(&images, 1);
    // A batch can never reach the bitplane depth.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(BITPLANE_MIN_LANES - 1)
            .max_delay(Duration::from_millis(1))
            .workers(1),
    );
    let handle = server.handle();
    let served: Vec<usize> = images
        .iter()
        .map(|img| handle.predict(img.clone()).expect("serve ok").class)
        .collect();
    assert_eq!(served, offline);
    assert_eq!(server.stats().bitplane_batches, 0);
}

#[test]
fn size_trigger_coalesces_full_batches() {
    let snn = test_net(0x51CE);
    let images = spike_images(0x0DD, 4, snn.input_width(), 2);
    // A huge deadline: only the size trigger can dispatch. One shard so
    // all four requests coalesce on the same queue.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(4)
            .max_delay(Duration::from_secs(60))
            .shards(1)
            .executors(1),
    );
    let handle = server.handle();
    let batch_sizes: Vec<usize> = std::thread::scope(|scope| {
        let clients: Vec<_> = images
            .iter()
            .map(|img| {
                let h = handle.clone();
                scope.spawn(move || h.predict(img.clone()).expect("serve ok").batch_size)
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    // All four clients were served by the one size-triggered batch.
    assert_eq!(batch_sizes, vec![4, 4, 4, 4]);
    assert_eq!(server.stats().batches, 1);
}

#[test]
fn deadline_trigger_dispatches_partial_batch() {
    let snn = test_net(0xDEAD);
    let image = spike_images(0x123, 1, snn.input_width(), 2).remove(0);
    // Size trigger unreachable with one client; only the deadline fires.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(1024)
            .max_delay(Duration::from_millis(5))
            .workers(1),
    );
    let handle = server.handle();
    let start = std::time::Instant::now();
    let p = handle.predict(image).expect("serve ok");
    assert_eq!(p.batch_size, 1);
    // Generous bound: the request must not wait for the size trigger.
    assert!(start.elapsed() < Duration::from_secs(30));
}

#[test]
fn default_zero_hold_dispatches_a_lone_request_at_once() {
    let snn = test_net(0x2E50);
    let images = spike_images(0x2E51, 100, snn.input_width(), 2);
    // One sequential client never fills a batch, so under a 2 ms hold
    // each request would wait out the deadline and the loop would take
    // at least the 200 ms bound below.
    let server = Server::start(snn, ServeConfig::new().shards(1).executors(1));
    let handle = server.handle();
    let start = std::time::Instant::now();
    for img in &images {
        let p = handle.predict(img.clone()).expect("serve ok");
        assert_eq!(p.batch_size, 1);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "100 sequential requests took {elapsed:?}: the default held them"
    );
}

#[test]
fn full_queue_sheds_with_structured_error() {
    let snn = test_net(0xFADE);
    let images = spike_images(0x77, 3, snn.input_width(), 2);
    // Size trigger (5) and deadline (60 s) both out of reach: the two
    // admitted requests sit in the queue until shutdown drains them, so
    // the third request deterministically finds the queue full.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(5)
            .max_delay(Duration::from_secs(60))
            .queue_capacity(2)
            .workers(1),
    );
    let handle = server.handle();
    let outcomes: Vec<Result<_, ServeError>> = std::thread::scope(|scope| {
        let h0 = handle.clone();
        let img0 = images[0].clone();
        let c0 = scope.spawn(move || h0.predict(img0));
        let h1 = handle.clone();
        let img1 = images[1].clone();
        let c1 = scope.spawn(move || h1.predict(img1));
        // Wait until both requests are actually queued.
        let wait_start = std::time::Instant::now();
        while handle.queue_depth() < 2 {
            assert!(
                wait_start.elapsed() < Duration::from_secs(10),
                "queue never filled"
            );
            std::thread::yield_now();
        }
        let shed = handle.predict(images[2].clone());
        assert_eq!(
            shed,
            Err(ServeError::Overloaded {
                depth: 2,
                capacity: 2
            })
        );
        // Shutdown drains the two admitted requests.
        drop(server);
        vec![c0.join().expect("client"), c1.join().expect("client")]
    });
    assert!(
        outcomes.iter().all(Result::is_ok),
        "admitted requests are still served"
    );
}

#[test]
fn wrong_frame_width_is_rejected_before_queueing() {
    let snn = test_net(0xF00D);
    let server = Server::start(snn, ServeConfig::new().workers(1));
    let handle = server.handle();
    let err = handle.predict(vec![vec![true; 7]]).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)));
    assert_eq!(server.stats().admitted, 0);
}

#[test]
fn zero_max_batch_config_still_serves() {
    let snn = test_net(0x2E40);
    let image = spike_images(0x2E41, 1, snn.input_width(), 2).remove(0);
    let want = snn.predict(&image);
    // The fields are public, so a struct literal skips the builder's
    // clamp to 1.
    let server = Server::start(
        snn,
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::new().shards(1).executors(1)
        },
    );
    let handle = server.handle();
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let _ = tx.send(handle.predict(image));
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(served) => {
            client.join().expect("client thread");
            let p = served.expect("serve ok");
            assert_eq!(p.class, want);
            assert_eq!(p.batch_size, 1);
        }
        Err(_) => {
            // Dropping the server would join an executor that never
            // drains the request, hanging the test instead of failing
            // it; the client stays blocked with it.
            std::mem::forget(server);
            panic!("a max_batch 0 config left its request waiting");
        }
    }
}

#[test]
fn shutdown_drains_admitted_requests_and_stops_admission() {
    let snn = test_net(0xD00F);
    let images = spike_images(0x42, 6, snn.input_width(), 2);
    let offline = snn.predict_batch(&images, 1);
    let mut server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(3)
            .max_delay(Duration::from_millis(1))
            .workers(1),
    );
    let handle = server.handle();
    let served: Vec<usize> = std::thread::scope(|scope| {
        let clients: Vec<_> = images
            .iter()
            .map(|img| {
                let h = handle.clone();
                scope.spawn(move || h.predict(img.clone()).expect("pre-shutdown ok").class)
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served, offline);
    server.shutdown();
    let err = handle.predict(images[0].clone()).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    server.shutdown(); // idempotent
}

#[cfg(unix)]
#[test]
fn socket_round_trip_matches_in_process_serving() {
    use sushi_serve::socket::{SocketClient, SocketServer};

    let snn = test_net(0xCAFE);
    let images = spike_images(0x99, 10, snn.input_width(), 3);
    let offline = snn.predict_batch(&images, 1);
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(4)
            .max_delay(Duration::from_millis(1))
            .workers(1),
    );
    let path = std::env::temp_dir().join(format!("sushi-serve-test-{}.sock", std::process::id()));
    let socket = SocketServer::bind(&path, server.handle()).expect("bind socket");
    let mut client = SocketClient::connect(socket.path()).expect("connect");
    for (img, &want) in images.iter().zip(&offline) {
        let p = client.predict(img).expect("io ok").expect("served");
        assert_eq!(p.class, want);
        assert!(p.batch_size >= 1);
    }
    drop(socket);
    assert!(!path.exists(), "socket file removed on drop");
}

#[test]
fn loadgen_closed_loop_smoke() {
    let snn = test_net(0xABCD);
    let images = spike_images(0x31337, 8, snn.input_width(), 2);
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(8)
            .max_delay(Duration::from_micros(200))
            .workers(1),
    );
    let report = loadgen::closed_loop(&server.handle(), &images, 2, Duration::from_millis(100));
    assert_eq!(report.mode, "closed");
    assert!(report.ok > 0, "closed loop served something");
    assert_eq!(report.ok + report.rejected, report.sent);
    assert!(report.images_per_s > 0.0);
    assert!(report.latency.p99_us >= report.latency.p50_us);
    // The JSON rendering is what bench.sh assembles into BENCH_serve.json.
    let json = report.to_json().to_string();
    assert!(json.contains("\"p99_us\""));
    assert!(json.contains("\"images_per_s\""));
}

#[test]
fn loadgen_open_loop_measures_from_scheduled_arrival() {
    let snn = test_net(0x7777);
    let images = spike_images(0x2222, 4, snn.input_width(), 2);
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(8)
            .max_delay(Duration::from_micros(200))
            .workers(1),
    );
    let report = loadgen::open_loop(
        &server.handle(),
        &images,
        500.0,
        Duration::from_millis(100),
        2,
    );
    assert_eq!(report.mode, "open");
    assert_eq!(report.sent, 50, "rate x duration arrivals were scheduled");
    assert_eq!(report.ok + report.rejected, report.sent);
}

#[test]
fn predict_packed_round_trips_payload_and_matches_predict() {
    use sushi_serve::PackedRequest;

    let snn = test_net(0x9ACC);
    let images = spike_images(0x5151, 6, snn.input_width(), 3);
    let offline = snn.predict_batch(&images, 1);
    let width = snn.input_width();
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(2)
            .max_delay(Duration::from_micros(200))
            .shards(2)
            .executors(1),
    );
    let handle = server.handle();
    for (img, &want) in images.iter().zip(&offline) {
        let mut req = PackedRequest::from_bool_frames(width, img);
        let before = req.clone();
        let p = handle.predict_packed(&mut req).expect("serve ok");
        assert_eq!(p.class, want);
        assert_eq!(req, before, "payload swapped back intact");
    }

    // Width mismatch (including the empty request, which must still
    // carry the network width) is rejected before queueing.
    let mut wrong = PackedRequest::new();
    wrong.reset(width + 1);
    assert!(matches!(
        handle.predict_packed(&mut wrong).unwrap_err(),
        ServeError::BadRequest(_)
    ));
    // An empty request of the right width is served (all-zero counts).
    let mut empty = PackedRequest::new();
    empty.reset(width);
    assert_eq!(
        handle.predict_packed(&mut empty).expect("serve ok").class,
        0
    );
}

#[test]
fn executors_steal_ripe_batches_from_foreign_shards() {
    let snn = test_net(0x57EA);
    let images = spike_images(0x57EB, 8, snn.input_width(), 2);
    let offline = snn.predict_batch(&images, 1);
    // One executor whose home is shard 0; every request is pinned to
    // shard 3, so each dispatched batch is necessarily stolen.
    let server = Server::start(
        snn,
        ServeConfig::new()
            .max_batch(4)
            .max_delay(Duration::from_micros(100))
            .shards(4)
            .executors(1),
    );
    let handle = server.handle().with_affinity(3);
    let served: Vec<usize> = images
        .iter()
        .map(|img| handle.predict(img.clone()).expect("serve ok").class)
        .collect();
    assert_eq!(served, offline);
    let stats = server.stats();
    assert_eq!(stats.served, images.len() as u64);
    assert_eq!(
        stats.stolen_batches, stats.batches,
        "every batch came from a non-home shard"
    );
}

mod shard_executor_grid {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The tentpole invariant: served classes are bitwise identical
        /// to offline `predict_batch` for every shard x executor
        /// combination, under the default zero hold and an opt-in hold,
        /// with concurrent clients on both the bool and the packed
        /// submission path.
        #[test]
        fn served_classes_bitwise_equal_offline_for_all_topologies(
            seed in 1u64..u64::MAX,
            count in 1usize..6,
            frames in 1usize..3,
        ) {
            let width = test_net(seed).input_width();
            let images = spike_images(seed ^ 0x6B1D, count, width, frames);
            let offline = test_net(seed).predict_batch(&images, 1);
            for hold in [Duration::ZERO, Duration::from_micros(100)] {
                for &shards in &[1usize, 2, 4] {
                    for &executors in &[1usize, 2, 7] {
                        let server = Server::start(
                            test_net(seed),
                            ServeConfig::new()
                                .max_batch(4)
                                .max_delay(hold)
                                .shards(shards)
                                .executors(executors),
                        );
                        let handle = server.handle();
                        let served: Vec<usize> = std::thread::scope(|scope| {
                            let clients: Vec<_> = images
                                .iter()
                                .enumerate()
                                .map(|(i, img)| {
                                    let h = handle.clone();
                                    scope.spawn(move || {
                                        if i % 2 == 0 {
                                            h.predict(img.clone()).expect("serve ok").class
                                        } else {
                                            let mut req =
                                                sushi_serve::PackedRequest::from_bool_frames(
                                                    width, img,
                                                );
                                            h.predict_packed(&mut req).expect("serve ok").class
                                        }
                                    })
                                })
                                .collect();
                            clients
                                .into_iter()
                                .map(|c| c.join().expect("client thread"))
                                .collect()
                        });
                        prop_assert_eq!(
                            &served,
                            &offline,
                            "hold {:?} shards {} executors {}",
                            hold,
                            shards,
                            executors
                        );
                    }
                }
            }
        }
    }
}
