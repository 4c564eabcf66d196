//! The batch depth picks the engine: one network, three bitwise-identical
//! ways to run it.
//!
//! 1. Offline: the scalar oracle, the per-image packed engine and the
//!    64-lane bitplane engine classify the same images, and must agree.
//! 2. Served: eight clients each send their share of the images in turn
//!    to a server whose size trigger is `BITPLANE_MIN_LANES`, so every
//!    micro-batch is that deep and runs on the bitplane engine. The
//!    served classes must equal the offline ones.
//!
//! Run with: `cargo run --release -p sushi-serve --example serve_backends`

use std::time::Duration;

use sushi_serve::{PackedRequest, ServeConfig, Server};
use sushi_ssnn::{BinarizedSnn, BinaryLayer, PackedSnn, BITPLANE_MIN_LANES};

fn main() {
    // --- A small deterministic 64-32-10 network ----------------------
    let mut st = 0x5E_EDu64;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    let mut layer = |ins: usize, outs: usize| {
        let signs: Vec<i8> = (0..ins * outs)
            .map(|_| match next() % 5 {
                0 => 0,
                1 | 2 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| 1 + (next() % 6) as i64).collect();
        BinaryLayer::from_signs(signs, ins, outs, thresholds)
    };
    let net = BinarizedSnn::from_layers(vec![layer(64, 32), layer(32, 10)]);
    let packed = PackedSnn::from_network(&net);
    let images: Vec<Vec<Vec<bool>>> = (0..96)
        .map(|_| {
            (0..6)
                .map(|_| (0..64).map(|_| next() % 4 == 0).collect())
                .collect()
        })
        .collect();
    let requests: Vec<PackedRequest> = images
        .iter()
        .map(|img| PackedRequest::from_bool_frames(64, img))
        .collect();

    // --- 1. Offline: every engine agrees -----------------------------
    let reference: Vec<usize> = images.iter().map(|img| net.predict_scalar(img)).collect();
    let per_image = packed.predict_batch_packed(&requests, 1);
    let bitplane = packed.predict_batch_bitplane_packed(&requests, 1);
    assert_eq!(per_image, reference, "per-image packed == scalar oracle");
    assert_eq!(bitplane, reference, "bitplane == scalar oracle");
    println!("offline: {} images, every engine agrees", images.len());
    println!("  first 8 classes: {:?}", &reference[..8]);

    // --- 2. Served: deep batches take the bitplane engine ------------
    let clients = 8;
    let server = Server::start(
        packed,
        ServeConfig::new()
            .max_batch(BITPLANE_MIN_LANES)
            .max_delay(Duration::from_secs(60))
            .shards(1)
            .executors(1),
    );
    let handle = server.handle();
    let served: Vec<usize> = std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(requests.len() / clients)
            .map(|share| {
                let h = handle.clone();
                let mut share = share.to_vec();
                scope.spawn(move || -> Vec<usize> {
                    share
                        .iter_mut()
                        .map(|req| h.predict_packed(req).expect("served").class)
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served, reference, "served == offline");
    let stats = server.stats();
    assert_eq!(
        stats.bitplane_batches, stats.batches,
        "every micro-batch was {BITPLANE_MIN_LANES} deep"
    );
    println!(
        "served {} images from {clients} clients in {} micro-batches, {} on the bitplane engine",
        stats.served, stats.batches, stats.bitplane_batches
    );
}
