//! # sushi-serve — long-running SSNN inference service
//!
//! The offline pipeline (`sushi-ssnn`) answers "how fast can we classify
//! a dataset we already hold?". This crate answers the serving question:
//! many concurrent clients each submit *one* image and wait for its
//! class. Serving them one-by-one wastes the batch engine; queueing them
//! without bound wastes the clients. `sushi-serve` sits in between:
//!
//! * **Zero-copy request path** — requests travel as [`PackedRequest`]
//!   (bit-packed `u64` spike words, the engine's native representation)
//!   from the edge to the engine. The socket front end decodes wire
//!   bytes straight into packed words, the in-process handle packs
//!   bools once at the edge (or lends an already-packed buffer via
//!   [`ServeHandle::predict_packed`]), and payloads move through the
//!   pipeline by `mem::swap` — the steady state allocates nothing per
//!   request.
//! * **Dynamic micro-batching, sharded** — admission lands on one of
//!   `shards` independent queues drained by `executors` threads with
//!   long-lived scratch. Zero hold (the default) is work-conserving: a
//!   free executor dispatches whatever is waiting at once, up to
//!   `max_batch`, so batches deepen only from backlog. A non-zero
//!   `max_delay` is an opt-in hold: a shard's batch waits until
//!   `max_batch` requests wait (size trigger) or its oldest has waited
//!   `max_delay` (deadline trigger). Executors steal ripe batches from
//!   sibling shards. Served predictions are bitwise identical to
//!   offline [`sushi_ssnn::PackedSnn::predict_batch`] for every shard
//!   and executor count.
//! * **Admission control / backpressure** — total queued requests are
//!   bounded (`queue_capacity`, tracked by a lock-free gauge); a
//!   request arriving over the bound is shed immediately with a
//!   structured [`ServeError::Overloaded`] instead of silently
//!   inflating everyone's latency.
//! * **Front ends** — an in-process [`ServeHandle`] for harness use, and
//!   a Unix-domain-socket front end ([`socket`]) with a tiny length-free
//!   binary protocol for out-of-process clients.
//! * **Load generation** — [`loadgen`] drives a server closed-loop
//!   (fixed clients, back-to-back) or open-loop (fixed arrival rate,
//!   latency measured from *scheduled* arrival so coordinated omission
//!   does not hide queueing) and reports p50/p95/p99 latency and
//!   sustained images/s.
//!
//! ## Quick start
//!
//! ```
//! use sushi_serve::{ServeConfig, Server};
//! use sushi_ssnn::{PackedLayer, PackedSnn};
//!
//! // A toy 4-input, 2-class network; real callers pack a trained net.
//! let layer = PackedLayer::from_parts(&[1; 8], 4, 2, &[0, 0]);
//! let snn = PackedSnn::from_layers(vec![layer]);
//!
//! let server = Server::start(snn, ServeConfig::new().max_batch(8).executors(1));
//! let handle = server.handle();
//! let prediction = handle.predict(vec![vec![true, false, true, false]]).unwrap();
//! assert!(prediction.class < 2);
//! ```

#![warn(missing_docs)]

mod config;
pub mod loadgen;
mod server;
#[cfg(unix)]
pub mod socket;

pub use config::ServeConfig;
pub use server::{PackedRequest, Prediction, ServeError, ServeHandle, Server, ServerStats};
