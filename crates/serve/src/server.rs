//! In-process serving harness: sharded bounded admission feeding a pool
//! of executor threads that coalesce requests into dynamic micro-batches.
//!
//! Many client threads call [`ServeHandle::predict`] (or the zero-copy
//! [`ServeHandle::predict_packed`]) concurrently; each call blocks until
//! its image has been classified (or shed). Requests travel as
//! [`PackedRequest`] — bit-packed `u64` spike words, the engine's native
//! representation — from the edge to the engine with no bool detour.
//! Admission lands on one of N shards (own mutex each) and M executor
//! threads drain them in micro-batches, stealing from sibling shards
//! when their own is quiet. Zero hold (the default) is work-conserving:
//! a free executor dispatches whatever waits at once, up to
//! `max_batch`. A non-zero `max_delay` is an opt-in hold: a shard's
//! batch waits for the size trigger (`max_batch` waiting) or the
//! deadline trigger (oldest request waited `max_delay`). The batch
//! depth picks the engine: a micro-batch of at least
//! [`BITPLANE_MIN_LANES`] runs as one bitplane lane group per 64
//! requests, a shallower one image by image on the packed engine. Both
//! are bitwise identical, so served predictions equal offline batch
//! inference for every shard and executor count.
//!
//! The steady-state path allocates nothing per request: request slots
//! are pooled and payloads move by `mem::swap`, executors own long-lived
//! scratch, and every queue keeps its capacity across drains.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sushi_ssnn::{argmax_low, BitplaneScratch, PackedSnn, PredictScratch, BITPLANE_MIN_LANES};

use crate::ServeConfig;

/// A request in the engine's native representation: bit-packed `u64`
/// spike frames with the width and frame count in the header. This is
/// the canonical in-flight type of the serving pipeline — the socket
/// front end decodes wire bytes straight into one, the in-process
/// handle packs bools once at the edge, and the engine consumes the
/// words directly.
pub type PackedRequest = sushi_ssnn::PackedFrames;

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full; the request was shed immediately.
    Overloaded {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// Configured admission bound.
        capacity: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request was malformed (e.g. wrong frame width).
    BadRequest(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "overloaded: queue depth {depth} at capacity {capacity}")
            }
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
        }
    }
}

impl Error for ServeError {}

/// A served classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Winning output class.
    pub class: usize,
    /// Size of the micro-batch this request was served in (≥ 1).
    pub batch_size: usize,
}

/// Cumulative server-side counters, readable at any time without
/// touching any admission lock (every counter is an atomic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests admitted into a shard queue.
    pub admitted: u64,
    /// Requests shed at admission (total depth at capacity).
    pub rejected: u64,
    /// Requests answered with a prediction.
    pub served: u64,
    /// Micro-batches dispatched to the engine.
    pub batches: u64,
    /// Micro-batches served on the 64-lane bitplane path: those at least
    /// [`BITPLANE_MIN_LANES`] deep.
    pub bitplane_batches: u64,
    /// Micro-batches an executor drained from a non-home shard (work
    /// stealing under skewed placement).
    pub stolen_batches: u64,
    /// Largest total queue depth observed at admission time.
    pub max_queue_depth: usize,
}

impl ServerStats {
    /// Mean images per dispatched micro-batch (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }
}

/// Rendezvous slot a waiting client shares with the executor that serves
/// its request. The payload moves in and out by `mem::swap`; slots are
/// pooled so steady-state serving allocates none.
struct Slot {
    body: Mutex<SlotBody>,
    ready: Condvar,
}

struct SlotBody {
    frames: PackedRequest,
    done: bool,
    class: usize,
    batch_size: usize,
}

impl Slot {
    fn new() -> Self {
        Slot {
            body: Mutex::new(SlotBody {
                frames: PackedRequest::new(),
                done: false,
                class: 0,
                batch_size: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotBody> {
        self.body.lock().expect("slot lock poisoned")
    }
}

struct Queued {
    at: Instant,
    slot: Arc<Slot>,
}

/// One admission shard: an independent queue under its own mutex.
struct Shard {
    queue: Mutex<VecDeque<Queued>>,
}

/// Executor wake-up channel: a sequence number bumped on every event an
/// executor might be waiting for (admission, shutdown). Executors read
/// the sequence *before* scanning the shards and only sleep if it has
/// not moved since, so a wake between scan and sleep is never lost.
struct Signal {
    seq: Mutex<u64>,
    work: Condvar,
}

struct Shared {
    snn: PackedSnn,
    cfg: ServeConfig,
    shards: Vec<Shard>,
    signal: Signal,
    /// Total requests admitted and not yet drained, across all shards.
    /// The lock-free admission bound and [`ServeHandle::queue_depth`].
    depth: AtomicUsize,
    shutdown: AtomicBool,
    pool: Mutex<Vec<Arc<Slot>>>,
    next_shard: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    batches: AtomicU64,
    bitplane_batches: AtomicU64,
    stolen_batches: AtomicU64,
    max_queue_depth: AtomicUsize,
}

impl Shared {
    /// Bumps the signal sequence and wakes one idle executor.
    fn wake_one(&self) {
        *self.signal.seq.lock().expect("signal lock poisoned") += 1;
        self.signal.work.notify_one();
    }

    /// Bumps the signal sequence and wakes every idle executor.
    fn wake_all(&self) {
        *self.signal.seq.lock().expect("signal lock poisoned") += 1;
        self.signal.work.notify_all();
    }

    /// Checks a pooled slot out (or allocates one cold).
    fn checkout_slot(&self) -> Arc<Slot> {
        let recycled = self.pool.lock().expect("pool lock poisoned").pop();
        recycled.unwrap_or_else(|| Arc::new(Slot::new()))
    }

    /// Returns a slot to the pool, keeping at most enough for every
    /// queueable plus every in-flight request.
    fn return_slot(&self, slot: Arc<Slot>) {
        let cap = self.cfg.queue_capacity + self.cfg.executors * self.cfg.max_batch;
        let mut pool = self.pool.lock().expect("pool lock poisoned");
        if pool.len() < cap {
            pool.push(slot);
        }
    }
}

/// A running sharded micro-batching inference server.
///
/// Dropping the server (or calling [`Server::shutdown`]) stops
/// admission, drains every already-admitted request, and joins the
/// executor threads.
///
/// # Examples
///
/// ```
/// use sushi_serve::{ServeConfig, Server};
/// use sushi_ssnn::{PackedLayer, PackedSnn};
///
/// let layer = PackedLayer::from_parts(&[1; 8], 4, 2, &[0, 0]);
/// let snn = PackedSnn::from_layers(vec![layer]);
/// let server = Server::start(snn, ServeConfig::new().shards(1).executors(1));
/// let handle = server.handle();
/// let image = vec![vec![true, false, true, false]];
/// let served = handle.predict(image).unwrap();
/// assert!(served.class < 2);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the executor threads over `snn` with the given
    /// configuration.
    ///
    /// The config's fields are public, so a struct literal can skip the
    /// builder's clamps; they are applied here once, and the server runs
    /// the clamped config.
    pub fn start(snn: PackedSnn, cfg: ServeConfig) -> Self {
        let (max_batch, shards, executors) = (cfg.max_batch, cfg.shards, cfg.executors);
        let cfg = cfg.max_batch(max_batch).shards(shards).executors(executors);
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                queue: Mutex::new(VecDeque::new()),
            })
            .collect();
        let executor_count = cfg.executors;
        let shared = Arc::new(Shared {
            snn,
            cfg,
            shards,
            signal: Signal {
                seq: Mutex::new(0),
                work: Condvar::new(),
            },
            depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            pool: Mutex::new(Vec::new()),
            next_shard: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            bitplane_batches: AtomicU64::new(0),
            stolen_batches: AtomicU64::new(0),
            max_queue_depth: AtomicUsize::new(0),
        });
        let executors = (0..executor_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sushi-serve-exec-{i}"))
                    .spawn(move || executor_loop(&shared, i % shared.shards.len()))
                    .expect("spawn executor thread")
            })
            .collect();
        Server { shared, executors }
    }

    /// A cloneable client handle for submitting requests. Each request
    /// is placed round-robin across shards; pin a handle to one shard
    /// with [`ServeHandle::with_affinity`].
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
            affinity: None,
        }
    }

    /// Current cumulative counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            bitplane_batches: self.shared.bitplane_batches.load(Ordering::Relaxed),
            stolen_batches: self.shared.stolen_batches.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Stops admission, serves every already-admitted request, and
    /// joins the executors. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.executors.drain(..) {
            handle.join().expect("executor thread panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Client-side handle to a [`Server`]; cheap to clone and share across
/// threads.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    affinity: Option<usize>,
}

impl ServeHandle {
    /// The network's input width, which every submitted frame must
    /// match. Front ends use this to validate (and reject) requests
    /// before buffering their payload.
    pub fn input_width(&self) -> usize {
        self.shared.snn.input_width()
    }

    /// This handle pinned to one admission shard (wrapped into range):
    /// all its requests queue there, giving a connection FIFO order on
    /// its shard and admission contention only with that shard's peers.
    pub fn with_affinity(mut self, shard: usize) -> Self {
        self.affinity = Some(shard % self.shared.shards.len());
        self
    }

    /// Submits one image (its spike frames) and blocks until it is
    /// served or shed. The frames are packed into the engine's `u64`
    /// word representation once, here at the edge — the zero-copy twin
    /// is [`ServeHandle::predict_packed`].
    ///
    /// Rejections are immediate: a full queue returns
    /// [`ServeError::Overloaded`] without blocking, and frames whose
    /// width does not match the network return
    /// [`ServeError::BadRequest`].
    pub fn predict(&self, frames: Vec<Vec<bool>>) -> Result<Prediction, ServeError> {
        let want = self.shared.snn.input_width();
        if let Some(bad) = frames.iter().find(|f| f.len() != want) {
            return Err(ServeError::BadRequest(format!(
                "frame width {} does not match network input width {want}",
                bad.len()
            )));
        }
        let slot = self.shared.checkout_slot();
        {
            let mut body = slot.lock();
            body.frames.reset(want);
            for f in &frames {
                body.frames.push_frame_from_bools(f);
            }
            body.done = false;
        }
        let outcome = self.submit_and_wait(&slot);
        self.shared.return_slot(slot);
        outcome
    }

    /// Submits one already-packed request and blocks until it is served
    /// or shed. The payload is lent to the server by `mem::swap` — no
    /// copy, no allocation — and swapped back before returning, so the
    /// caller's buffer (and its capacity) survives for reuse.
    ///
    /// The request's width must equal the network input width even when
    /// it has zero frames (build it with
    /// [`PackedRequest::reset`]\(width\) so the width always travels
    /// with the buffer); a mismatch returns
    /// [`ServeError::BadRequest`] and a full queue
    /// [`ServeError::Overloaded`], both immediate.
    pub fn predict_packed(&self, request: &mut PackedRequest) -> Result<Prediction, ServeError> {
        let want = self.shared.snn.input_width();
        if request.width() != want {
            return Err(ServeError::BadRequest(format!(
                "frame width {} does not match network input width {want}",
                request.width()
            )));
        }
        let slot = self.shared.checkout_slot();
        {
            let mut body = slot.lock();
            std::mem::swap(&mut body.frames, request);
            body.done = false;
        }
        let outcome = self.submit_and_wait(&slot);
        std::mem::swap(&mut slot.lock().frames, request);
        self.shared.return_slot(slot);
        outcome
    }

    /// Enqueues an armed slot and blocks on its condvar until an
    /// executor marks it done (or sheds it at admission).
    fn submit_and_wait(&self, slot: &Arc<Slot>) -> Result<Prediction, ServeError> {
        let shared = &*self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Lock-free admission bound: claim a depth unit, undo on shed.
        let depth = shared.depth.fetch_add(1, Ordering::AcqRel);
        if depth >= shared.cfg.queue_capacity {
            shared.depth.fetch_sub(1, Ordering::AcqRel);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                depth,
                capacity: shared.cfg.queue_capacity,
            });
        }
        let shard = self
            .affinity
            .unwrap_or_else(|| shared.next_shard.fetch_add(1, Ordering::Relaxed))
            % shared.shards.len();
        {
            let mut queue = shared.shards[shard].queue.lock().expect("shard poisoned");
            // Re-check under the shard lock: after the flag is set no
            // new request is ever queued, so draining executors may
            // exit once the depth gauge reaches zero.
            if shared.shutdown.load(Ordering::Acquire) {
                drop(queue);
                shared.depth.fetch_sub(1, Ordering::AcqRel);
                shared.wake_all();
                return Err(ServeError::ShuttingDown);
            }
            queue.push_back(Queued {
                at: Instant::now(),
                slot: Arc::clone(slot),
            });
        }
        shared.admitted.fetch_add(1, Ordering::Relaxed);
        shared
            .max_queue_depth
            .fetch_max(depth + 1, Ordering::Relaxed);
        shared.wake_one();
        let mut body = slot.lock();
        while !body.done {
            body = slot.ready.wait(body).expect("slot lock poisoned");
        }
        Ok(Prediction {
            class: body.class,
            batch_size: body.batch_size,
        })
    }

    /// Snapshot of the total queue depth across shards (one atomic
    /// load; diagnostic and racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }
}

/// Everything an executor owns for its lifetime: inference scratch,
/// per-class count buffers, and the batch staging area. Reused across
/// every batch, so the steady state allocates nothing.
struct ExecCtx {
    scratch: PredictScratch,
    bitplane: BitplaneScratch,
    counts: Vec<Vec<u32>>,
    frames: Vec<PackedRequest>,
    batch: Vec<Arc<Slot>>,
}

impl ExecCtx {
    fn new() -> Self {
        ExecCtx {
            scratch: PredictScratch::new(),
            bitplane: BitplaneScratch::new(),
            counts: Vec::new(),
            frames: Vec::new(),
            batch: Vec::new(),
        }
    }
}

/// Serves the staged batch in `ctx.batch`: payloads are swapped out of
/// the slots, classified (bitplane path from [`BITPLANE_MIN_LANES`]
/// requests on), swapped back and marked done. Clears the staging area,
/// keeping every allocation.
fn run_batch(shared: &Shared, ctx: &mut ExecCtx) {
    let n = ctx.batch.len();
    while ctx.frames.len() < n {
        ctx.frames.push(PackedRequest::new());
    }
    for (slot, staged) in ctx.batch.iter().zip(&mut ctx.frames) {
        std::mem::swap(&mut slot.lock().frames, staged);
    }
    // The bitplane path pays a transpose per lane group; it only wins
    // once the micro-batch is deep enough to fill lanes, so shallow
    // batches run on the per-image packed path.
    let bitplane = n >= BITPLANE_MIN_LANES;
    if bitplane {
        let classes = shared.snn.classes();
        while ctx.counts.len() < 64.min(n) {
            ctx.counts.push(Vec::with_capacity(classes));
        }
        let mut served = 0usize;
        for group_start in (0..n).step_by(64) {
            let group = &ctx.frames[group_start..n.min(group_start + 64)];
            shared.snn.bitplane_group_counts_packed(
                group,
                &mut ctx.bitplane,
                &mut ctx.counts[..group.len()],
            );
            for (lane, counts) in ctx.counts[..group.len()].iter().enumerate() {
                let mut body = ctx.batch[group_start + lane].lock();
                body.class = argmax_low(counts);
                served += 1;
            }
        }
        debug_assert_eq!(served, n);
    } else {
        for (slot, staged) in ctx.batch.iter().zip(&ctx.frames) {
            let class = shared.snn.predict_packed_with(staged, &mut ctx.scratch);
            slot.lock().class = class;
        }
    }
    shared.batches.fetch_add(1, Ordering::Relaxed);
    if bitplane {
        shared.bitplane_batches.fetch_add(1, Ordering::Relaxed);
    }
    shared.served.fetch_add(n as u64, Ordering::Relaxed);
    for (slot, staged) in ctx.batch.iter().zip(&mut ctx.frames) {
        let mut body = slot.lock();
        std::mem::swap(&mut body.frames, staged);
        body.batch_size = n;
        body.done = true;
        drop(body);
        slot.ready.notify_one();
    }
    ctx.batch.clear();
}

/// One executor thread: scan the shards (home first), dispatch the
/// first ripe batch, steal across shards when home is quiet, and park
/// on the signal condvar when nothing is dispatchable.
///
/// Under zero hold (the default) every waiting request is ripe, so the
/// executor takes up to `max_batch` at once: work-conserving. Under a
/// non-zero `max_delay` (an opt-in hold) a shard ripens when
/// `max_batch` requests wait or its oldest has waited `max_delay`, and
/// the park is bounded by the nearest pending deadline. During
/// shutdown drain everything is ripe.
fn executor_loop(shared: &Shared, home: usize) {
    let mut ctx = ExecCtx::new();
    let shard_count = shared.shards.len();
    let hold = shared.cfg.max_delay;
    loop {
        let observed = *shared.signal.seq.lock().expect("signal lock poisoned");
        let shutdown = shared.shutdown.load(Ordering::Acquire);
        let eager = hold.is_zero() || shutdown;
        let mut nearest_deadline: Option<Instant> = None;
        let mut dispatched = false;
        for i in 0..shard_count {
            let idx = (home + i) % shard_count;
            let shard = &shared.shards[idx];
            let mut queue = shard.queue.lock().expect("shard poisoned");
            let Some(front) = queue.front() else { continue };
            if !eager && queue.len() < shared.cfg.max_batch {
                let deadline = front.at + hold;
                if Instant::now() < deadline {
                    drop(queue);
                    nearest_deadline = Some(nearest_deadline.map_or(deadline, |d| d.min(deadline)));
                    continue;
                }
            }
            let take = queue.len().min(shared.cfg.max_batch);
            ctx.batch.extend(queue.drain(..take).map(|q| q.slot));
            drop(queue);
            shared.depth.fetch_sub(take, Ordering::AcqRel);
            if i != 0 {
                shared.stolen_batches.fetch_add(1, Ordering::Relaxed);
            }
            run_batch(shared, &mut ctx);
            dispatched = true;
            break;
        }
        if dispatched {
            if shutdown {
                // Draining: siblings may be asleep with work still
                // spread across shards they have already scanned.
                shared.wake_all();
            }
            continue;
        }
        if shutdown && shared.depth.load(Ordering::Acquire) == 0 {
            // Nothing queued and nothing can be queued again: wake any
            // sibling still asleep so it observes the same and exits.
            shared.wake_all();
            return;
        }
        let timeout = match nearest_deadline {
            Some(d) => d.saturating_duration_since(Instant::now()),
            // Nothing held (always the case under zero hold): park until
            // an admission or shutdown signals. The cap only bounds a
            // missed-wake pathology; an idle executor never polls.
            None => Duration::from_millis(250),
        };
        let seq = shared.signal.seq.lock().expect("signal lock poisoned");
        if *seq != observed {
            continue;
        }
        let _ = shared
            .signal
            .work
            .wait_timeout(seq, timeout)
            .expect("signal lock poisoned");
    }
}
