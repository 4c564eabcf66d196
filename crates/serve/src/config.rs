//! Serving-side configuration: dispatch hold, admission bound, shard
//! topology and executor parallelism.

use std::time::Duration;

/// Tuning knobs of a [`Server`](crate::Server).
///
/// Admitted requests land on one of `shards` admission queues
/// (round-robin for anonymous handles, connection-affine for socket
/// clients) and are drained by `executors` executor threads, each owning
/// persistent inference scratch. Zero hold (the default) is
/// work-conserving; a non-zero `max_delay` is an opt-in hold:
///
/// * **zero hold** — an executor that finds any request waiting
///   dispatches at once, taking up to `max_batch`. Batches deepen only
///   from backlog that builds while every executor is busy, so an idle
///   server adds no waiting to a request.
/// * **hold** — a shard's batch waits until *either* `max_batch`
///   requests are waiting on that shard (size trigger) or its oldest
///   request has been queued for `max_delay` (deadline trigger), trading
///   that much latency for deeper batches under light load.
///
/// Executors prefer their home shard but steal whole batches from any
/// dispatchable shard, so skewed placement cannot strand requests.
///
/// No option picks the engine: the batch depth does. A micro-batch of at
/// least [`sushi_ssnn::BITPLANE_MIN_LANES`] requests runs on the 64-lane
/// bitplane engine, a shallower one image by image on the packed engine.
/// Both are bitwise identical, so the rule only moves throughput.
///
/// Admission is bounded by `queue_capacity` *in total across shards*
/// (tracked by a lock-free gauge): a request arriving over the bound is
/// shed immediately with
/// [`ServeError::Overloaded`](crate::ServeError::Overloaded) instead of
/// growing the queue (and every admitted request's latency) without
/// bound.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use sushi_serve::ServeConfig;
///
/// let cfg = ServeConfig::new()
///     .max_batch(16)
///     .max_delay(Duration::from_millis(1))
///     .queue_capacity(64)
///     .shards(2)
///     .executors(2);
/// assert_eq!(cfg.max_batch, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch handed to the engine in one sweep; under a hold,
    /// also the size trigger.
    pub max_batch: usize,
    /// Dispatch hold. Zero (the default) is work-conserving: a waiting
    /// request dispatches as soon as an executor is free. A non-zero
    /// hold is opt-in: a shard's batch waits until it holds `max_batch`
    /// requests or its oldest has waited this long.
    pub max_delay: Duration,
    /// Admission bound: requests beyond this many waiting (summed across
    /// all shards) are shed.
    pub queue_capacity: usize,
    /// Admission shard count: independent queues with their own mutex,
    /// so concurrent admissions contend 1/N as often. More shards than
    /// executors rarely helps; the default is `min(4, host CPUs)`.
    pub shards: usize,
    /// Executor thread count: threads draining shards into inference
    /// batches, each with its own long-lived scratch. Batches run
    /// single-threaded on their executor — cross-batch parallelism
    /// replaces the old intra-batch worker fan-out.
    pub executors: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            max_batch: 32,
            max_delay: Duration::ZERO,
            queue_capacity: 128,
            shards: cpus.min(4),
            executors: cpus,
        }
    }
}

impl ServeConfig {
    /// The default configuration (batch 32, zero hold, capacity 128,
    /// `min(4, CPUs)` shards, one executor per CPU).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the size trigger (clamped to at least 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the dispatch hold: zero is work-conserving, a non-zero
    /// value holds each shard's batch for the size or deadline trigger.
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets the admission bound (clamped to at least 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the admission shard count (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the executor thread count (clamped to at least 1).
    pub fn executors(mut self, executors: usize) -> Self {
        self.executors = executors.max(1);
        self
    }

    /// Alias for [`ServeConfig::executors`], kept from the
    /// single-queue pipeline where per-batch inference workers were the
    /// only parallelism knob.
    pub fn workers(self, workers: usize) -> Self {
        self.executors(workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_degenerate_values() {
        let cfg = ServeConfig::new()
            .max_batch(0)
            .queue_capacity(0)
            .shards(0)
            .executors(0);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.executors, 1);
    }

    #[test]
    fn workers_aliases_executors() {
        let cfg = ServeConfig::new().workers(7);
        assert_eq!(cfg.executors, 7);
        assert_eq!(ServeConfig::new().workers(0).executors, 1);
    }

    #[test]
    fn bitplane_backend_is_the_default() {
        let cfg = ServeConfig::new();
        assert_eq!(cfg.max_delay, Duration::ZERO);
        assert!(cfg.shards >= 1 && cfg.shards <= 4);
        // A default-sized batch is deep enough for the bitplane engine.
        assert!(cfg.max_batch >= sushi_ssnn::BITPLANE_MIN_LANES);
    }
}
