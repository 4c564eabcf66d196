//! Summary statistics, failure accounting and process facts shared by the
//! workloads.

use std::time::{Duration, Instant};

/// Candidate tail percentiles, highest first. The tail reported is the
/// highest of these with at least [`MIN_BEYOND`] samples above it.
const TAIL_LADDER: [u32; 3] = [99, 90, 50];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Number of samples that lie strictly beyond the `p`-th percentile of
/// `n` samples under the nearest-rank definition.
fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of the `p`-th percentile of `n`
/// samples, in exact integer arithmetic.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support
/// with at least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not qualify.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile of `sorted` (ascending) by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency distribution in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples_us: Vec<f64>,
}

/// Median and tail of a [`Latencies`] record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// The tail percentile reported (see [`tail_percentile`]).
    pub tail_p: u32,
    /// Value at that percentile, µs.
    pub tail_us: f64,
}

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, d: Duration) {
        self.samples_us.push(d.as_secs_f64() * 1e6);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Median and tail, or `None` when there are too few samples for any
    /// percentile to have [`MIN_BEYOND`] samples beyond it.
    pub fn summary(&self) -> Option<LatencySummary> {
        let tail_p = tail_percentile(self.samples_us.len())?;
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(f64::total_cmp);
        Some(LatencySummary {
            count: sorted.len(),
            p50_us: percentile(&sorted, 50),
            tail_p,
            tail_us: percentile(&sorted, tail_p),
        })
    }
}

/// Share of a phase's windows, fastest first, that [`quiet`] keeps.
pub const QUIET_SHARE: f64 = 0.25;

/// One stretch of a measured phase: the work it did, the host time it
/// took, how much of that the hypervisor stole, and the latency of each
/// operation in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Work units done (jobs, samples, images or simulated events).
    pub units: f64,
    /// Host seconds.
    pub secs: f64,
    /// Seconds of `secs` that the hypervisor gave the busiest CPU's time
    /// to another guest.
    pub stolen: f64,
    /// Per-operation latencies (may be empty for a bulk phase).
    pub lat: Latencies,
}

impl Window {
    fn run_secs(&self) -> f64 {
        self.secs - self.stolen
    }
}

/// Seconds each CPU has lost so far to the hypervisor running another
/// guest: the `steal` column of `/proc/stat`, in USER_HZ ticks of 10 ms.
/// Empty where `/proc/stat` is unavailable.
fn steal_per_cpu_s() -> Vec<f64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|ticks| ticks / 100.0)
        .collect()
}

/// Times one [`Window`] in host time and in time stolen from it.
#[derive(Debug)]
pub struct Stopwatch {
    steal: Vec<f64>,
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            steal: steal_per_cpu_s(),
            start: Instant::now(),
        }
    }

    /// The window of `units` work and `lat` latencies that ends now. The
    /// stolen time is the most any one CPU lost since the start (the
    /// straggler that parallel work waits for), capped below the window so
    /// a coarse steal tick cannot swallow it.
    pub fn window(&self, units: f64, lat: Latencies) -> Window {
        let secs = self.start.elapsed().as_secs_f64();
        let stolen = steal_per_cpu_s()
            .iter()
            .zip(&self.steal)
            .map(|(now, then)| now - then)
            .fold(0.0, f64::max);
        Window {
            units,
            secs,
            stolen: stolen.min(0.9 * secs),
            lat,
        }
    }
}

/// A phase summarised over its quietest windows.
#[derive(Debug, Clone)]
pub struct Quiet {
    /// Windows measured.
    pub windows: usize,
    /// Windows kept.
    pub kept: usize,
    /// Units per second of unstolen host time over the kept windows.
    pub per_s: f64,
    /// Share of the whole phase's host time that was stolen.
    pub stolen_share: f64,
    /// Every latency of the kept windows.
    pub lat: Latencies,
}

/// Keeps the fastest [`QUIET_SHARE`] of `windows` (at least one) and
/// summarises them. A shared host gives its CPUs to other guests for
/// seconds at a time, and its memory and caches are busier at some times
/// than at others, so a median over a whole run mixes those stretches in
/// proportions that change from run to run. The fastest windows in host
/// time are the host's quiet stretches, which every run sees; what was
/// stolen even from them is taken out of their rate. (Ranking by the
/// corrected rate would keep windows whose latencies steal inflated.)
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quiet(windows: &[Window]) -> Quiet {
    assert!(!windows.is_empty(), "no windows measured");
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|a, b| (b.units / b.secs).total_cmp(&(a.units / a.secs)));
    let kept = ((windows.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    let mut lat = Latencies::default();
    let (mut units, mut secs) = (0.0, 0.0);
    for w in &order[..kept] {
        units += w.units;
        secs += w.run_secs();
        lat.extend(&w.lat);
    }
    let total = |f: fn(&Window) -> f64| windows.iter().map(f).sum::<f64>();
    Quiet {
        windows: windows.len(),
        kept,
        per_s: units / secs,
        stolen_share: total(|w| w.stolen) / total(|w| w.secs),
        lat,
    }
}

/// Operations attempted and failed (a mismatched output, a non-OK status
/// or a broken gate each count as one failure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations of which `bad` failed.
    pub fn record(&mut self, n: u64, bad: u64) {
        assert!(bad <= n, "more failures than operations");
        self.attempted += n;
        self.failed += bad;
    }

    /// Records one operation that passed when `ok` holds.
    pub fn check(&mut self, ok: bool) {
        self.record(1, u64::from(!ok));
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host CPUs available to this process; every load generator, batch
/// worker, partition and socket connection count is capped by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// 64-bit FNV-1a, used to fingerprint simulated outputs and weights.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a `u64` in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond -> p99.
        assert_eq!(tail_percentile(1000), Some(99));
        // 999 samples: p99 has rank 990 and nine beyond -> p90.
        assert_eq!(tail_percentile(999), Some(90));
        // 100 samples: p90 has exactly ten beyond.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(50));
        // 20 samples: the median has ten beyond; 19 leave only nine.
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 57, 100, 345, 1000, 4321, 100_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_nearest_rank_values() {
        let mut l = Latencies::default();
        for us in 1..=1000u64 {
            l.push(Duration::from_micros(us));
        }
        let s = l.summary().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_p, 99);
        assert!((s.p50_us - 500.0).abs() < 1e-6);
        assert!((s.tail_us - 990.0).abs() < 1e-6);
        let mut few = Latencies::default();
        few.push(Duration::from_micros(3));
        assert!(few.summary().is_none());
    }

    #[test]
    fn quiet_keeps_the_fastest_quarter_of_windows() {
        let window = |units: f64, secs: f64, stolen: f64, us: u64| {
            let mut lat = Latencies::default();
            lat.push(Duration::from_micros(us));
            Window {
                units,
                secs,
                stolen,
                lat,
            }
        };
        // Host-time rates 10, 40, 20, 30 (60 per unstolen second), 45:
        // the fastest ceil(5/4) = 2 are 45 and 40, and the last one's
        // stolen tenth comes out of its time. The window that is fastest
        // only once its half-stolen second is corrected is not kept.
        let w = [
            window(10.0, 1.0, 0.0, 1),
            window(80.0, 2.0, 0.0, 2),
            window(20.0, 1.0, 0.0, 3),
            window(30.0, 1.0, 0.5, 4),
            window(45.0, 1.0, 0.1, 5),
        ];
        let q = quiet(&w);
        assert_eq!((q.windows, q.kept), (5, 2));
        assert!((q.per_s - 125.0 / 2.9).abs() < 1e-12);
        assert!((q.stolen_share - 0.6 / 6.0).abs() < 1e-12);
        assert_eq!(q.lat.len(), 2);
        let sw = Stopwatch::start();
        let live = sw.window(1.0, Latencies::default());
        assert!(live.stolen >= 0.0 && live.stolen <= 0.9 * live.secs);
        let one = quiet(&w[..1]);
        assert_eq!(one.kept, 1);
        assert!((one.per_s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record(15, 0);
        t.check(true);
        t.check(false);
        assert_eq!(t, Tally { attempted: 17, failed: 1 });
        let mut u = Tally::default();
        u.record(3, 3);
        t.merge(u);
        assert_eq!(t.attempted, 20);
        assert_eq!(t.failed, 4);
        assert!((t.error_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "more failures")]
    fn tally_rejects_more_failures_than_operations() {
        Tally::default().record(1, 2);
    }
}
