//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is
//! wrapped in a span: name, start, end, parent span and the job or
//! request it belongs to. Each thread records into its own [`Recorder`]
//! (no locks on the hot path); the recorders are merged into one
//! [`Trace`] when the run ends, which computes self times and writes the
//! spans out as JSON.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use sushi_sim::Json;

/// Source of recorder indices, unique across the process.
static NEXT_RECORDER: AtomicU32 = AtomicU32::new(0);

/// Identifies a span across threads: recorder index in the high 32 bits,
/// position within that recorder in the low 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    fn new(recorder: u32, index: usize) -> Self {
        SpanId((u64::from(recorder) << 32) | index as u64)
    }
}

/// One recorded span; times are nanoseconds since the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Cross-thread identifier.
    pub id: SpanId,
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The job or request this span belongs to.
    pub item: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    index: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with a fresh index, timing against `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            index: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same time origin.
    pub fn child(&self) -> Self {
        Self::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, item: u64) -> SpanId {
        let id = SpanId::new(self.index, self.spans.len());
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent,
            item,
        });
        id
    }

    /// Closes a span this recorder opened.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to another recorder.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(id.0 >> 32, u64::from(self.index), "span of another recorder");
        let now = self.now_ns();
        self.spans[(id.0 & 0xffff_ffff) as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, item);
        let out = f();
        self.close(id);
        out
    }
}

/// Merged spans of a whole traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Takes every span of `rec`.
    pub fn absorb(&mut self, rec: Recorder) {
        self.spans.extend(rec.spans);
    }

    /// All spans, in absorption order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns, in [`Trace::spans`] order: its
    /// duration minus the part of its interval that its children cover
    /// (overlapping children, e.g. on parallel workers, count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: std::collections::HashMap<SpanId, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let covered = children
                    .get(&s.id)
                    .map_or(0, |c| coverage_ns(s.start_ns, s.end_ns, c));
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of every span called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Every span with its self time, as JSON.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .map(|(s, self_ns)| {
                Json::obj(vec![
                    ("id", Json::UInt(s.id.0)),
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p.0))),
                    ("item", Json::UInt(s.item)),
                    ("self_ns", Json::UInt(self_ns)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `intervals` (each clipped to the window first).
pub fn coverage_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id: SpanId(id),
            name: "x",
            start_ns: start,
            end_ns: end,
            parent: parent.map(SpanId),
            item: 0,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_window() {
        assert_eq!(coverage_ns(0, 100, &[]), 0);
        assert_eq!(coverage_ns(0, 100, &[(10, 30), (20, 50), (60, 70)]), 50);
        // A child running past its parent only counts inside it.
        assert_eq!(coverage_ns(0, 100, &[(90, 150)]), 10);
        assert_eq!(coverage_ns(50, 100, &[(0, 10)]), 0);
        // Touching intervals merge without double counting.
        assert_eq!(coverage_ns(0, 100, &[(0, 40), (40, 100)]), 100);
    }

    #[test]
    fn self_time_subtracts_children_coverage_once() {
        let t = Trace {
            spans: vec![
                span(1, 0, 100, None),
                // Two parallel workers overlapping on [20, 50).
                span(2, 10, 50, Some(1)),
                span(3, 20, 60, Some(1)),
                // A grandchild only reduces its own parent's self time.
                span(4, 15, 25, Some(2)),
            ],
        };
        assert_eq!(t.self_times_ns(), vec![50, 30, 40, 10]);
        assert!((t.self_s("x") - 130e-9).abs() < 1e-15);
        assert!((t.total_s("x") - 190e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_merges_across_threads() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin);
        let root = main.open("root", None, 7);
        let mut worker = main.child();
        let v = worker.time("leaf", Some(root), 7, || 41 + 1);
        assert_eq!(v, 42);
        main.close(root);
        let mut t = Trace::default();
        t.absorb(main);
        t.absorb(worker);
        assert_eq!(t.count("leaf"), 1);
        let leaf = &t.spans()[1];
        assert_eq!(leaf.parent, Some(root));
        assert_ne!(leaf.id, root);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0] + leaf.dur_ns(), t.spans()[0].dur_ns());
        let json = t.to_json().to_string();
        assert!(Json::parse(&json).is_ok());
    }
}
