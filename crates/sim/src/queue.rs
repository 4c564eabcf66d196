//! Calendar event queue for the pulse-level simulator hot path.
//!
//! A classic binary heap costs `O(log n)` per push/pop with poor locality.
//! SFQ simulations schedule almost every event a few ps ahead of the
//! current time, which is exactly the access pattern a *calendar queue*
//! (Brown 1988) exploits: a window of fixed-width time buckets holds the
//! near future, events beyond the window wait in an unsorted overflow bin,
//! and the window is rebuilt (re-tuned to the pending-event density) once
//! drained. Pops then cost `O(1)` amortised.
//!
//! **Staged stimulus.** A run's stimulus is known up front and can be far
//! longer than what is in flight at any moment. [`Simulator::inject`]
//! therefore *stages* its pulses in a reserve instead of pushing them,
//! keeping each call's train as an ascending run, so the reserve never
//! sorts. Each rebuild tunes the new window to the next 256 pending
//! events (one per bucket) — the overflow bin plus an even share of each
//! run's leading events — and admits only the staged events that window
//! covers. The calendar thus holds the events in flight plus about one
//! window of stimulus, however long the stimulus.
//!
//! **Determinism contract.** The simulator's results are defined by the
//! total order in which events are delivered: earliest `time` first,
//! ties broken by ascending `seq` (scheduling order). [`CalendarQueue`]
//! reproduces that order *exactly* — buckets are sorted by `(time, seq)`
//! when the drain cursor enters them, and pushes that land at or before
//! the cursor are insertion-sorted into the live bucket no earlier than
//! the cursor itself (an event scheduled in the past is delivered next,
//! matching `BinaryHeap` semantics). Staged events wait only while they
//! lie at or beyond the window's end, like the overflow bin's, so the
//! reserve cannot change the order either; one the live window already
//! covers is pushed at once. Property tests in `tests/properties.rs`
//! check pop-order equivalence against `BinaryHeap<Event>` on random
//! schedules, including equal-time bursts and far-future overflow events,
//! and this module's tests do the same with staged trains mixed in.
//!
//! [`Simulator::inject`]: crate::Simulator::inject

use crate::event::Event;
use std::cmp::Ordering;

/// Number of buckets in the calendar window. Rebuilds re-tune the bucket
/// width so pending events spread over the window at roughly one per
/// bucket; 256 buckets keep a rebuild's fixed cost trivial while covering
/// deep pipelines' in-flight event counts.
const NUM_BUCKETS: usize = 256;

/// Ascending `(time, seq)` — the delivery order the simulator is
/// contractually bound to (the mirror image of `Event`'s reversed
/// max-heap `Ord`).
#[inline]
fn delivery_order(a: &Event, b: &Event) -> Ordering {
    a.time
        .partial_cmp(&b.time)
        .expect("event times are never NaN")
        .then_with(|| a.seq.cmp(&b.seq))
}

/// A bucketed calendar/ladder queue over [`Event`]s, tuned for ps-scale
/// delays, popping in exact ascending `(time, seq)` order.
///
/// # Examples
///
/// ```
/// use sushi_sim::queue::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// The bucket window covering `[window_start, window_start + width * NUM_BUCKETS)`.
    /// Only `buckets[cur_bucket]` is kept sorted; later buckets sort lazily
    /// when the cursor reaches them.
    buckets: Vec<Vec<Event>>,
    /// Index of the bucket the drain cursor is in.
    cur_bucket: usize,
    /// Position of the next undelivered event within the current bucket
    /// (entries before it were already popped).
    cur_pos: usize,
    /// Lower edge of the bucket window.
    window_start: f64,
    /// Width of one bucket in ps; `0.0` means "window not built yet".
    width: f64,
    /// Undelivered events currently stored in window buckets.
    in_window: usize,
    /// Events at or beyond the window's end, unsorted until a rebuild.
    overflow: Vec<Event>,
    /// The reserve: staged events, read through `runs`.
    staged: Vec<Event>,
    /// The staged events not yet admitted to the window, as ascending runs
    /// over `staged`; once a window exists, all lie at or beyond its end.
    runs: Vec<Run>,
    /// Scratch for a rebuild: the runs' leading event times.
    lead: Vec<f64>,
    /// Total undelivered events, staged ones included.
    len: usize,
}

/// One staged train still waiting: `staged[next..end]`, ascending in
/// `(time, seq)`.
#[derive(Debug, Clone, Copy)]
struct Run {
    next: usize,
    end: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); NUM_BUCKETS],
            cur_bucket: 0,
            cur_pos: 0,
            window_start: 0.0,
            width: 0.0,
            in_window: 0,
            overflow: Vec::new(),
            staged: Vec::new(),
            runs: Vec::new(),
            lead: Vec::new(),
            len: 0,
        }
    }

    /// Number of undelivered events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events, staged ones included, and forgets the
    /// current window tuning, keeping allocations for reuse: the buckets',
    /// the overflow bin's and the reserve's. A cleared queue behaves
    /// identically to a fresh one (this backs `Simulator::reset`
    /// determinism).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.staged.clear();
        self.runs.clear();
        self.cur_bucket = 0;
        self.cur_pos = 0;
        self.window_start = 0.0;
        self.width = 0.0;
        self.in_window = 0;
        self.len = 0;
    }

    /// Schedules an event.
    pub fn push(&mut self, ev: Event) {
        self.len += 1;
        if self.width <= 0.0 {
            // No window yet (fresh/cleared queue): park everything in
            // overflow; the first pop builds a window tuned to the lot.
            self.overflow.push(ev);
            return;
        }
        let rel = ev.time - self.window_start;
        if rel >= self.width * NUM_BUCKETS as f64 {
            self.overflow.push(ev);
            return;
        }
        let idx = if rel > 0.0 {
            ((rel / self.width) as usize).min(NUM_BUCKETS - 1)
        } else {
            0
        };
        if idx <= self.cur_bucket {
            // Lands in (or before) the live sorted bucket: insertion-sort it
            // in, but never before the drain cursor — an event scheduled at
            // or before the current time is simply delivered next, exactly
            // as a heap would order the *remaining* events.
            let bucket = &mut self.buckets[self.cur_bucket];
            let at = bucket[self.cur_pos..]
                .partition_point(|e| delivery_order(e, &ev) == Ordering::Less);
            bucket.insert(self.cur_pos + at, ev);
        } else {
            // Future bucket: append unsorted; it sorts when the cursor
            // enters it.
            self.buckets[idx].push(ev);
        }
        self.in_window += 1;
    }

    /// Stages an event in the reserve, to be admitted by the first rebuild
    /// whose window covers its time. An event the current window already
    /// covers (one in the simulated past included) is pushed at once, so
    /// staging delivers in exactly the order [`CalendarQueue::push`] does.
    /// Consecutive events that ascend in `(time, seq)` extend one run, so
    /// staging each input's train in order never needs a sort.
    pub(crate) fn stage(&mut self, ev: Event) {
        if self.width > 0.0 && ev.time - self.window_start < self.width * NUM_BUCKETS as f64 {
            self.push(ev);
            return;
        }
        if self.runs.is_empty() {
            self.staged.clear();
        }
        let end = self.staged.len();
        match self.runs.last_mut() {
            Some(run)
                if run.end == end
                    && delivery_order(&self.staged[end - 1], &ev) == Ordering::Less =>
            {
                run.end += 1;
            }
            _ => self.runs.push(Run {
                next: end,
                end: end + 1,
            }),
        }
        self.staged.push(ev);
        self.len += 1;
    }

    /// Removes the staged events not yet admitted, handing each run's
    /// events to `f` in order; the calendar's own events stay.
    pub(crate) fn drain_staged(&mut self, mut f: impl FnMut(Event)) {
        for run in self.runs.drain(..) {
            self.len -= run.end - run.next;
            for &ev in &self.staged[run.next..run.end] {
                f(ev);
            }
        }
        self.staged.clear();
    }

    /// The earliest pending event's time, if any.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.peek().map(|ev| ev.time)
    }

    /// The earliest pending event, if any.
    pub fn peek(&mut self) -> Option<&Event> {
        if self.len == 0 {
            return None;
        }
        self.normalize();
        Some(&self.buckets[self.cur_bucket][self.cur_pos])
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        self.normalize();
        let ev = self.buckets[self.cur_bucket][self.cur_pos];
        self.cur_pos += 1;
        self.in_window -= 1;
        self.len -= 1;
        Some(ev)
    }

    /// Advances the cursor to the next undelivered event. Requires
    /// `len > 0`.
    fn normalize(&mut self) {
        if self.in_window == 0 {
            self.rebuild();
        }
        while self.cur_pos >= self.buckets[self.cur_bucket].len() {
            self.buckets[self.cur_bucket].clear();
            self.cur_bucket += 1;
            self.cur_pos = 0;
            // `in_window > 0` guarantees an occupied bucket ahead.
            self.buckets[self.cur_bucket].sort_unstable_by(delivery_order);
        }
    }

    /// Builds a fresh window from the overflow bin and the heads of the
    /// staged runs, re-tuned so the next `NUM_BUCKETS` pending events spread
    /// at roughly one per bucket, and admits the staged events it covers.
    /// Requires every pending event to sit in `overflow` or the reserve
    /// (i.e. `in_window == 0`).
    fn rebuild(&mut self) {
        debug_assert_eq!(
            self.overflow.len() + self.runs.iter().map(|r| r.end - r.next).sum::<usize>(),
            self.len
        );
        let mut tmin = f64::INFINITY;
        let mut tmax = f64::NEG_INFINITY;
        for ev in &self.overflow {
            tmin = tmin.min(ev.time);
            tmax = tmax.max(ev.time);
        }
        // The staged events fill the buckets the overflow bin leaves free.
        // Each run's head bounds the window's start; the far edge reaches
        // the `free`-th earliest of the runs' leading events, an even share
        // per run, so one late train cannot stretch the window.
        let free = NUM_BUCKETS.saturating_sub(self.overflow.len());
        let share = free.div_ceil(self.runs.len().max(1)).max(1);
        self.lead.clear();
        for run in &self.runs {
            let lead = &self.staged[run.next..run.end.min(run.next + share)];
            tmin = tmin.min(lead[0].time);
            self.lead.extend(lead.iter().map(|ev| ev.time));
        }
        let picked = free.min(self.lead.len());
        if picked > 0 {
            let (_, edge, _) = self.lead.select_nth_unstable_by(picked - 1, f64::total_cmp);
            tmax = tmax.max(*edge);
        }
        let span = tmax - tmin;
        // Width such that the window covers the whole span (the `1 + ε`
        // headroom keeps `tmax` strictly inside) at ~1 event per bucket;
        // a degenerate all-equal-times bin gets an arbitrary width.
        let n = (self.overflow.len() + picked).clamp(1, NUM_BUCKETS);
        self.width = if span > 0.0 {
            (span / n as f64) * (1.0 + 1e-12)
        } else {
            1.0
        };
        self.window_start = tmin;
        self.cur_bucket = 0;
        self.cur_pos = 0;
        for b in &mut self.buckets {
            b.clear();
        }
        let (start, width) = (self.window_start, self.width);
        let window_end = width * NUM_BUCKETS as f64;
        let buckets = &mut self.buckets;
        let mut place = |ev: Event| {
            let rel = ev.time - start;
            let covered = rel < window_end;
            if covered {
                buckets[((rel / width) as usize).min(NUM_BUCKETS - 1)].push(ev);
            }
            covered
        };
        let waiting = self.overflow.len();
        self.overflow.retain(|&ev| !place(ev));
        let mut admitted = waiting - self.overflow.len();
        // A run ascends, so the events the window covers are a prefix.
        for run in &mut self.runs {
            let covered = self.staged[run.next..run.end]
                .iter()
                .take_while(|&&ev| place(ev))
                .count();
            run.next += covered;
            admitted += covered;
        }
        self.runs.retain(|run| run.next < run.end);
        self.in_window = admitted;
        // `tmin` always lands in bucket 0, so the new window is non-empty.
        self.buckets[0].sort_unstable_by(delivery_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellId, PortRef};
    use proptest::prelude::*;
    use std::collections::BinaryHeap;
    use sushi_cells::PortName;

    fn ev(t: f64, seq: u64) -> Event {
        Event::new(t, seq, PortRef::new(CellId::from_index(0), PortName::Din))
    }

    fn drain(q: &mut CalendarQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.seq));
        }
        out
    }

    #[test]
    fn pops_earliest_first() {
        let mut q = CalendarQueue::new();
        q.push(ev(30.0, 0));
        q.push(ev(10.0, 1));
        q.push(ev(20.0, 2));
        assert_eq!(drain(&mut q), vec![(10.0, 1), (20.0, 2), (30.0, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_in_schedule_order() {
        let mut q = CalendarQueue::new();
        q.push(ev(10.0, 5));
        q.push(ev(10.0, 1));
        q.push(ev(10.0, 3));
        assert_eq!(drain(&mut q), vec![(10.0, 1), (10.0, 3), (10.0, 5)]);
    }

    #[test]
    fn far_future_events_survive_overflow_rebuilds() {
        let mut q = CalendarQueue::new();
        q.push(ev(1.0, 0));
        assert_eq!(q.pop().unwrap().seq, 0); // builds a tiny window
        q.push(ev(2.0, 1));
        q.push(ev(1.0e9, 2)); // way past the window: overflow bin
        q.push(ev(3.0, 3));
        assert_eq!(drain(&mut q), vec![(2.0, 1), (3.0, 3), (1.0e9, 2)]);
    }

    #[test]
    fn push_at_or_before_cursor_pops_next() {
        let mut q = CalendarQueue::new();
        q.push(ev(10.0, 0));
        q.push(ev(50.0, 1));
        assert_eq!(q.pop().unwrap().time, 10.0);
        // Scheduled "in the past" relative to the last pop: delivered next,
        // exactly like the heap it replaces.
        q.push(ev(5.0, 2));
        assert_eq!(drain(&mut q), vec![(5.0, 2), (50.0, 1)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_total_order() {
        let mut q = CalendarQueue::new();
        let mut seq = 0;
        for i in 0..50 {
            q.push(ev(40.0 * f64::from(i), seq));
            seq += 1;
        }
        let mut last = f64::NEG_INFINITY;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(e.time >= last);
            last = e.time;
            popped += 1;
            if popped % 3 == 0 {
                // Cascade: schedule a follow-up a few ps ahead.
                q.push(ev(e.time + 4.5, seq));
                seq += 1;
            }
        }
        // Cascaded events cascade too: the fixed point of t = 50 + floor(t/3).
        assert_eq!(popped, 74);
    }

    #[test]
    fn peek_matches_pop_and_len_tracks() {
        let mut q = CalendarQueue::new();
        q.push(ev(7.0, 0));
        q.push(ev(3.0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(3.0));
        assert_eq!(q.peek().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(7.0));
    }

    #[test]
    fn clear_resets_to_fresh_behaviour() {
        let mut q = CalendarQueue::new();
        for i in 0..20u32 {
            q.push(ev(f64::from(i), u64::from(i)));
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert_eq!(q.pop(), None);
        q.push(ev(1.0, 0));
        assert_eq!(drain(&mut q), vec![(1.0, 0)]);
    }

    #[test]
    fn all_equal_times_in_one_bucket() {
        let mut q = CalendarQueue::new();
        for s in 0..100 {
            q.push(ev(42.0, s));
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), 100);
        assert!(order.windows(2).all(|w| w[0].1 < w[1].1));
    }

    /// Stages `len` events of source `slot` on both queues: an ascending
    /// train from `start`, `gap` quarter-ps apart, keyed like the engine's
    /// provenance keys (`slot << 32 | ordinal`).
    fn stage_train(
        cal: &mut CalendarQueue,
        heap: &mut BinaryHeap<Event>,
        (slot, ordinal): (u64, &mut u32),
        start: f64,
        (len, gap): (usize, u64),
    ) {
        for i in 0..len as u64 {
            let e = ev(
                start + (i * gap) as f64 * 0.25,
                (slot << 32) | u64::from(*ordinal),
            );
            *ordinal += 1;
            cal.stage(e);
            heap.push(e);
        }
    }

    proptest! {
        /// The admission path against the `BinaryHeap` oracle. Several
        /// sources stage ascending trains of 0-600 events (more than the
        /// 256 buckets) that meet at equal times; then random operations
        /// interleave pops, cascade pushes near the cursor, behind it and
        /// 1e6 ps ahead, drains to a horizon, trains staged mid-run, and
        /// `clear()`s followed by fresh trains (the `Simulator::reset`
        /// path). Every pop and every `len()` must match the heap's.
        #[test]
        fn staged_trains_match_binary_heap_order(
            trains in prop::collection::vec((0usize..600, 1u64..8), 1..5),
            codes in prop::collection::vec(0u64..u64::MAX, 1..800),
        ) {
            let mut heap: BinaryHeap<Event> = BinaryHeap::new();
            let mut cal = CalendarQueue::new();
            // One ordinal per source, plus one for the cascade pushes.
            let cascade = trains.len();
            let mut ordinals = vec![0u32; cascade + 1];
            for (slot, &train) in trains.iter().enumerate() {
                stage_train(&mut cal, &mut heap, (slot as u64, &mut ordinals[slot]), 0.0, train);
            }
            let mut now = 0.0f64;
            for code in codes {
                let offset = ((code >> 4) % 256) as f64 * 0.25;
                let push_at = match code % 16 {
                    0..=2 => Some(now + offset),
                    3 => Some(now - offset),
                    4 => Some(now + 1.0e6 + offset),
                    _ => None,
                };
                if let Some(t) = push_at {
                    let e = ev(t, ((cascade as u64) << 32) | u64::from(ordinals[cascade]));
                    ordinals[cascade] += 1;
                    cal.push(e);
                    heap.push(e);
                } else if code % 16 == 5 {
                    // Drain strictly below a horizon, like a partition
                    // worker's window loop.
                    let horizon = now + offset;
                    while heap.peek().is_some_and(|e| e.time < horizon) {
                        let e = heap.pop().unwrap();
                        prop_assert!(cal.peek_time().is_some_and(|t| t < horizon));
                        let g = cal.pop().unwrap();
                        prop_assert_eq!((e.time, e.seq), (g.time, g.seq));
                        now = e.time;
                    }
                    prop_assert!(!cal.peek_time().is_some_and(|t| t < horizon));
                } else if code % 16 == 6 {
                    // An inject between runs: a source's next train, from
                    // a little behind the cursor.
                    let slot = (code >> 12) as usize % cascade;
                    let train = trains[slot];
                    stage_train(&mut cal, &mut heap, (slot as u64, &mut ordinals[slot]), now - 8.0 + offset, train);
                } else if code % 16 == 7 {
                    heap.clear();
                    cal.clear();
                    ordinals.fill(0);
                    now = 0.0;
                    for (slot, &train) in trains.iter().enumerate() {
                        stage_train(&mut cal, &mut heap, (slot as u64, &mut ordinals[slot]), 0.0, train);
                    }
                } else {
                    let expect = heap.pop();
                    let got = cal.pop();
                    match (expect, got) {
                        (None, None) => {}
                        (Some(e), Some(g)) => {
                            prop_assert_eq!((e.time, e.seq), (g.time, g.seq));
                            now = e.time;
                        }
                        (e, g) => prop_assert!(false, "heap {:?} vs calendar {:?}", e, g),
                    }
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            while let Some(e) = heap.pop() {
                let g = cal.pop();
                prop_assert_eq!(Some((e.time, e.seq)), g.map(|g| (g.time, g.seq)));
                prop_assert_eq!(cal.len(), heap.len());
            }
            prop_assert!(cal.is_empty());
        }
    }
}
