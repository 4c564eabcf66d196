//! Property-based tests on the simulator's core invariants.

use proptest::prelude::*;
use std::collections::BinaryHeap;
use sushi_cells::{CellKind, CellLibrary, PortName, Ps};
use sushi_sim::event::Event;
use sushi_sim::{
    levels_from_pulses, BatchRunner, CalendarQueue, CellId, Netlist, PortRef, PulseTrain,
    RingTracer, SimConfig, SimOutcome, StimulusBuilder,
};

/// Strategy: a monotonically increasing pulse train with safe spacing.
fn safe_train(max_len: usize) -> impl Strategy<Value = Vec<Ps>> {
    prop::collection::vec(40.0..200.0f64, 0..max_len).prop_map(|gaps| {
        let mut t = 0.0;
        gaps.iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

/// Strategy: a pulse train tight enough to provoke hold/setup violations
/// in JTL/TFFL pipelines, so equality checks cover the violation path too.
fn tight_train(max_len: usize) -> impl Strategy<Value = Vec<Ps>> {
    prop::collection::vec(8.0..60.0f64, 1..max_len).prop_map(|gaps| {
        let mut t = 0.0;
        gaps.iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

/// A line of `segments` JTL/TFFL segments joined by large-delay links —
/// the shape `PartitionPlan` cuts — with a probe at every segment tail.
fn segmented_netlist(segments: usize, stages: usize, link_ps: Ps, stateful: bool) -> Netlist {
    let mut n = Netlist::new();
    let mut prev: Option<CellId> = None;
    for s in 0..segments {
        for i in 0..stages {
            let kind = if stateful && i == stages / 2 {
                CellKind::Tffl
            } else {
                CellKind::Jtl
            };
            let c = n.add_cell(kind, format!("c{s}_{i}"));
            match prev {
                None => n.add_input("in", c, PortName::Din).unwrap(),
                Some(p) => {
                    let delay = if i == 0 { link_ps } else { 2.0 };
                    n.connect_with_delay(p, PortName::Dout, c, PortName::Din, delay)
                        .unwrap();
                }
            }
            prev = Some(c);
        }
        n.probe(format!("out{s}"), prev.unwrap(), PortName::Dout)
            .unwrap();
    }
    n
}

/// Runs one simulation to completion and returns everything observable:
/// the outcome (traces, violations, stats) and the full observer stream.
fn run_once(
    netlist: &Netlist,
    library: &CellLibrary,
    jitter: Option<u64>,
    pulses: &[Ps],
    partitions: Option<usize>,
) -> (SimOutcome, RingTracer) {
    let mut cfg = SimConfig::new().observer(RingTracer::new(1 << 14));
    if let Some(seed) = jitter {
        cfg = cfg.jitter(seed, 2.0);
    }
    let mut sim = cfg.build(netlist, library);
    sim.inject("in", pulses).unwrap();
    match partitions {
        Some(k) => sim.run_partitioned(k).unwrap(),
        None => sim.run_to_completion().unwrap(),
    }
    let tracer = sim.take_observer_as::<RingTracer>().unwrap();
    (sim.take_outcome(), tracer)
}

proptest! {
    /// A TFF chain of depth d divides the pulse count by 2^d.
    #[test]
    fn tff_chain_divides_by_powers_of_two(pulses in safe_train(64), depth in 1usize..4) {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        n.add_input("in", src, PortName::Din).unwrap();
        let mut prev = (src, PortName::Dout);
        for i in 0..depth {
            let t = n.add_cell(CellKind::Tffl, format!("t{i}"));
            n.connect(prev.0, prev.1, t, PortName::Din).unwrap();
            prev = (t, PortName::Dout);
        }
        n.probe("out", prev.0, prev.1).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = SimConfig::new().build(&n, &lib);
        sim.inject("in", &pulses).unwrap();
        sim.run_to_completion().unwrap();
        // TFFL emits on every odd input pulse (1st, 3rd, ...): ceil(n/2) per stage.
        let mut expect = pulses.len();
        for _ in 0..depth {
            expect = expect.div_ceil(2);
        }
        prop_assert_eq!(sim.pulses("out").len(), expect);
    }

    /// A splitter tree followed by a confluence tree multiplies pulse count
    /// by the fan-out (every pulse is preserved through SPL+CB).
    #[test]
    fn spl_cb_preserve_every_pulse(pulses in safe_train(32)) {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let spl = n.add_cell(CellKind::Spl2, "spl");
        let cb = n.add_cell(CellKind::Cb2, "cb");
        n.add_input("in", src, PortName::Din).unwrap();
        n.connect(src, PortName::Dout, spl, PortName::Din).unwrap();
        // Unequal path delays so the two copies never collide inside the CB.
        n.connect_with_delay(spl, PortName::DoutA, cb, PortName::DinA, 0.0).unwrap();
        n.connect_with_delay(spl, PortName::DoutB, cb, PortName::DinB, 10.0).unwrap();
        n.probe("out", cb, PortName::Dout).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = SimConfig::new().build(&n, &lib);
        sim.inject("in", &pulses).unwrap();
        sim.run_to_completion().unwrap();
        prop_assert_eq!(sim.pulses("out").len(), 2 * pulses.len());
    }

    /// Level conversion is an involution on counts: toggles == pulses, and
    /// the final level equals initial XOR parity.
    #[test]
    fn level_conversion_parity(pulses in safe_train(64), initial: bool) {
        let lt = levels_from_pulses(&pulses, initial);
        prop_assert_eq!(lt.toggle_count(), pulses.len());
        let end = lt.level_at(1e12);
        prop_assert_eq!(end, initial ^ (pulses.len() % 2 == 1));
    }

    /// Safe-interval stimulus never produces timing violations in a JTL
    /// pipeline of any depth.
    #[test]
    fn safe_stimulus_is_violation_free(pulses in safe_train(32), depth in 1usize..6) {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        n.add_input("in", src, PortName::Din).unwrap();
        let mut prev = (src, PortName::Dout);
        for i in 0..depth {
            let j = n.add_cell(CellKind::Jtl, format!("j{i}"));
            n.connect(prev.0, prev.1, j, PortName::Din).unwrap();
            prev = (j, PortName::Dout);
        }
        n.probe("out", prev.0, prev.1).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = SimConfig::new().build(&n, &lib);
        sim.inject("in", &pulses).unwrap();
        sim.run_to_completion().unwrap();
        prop_assert!(sim.violations().is_empty());
        prop_assert_eq!(sim.pulses("out").len(), pulses.len());
    }

    /// Pulse trains match themselves and matching is symmetric.
    #[test]
    fn train_matching_is_reflexive_and_symmetric(a in safe_train(32), jitter in 0.0..0.5f64) {
        let ta = PulseTrain::from_times(a.clone());
        let tb = PulseTrain::from_times(a.iter().map(|t| t + jitter).collect());
        prop_assert!(ta.matches(&ta, 0.0));
        prop_assert_eq!(ta.matches(&tb, 1.0), tb.matches(&ta, 1.0));
        prop_assert!(ta.matches(&tb, 1.0));
    }

    /// The batch layer is deterministic: for random small netlists and
    /// stimulus batches, 1/2/4 workers all reproduce the sequential
    /// outcomes bitwise — with and without jitter.
    #[test]
    fn batch_runner_matches_sequential_for_any_worker_count(
        trains in prop::collection::vec(safe_train(12), 1..8),
        depth in 1usize..4,
        stateful: bool,
        jittered: bool,
    ) {
        // in -> dcsfq -> (jtl | tffl)^depth -> probe: random depth, with a
        // stateful variant so worker reuse must also reset cell state.
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        n.add_input("in", src, PortName::Din).unwrap();
        let mut prev = (src, PortName::Dout);
        for i in 0..depth {
            let kind = if stateful { CellKind::Tffl } else { CellKind::Jtl };
            let c = n.add_cell(kind, format!("c{i}"));
            n.connect(prev.0, prev.1, c, PortName::Din).unwrap();
            prev = (c, PortName::Dout);
        }
        n.probe("out", prev.0, prev.1).unwrap();
        let lib = CellLibrary::nb03();

        let items: Vec<_> = trains
            .iter()
            .map(|train| {
                let mut b = StimulusBuilder::new();
                for &t in train {
                    b = b.pulse("in", t).unwrap();
                }
                b.build()
            })
            .collect();

        let mut runner = BatchRunner::new(&n, &lib);
        if jittered {
            runner = runner.with_config(&SimConfig::new().jitter(0xBA7C4, 1.5));
        }
        let reference = runner.run_sequential(&items).unwrap();
        prop_assert_eq!(reference.len(), items.len());
        for workers in [1usize, 2, 4] {
            let got = runner.clone().with_workers(workers).run(&items).unwrap();
            prop_assert_eq!(&got, &reference, "workers={}", workers);
        }
    }

    /// Instrumentation is invisible to results: the observer-attached
    /// reporting path produces outcomes bitwise identical to the plain
    /// run for any worker count, and its profiler totals are consistent
    /// with the outcomes it observed.
    #[test]
    fn observed_batch_runs_are_bitwise_identical_to_plain_runs(
        trains in prop::collection::vec(safe_train(10), 1..7),
        jittered: bool,
    ) {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let tff = n.add_cell(CellKind::Tffl, "tff");
        n.add_input("in", src, PortName::Din).unwrap();
        n.connect(src, PortName::Dout, tff, PortName::Din).unwrap();
        n.probe("out", tff, PortName::Dout).unwrap();
        let lib = CellLibrary::nb03();

        let items: Vec<_> = trains
            .iter()
            .map(|train| {
                let mut b = StimulusBuilder::new();
                for &t in train {
                    b = b.pulse("in", t).unwrap();
                }
                b.build()
            })
            .collect();

        let mut runner = BatchRunner::new(&n, &lib);
        if jittered {
            runner = runner.with_config(&SimConfig::new().jitter(0x0B5E6, 1.0));
        }
        let plain = runner.run(&items).unwrap();
        for workers in [1usize, 2, 4] {
            let r = runner.clone().with_workers(workers);
            let (observed, report) = r.run_with_report(&items, 4).unwrap();
            prop_assert_eq!(&observed, &plain, "workers={}", workers);
            let delivered: u64 = plain.iter().map(|o| o.stats.events_delivered).sum();
            prop_assert_eq!(report.events_delivered, delivered);
            prop_assert_eq!(report.items, items.len());
        }
    }

    /// The calendar queue pops in exactly the `(time, seq)` order of the
    /// `BinaryHeap<Event>` it replaced, under random interleaved schedules
    /// that include equal-time bursts, pushes earlier than the last pop,
    /// and far-future events that land in the overflow bin.
    #[test]
    fn calendar_queue_matches_binary_heap_order(codes in prop::collection::vec(0u64..u64::MAX, 1..400)) {
        let target = PortRef::new(CellId::from_index(0), PortName::Din);
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        // Time of the most recent pop (the simulator's "current time").
        let mut now = 0.0f64;
        // Time of the most recent push, reused for equal-time bursts.
        let mut last_push = 0.0f64;

        for code in codes {
            // Decode one op from the random word: 5/8 pushes of four
            // flavours, 3/8 pops. The offset quantises to 0.25 ps so
            // exact float collisions between flavours happen too.
            let offset = ((code >> 3) % 256) as f64 * 0.25;
            let time = match code % 8 {
                0 | 1 => Some(now + offset),         // near future
                2 => Some(last_push),                // equal-time burst
                3 => Some(now + 1.0e6 + offset),     // overflow bin
                4 => Some(now - offset),             // before the cursor
                _ => None,                           // pop
            };
            if let Some(t) = time {
                heap.push(Event::new(t, seq, target));
                cal.push(Event::new(t, seq, target));
                last_push = t;
                seq += 1;
            } else {
                let expect = heap.pop();
                let got = cal.pop();
                prop_assert_eq!(cal.len(), heap.len());
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        prop_assert_eq!((e.time, e.seq), (g.time, g.seq));
                        now = e.time;
                    }
                    (e, g) => prop_assert!(false, "heap {:?} vs calendar {:?}", e, g),
                }
            }
        }
        // Drain the remainder: the full tail must agree element-wise.
        while let Some(e) = heap.pop() {
            let g = cal.pop();
            prop_assert_eq!(Some((e.time, e.seq)), g.map(|g| (g.time, g.seq)));
        }
        prop_assert!(cal.is_empty());
    }

    /// Interleaved `clear()` mid-drain followed by re-push — the
    /// `Simulator::reset` path: a cleared calendar queue (which keeps its
    /// allocations but forgets its window tuning) must behave exactly like
    /// an emptied `BinaryHeap`, including when the post-clear schedule
    /// starts at earlier times than the pre-clear cursor had reached.
    #[test]
    fn calendar_queue_clear_mid_drain_matches_binary_heap(codes in prop::collection::vec(0u64..u64::MAX, 1..400)) {
        let target = PortRef::new(CellId::from_index(0), PortName::Din);
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let mut last_push = 0.0f64;

        for code in codes {
            // 1/16 clears, 6/16 pops, 9/16 pushes (the four flavours of
            // the order-equivalence proptest above).
            let op = code % 16;
            if op == 15 {
                heap.clear();
                cal.clear();
                // Mirror Simulator::reset: the seq counter rewinds too and
                // simulated time starts over, so re-pushed events land at
                // times the drained window had already passed.
                seq = 0;
                now = 0.0;
                last_push = 0.0;
                continue;
            }
            let offset = ((code >> 4) % 256) as f64 * 0.25;
            let time = match op {
                0..=2 => Some(now + offset),        // near future
                3 | 4 => Some(last_push),           // equal-time burst
                5 | 6 => Some(now + 1.0e6 + offset),// overflow bin
                7 | 8 => Some(now - offset),        // before the cursor
                _ => None,                          // pop
            };
            if let Some(t) = time {
                heap.push(Event::new(t, seq, target));
                cal.push(Event::new(t, seq, target));
                last_push = t;
                seq += 1;
            } else {
                let expect = heap.pop();
                let got = cal.pop();
                prop_assert_eq!(cal.len(), heap.len());
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        prop_assert_eq!((e.time, e.seq), (g.time, g.seq));
                        now = e.time;
                    }
                    (e, g) => prop_assert!(false, "heap {:?} vs calendar {:?}", e, g),
                }
            }
        }
        while let Some(e) = heap.pop() {
            let g = cal.pop();
            prop_assert_eq!(Some((e.time, e.seq)), g.map(|g| (g.time, g.seq)));
        }
        prop_assert!(cal.is_empty());
    }

    /// The partitioned engine is invisible to results: for random
    /// segmented netlists, stimulus (including violation-provoking
    /// spacings), and jitter seeds, `run_partitioned(k)` reproduces the
    /// sequential run bitwise — traces, violations, stats, and the full
    /// observer event stream — for k in {1, 2, 4, 7}.
    #[test]
    fn partitioned_runs_match_sequential_bitwise(
        segments in 2usize..5,
        stages in 2usize..5,
        link in 25.0..60.0f64,
        stateful: bool,
        jitter in prop::option::of(any::<u64>()),
        pulses in tight_train(24),
    ) {
        let n = segmented_netlist(segments, stages, link, stateful);
        let lib = CellLibrary::nb03();
        let (seq_out, seq_trace) = run_once(&n, &lib, jitter, &pulses, None);
        for k in [1usize, 2, 4, 7] {
            let (out, trace) = run_once(&n, &lib, jitter, &pulses, Some(k));
            prop_assert_eq!(&out, &seq_out, "outcome diverged at k={}", k);
            prop_assert_eq!(&trace, &seq_trace, "observer stream diverged at k={}", k);
        }
    }

    /// The calendar queue under the partition merge pattern: several
    /// logical sources push with provenance keys (`slot << 32 | ordinal`)
    /// in window-sized batches — equal times across sources, interleaved
    /// key order, drains to a horizon between batches (spanning bucket
    /// rebuilds) — and must still pop in exactly `(time, key)` order.
    #[test]
    fn calendar_queue_merges_multi_source_windows_like_a_heap(
        windows in prop::collection::vec(
            prop::collection::vec((0u64..4, 0u64..16), 0..24),
            1..24,
        ),
    ) {
        let target = PortRef::new(CellId::from_index(0), PortName::Din);
        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut cal = CalendarQueue::new();
        let mut ordinal = [0u32; 4];
        let mut window_start = 0.0f64;
        // Lookahead-sized windows, like `run_partitioned`'s horizon.
        let lookahead = 4.0f64;

        for batch in windows {
            // Mailbox exchange: every source deposits its window's
            // emissions, many at identical quantized times.
            for (slot, tick) in batch {
                let t = window_start + tick as f64 * 0.25;
                let key = (slot << 32) | u64::from(ordinal[slot as usize]);
                ordinal[slot as usize] += 1;
                heap.push(Event::new(t, key, target));
                cal.push(Event::new(t, key, target));
            }
            // Drain strictly below the horizon, exactly like a worker's
            // window loop; both queues must agree event-for-event.
            let horizon = window_start + lookahead;
            while heap.peek().is_some_and(|e| e.time < horizon) {
                let e = heap.pop().unwrap();
                prop_assert!(cal.peek_time().is_some_and(|t| t < horizon));
                let g = cal.pop().unwrap();
                prop_assert_eq!((e.time, e.seq), (g.time, g.seq));
            }
            prop_assert!(!cal.peek_time().is_some_and(|t| t < horizon));
            window_start = horizon;
        }
        // End of run: the leftover tail beyond the last horizon.
        while let Some(e) = heap.pop() {
            let g = cal.pop();
            prop_assert_eq!(Some((e.time, e.seq)), g.map(|g| (g.time, g.seq)));
        }
        prop_assert!(cal.is_empty());
    }
}
