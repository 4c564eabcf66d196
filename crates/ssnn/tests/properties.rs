//! Property-based tests on the SSNN methodology's invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;
use sushi_sim::StimulusBuilder;
use sushi_ssnn::batchplane::BitplaneScratch;
use sushi_ssnn::binarize::{BinarizedSnn, BinaryLayer};
use sushi_ssnn::bitslice::{Slice, SliceSchedule};
use sushi_ssnn::bucketing::{analyze_excursion, bucketed_order, inhibitory_first};
use sushi_ssnn::encode::{encode_slice_step, SliceEncoder, StepEncoder, SETTLE_PS};
use sushi_ssnn::packed::{PackedFrames, PackedSnn};
use sushi_ssnn::quantize::QuantizedLayer;
use sushi_ssnn::stateless::{FireSemantics, SsnnExecutor};

/// Strategy: a sign vector of the given maximum length.
fn signs(max_len: usize) -> impl Strategy<Value = Vec<i8>> {
    prop::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], 1..max_len)
}

/// Deterministically expands a seed into a random network whose layer
/// widths deliberately straddle `u64` word boundaries (1..≈150 inputs),
/// with zero signs (open switches) mixed in and column 0 of the first
/// layer forced all-inhibitory.
fn net_from_seed(seed: u64, ins: usize, hidden: usize, outs: usize) -> BinarizedSnn {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    let mut layer = |i: usize, o: usize, force_inhibitory_col0: bool| {
        let sgn: Vec<i8> = (0..i * o)
            .map(|idx| {
                if force_inhibitory_col0 && idx % o == 0 {
                    -1
                } else {
                    match next() % 5 {
                        0 => 0,
                        1 | 2 => -1,
                        _ => 1,
                    }
                }
            })
            .collect();
        let thresholds: Vec<i64> = (0..o).map(|_| 1 + (next() % 5) as i64).collect();
        BinaryLayer::from_signs(sgn, i, o, thresholds)
    };
    BinarizedSnn::from_layers(vec![layer(ins, hidden, true), layer(hidden, outs, false)])
}

/// Deterministic spike frames of the given width (~1/3 density).
fn frames_from_seed(seed: u64, count: usize, width: usize) -> Vec<Vec<bool>> {
    let mut st = seed | 1;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    (0..count)
        .map(|_| (0..width).map(|_| next() % 3 == 0).collect())
        .collect()
}

proptest! {
    /// Any bucketing factor yields a permutation, and the end-of-step
    /// potential is order-independent (the sum is preserved).
    #[test]
    fn bucketed_order_preserves_sum(s in signs(120), buckets in 1usize..20, mask in any::<u64>()) {
        let order = bucketed_order(&s, buckets);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..s.len()).collect::<Vec<_>>());
        let active: Vec<bool> = (0..s.len()).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let e_bucketed = analyze_excursion(&s, &order, &active, 5);
        let e_inh = analyze_excursion(&s, &inhibitory_first(&s), &active, 5);
        prop_assert_eq!(e_bucketed.end, e_inh.end);
    }

    /// Inhibitory-first never yields a premature crossing: the potential
    /// is monotonically non-decreasing after its minimum.
    #[test]
    fn inhibitory_first_never_premature(s in signs(120), mask in any::<u64>(), threshold in 1i64..20) {
        let active: Vec<bool> = (0..s.len()).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let e = analyze_excursion(&s, &inhibitory_first(&s), &active, threshold);
        prop_assert!(!e.premature);
    }

    /// Bucketing never deepens the excursion below inhibitory-first's
    /// (which visits every inhibitory synapse before any excitatory one).
    #[test]
    fn bucketing_bounds_the_dip(s in signs(200), buckets in 2usize..20) {
        let deep = analyze_excursion(&s, &inhibitory_first(&s), &vec![true; s.len()], 10);
        let shallow = analyze_excursion(&s, &bucketed_order(&s, buckets), &vec![true; s.len()], 10);
        prop_assert!(shallow.min >= deep.min, "bucketed {} < inh-first {}", shallow.min, deep.min);
    }

    /// Threshold folding is exact: the integer rule fires iff the scaled
    /// float pre-activation reaches the float threshold.
    #[test]
    fn threshold_folding_is_exact(
        s in signs(60),
        alpha in 0.01f32..2.0,
        theta in 0.1f32..3.0,
        mask in any::<u64>(),
    ) {
        use sushi_snn::Matrix;
        // A column with uniform magnitude alpha: binarization is lossless.
        let w = Matrix::from_vec(s.len(), 1, s.iter().map(|&x| alpha * f32::from(x)).collect());
        let layer = BinaryLayer::from_float(&w, theta);
        let active: Vec<bool> = (0..s.len()).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let int_sum: i64 = s.iter().zip(&active).filter(|(_, a)| **a).map(|(x, _)| i64::from(*x)).sum();
        let float_sum: f64 = f64::from(alpha) * int_sum as f64;
        let int_fires = int_sum >= layer.threshold(0);
        let float_fires = float_sum >= f64::from(theta) - 1e-6;
        prop_assert_eq!(int_fires, float_fires,
            "int_sum {} threshold {} float_sum {} theta {}", int_sum, layer.threshold(0), float_sum, theta);
    }

    /// Sliced execution equals the unsliced step for any chip width.
    #[test]
    fn slicing_is_equivalent(
        ins in 1usize..12,
        outs in 1usize..8,
        n in 1usize..20,
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let sgn: Vec<i8> = (0..ins * outs)
            .map(|i| if (seed >> (i % 64)) & 1 == 1 { -1 } else { 1 })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|j| 1 + (seed.wrapping_mul(j as u64 + 3) % 4) as i64).collect();
        let layer = BinaryLayer::from_signs(sgn, ins, outs, thresholds);
        let net = BinarizedSnn::from_layers(vec![layer]);
        let sched = SliceSchedule::for_network(&net, n);
        let input: Vec<bool> = (0..ins).map(|i| mask >> (i % 64) & 1 == 1).collect();
        prop_assert_eq!(sched.sliced_step(&net, &input), net.step_scalar(&input));
    }

    /// With ample counter states and one bucket (inhibitory-first), the
    /// hardware executor matches the software reference exactly.
    #[test]
    fn semantics_coincide_with_inhibitory_first(
        ins in 1usize..16,
        outs in 1usize..6,
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let sgn: Vec<i8> = (0..ins * outs)
            .map(|i| if (seed >> (i % 64)) & 1 == 1 { -1 } else { 1 })
            .collect();
        let thresholds = vec![2i64; outs];
        let layer = BinaryLayer::from_signs(sgn, ins, outs, thresholds);
        let net = BinarizedSnn::from_layers(vec![layer]);
        let hw = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 1 << 20, 1);
        let sw = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1 << 20, 1);
        let input: Vec<bool> = (0..ins).map(|i| mask >> (i % 64) & 1 == 1).collect();
        prop_assert_eq!(hw.step(&input).0, sw.step(&input).0);
    }

    /// Quantization respects its contract for arbitrary float columns:
    /// strengths in 1..=max_gain with the weight's sign, and the
    /// strength-sorted order is a permutation grouping polarities.
    #[test]
    fn quantization_contract(
        weights in prop::collection::vec(-2.0f32..2.0, 2..40),
        max_gain in 1u16..24,
        theta in 0.1f32..2.0,
    ) {
        use sushi_snn::Matrix;
        let n = weights.len();
        let w = Matrix::from_vec(n, 1, weights.clone());
        let q = QuantizedLayer::from_float(&w, theta, max_gain);
        for (i, &orig) in weights.iter().enumerate() {
            let level = q.level(i, 0);
            prop_assert!(level != 0, "weight structures always pass >= 1 pulse");
            prop_assert!(level.unsigned_abs() <= max_gain, "level {level} > {max_gain}");
            if orig < 0.0 {
                prop_assert!(level < 0);
            } else {
                prop_assert!(level > 0);
            }
        }
        prop_assert!(q.threshold(0) >= 1);
        let mut order = q.strength_sorted_order(0);
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Higher quantization precision never increases the deviation from
    /// the float firing rule on uniform-magnitude columns (where binary is
    /// already exact, more levels must stay exact).
    #[test]
    fn quantization_is_exact_on_uniform_columns(
        s in prop::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], 2..32),
        alpha in 0.05f32..1.5,
        mask in any::<u64>(),
        max_gain in 1u16..16,
    ) {
        use sushi_snn::Matrix;
        let n = s.len();
        let w = Matrix::from_vec(n, 1, s.iter().map(|&x| alpha * f32::from(x)).collect());
        let q = QuantizedLayer::from_float(&w, 1.0, max_gain);
        let active: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let float_sum: f64 = s
            .iter()
            .zip(&active)
            .filter(|(_, a)| **a)
            .map(|(x, _)| f64::from(alpha) * f64::from(*x))
            .sum();
        let float_fires = float_sum >= 1.0 - 1e-6;
        prop_assert_eq!(q.step(&active), vec![float_fires]);
    }

    /// The packed XNOR/popcount engine is a bitwise-exact drop-in for the
    /// scalar oracle: spikes, counts and predictions agree for random
    /// layer shapes (widths straddling the 64-bit word boundary, zero
    /// signs, an all-inhibitory column) and frame sets including empty.
    #[test]
    fn packed_matches_scalar(
        ins in 1usize..150,
        hidden in 1usize..70,
        outs in 1usize..12,
        seed in any::<u64>(),
        n_frames in 0usize..8,
    ) {
        let net = net_from_seed(seed, ins, hidden, outs);
        let packed = PackedSnn::from_network(&net);
        let frames = frames_from_seed(seed ^ 0xF00D, n_frames, ins);
        for f in &frames {
            prop_assert_eq!(packed.step(f), net.step_scalar(f));
        }
        prop_assert_eq!(packed.forward_counts(&frames), net.forward_counts_scalar(&frames));
        prop_assert_eq!(packed.predict(&frames), net.predict_scalar(&frames));
    }

    /// The bitplane batch engine is a bitwise-exact drop-in for both the
    /// packed path and the scalar oracle: equal counts, spikes and argmax
    /// for random shapes (off-word widths, zero signs, an all-inhibitory
    /// column) and batch sizes spanning lane-group boundaries (1, 63, 64,
    /// 65), including lanes with differing frame counts.
    #[test]
    fn bitplane_matches_packed_and_scalar(
        ins in 1usize..150,
        hidden in 1usize..70,
        outs in 1usize..12,
        seed in any::<u64>(),
        n_items in prop_oneof![Just(1usize), Just(5), Just(63), Just(64), Just(65)],
    ) {
        let net = net_from_seed(seed, ins, hidden, outs);
        let packed = PackedSnn::from_network(&net);
        // Frame counts vary per item (0..=3) so lanes go inactive at
        // different steps within one 64-lane group.
        let items: Vec<Vec<Vec<bool>>> = (0..n_items)
            .map(|k| frames_from_seed(seed ^ (k as u64 + 17), k % 4, ins))
            .collect();
        let packed_items: Vec<PackedFrames> = items
            .iter()
            .map(|it| PackedFrames::from_bool_frames(ins, it))
            .collect();
        let mut s = BitplaneScratch::new();
        let mut counts = vec![Vec::new(); n_items];
        for (group, out) in packed_items.chunks(64).zip(counts.chunks_mut(64)) {
            packed.bitplane_group_counts_packed(group, &mut s, out);
        }
        for (it, got) in items.iter().zip(&counts) {
            prop_assert_eq!(got, &net.forward_counts_scalar(it));
            prop_assert_eq!(got, &packed.forward_counts(it));
        }
        let preds = packed.predict_batch_bitplane_packed(&packed_items, 1);
        prop_assert_eq!(&preds, &packed.predict_batch(&items, 1));
        let scalar_preds: Vec<usize> = items.iter().map(|it| net.predict_scalar(it)).collect();
        prop_assert_eq!(&preds, &scalar_preds);
        prop_assert_eq!(&packed.predict_batch_bitplane_packed(&packed_items, 3), &preds);
    }

    /// `predict_batch` is deterministic and input-ordered for any worker
    /// count: 1, 2 and 7 workers all reproduce the sequential pass.
    #[test]
    fn predict_batch_is_worker_invariant(
        ins in 1usize..100,
        outs in 2usize..10,
        seed in any::<u64>(),
        n_items in 0usize..12,
    ) {
        let net = net_from_seed(seed, ins, 20, outs);
        let packed = PackedSnn::from_network(&net);
        let items: Vec<Vec<Vec<bool>>> = (0..n_items)
            .map(|k| frames_from_seed(seed ^ (k as u64 + 1), 3, ins))
            .collect();
        let reference: Vec<usize> = items.iter().map(|it| packed.predict(it)).collect();
        for workers in [1usize, 2, 7] {
            prop_assert_eq!(&packed.predict_batch(&items, workers), &reference, "workers={}", workers);
        }
    }

    /// Every encoded slice schedule passes the Section 5.2 protocol
    /// validation, for arbitrary layers and activity patterns.
    #[test]
    fn encoded_schedules_always_validate(
        ins in 1usize..7,
        outs in 1usize..4,
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let sgn: Vec<i8> = (0..ins * outs)
            .map(|i| if (seed >> (i % 64)) & 1 == 1 { -1 } else { 1 })
            .collect();
        let layer = BinaryLayer::from_signs(sgn, ins, outs, vec![2; outs]);
        let slice = sushi_ssnn::bitslice::Slice { layer: 0, rows: 0..ins, cols: 0..outs, fires: true };
        let active: Vec<bool> = (0..ins).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let sched = encode_slice_step(&layer, &slice, &active, 256, 0.0);
        prop_assert!(sched.validate().is_empty(), "{:?}", sched.validate());
    }

    /// The id-keyed step encoder equals the named path that the benchmark's
    /// traced replay still takes (`SliceEncoder::next_slice` ->
    /// `by_channel` -> `StimulusBuilder`): the same pulse times per channel
    /// and a bitwise-equal end time. Layers mix zero signs in (open
    /// switches, so `sw_rst` pulses appear), chips are 1..=8 wide on 3- to
    /// 6-bit counters, column blocks may be narrower than the chip, and
    /// densities run from 0 to 100%. Each encoder runs two steps in a row,
    /// so reuse must not leak state from one step into the next.
    #[test]
    fn step_encoder_matches_named_slice_path(
        k_bits in 3usize..7,
        n in 1usize..9,
        ins in 1usize..40,
        outs in 1usize..12,
        seed in any::<u64>(),
        density in 0u64..101,
    ) {
        let num_states = 1u64 << k_bits;
        // A row block must fit the counter: n < 2^k.
        let n = n.min(num_states as usize - 1);
        let mut st = seed | 1;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        let signs: Vec<i8> = (0..ins * outs).map(|_| (next() % 3) as i8 - 1).collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| (next() % 80) as i64 - 4).collect();
        let layer = BinaryLayer::from_signs(signs, ins, outs, thresholds);
        let mut enc = StepEncoder::new(n, num_states);
        for step in 0..2 {
            let c0 = (next() % outs as u64) as usize;
            let width = 1 + (next() % n.min(outs - c0) as u64) as usize;
            let cols = c0..c0 + width;
            let active: Vec<bool> = (0..ins).map(|_| next() % 100 < density).collect();

            let end_ps = enc.encode(&layer, cols.clone(), &active);
            let by_id: BTreeMap<String, Vec<u64>> = enc
                .trains()
                .map(|(id, times)| (enc.channel_name(id), times.iter().map(|t| t.to_bits()).collect()))
                .collect();

            let mut named = SliceEncoder::new(width, num_states);
            let mut b = StimulusBuilder::with_min_interval(0.0);
            let mut t = 0.0;
            for r0 in (0..ins).step_by(n) {
                let rows = r0..(r0 + n).min(ins);
                let fires = rows.end == ins;
                let slice = Slice { layer: 0, rows, cols: cols.clone(), fires };
                let sched = named.next_slice(&layer, &slice, &active, t);
                for (channel, times) in sched.by_channel() {
                    for time in times {
                        b = b.pulse(&channel, time).expect("encoder emits monotonic channels");
                    }
                }
                t = sched.end_time().max(t) + SETTLE_PS;
            }
            let by_name: BTreeMap<String, Vec<u64>> = b
                .build()
                .iter()
                .map(|(ch, times)| (ch.to_owned(), times.iter().map(|t| t.to_bits()).collect()))
                .collect();
            prop_assert_eq!(&by_id, &by_name, "step {}", step);
            prop_assert_eq!(end_ps.to_bits(), t.to_bits(), "step {}", step);
        }
    }
}
