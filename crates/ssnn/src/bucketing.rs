//! Synapse bucketing & reordering (Section 5.1).
//!
//! The NPE counter is bounded, so the order in which a neuron's synaptic
//! pulses arrive within a time step matters twice over:
//!
//! * **Premature firing** — if excitatory pulses arrive before the
//!   inhibition that would cancel them, the running potential can cross
//!   the threshold mid-step and the carry-out fires a spike the software
//!   model would not produce. Traversing *inhibitory synapses first*
//!   guarantees any crossing is genuine.
//! * **Counter underflow** — pure inhibitory-first drives the potential
//!   down to −(#inhibitory) before recovering, which "could lead to an
//!   overflow of the lower number of states". *Bucketing* interleaves
//!   inhibitory-first batches so the excursion stays bounded.
//!
//! [`analyze_excursion`] quantifies both effects for a given order, and is
//! the basis of the paper's "~500 states is adequate" claim and of the
//! bucketing ablation bench.

/// Visit order of a neuron's synapses within one time step: pure
/// inhibitory synapses first ("we traverse all inhibitory synapse
/// connections first to obtain the minimum membrane potential value").
///
/// Returns synapse indices; `signs[i]` is ±1.
///
/// # Examples
///
/// ```
/// use sushi_ssnn::inhibitory_first;
/// assert_eq!(inhibitory_first(&[1, -1, 1, -1]), vec![1, 3, 0, 2]);
/// ```
pub fn inhibitory_first(signs: &[i8]) -> Vec<usize> {
    let inh = signs
        .iter()
        .enumerate()
        .filter(|(_, s)| **s < 0)
        .map(|(i, _)| i);
    let exc = signs
        .iter()
        .enumerate()
        .filter(|(_, s)| **s >= 0)
        .map(|(i, _)| i);
    inh.chain(exc).collect()
}

/// Bucketed order: synapses are split into `buckets` batches, each batch
/// containing a proportional share of inhibitory and excitatory synapses,
/// traversed inhibitory-first *within* the batch.
///
/// With `buckets == 1` this degenerates to [`inhibitory_first`].
///
/// # Panics
///
/// Panics if `buckets == 0`.
pub fn bucketed_order(signs: &[i8], buckets: usize) -> Vec<usize> {
    assert!(buckets > 0, "need at least one bucket");
    let inh: Vec<usize> = signs
        .iter()
        .enumerate()
        .filter(|(_, s)| **s < 0)
        .map(|(i, _)| i)
        .collect();
    let exc: Vec<usize> = signs
        .iter()
        .enumerate()
        .filter(|(_, s)| **s >= 0)
        .map(|(i, _)| i)
        .collect();
    let mut order = Vec::with_capacity(signs.len());
    for b in 0..buckets {
        let islice = chunk(&inh, b, buckets);
        let eslice = chunk(&exc, b, buckets);
        order.extend_from_slice(islice);
        order.extend_from_slice(eslice);
    }
    order
}

/// The `b`-th of `n` near-equal chunks of `v`.
fn chunk(v: &[usize], b: usize, n: usize) -> &[usize] {
    let start = v.len() * b / n;
    let end = v.len() * (b + 1) / n;
    &v[start..end]
}

/// Result of simulating the running potential of one neuron over one time
/// step under a given synapse order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Excursion {
    /// Minimum running potential reached.
    pub min: i64,
    /// Maximum running potential reached.
    pub max: i64,
    /// Final potential at the end of the step.
    pub end: i64,
    /// Whether the running potential crossed the threshold mid-step but
    /// ended below it — the premature-firing hazard.
    pub premature: bool,
}

impl Excursion {
    /// Counter states needed to hold this excursion plus firing headroom:
    /// the span from `min` to `max(max, threshold)` inclusive.
    pub fn required_states(&self, threshold: i64) -> u64 {
        (self.max.max(threshold) - self.min + 1).max(1) as u64
    }

    /// The counter offset (preload above zero) needed so the minimum
    /// excursion stays non-negative.
    pub fn required_offset(&self) -> i64 {
        (-self.min).max(0)
    }
}

/// Simulates the running potential of a neuron whose synapse `order` is
/// visited against `signs`, with `active[i]` telling whether input `i`
/// spiked this step.
///
/// # Panics
///
/// Panics if lengths mismatch or `order` indexes out of range.
pub fn analyze_excursion(
    signs: &[i8],
    order: &[usize],
    active: &[bool],
    threshold: i64,
) -> Excursion {
    assert_eq!(signs.len(), active.len(), "signs/active mismatch");
    let mut v = 0i64;
    let (mut min, mut max) = (0i64, 0i64);
    let mut crossed = false;
    for &i in order {
        assert!(i < signs.len(), "order index {i} out of range");
        if !active[i] {
            continue;
        }
        v += i64::from(signs[i]);
        min = min.min(v);
        max = max.max(v);
        if v >= threshold {
            crossed = true;
        }
    }
    Excursion {
        min,
        max,
        end: v,
        premature: crossed && v < threshold,
    }
}

/// Worst-case (all inputs active) excursion for a neuron under `order`.
pub fn worst_case_excursion(signs: &[i8], order: &[usize], threshold: i64) -> Excursion {
    analyze_excursion(signs, order, &vec![true; signs.len()], threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inhibitory_first_orders_all_negatives_first() {
        let signs = [1i8, -1, -1, 1, -1];
        let order = inhibitory_first(&signs);
        assert_eq!(order.len(), 5);
        assert!(order[..3].iter().all(|&i| signs[i] < 0));
        assert!(order[3..].iter().all(|&i| signs[i] > 0));
    }

    #[test]
    fn bucketed_order_is_a_permutation() {
        let signs: Vec<i8> = (0..97).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
        for buckets in [1usize, 2, 5, 16, 97] {
            let mut order = bucketed_order(&signs, buckets);
            order.sort_unstable();
            assert_eq!(order, (0..97).collect::<Vec<_>>(), "buckets={buckets}");
        }
    }

    #[test]
    fn one_bucket_equals_inhibitory_first() {
        let signs = [1i8, -1, 1, -1, -1, 1];
        assert_eq!(bucketed_order(&signs, 1), inhibitory_first(&signs));
    }

    #[test]
    fn inhibitory_first_prevents_premature_firing() {
        // 3 excitatory then 2 inhibitory, threshold 2: natural order would
        // cross then fall back; inhibitory-first never crosses prematurely.
        let signs = [1i8, 1, 1, -1, -1];
        let natural: Vec<usize> = (0..5).collect();
        let nat = worst_case_excursion(&signs, &natural, 2);
        assert!(nat.premature, "natural order should be hazardous");
        let safe = worst_case_excursion(&signs, &inhibitory_first(&signs), 2);
        assert!(!safe.premature);
        assert_eq!(safe.end, 1);
    }

    #[test]
    fn inhibitory_first_has_deepest_excursion() {
        let signs: Vec<i8> = (0..100).map(|i| if i % 2 == 0 { -1 } else { 1 }).collect();
        let deep = worst_case_excursion(&signs, &inhibitory_first(&signs), 10);
        assert_eq!(deep.min, -50);
        let shallow = worst_case_excursion(&signs, &bucketed_order(&signs, 10), 10);
        assert!(
            shallow.min > deep.min,
            "bucketing should bound the dip: {shallow:?}"
        );
        assert!(shallow.min <= 0);
        // Both end at the same final potential: ordering is sum-preserving.
        assert_eq!(deep.end, shallow.end);
    }

    #[test]
    fn bucketing_reduces_required_states() {
        let signs: Vec<i8> = (0..400).map(|i| if i % 2 == 0 { -1 } else { 1 }).collect();
        let t = 20;
        let full = worst_case_excursion(&signs, &inhibitory_first(&signs), t).required_states(t);
        let bucketed =
            worst_case_excursion(&signs, &bucketed_order(&signs, 20), t).required_states(t);
        assert!(bucketed < full, "bucketed {bucketed} >= full {full}");
    }

    #[test]
    fn excursion_respects_active_mask() {
        let signs = [-1i8, 1, 1];
        let order = inhibitory_first(&signs);
        let e = analyze_excursion(&signs, &order, &[false, true, false], 5);
        assert_eq!((e.min, e.max, e.end), (0, 1, 1));
    }

    #[test]
    fn required_states_includes_threshold_headroom() {
        let e = Excursion {
            min: -3,
            max: 1,
            end: 1,
            premature: false,
        };
        // Needs to represent -3..=5 for threshold 5: 9 states.
        assert_eq!(e.required_states(5), 9);
        assert_eq!(e.required_offset(), 3);
    }

    #[test]
    fn paper_scale_networks_fit_in_500ish_states() {
        // An 800-input neuron with balanced random signs under 16-way
        // bucketing: the worst-case excursion must fit the NPE's 1024
        // states (the paper: "at least ~500 states is adequate").
        let signs: Vec<i8> = (0..800)
            .map(|i| if (i * 7) % 5 < 2 { -1 } else { 1 })
            .collect();
        let t = 40;
        let order = bucketed_order(&signs, 16);
        let req = worst_case_excursion(&signs, &order, t).required_states(t);
        assert!(req <= 1024, "required {req}");
        assert!(req >= 64, "suspiciously small {req}");
    }

    #[test]
    #[should_panic(expected = "bucket")]
    fn zero_buckets_panics() {
        let _ = bucketed_order(&[1, -1], 0);
    }
}
