//! The stateless-neuron executor with software and hardware firing
//! semantics.
//!
//! * [`FireSemantics::EndOfStep`] is the software reference (SpikingJelly
//!   semantics): a neuron fires iff its accumulated potential is at or
//!   above threshold when the time step ends.
//! * [`FireSemantics::FirstCrossing`] is what the NPE ripple counter does:
//!   the carry-out pulse fires the moment the running potential *reaches*
//!   the threshold, so an excitatory run followed by late inhibition can
//!   fire prematurely, and a deep inhibitory dip can underflow the counter
//!   and emit a spurious borrow-out spike.
//!
//! The gap between the two semantics — controlled by the synapse order —
//! is precisely what Section 5.1's bucketing/reordering algorithm manages.

use crate::backend::argmax_low;
use crate::binarize::BinarizedSnn;
use crate::bucketing::bucketed_order;

/// Firing semantics of the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireSemantics {
    /// Software reference: fire iff the end-of-step potential >= threshold.
    EndOfStep,
    /// Hardware counter: fire at the first threshold crossing; underflow
    /// emits a spurious spike.
    FirstCrossing,
}

/// Counters of hardware-semantics hazards and work performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Neuron-steps where the potential crossed the threshold mid-step but
    /// ended below it (hardware fired, software would not).
    pub premature_fires: u64,
    /// Neuron-steps where the counter underflowed (spurious borrow-out).
    pub underflows: u64,
    /// Total synaptic operations performed (active-synapse visits).
    pub synops: u64,
    /// Neuron polarity reconfigurations (set0/set1 switches) along the
    /// visit orders — the dominant weight-reload cost for binary weights.
    pub polarity_switches: u64,
    /// Total neuron-step evaluations.
    pub neuron_steps: u64,
}

impl ExecStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.premature_fires += other.premature_fires;
        self.underflows += other.underflows;
        self.synops += other.synops;
        self.polarity_switches += other.polarity_switches;
        self.neuron_steps += other.neuron_steps;
    }

    /// Fraction of neuron-steps exhibiting either hazard.
    pub fn hazard_rate(&self) -> f64 {
        if self.neuron_steps == 0 {
            0.0
        } else {
            (self.premature_fires + self.underflows) as f64 / self.neuron_steps as f64
        }
    }
}

/// Executes a [`BinarizedSnn`] under a chosen synapse order and firing
/// semantics.
///
/// # Examples
///
/// ```
/// use sushi_ssnn::binarize::{BinaryLayer, BinarizedSnn};
/// use sushi_ssnn::{FireSemantics, SsnnExecutor};
///
/// let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
/// let net = BinarizedSnn::from_layers(vec![l]);
/// let exec = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 8);
/// let (spikes, _stats) = exec.step(&[true, true]);
/// assert_eq!(spikes, vec![true, false]);
/// ```
#[derive(Debug, Clone)]
pub struct SsnnExecutor<'a> {
    net: &'a BinarizedSnn,
    /// `orders[l][j]`: synapse visit order for neuron `j` of layer `l`.
    orders: Vec<Vec<Vec<usize>>>,
    semantics: FireSemantics,
    num_states: u64,
    buckets: usize,
}

impl<'a> SsnnExecutor<'a> {
    /// An executor over `net` with `buckets`-way bucketed inhibitory-first
    /// orders and a hardware counter of `num_states` states.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or `buckets == 0`.
    pub fn new(
        net: &'a BinarizedSnn,
        semantics: FireSemantics,
        num_states: u64,
        buckets: usize,
    ) -> Self {
        assert!(num_states > 0, "counter needs at least one state");
        assert!(buckets > 0, "need at least one bucket");
        let orders = net
            .layers()
            .iter()
            .map(|layer| {
                (0..layer.outputs())
                    .map(|j| bucketed_order(&layer.column_signs(j), buckets))
                    .collect()
            })
            .collect();
        Self {
            net,
            orders,
            semantics,
            num_states,
            buckets,
        }
    }

    /// Replaces the visit order of one neuron (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if the order is not a permutation of the neuron's synapses.
    pub fn set_order(&mut self, layer: usize, neuron: usize, order: Vec<usize>) {
        let inputs = self.net.layers()[layer].inputs();
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(
            check,
            (0..inputs).collect::<Vec<_>>(),
            "order must be a permutation"
        );
        self.orders[layer][neuron] = order;
    }

    /// The configured bucket count.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The underlying network.
    pub fn network(&self) -> &BinarizedSnn {
        self.net
    }

    /// Runs one time step, returning output spikes and the step's stats.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    pub fn step(&self, input: &[bool]) -> (Vec<bool>, ExecStats) {
        let mut stats = ExecStats::default();
        let mut x = input.to_vec();
        for (l, layer) in self.net.layers().iter().enumerate() {
            assert_eq!(x.len(), layer.inputs(), "layer {l} input width mismatch");
            let mut next = vec![false; layer.outputs()];
            for (j, fired) in next.iter_mut().enumerate() {
                // Synapse signs come from the layer's packed columns: two
                // bit tests per visit instead of materializing a `Vec<i8>`
                // column per neuron per step.
                let (conn, pos) = layer.packed().column(j);
                let theta = layer.threshold(j);
                // Hardware mapping: the counter is preloaded so that the
                // carry-out happens when the running sum reaches theta;
                // downward headroom is num_states - theta.
                let underflow_at = -(self.num_states as i64 - theta);
                let mut v = 0i64;
                let mut crossed = false;
                let mut underflow = false;
                let mut last_sign: Option<i8> = None;
                for &i in &self.orders[l][j] {
                    if !x[i] || conn[i >> 6] >> (i & 63) & 1 == 0 {
                        continue; // inactive input or open cross-point switch
                    }
                    let s: i8 = if pos[i >> 6] >> (i & 63) & 1 == 1 {
                        1
                    } else {
                        -1
                    };
                    if last_sign != Some(s) {
                        if last_sign.is_some() {
                            stats.polarity_switches += 1;
                        }
                        last_sign = Some(s);
                    }
                    stats.synops += 1;
                    v += i64::from(s);
                    if v >= theta {
                        crossed = true;
                    }
                    if v <= underflow_at {
                        underflow = true;
                    }
                }
                stats.neuron_steps += 1;
                let sw_fire = v >= theta;
                let hw_fire = crossed || underflow;
                if crossed && !sw_fire {
                    stats.premature_fires += 1;
                }
                if underflow {
                    stats.underflows += 1;
                }
                *fired = match self.semantics {
                    FireSemantics::EndOfStep => sw_fire,
                    FireSemantics::FirstCrossing => hw_fire,
                };
            }
            x = next;
        }
        (x, stats)
    }

    /// Runs all `frames`, returning per-class spike counts and cumulative
    /// stats.
    pub fn forward_counts(&self, frames: &[Vec<bool>]) -> (Vec<u32>, ExecStats) {
        let mut counts = vec![0u32; self.net.classes()];
        let mut stats = ExecStats::default();
        for f in frames {
            let (spikes, s) = self.step(f);
            stats.merge(&s);
            for (c, fired) in counts.iter_mut().zip(spikes) {
                *c += u32::from(fired);
            }
        }
        (counts, stats)
    }

    /// Predicted class (argmax, ties to the lowest index) plus stats.
    pub fn predict(&self, frames: &[Vec<bool>]) -> (usize, ExecStats) {
        let (counts, stats) = self.forward_counts(frames);
        (argmax_low(&counts), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::BinaryLayer;

    fn toy_net() -> BinarizedSnn {
        // 4 inputs, 3 neurons with mixed polarities.
        let signs = vec![
            1, -1, 1, //
            1, 1, -1, //
            -1, 1, 1, //
            1, 1, 1,
        ];
        BinarizedSnn::from_layers(vec![BinaryLayer::from_signs(signs, 4, 3, vec![2, 2, 3])])
    }

    #[test]
    fn end_of_step_matches_reference_network() {
        let net = toy_net();
        let exec = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 4);
        for mask in 0..16u32 {
            let input: Vec<bool> = (0..4).map(|b| mask >> b & 1 == 1).collect();
            let (spikes, _) = exec.step(&input);
            assert_eq!(spikes, net.step_scalar(&input), "mask {mask:04b}");
        }
    }

    #[test]
    fn first_crossing_with_inhibitory_first_matches_software() {
        // Inhibitory-first ordering makes every crossing genuine, so both
        // semantics agree when states are plentiful.
        let net = toy_net();
        let exec = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 1024, 1);
        let reference = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 1);
        for mask in 0..16u32 {
            let input: Vec<bool> = (0..4).map(|b| mask >> b & 1 == 1).collect();
            assert_eq!(
                exec.step(&input).0,
                reference.step(&input).0,
                "mask {mask:04b}"
            );
        }
    }

    #[test]
    fn excitatory_first_order_causes_premature_fire() {
        // One neuron: +1 +1 then -1 -1, threshold 2. Natural order crosses
        // 2 then ends at 0.
        let l = BinaryLayer::from_signs(vec![1, 1, -1, -1], 4, 1, vec![2]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let mut exec = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 1024, 1);
        exec.set_order(0, 0, vec![0, 1, 2, 3]);
        let (spikes, stats) = exec.step(&[true; 4]);
        assert_eq!(spikes, vec![true], "hardware fires prematurely");
        assert_eq!(stats.premature_fires, 1);
        // Software semantics would not fire.
        let sw = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 1);
        assert_eq!(sw.step(&[true; 4]).0, vec![false]);
    }

    #[test]
    fn tiny_counter_underflows_on_inhibitory_dip() {
        // 3 inhibitory then 3 excitatory, threshold 2, only 4 states:
        // downward headroom is 4 - 2 = 2, the dip of -3 underflows.
        let l = BinaryLayer::from_signs(vec![-1, -1, -1, 1, 1, 1], 6, 1, vec![2]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let exec = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 4, 1);
        let (spikes, stats) = exec.step(&[true; 6]);
        assert_eq!(stats.underflows, 1);
        assert_eq!(spikes, vec![true], "borrow-out is a spurious spike");
        // A big counter has no such problem.
        let big = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 1024, 1);
        let (spikes, stats) = big.step(&[true; 6]);
        assert_eq!(stats.underflows, 0);
        assert_eq!(spikes, vec![false]);
    }

    #[test]
    fn bucketing_avoids_underflow_on_small_counters() {
        // 8 inhibitory + 8 excitatory alternating via buckets keeps the dip
        // shallow enough for an 8-state counter (headroom 6).
        let mut signs = vec![-1i8; 8];
        signs.extend(vec![1i8; 8]);
        let l = BinaryLayer::from_signs(signs, 16, 1, vec![2]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let deep = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 8, 1);
        assert_eq!(deep.step(&[true; 16]).1.underflows, 1);
        let bucketed = SsnnExecutor::new(&net, FireSemantics::FirstCrossing, 8, 8);
        assert_eq!(bucketed.step(&[true; 16]).1.underflows, 0);
    }

    #[test]
    fn stats_count_synops_and_switches() {
        let net = toy_net();
        let exec = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 1);
        let (_, stats) = exec.step(&[true; 4]);
        // 4 active inputs x 3 neurons.
        assert_eq!(stats.synops, 12);
        assert_eq!(stats.neuron_steps, 3);
        // Inhibitory-first: exactly one polarity switch per neuron that has
        // both polarities (all 3 do).
        assert_eq!(stats.polarity_switches, 3);
    }

    #[test]
    fn more_buckets_means_more_polarity_switches() {
        let signs: Vec<i8> = (0..64).map(|i| if i % 2 == 0 { -1 } else { 1 }).collect();
        let l = BinaryLayer::from_signs(signs, 64, 1, vec![5]);
        let net = BinarizedSnn::from_layers(vec![l]);
        let few = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 1);
        let many = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 16);
        let s_few = few.step(&[true; 64]).1.polarity_switches;
        let s_many = many.step(&[true; 64]).1.polarity_switches;
        assert!(s_many > s_few, "{s_few} -> {s_many}");
    }

    #[test]
    fn predict_accumulates_over_frames() {
        let net = toy_net();
        let exec = SsnnExecutor::new(&net, FireSemantics::EndOfStep, 1024, 2);
        let frames = vec![vec![true; 4], vec![true, false, true, true]];
        let (counts, stats) = exec.forward_counts(&frames);
        assert_eq!(counts.len(), 3);
        assert_eq!(stats.neuron_steps, 6);
        let (pred, _) = exec.predict(&frames);
        assert!(pred < 3);
    }

    #[test]
    fn hazard_rate_sane() {
        let s = ExecStats {
            premature_fires: 1,
            underflows: 1,
            synops: 0,
            polarity_switches: 0,
            neuron_steps: 8,
        };
        assert!((s.hazard_rate() - 0.25).abs() < 1e-12);
        assert_eq!(ExecStats::default().hazard_rate(), 0.0);
    }
}
