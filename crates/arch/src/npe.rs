//! The neuromorphic processing element (NPE) and its neuron models.
//!
//! An NPE is a serial chain of state controllers (Fig. 9). With every SC
//! configured to emit on its 1 -> 0 flip, the chain is an asynchronous
//! ripple counter: each SC holds one bit, a carry propagates as a pulse,
//! and the final SC's output pulse is the neuron's spike. Pre-loading the
//! counter to `2^K - threshold` makes the chain fire after exactly
//! `threshold` input pulses — this is how the multi-state element
//! "represents the states of the neuron model" without memory.
//!
//! Two models are provided:
//!
//! * [`NpeChain`] — the behavioural SC chain, bit-exact with the cell-level
//!   netlist from [`NpeNetlist`];
//! * [`BioNeuron`] — the biological neuron state machine of Figs. 6/7
//!   (below-threshold / rising / falling-undershoot phases).

use crate::state_controller::{ScBehavior, ScNetlist, ScPorts};
use sushi_cells::Ps;
use sushi_sim::{Netlist, NetlistError, PortRef};

/// Wire delay between consecutive SCs in a generated NPE chain, in ps.
const INTER_SC_DELAY_PS: Ps = 10.0;

/// Behavioural NPE: a chain of [`ScBehavior`]s acting as a ripple counter.
///
/// # Examples
///
/// ```
/// use sushi_arch::NpeChain;
///
/// let mut npe = NpeChain::new(4); // 16 states
/// npe.preload_threshold(5);
/// let fired: Vec<bool> = (0..5).map(|_| npe.pulse_in()).collect();
/// assert_eq!(fired, vec![false, false, false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpeChain {
    scs: Vec<ScBehavior>,
}

impl NpeChain {
    /// A chain of `k` state controllers (`2^k` states), outputs disabled.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 31`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0 && k < 32, "chain length must be in 1..=31, got {k}");
        Self {
            scs: vec![ScBehavior::new(); k],
        }
    }

    /// Number of SCs in the chain.
    pub fn len(&self) -> usize {
        self.scs.len()
    }

    /// True if the chain is empty (never: `new` requires `k > 0`).
    pub fn is_empty(&self) -> bool {
        self.scs.is_empty()
    }

    /// Number of representable states (`2^k`).
    pub fn num_states(&self) -> u64 {
        1u64 << self.scs.len()
    }

    /// The current counter value (LSB = first SC).
    pub fn value(&self) -> u64 {
        self.scs
            .iter()
            .enumerate()
            .map(|(i, sc)| u64::from(sc.state()) << i)
            .sum()
    }

    /// Applies one input pulse; returns true if the chain's final SC emits
    /// (the neuron spike / counter overflow in increment mode, or a
    /// spurious borrow-out in decrement mode).
    pub fn pulse_in(&mut self) -> bool {
        let mut carry = true;
        for sc in &mut self.scs {
            if !carry {
                return false;
            }
            carry = sc.pulse_in();
        }
        carry
    }

    /// Configures every SC to emit on fall (set1): input pulses *increment*
    /// the counter, with carries rippling on each bit's 1 -> 0 flip. This
    /// is the excitatory polarity.
    pub fn set_increment(&mut self) {
        for sc in &mut self.scs {
            sc.set1();
        }
    }

    /// Configures every SC to emit on rise (set0): input pulses *decrement*
    /// the counter, with borrows rippling on each bit's 0 -> 1 flip. This
    /// is the inhibitory polarity — weight polarity "is only distinguished
    /// when the weights reach the neuron, through the set channels".
    ///
    /// A borrow out of the final SC is a *spurious* spike: the underflow
    /// failure mode that synapse bucketing exists to prevent.
    pub fn set_decrement(&mut self) {
        for sc in &mut self.scs {
            sc.set0();
        }
    }

    /// Zeroes every SC and writes `value` through the per-SC write channels
    /// while outputs are disabled (so the writes cannot ripple), then
    /// configures every SC to carry (emit-on-fall).
    ///
    /// # Panics
    ///
    /// Panics if `value >= 2^k`.
    pub fn preload(&mut self, value: u64) {
        assert!(
            value < self.num_states(),
            "preload {value} exceeds {} states",
            self.num_states()
        );
        for sc in &mut self.scs {
            sc.disable();
            sc.zero();
        }
        for (i, sc) in self.scs.iter_mut().enumerate() {
            if (value >> i) & 1 == 1 {
                sc.write();
            }
        }
        for sc in &mut self.scs {
            sc.set1(); // carry on the 1 -> 0 flip
        }
        debug_assert_eq!(self.value(), value);
    }

    /// Preloads so that the chain fires on exactly the `threshold`-th input
    /// pulse (and every `2^k` pulses after).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is 0 or exceeds `2^k`.
    pub fn preload_threshold(&mut self, threshold: u64) {
        assert!(
            threshold >= 1 && threshold <= self.num_states(),
            "threshold {threshold} not in 1..={}",
            self.num_states()
        );
        self.preload(self.num_states() - threshold);
    }

    /// Reads each SC through the rst/read protocol, returning the counter
    /// value. Clears the monitors (the counter value itself is preserved;
    /// use [`NpeChain::preload`] to re-initialise).
    pub fn read_value(&mut self) -> u64 {
        self.scs
            .iter_mut()
            .enumerate()
            .map(|(i, sc)| u64::from(sc.rst_read()) << i)
            .sum()
    }
}

/// Cell-level ports of a generated NPE.
#[derive(Debug, Clone)]
pub struct NpePorts {
    /// Chain data input (first SC's `in`).
    pub input: PortRef,
    /// Chain spike output (last SC's `out`).
    pub out: PortRef,
    /// Per-SC control ports, in chain order.
    pub scs: Vec<ScPorts>,
}

/// Generates the cell-level NPE of Fig. 9 into a [`Netlist`].
#[derive(Debug, Clone, Copy)]
pub struct NpeNetlist;

impl NpeNetlist {
    /// Emits a `k`-SC NPE labelled with `prefix`; SCs are serially linked.
    ///
    /// # Errors
    ///
    /// Propagates netlist wiring errors.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn build(netlist: &mut Netlist, prefix: &str, k: usize) -> Result<NpePorts, NetlistError> {
        assert!(k > 0, "an NPE needs at least one SC");
        let mut scs = Vec::with_capacity(k);
        for i in 0..k {
            scs.push(ScNetlist::build(netlist, &format!("{prefix}.sc{i}"))?);
        }
        for w in scs.windows(2) {
            netlist.connect_with_delay(
                w[0].out.cell,
                w[0].out.port,
                w[1].input.cell,
                w[1].input.port,
                INTER_SC_DELAY_PS,
            )?;
        }
        Ok(NpePorts {
            input: scs[0].input,
            out: scs[k - 1].out,
            scs,
        })
    }

    /// Logic JJ count of a `k`-SC NPE under `library`.
    pub fn logic_jj(library: &sushi_cells::CellLibrary, k: usize) -> u64 {
        ScNetlist::logic_jj(library) * k as u64
    }
}

/// Phase of the biological neuron model (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BioPhase {
    /// Below-threshold state `b_t` (t accumulated spikes).
    Below(u32),
    /// Rising-phase state `r_i`.
    Rising(u32),
    /// Falling & undershoot state `f_i`.
    Falling(u32),
}

/// The biological neuron state machine of Figs. 6/7.
///
/// Spike stimuli climb the below-threshold ladder `b_0 .. b_threshold`;
/// time stimuli leak one step back down, or — once at `b_threshold` — march
/// through the rising phase (emitting the output spike on the
/// `r_{R-1} -> r_R` transition), the falling/undershoot phase, and return
/// to rest.
///
/// # Examples
///
/// ```
/// use sushi_arch::BioNeuron;
///
/// let mut n = BioNeuron::new(2, 3, 2);
/// n.on_spike();
/// n.on_spike(); // reaches b_threshold
/// let spikes: Vec<bool> = (0..4).map(|_| n.on_time()).collect();
/// assert_eq!(spikes.iter().filter(|s| **s).count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BioNeuron {
    threshold: u32,
    rising: u32,
    falling: u32,
    phase: BioPhase,
}

impl BioNeuron {
    /// A neuron needing `threshold` spikes, with `rising` rise states and
    /// `falling` fall states.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` or `rising` is zero.
    pub fn new(threshold: u32, rising: u32, falling: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        assert!(rising > 0, "rising phase needs at least one state");
        Self {
            threshold,
            rising,
            falling,
            phase: BioPhase::Below(0),
        }
    }

    /// The current phase.
    pub fn phase(&self) -> BioPhase {
        self.phase
    }

    /// Total number of distinct states this neuron uses.
    pub fn state_count(&self) -> u32 {
        (self.threshold + 1) + (self.rising + 1) + (self.falling + 1)
    }

    /// Applies a spike stimulus: `δ(b_t, spike) = b_{t+1}` up to the
    /// threshold; spikes during the rising/falling phases are refractory
    /// ("failed initiations") and ignored.
    pub fn on_spike(&mut self) {
        if let BioPhase::Below(t) = self.phase {
            if t < self.threshold {
                self.phase = BioPhase::Below(t + 1);
            }
        }
    }

    /// Applies a time stimulus per Fig. 7; returns true when the output
    /// spike is sent (the `r_{R-1} -> r_R` transition).
    pub fn on_time(&mut self) -> bool {
        match self.phase {
            BioPhase::Below(0) => false, // δ(b0, time) = b0
            BioPhase::Below(t) if t < self.threshold => {
                self.phase = BioPhase::Below(t - 1); // leak
                false
            }
            BioPhase::Below(_) => {
                self.phase = BioPhase::Rising(0); // δ(b_threshold, time) = r0
                false
            }
            BioPhase::Rising(i) if i + 1 < self.rising => {
                self.phase = BioPhase::Rising(i + 1);
                false
            }
            BioPhase::Rising(i) if i + 1 == self.rising => {
                self.phase = BioPhase::Rising(i + 1); // r_{R-1} -> r_R: fire
                true
            }
            BioPhase::Rising(_) => {
                self.phase = BioPhase::Falling(0); // δ(r_R, time) = f0
                false
            }
            BioPhase::Falling(i) if i < self.falling => {
                self.phase = BioPhase::Falling(i + 1);
                false
            }
            BioPhase::Falling(_) => {
                self.phase = BioPhase::Below(0); // δ(f_F, time) = b0
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_cells::CellLibrary;
    use sushi_sim::SimConfig;

    #[test]
    fn chain_counts_in_binary() {
        let mut npe = NpeChain::new(4);
        npe.preload(0);
        for expect in 1..16u64 {
            assert!(!npe.pulse_in());
            assert_eq!(npe.value(), expect);
        }
        // 16th pulse overflows: carry out, value wraps to 0.
        assert!(npe.pulse_in());
        assert_eq!(npe.value(), 0);
    }

    #[test]
    fn preload_threshold_fires_exactly_on_time() {
        for threshold in 1..=16u64 {
            let mut npe = NpeChain::new(4);
            npe.preload_threshold(threshold);
            for i in 1..threshold {
                assert!(!npe.pulse_in(), "t={threshold} premature at {i}");
            }
            assert!(npe.pulse_in(), "t={threshold} failed to fire");
        }
    }

    #[test]
    fn chain_fires_periodically_after_overflow() {
        let mut npe = NpeChain::new(3); // period 8
        npe.preload_threshold(3);
        // Fires at pulses 3, 11, 19.
        let fired_at: Vec<u32> = (1..=19u32).filter(|_| npe.pulse_in()).collect();
        assert_eq!(fired_at, vec![3, 11, 19]);
    }

    #[test]
    fn decrement_mode_counts_down() {
        let mut npe = NpeChain::new(4);
        npe.preload(5);
        npe.set_decrement();
        for expect in (0..5u64).rev() {
            assert!(!npe.pulse_in(), "no borrow-out while value > 0");
            assert_eq!(npe.value(), expect);
        }
        // Underflow: borrow out of the MSB is a spurious spike.
        assert!(npe.pulse_in());
        assert_eq!(npe.value(), 15);
    }

    #[test]
    fn polarity_switching_mixes_up_and_down() {
        let mut npe = NpeChain::new(5);
        npe.preload(10);
        npe.set_increment();
        for _ in 0..7 {
            npe.pulse_in();
        }
        assert_eq!(npe.value(), 17);
        npe.set_decrement();
        for _ in 0..4 {
            npe.pulse_in();
        }
        assert_eq!(npe.value(), 13);
        npe.set_increment();
        npe.pulse_in();
        assert_eq!(npe.value(), 14);
    }

    /// The cell-level chain also counts down when every SC is set0.
    #[test]
    fn cell_level_decrement_matches_behavioral() {
        let lib = CellLibrary::nb03();
        let k = 3usize;
        let preload = 5u64;
        let pulses = 5usize;
        let mut chain = NpeChain::new(k);
        chain.preload(preload);
        chain.set_decrement();
        let mut expected = 0usize;
        for _ in 0..pulses {
            if chain.pulse_in() {
                expected += 1;
            }
        }
        let mut n = Netlist::new();
        let ports = NpeNetlist::build(&mut n, "npe", k).unwrap();
        n.add_input("in", ports.input.cell, ports.input.port)
            .unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        for (i, sc) in ports.scs.iter().enumerate() {
            n.add_input(format!("set0_{i}"), sc.set0.cell, sc.set0.port)
                .unwrap();
            n.add_input(format!("write_{i}"), sc.write.cell, sc.write.port)
                .unwrap();
        }
        let mut sim = SimConfig::new().build(&n, &lib);
        for i in 0..k {
            if (preload >> i) & 1 == 1 {
                sim.inject(&format!("write_{i}"), &[100.0 + 50.0 * i as Ps])
                    .unwrap();
            }
        }
        for i in 0..k {
            sim.inject(&format!("set0_{i}"), &[1000.0]).unwrap();
        }
        let times: Vec<Ps> = (0..pulses).map(|i| 2000.0 + 400.0 * i as Ps).collect();
        sim.inject("in", &times).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), expected);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
    }

    #[test]
    fn read_value_reports_counter() {
        let mut npe = NpeChain::new(4);
        npe.preload(0);
        for _ in 0..5 {
            npe.pulse_in();
        }
        assert_eq!(npe.read_value(), 5);
    }

    #[test]
    #[should_panic(expected = "preload")]
    fn preload_out_of_range_panics() {
        NpeChain::new(3).preload(8);
    }

    #[test]
    fn cell_level_npe_matches_behavioral_chain() {
        let lib = CellLibrary::nb03();
        for (k, threshold, pulses) in [(2usize, 3u64, 7usize), (3, 5, 9), (4, 10, 12)] {
            // Behavioural.
            let mut chain = NpeChain::new(k);
            chain.preload_threshold(threshold);
            let mut expected = 0usize;
            for _ in 0..pulses {
                if chain.pulse_in() {
                    expected += 1;
                }
            }
            // Cell-level: preload by pulsing set1 on all SCs and writing bits.
            let mut n = Netlist::new();
            let ports = NpeNetlist::build(&mut n, "npe", k).unwrap();
            n.add_input("in", ports.input.cell, ports.input.port)
                .unwrap();
            n.probe("out", ports.out.cell, ports.out.port).unwrap();
            for (i, sc) in ports.scs.iter().enumerate() {
                n.add_input(format!("set1_{i}"), sc.set1.cell, sc.set1.port)
                    .unwrap();
                n.add_input(format!("write_{i}"), sc.write.cell, sc.write.port)
                    .unwrap();
            }
            let mut sim = SimConfig::new().build(&n, &lib);
            // Write preload bits while outputs are disabled (t < 1000).
            let preload = (1u64 << k) - threshold;
            for i in 0..k {
                if (preload >> i) & 1 == 1 {
                    sim.inject(&format!("write_{i}"), &[100.0 + 50.0 * i as Ps])
                        .unwrap();
                }
            }
            // Enable carry mode, then pulse.
            for i in 0..k {
                sim.inject(&format!("set1_{i}"), &[1000.0]).unwrap();
            }
            let times: Vec<Ps> = (0..pulses).map(|i| 2000.0 + 400.0 * i as Ps).collect();
            sim.inject("in", &times).unwrap();
            sim.run_to_completion().unwrap();
            assert_eq!(
                sim.pulses("out").len(),
                expected,
                "k={k} threshold={threshold} pulses={pulses}"
            );
            assert!(sim.violations().is_empty(), "{:?}", sim.violations());
        }
    }

    #[test]
    fn bio_neuron_full_cycle() {
        let mut n = BioNeuron::new(3, 2, 2);
        // Two spikes then a leak tick: back to b1.
        n.on_spike();
        n.on_spike();
        assert_eq!(n.phase(), BioPhase::Below(2));
        assert!(!n.on_time());
        assert_eq!(n.phase(), BioPhase::Below(1));
        // Climb to threshold.
        n.on_spike();
        n.on_spike();
        assert_eq!(n.phase(), BioPhase::Below(3));
        // Time ticks: enter rising, fire on r_{R-1} -> r_R.
        assert!(!n.on_time()); // b3 -> r0
        assert!(!n.on_time()); // r0 -> r1? rising=2: r0 -> r1 is i+1<2 false for i=1...
        let fired = n.on_time();
        let _ = fired;
        // March until back at rest; exactly one spike total in the cycle.
        let mut spikes = u32::from(fired);
        for _ in 0..10 {
            spikes += u32::from(n.on_time());
        }
        assert_eq!(spikes, 1);
        assert_eq!(n.phase(), BioPhase::Below(0));
    }

    #[test]
    fn bio_neuron_spikes_during_refractory_ignored() {
        let mut n = BioNeuron::new(1, 2, 1);
        n.on_spike();
        n.on_time(); // enter rising
        let before = n.phase();
        n.on_spike(); // refractory: ignored
        assert_eq!(n.phase(), before);
    }

    #[test]
    fn bio_neuron_rest_is_absorbing_under_time() {
        let mut n = BioNeuron::new(2, 1, 1);
        for _ in 0..5 {
            assert!(!n.on_time());
            assert_eq!(n.phase(), BioPhase::Below(0));
        }
    }

    #[test]
    fn bio_neuron_state_count() {
        let n = BioNeuron::new(500, 10, 10);
        assert!(n.state_count() >= 500);
    }
}
