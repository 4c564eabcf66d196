//! Pulse-gain weight structures (Fig. 10 of the paper).
//!
//! SUSHI encodes weight *strength* as pulse count: a weight structure
//! expands one incoming pulse into `gain` pulses using SPL/CB gain loops,
//! each loop gated by a configurable NDRO switch (Fig. 10(b)) and delayed by
//! a JTL section so the expanded pulses respect the CB input constraints.
//! Weight *polarity* is applied separately at the neuron through its
//! set0/set1 channels.

use std::fmt;
use sushi_cells::timing::SAFE_INTERVAL_PS;
use sushi_cells::{CellKind, CellLibrary, PortName, Ps};
use sushi_sim::{Netlist, NetlistError, PortRef};

/// Behavioural model of a configurable pulse-gain weight structure.
///
/// # Examples
///
/// ```
/// use sushi_arch::WeightStructure;
///
/// let mut w = WeightStructure::new(8);
/// w.configure(3).unwrap();
/// assert_eq!(w.amplify(2), 6); // each input pulse becomes 3 pulses
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightStructure {
    max_gain: u32,
    gain: u32,
}

/// Error for out-of-range gain configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GainOutOfRange {
    /// The requested gain.
    pub requested: u32,
    /// The structure's maximum gain.
    pub max: u32,
}

impl fmt::Display for GainOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gain {} not in 1..={}", self.requested, self.max)
    }
}

impl std::error::Error for GainOutOfRange {}

impl WeightStructure {
    /// A structure with `max_gain` levels (that is, `max_gain - 1` gain
    /// loops), initially configured to gain 1 (pass-through).
    ///
    /// # Panics
    ///
    /// Panics if `max_gain == 0`.
    pub fn new(max_gain: u32) -> Self {
        assert!(
            max_gain >= 1,
            "a weight structure passes at least one pulse"
        );
        Self { max_gain, gain: 1 }
    }

    /// The current gain.
    pub fn gain(&self) -> u32 {
        self.gain
    }

    /// The maximum configurable gain.
    pub fn max_gain(&self) -> u32 {
        self.max_gain
    }

    /// Number of gain loops in the hardware (`max_gain - 1`).
    pub fn loop_count(&self) -> u32 {
        self.max_gain - 1
    }

    /// Reconfigures the gain by setting/resetting loop NDROs.
    ///
    /// Returns the number of NDRO operations needed (the reload cost in
    /// control pulses): `|new - old|` loops change state.
    ///
    /// # Errors
    ///
    /// Returns [`GainOutOfRange`] if `gain` is 0 or exceeds the maximum.
    pub fn configure(&mut self, gain: u32) -> Result<u32, GainOutOfRange> {
        if gain < 1 || gain > self.max_gain {
            return Err(GainOutOfRange {
                requested: gain,
                max: self.max_gain,
            });
        }
        let ops = self.gain.abs_diff(gain);
        self.gain = gain;
        Ok(ops)
    }

    /// Expands `pulses` input pulses into `pulses * gain` output pulses.
    pub fn amplify(&self, pulses: u64) -> u64 {
        pulses * u64::from(self.gain)
    }
}

/// Cell-level ports of a generated weight structure.
#[derive(Debug, Clone)]
pub struct WeightPorts {
    /// Pulse input.
    pub input: PortRef,
    /// Amplified pulse output.
    pub out: PortRef,
    /// Per-loop `(set, rst)` NDRO configuration ports; setting loop `k`
    /// raises the gain by one.
    pub loops: Vec<(PortRef, PortRef)>,
}

/// Generates the cell-level weight structure of Fig. 10(c).
///
/// Structure: an SPL tree splits the input into `levels` branches. Branch 0
/// is the unconditional pass-through; branch `k >= 1` is delayed by
/// `k * 40 ps` of JTL line and gated by NDRO `k` (`branch pulse -> NDRO.clk`,
/// configuration on `NDRO.din`/`NDRO.rst`). A CB tree merges all branches.
#[derive(Debug, Clone, Copy)]
pub struct WeightNetlist;

impl WeightNetlist {
    /// Emits a weight structure with `max_gain` levels.
    ///
    /// # Errors
    ///
    /// Propagates netlist wiring errors.
    ///
    /// # Panics
    ///
    /// Panics if `max_gain == 0`.
    pub fn build(
        netlist: &mut Netlist,
        prefix: &str,
        max_gain: u32,
    ) -> Result<WeightPorts, NetlistError> {
        use PortName::*;
        assert!(max_gain >= 1);
        let loops = max_gain - 1;
        if loops == 0 {
            // Pure pass-through: a single JTL.
            let j = netlist.add_cell(CellKind::Jtl, format!("{prefix}.thru"));
            return Ok(WeightPorts {
                input: PortRef::new(j, Din),
                out: PortRef::new(j, Dout),
                loops: Vec::new(),
            });
        }
        // SPL chain: spl_k peels off branch k; the last branch continues as
        // the pass-through.
        let mut spl_ids = Vec::new();
        for k in 0..loops {
            spl_ids.push(netlist.add_cell(CellKind::Spl2, format!("{prefix}.spl{k}")));
        }
        for w in spl_ids.windows(2) {
            netlist.connect(w[0], DoutA, w[1], Din)?;
        }
        // CB chain merging: cb_k merges branch k into the trunk.
        let mut cb_ids = Vec::new();
        for k in 0..loops {
            cb_ids.push(netlist.add_cell(CellKind::Cb2, format!("{prefix}.cb{k}")));
        }
        // Trunk: last SPL's pass-through output enters the first CB.
        netlist.connect(*spl_ids.last().expect("loops >= 1"), DoutA, cb_ids[0], DinA)?;
        for w in cb_ids.windows(2) {
            netlist.connect(w[0], Dout, w[1], DinA)?;
        }
        // Gated, delayed branches.
        let mut loop_ports = Vec::with_capacity(loops as usize);
        for k in 0..loops {
            let ndro = netlist.add_cell(CellKind::Ndro, format!("{prefix}.ndro{k}"));
            let delay = Ps::from(k + 1) * SAFE_INTERVAL_PS;
            netlist.connect_with_delay(spl_ids[k as usize], DoutB, ndro, Clk, delay)?;
            netlist.connect(ndro, Dout, cb_ids[k as usize], DinB)?;
            loop_ports.push((PortRef::new(ndro, Din), PortRef::new(ndro, Rst)));
        }
        Ok(WeightPorts {
            input: PortRef::new(spl_ids[0], Din),
            out: PortRef::new(*cb_ids.last().expect("loops >= 1"), Dout),
            loops: loop_ports,
        })
    }

    /// Logic JJ count of one `max_gain`-level structure under `library`
    /// (SPL + CB + NDRO per loop; delay JTLs are accounted as wiring).
    pub fn logic_jj(library: &CellLibrary, max_gain: u32) -> u64 {
        if max_gain <= 1 {
            return u64::from(library.params(CellKind::Jtl).jj_count);
        }
        let loops = u64::from(max_gain - 1);
        let per_loop = u64::from(library.params(CellKind::Spl2).jj_count)
            + u64::from(library.params(CellKind::Cb2).jj_count)
            + u64::from(library.params(CellKind::Ndro).jj_count);
        loops * per_loop
    }

    /// Wiring JJ count of the delay JTL sections: loop `k` needs
    /// `ceil(k * 40ps / jtl_delay)` JTL stages.
    pub fn wiring_jj(library: &CellLibrary, max_gain: u32) -> u64 {
        if max_gain <= 1 {
            return 0;
        }
        let jtl = library.params(CellKind::Jtl);
        let stages: u64 = (1..max_gain)
            .map(|k| (Ps::from(k) * SAFE_INTERVAL_PS / jtl.delay_ps).ceil() as u64)
            .sum();
        stages * u64::from(jtl.jj_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_sim::SimConfig;

    #[test]
    fn behavioral_gain_multiplies() {
        let mut w = WeightStructure::new(4);
        assert_eq!(w.amplify(5), 5);
        w.configure(4).unwrap();
        assert_eq!(w.amplify(5), 20);
    }

    #[test]
    fn configure_rejects_out_of_range() {
        let mut w = WeightStructure::new(4);
        assert!(w.configure(0).is_err());
        assert!(w.configure(5).is_err());
        assert_eq!(w.gain(), 1);
    }

    #[test]
    fn reload_cost_is_gain_distance() {
        let mut w = WeightStructure::new(8);
        assert_eq!(w.configure(5).unwrap(), 4);
        assert_eq!(w.configure(5).unwrap(), 0);
        assert_eq!(w.configure(2).unwrap(), 3);
    }

    #[test]
    fn netlist_gain_matches_configuration() {
        let lib = CellLibrary::nb03();
        for target_gain in 1..=4u32 {
            let mut n = Netlist::new();
            let src = n.add_cell(CellKind::DcSfq, "src");
            let ports = WeightNetlist::build(&mut n, "w", 4).unwrap();
            n.connect(src, PortName::Dout, ports.input.cell, ports.input.port)
                .unwrap();
            n.add_input("in", src, PortName::Din).unwrap();
            n.probe("out", ports.out.cell, ports.out.port).unwrap();
            for (k, (set, _rst)) in ports.loops.iter().enumerate() {
                n.add_input(format!("set{k}"), set.cell, set.port).unwrap();
            }
            let mut sim = SimConfig::new().build(&n, &lib);
            // Enable gain-1 .. gain-target loops.
            for k in 0..(target_gain - 1) {
                sim.inject(&format!("set{k}"), &[0.0]).unwrap();
            }
            sim.inject("in", &[1000.0, 2000.0]).unwrap();
            sim.run_to_completion().unwrap();
            assert_eq!(
                sim.pulses("out").len() as u32,
                2 * target_gain,
                "gain {target_gain}"
            );
            assert!(
                sim.violations().is_empty(),
                "gain {target_gain}: {:?}",
                sim.violations()
            );
        }
    }

    #[test]
    fn netlist_passthrough_for_gain_one_structure() {
        let lib = CellLibrary::nb03();
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let ports = WeightNetlist::build(&mut n, "w", 1).unwrap();
        n.connect(src, PortName::Dout, ports.input.cell, ports.input.port)
            .unwrap();
        n.add_input("in", src, PortName::Din).unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        assert!(ports.loops.is_empty());
        let mut sim = SimConfig::new().build(&n, &lib);
        sim.inject("in", &[0.0, 100.0, 200.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), 3);
    }

    #[test]
    fn resource_counts_scale_with_levels() {
        let lib = CellLibrary::nb03();
        // 1 loop = SPL(3) + CB(7) + NDRO(11) = 21 logic JJ.
        assert_eq!(WeightNetlist::logic_jj(&lib, 2), 21);
        assert_eq!(WeightNetlist::logic_jj(&lib, 17), 16 * 21);
        assert_eq!(WeightNetlist::logic_jj(&lib, 1), 2);
        // Loop k delay = 40k ps at 7 ps/JTL.
        assert_eq!(WeightNetlist::wiring_jj(&lib, 2), 6 * 2);
        assert!(WeightNetlist::wiring_jj(&lib, 17) > WeightNetlist::wiring_jj(&lib, 2));
        assert_eq!(WeightNetlist::wiring_jj(&lib, 1), 0);
    }

    #[test]
    fn netlist_reconfiguration_changes_gain() {
        let lib = CellLibrary::nb03();
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let ports = WeightNetlist::build(&mut n, "w", 3).unwrap();
        n.connect(src, PortName::Dout, ports.input.cell, ports.input.port)
            .unwrap();
        n.add_input("in", src, PortName::Din).unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        n.add_input("set0", ports.loops[0].0.cell, ports.loops[0].0.port)
            .unwrap();
        n.add_input("rst0", ports.loops[0].1.cell, ports.loops[0].1.port)
            .unwrap();
        let mut sim = SimConfig::new().build(&n, &lib);
        // Gain 2 for the first pulse, reconfigure to gain 1 for the second.
        sim.inject("set0", &[0.0]).unwrap();
        sim.inject("in", &[1000.0]).unwrap();
        sim.inject("rst0", &[2000.0]).unwrap();
        sim.inject("in", &[3000.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), 3); // 2 + 1
        assert!(sim.violations().is_empty());
    }
}
