//! The asynchronous state controller (SC), Figs. 4, 5 and 8 of the paper.
//!
//! The SC is SUSHI's minimal component: a 1-bit toggling element built from
//! a TFFL/TFFR pair whose flip pulses are gated by configurable NDROs.
//!
//! * An `in` pulse flips the state 0 <-> 1.
//! * If NDRO0 is set (`set0`), the 0 -> 1 flip emits an `out` pulse (TFFL).
//! * If NDRO1 is set (`set1`), the 1 -> 0 flip emits an `out` pulse (TFFR).
//! * `set0` and `set1` are mutually exclusive: each disables the other.
//! * A third NDRO monitors the state, enabling asynchronous `rst`/`read`/
//!   `write`: the `read` output is triggered by (and aligned with) the
//!   `rst` pulse, and a `write` pulse must follow `rst` (Section 5.2).
//!
//! Two representations are provided: [`ScNetlist`] emits real RSFQ cells
//! into a [`Netlist`] for cell-accurate simulation, and [`ScBehavior`] is
//! the fast behavioural model. The `cell_vs_behavioral` integration test
//! checks they agree under random stimulus.

use sushi_cells::{CellKind, PortName, Ps};
use sushi_sim::{CellId, Netlist, NetlistError, PortRef};

/// Output gating configuration of one SC (which NDRO is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScMode {
    /// Neither NDRO set: flips never emit (the chain is broken here).
    #[default]
    Disabled,
    /// NDRO0 set: emit on the 0 -> 1 flip (TFFL path).
    EmitOnRise,
    /// NDRO1 set: emit on the 1 -> 0 flip (TFFR path).
    EmitOnFall,
}

/// Fast behavioural model of one state controller.
///
/// # Examples
///
/// ```
/// use sushi_arch::{ScBehavior, ScMode};
///
/// let mut sc = ScBehavior::new();
/// sc.set1(); // emit on the 1 -> 0 flip
/// assert!(!sc.pulse_in()); // 0 -> 1: silent
/// assert!(sc.pulse_in()); // 1 -> 0: emits
/// assert_eq!(sc.mode(), ScMode::EmitOnFall);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScBehavior {
    state: bool,
    mode: ScMode,
    /// NDRO2: mirrors the toggle state (set on rise, cleared on fall), but
    /// is itself cleared by `rst` without touching the toggle.
    monitor: bool,
}

impl ScBehavior {
    /// A fresh SC: state 0, outputs disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current toggle state.
    pub fn state(&self) -> bool {
        self.state
    }

    /// Current gating mode.
    pub fn mode(&self) -> ScMode {
        self.mode
    }

    /// Configures NDRO0 (emit on rise); disables NDRO1.
    pub fn set0(&mut self) {
        self.mode = ScMode::EmitOnRise;
    }

    /// Configures NDRO1 (emit on fall); disables NDRO0.
    pub fn set1(&mut self) {
        self.mode = ScMode::EmitOnFall;
    }

    /// Disables both output NDROs (the reset-time configuration).
    pub fn disable(&mut self) {
        self.mode = ScMode::Disabled;
    }

    /// Applies one `in` pulse: flips the state and returns whether an `out`
    /// pulse is emitted under the current mode.
    pub fn pulse_in(&mut self) -> bool {
        self.state = !self.state;
        self.monitor = self.state;
        match self.mode {
            ScMode::Disabled => false,
            ScMode::EmitOnRise => self.state,
            ScMode::EmitOnFall => !self.state,
        }
    }

    /// Applies a `write` pulse. Electrically identical to an `in` pulse
    /// (the write channel merges into the toggle path); returns whether an
    /// `out` pulse escapes. During initialisation the mode is `Disabled`,
    /// so writes are silent.
    pub fn write(&mut self) -> bool {
        self.pulse_in()
    }

    /// Applies a `rst` pulse: samples the monitor NDRO onto the `read`
    /// output (returned), then clears the monitor. The toggle state itself
    /// is *not* changed — per Section 5.2 a `write` must follow `rst` to
    /// re-initialise it.
    pub fn rst_read(&mut self) -> bool {
        let read = self.monitor;
        self.monitor = false;
        read
    }

    /// Whether the monitor NDRO currently mirrors a set state.
    pub fn monitor(&self) -> bool {
        self.monitor
    }

    /// Drives the full zeroing protocol: `rst` (reads the state), then a
    /// conditional `write` if the state was 1. Requires the mode to be
    /// `Disabled` so the write's flip pulse does not escape downstream.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called while outputs are enabled.
    pub fn zero(&mut self) {
        debug_assert_eq!(
            self.mode,
            ScMode::Disabled,
            "zero() requires disabled outputs"
        );
        let was_set = self.rst_read() || self.state;
        if was_set {
            self.write();
        }
        debug_assert!(!self.state);
        self.monitor = false;
    }
}

/// Cell-level ports of a generated SC, for wiring into larger structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScPorts {
    /// Data input (flips the state). Input port.
    pub input: PortRef,
    /// Write channel (merged with `input` inside the SC). Input port.
    pub write: PortRef,
    /// Reset channel (triggers the aligned read, then clears the monitor).
    pub rst: PortRef,
    /// Configure emit-on-rise. Input port.
    pub set0: PortRef,
    /// Configure emit-on-fall. Input port.
    pub set1: PortRef,
    /// Flip-pulse output. Output port.
    pub out: PortRef,
    /// Read output (aligned with `rst`). Output port.
    pub read: PortRef,
}

/// Generates the cell-level SC of Fig. 8(b) into a [`Netlist`].
#[derive(Debug, Clone, Copy)]
pub struct ScNetlist;

/// Delay inserted between the monitor read (`clk`) and clear (`rst`) legs
/// of the `rst` fan-out, satisfying the NDRO clk->rst ordering.
const RST_CLEAR_DELAY_PS: Ps = 40.0;

impl ScNetlist {
    /// Number of cells a generated SC contains (for resource accounting).
    pub const CELL_ROSTER: [(CellKind, u32); 5] = [
        (CellKind::Cb2, 3),
        (CellKind::Spl2, 6),
        (CellKind::Tffl, 1),
        (CellKind::Tffr, 1),
        (CellKind::Ndro, 3),
    ];

    /// Logic JJ count of one SC under `library`.
    pub fn logic_jj(library: &sushi_cells::CellLibrary) -> u64 {
        Self::CELL_ROSTER
            .iter()
            .map(|(k, n)| u64::from(library.params(*k).jj_count) * u64::from(*n))
            .sum()
    }

    /// Emits one SC into `netlist`, labelling cells with `prefix`.
    ///
    /// # Errors
    ///
    /// Propagates netlist wiring errors (impossible for a fresh prefix on a
    /// well-formed netlist).
    pub fn build(netlist: &mut Netlist, prefix: &str) -> Result<ScPorts, NetlistError> {
        use PortName::*;
        let cell = |n: &mut Netlist, kind, name: &str| -> CellId {
            n.add_cell(kind, format!("{prefix}.{name}"))
        };
        let cb_in = cell(netlist, CellKind::Cb2, "cb_in");
        let spl_in = cell(netlist, CellKind::Spl2, "spl_in");
        let tffl = cell(netlist, CellKind::Tffl, "tffl");
        let tffr = cell(netlist, CellKind::Tffr, "tffr");
        let spl_l = cell(netlist, CellKind::Spl2, "spl_l");
        let spl_r = cell(netlist, CellKind::Spl2, "spl_r");
        let ndro0 = cell(netlist, CellKind::Ndro, "ndro0");
        let ndro1 = cell(netlist, CellKind::Ndro, "ndro1");
        let ndro2 = cell(netlist, CellKind::Ndro, "ndro2");
        let cb_out = cell(netlist, CellKind::Cb2, "cb_out");
        let spl_s0 = cell(netlist, CellKind::Spl2, "spl_s0");
        let spl_s1 = cell(netlist, CellKind::Spl2, "spl_s1");
        let spl_rst = cell(netlist, CellKind::Spl2, "spl_rst");

        // Toggle path: (in | write) -> SPL -> TFFL + TFFR.
        netlist.connect(cb_in, Dout, spl_in, Din)?;
        netlist.connect(spl_in, DoutA, tffl, Din)?;
        netlist.connect(spl_in, DoutB, tffr, Din)?;
        // Rise leg: TFFL -> {NDRO0.clk (gated out), NDRO2.din (monitor set)}.
        netlist.connect(tffl, Dout, spl_l, Din)?;
        netlist.connect(spl_l, DoutA, ndro0, Clk)?;
        netlist.connect(spl_l, DoutB, ndro2, Din)?;
        // Fall leg: TFFR -> {NDRO1.clk, NDRO2.rst (monitor clear)}. The
        // monitor's rst is shared with the external rst channel via a CB.
        let cb_rst = cell(netlist, CellKind::Cb2, "cb_rst");
        netlist.connect(tffr, Dout, spl_r, Din)?;
        netlist.connect(spl_r, DoutA, ndro1, Clk)?;
        netlist.connect(spl_r, DoutB, cb_rst, DinA)?;
        netlist.connect(cb_rst, Dout, ndro2, Rst)?;
        // Gated outputs merge.
        netlist.connect(ndro0, Dout, cb_out, DinA)?;
        netlist.connect(ndro1, Dout, cb_out, DinB)?;
        // set0 enables NDRO0 and disables NDRO1 (and vice versa).
        netlist.connect(spl_s0, DoutA, ndro0, Din)?;
        netlist.connect(spl_s0, DoutB, ndro1, Rst)?;
        netlist.connect(spl_s1, DoutA, ndro1, Din)?;
        netlist.connect(spl_s1, DoutB, ndro0, Rst)?;
        // rst: immediate monitor read, delayed monitor clear.
        netlist.connect(spl_rst, DoutA, ndro2, Clk)?;
        netlist.connect_with_delay(spl_rst, DoutB, cb_rst, DinB, RST_CLEAR_DELAY_PS)?;

        Ok(ScPorts {
            input: PortRef::new(cb_in, DinA),
            write: PortRef::new(cb_in, DinB),
            rst: PortRef::new(spl_rst, Din),
            set0: PortRef::new(spl_s0, Din),
            set1: PortRef::new(spl_s1, Din),
            out: PortRef::new(cb_out, Dout),
            read: PortRef::new(ndro2, Dout),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_cells::CellLibrary;
    use sushi_sim::SimConfig;

    #[test]
    fn behavior_disabled_never_emits() {
        let mut sc = ScBehavior::new();
        for _ in 0..10 {
            assert!(!sc.pulse_in());
        }
    }

    #[test]
    fn behavior_emit_on_rise() {
        let mut sc = ScBehavior::new();
        sc.set0();
        assert!(sc.pulse_in()); // 0 -> 1 emits
        assert!(!sc.pulse_in()); // 1 -> 0 silent
        assert!(sc.pulse_in());
    }

    #[test]
    fn behavior_emit_on_fall() {
        let mut sc = ScBehavior::new();
        sc.set1();
        assert!(!sc.pulse_in());
        assert!(sc.pulse_in());
    }

    #[test]
    fn set0_set1_are_mutually_exclusive() {
        let mut sc = ScBehavior::new();
        sc.set0();
        sc.set1();
        assert_eq!(sc.mode(), ScMode::EmitOnFall);
        sc.set0();
        assert_eq!(sc.mode(), ScMode::EmitOnRise);
    }

    #[test]
    fn rst_reads_and_clears_monitor_without_flipping_state() {
        let mut sc = ScBehavior::new();
        sc.pulse_in(); // state 1, monitor set
        assert!(sc.monitor());
        assert!(sc.rst_read());
        assert!(!sc.monitor());
        assert!(sc.state()); // toggle unchanged
        assert!(!sc.rst_read()); // second read: cleared
    }

    #[test]
    fn zero_protocol_clears_state_from_either_value() {
        for pre_pulses in 0..4 {
            let mut sc = ScBehavior::new();
            for _ in 0..pre_pulses {
                sc.pulse_in();
            }
            sc.zero();
            assert!(!sc.state(), "after {pre_pulses} pulses");
            assert!(!sc.monitor());
        }
    }

    #[test]
    fn logic_jj_matches_roster() {
        let lib = CellLibrary::nb03();
        // 3 CB2 (21) + 6 SPL2 (18) + TFFL (8) + TFFR (8) + 3 NDRO (33) = 88.
        assert_eq!(ScNetlist::logic_jj(&lib), 88);
    }

    /// Drives the cell-level SC through the full Fig. 5 state diagram and
    /// checks outputs at every step.
    #[test]
    fn netlist_sc_follows_state_diagram() {
        let mut n = Netlist::new();
        let ports = ScNetlist::build(&mut n, "sc").unwrap();
        n.add_input("in", ports.input.cell, ports.input.port)
            .unwrap();
        n.add_input("set0", ports.set0.cell, ports.set0.port)
            .unwrap();
        n.add_input("set1", ports.set1.cell, ports.set1.port)
            .unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = SimConfig::new().build(&n, &lib);

        // Configure emit-on-rise, then pulse 4 times (well separated).
        sim.inject("set0", &[0.0]).unwrap();
        sim.inject("in", &[200.0, 400.0, 600.0, 800.0]).unwrap();
        sim.run_to_completion().unwrap();
        // Rises happen on pulses 1 and 3.
        assert_eq!(sim.pulses("out").len(), 2);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
    }

    #[test]
    fn netlist_sc_set1_gates_falls() {
        let mut n = Netlist::new();
        let ports = ScNetlist::build(&mut n, "sc").unwrap();
        n.add_input("in", ports.input.cell, ports.input.port)
            .unwrap();
        n.add_input("set1", ports.set1.cell, ports.set1.port)
            .unwrap();
        n.probe("out", ports.out.cell, ports.out.port).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = SimConfig::new().build(&n, &lib);
        sim.inject("set1", &[0.0]).unwrap();
        sim.inject("in", &[200.0, 400.0, 600.0]).unwrap();
        sim.run_to_completion().unwrap();
        // Fall happens on pulse 2 only.
        assert_eq!(sim.pulses("out").len(), 1);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn netlist_rst_read_protocol() {
        let mut n = Netlist::new();
        let ports = ScNetlist::build(&mut n, "sc").unwrap();
        n.add_input("in", ports.input.cell, ports.input.port)
            .unwrap();
        n.add_input("rst", ports.rst.cell, ports.rst.port).unwrap();
        n.probe("read", ports.read.cell, ports.read.port).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = SimConfig::new().build(&n, &lib);
        // Flip to 1, then rst: the read output fires once.
        sim.inject("in", &[100.0]).unwrap();
        sim.inject("rst", &[300.0, 600.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("read").len(), 1);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn netlist_and_behavior_agree_on_pulse_parity() {
        for count in 1..6usize {
            // Behavioural.
            let mut sc = ScBehavior::new();
            sc.set0();
            let mut expected = 0;
            for _ in 0..count {
                if sc.pulse_in() {
                    expected += 1;
                }
            }
            // Cell-level.
            let mut n = Netlist::new();
            let ports = ScNetlist::build(&mut n, "sc").unwrap();
            n.add_input("in", ports.input.cell, ports.input.port)
                .unwrap();
            n.add_input("set0", ports.set0.cell, ports.set0.port)
                .unwrap();
            n.probe("out", ports.out.cell, ports.out.port).unwrap();
            let lib = CellLibrary::nb03();
            let mut sim = SimConfig::new().build(&n, &lib);
            sim.inject("set0", &[0.0]).unwrap();
            let times: Vec<Ps> = (0..count).map(|i| 200.0 + 200.0 * i as Ps).collect();
            sim.inject("in", &times).unwrap();
            sim.run_to_completion().unwrap();
            assert_eq!(sim.pulses("out").len(), expected, "count={count}");
        }
    }
}
