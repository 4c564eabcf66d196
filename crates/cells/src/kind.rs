//! Cell taxonomy and port interfaces.
//!
//! The port lists mirror the cell symbols in Fig. 3 of the paper: a DFF has
//! `din`/`clk` inputs and a `dout` output, an NDRO adds `rst`, splitters fan
//! one input out to two or three outputs, and confluence buffers merge two or
//! three inputs into one output.

use std::fmt;

/// The RSFQ standard-cell kinds used by SUSHI.
///
/// # Examples
///
/// ```
/// use sushi_cells::{CellKind, PortName};
///
/// assert_eq!(CellKind::Spl2.outputs().len(), 2);
/// assert!(CellKind::Ndro.inputs().contains(&PortName::Rst));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Josephson transmission line: one active repeater stage of wiring.
    Jtl,
    /// 1-to-2 splitter (RSFQ fan-out is limited to 1, so fan-out needs SPLs).
    Spl2,
    /// 1-to-3 splitter.
    Spl3,
    /// 2-to-1 confluence buffer (pulse merger).
    Cb2,
    /// 3-to-1 confluence buffer.
    Cb3,
    /// D flip-flop: destructive-readout storage, releases on `clk`.
    Dff,
    /// Non-destructive readout: set by `din`, cleared by `rst`, sampled by `clk`.
    Ndro,
    /// Toggle flip-flop emitting a pulse on the 0 -> 1 flip.
    Tffl,
    /// Toggle flip-flop emitting a pulse on the 1 -> 0 flip.
    Tffr,
    /// DC-to-SFQ converter: chip input pad turning level edges into pulses.
    DcSfq,
    /// SFQ-to-DC converter: chip output pad toggling a level per pulse.
    SfqDc,
}

impl CellKind {
    /// All cell kinds, in a stable order.
    pub const ALL: [CellKind; 11] = [
        CellKind::Jtl,
        CellKind::Spl2,
        CellKind::Spl3,
        CellKind::Cb2,
        CellKind::Cb3,
        CellKind::Dff,
        CellKind::Ndro,
        CellKind::Tffl,
        CellKind::Tffr,
        CellKind::DcSfq,
        CellKind::SfqDc,
    ];

    /// Number of distinct cell kinds (the length of [`CellKind::ALL`]).
    pub const COUNT: usize = 11;

    /// Dense 0-based index of this kind (its position in [`CellKind::ALL`]),
    /// for array-indexed per-kind tables on the simulator hot path.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The input ports of this cell kind.
    pub fn inputs(self) -> &'static [PortName] {
        use PortName::*;
        match self {
            CellKind::Jtl | CellKind::Spl2 | CellKind::Spl3 | CellKind::DcSfq | CellKind::SfqDc => {
                &[Din]
            }
            CellKind::Cb2 => &[DinA, DinB],
            CellKind::Cb3 => &[DinA, DinB, DinC],
            CellKind::Dff => &[Din, Clk],
            CellKind::Ndro => &[Din, Rst, Clk],
            CellKind::Tffl | CellKind::Tffr => &[Din],
        }
    }

    /// The output ports of this cell kind.
    pub fn outputs(self) -> &'static [PortName] {
        use PortName::*;
        match self {
            CellKind::Spl2 => &[DoutA, DoutB],
            CellKind::Spl3 => &[DoutA, DoutB, DoutC],
            _ => &[Dout],
        }
    }

    /// Whether `port` is a legal port of this kind, and its direction.
    pub fn port_dir(self, port: PortName) -> Option<PortDir> {
        if self.inputs().contains(&port) {
            Some(PortDir::Input)
        } else if self.outputs().contains(&port) {
            Some(PortDir::Output)
        } else {
            None
        }
    }

    /// True for the storage cells that hold internal state between pulses.
    ///
    /// SUSHI's design principle is that these state-holding cells *replace*
    /// conventional memory ("leverages the state flipping of superconducting
    /// cells to accomplish the storage and switching of neuron states").
    pub fn is_stateful(self) -> bool {
        matches!(
            self,
            CellKind::Dff | CellKind::Ndro | CellKind::Tffl | CellKind::Tffr | CellKind::SfqDc
        )
    }

    /// Short lowercase mnemonic used in netlist dumps (`jtl`, `ndro`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellKind::Jtl => "jtl",
            CellKind::Spl2 => "spl2",
            CellKind::Spl3 => "spl3",
            CellKind::Cb2 => "cb2",
            CellKind::Cb3 => "cb3",
            CellKind::Dff => "dff",
            CellKind::Ndro => "ndro",
            CellKind::Tffl => "tffl",
            CellKind::Tffr => "tffr",
            CellKind::DcSfq => "dcsfq",
            CellKind::SfqDc => "sfqdc",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Direction of a cell port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Pulses flow into the cell through this port.
    Input,
    /// Pulses flow out of the cell through this port.
    Output,
}

/// Named ports of RSFQ cells (union over all [`CellKind`]s).
///
/// # Examples
///
/// ```
/// use sushi_cells::PortName;
/// assert_eq!(PortName::Din.to_string(), "din");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortName {
    /// Data input.
    Din,
    /// First data input of a confluence buffer.
    DinA,
    /// Second data input of a confluence buffer.
    DinB,
    /// Third data input of a 3-way confluence buffer.
    DinC,
    /// Clock / readout input.
    Clk,
    /// Reset input.
    Rst,
    /// Data output.
    Dout,
    /// First output of a splitter.
    DoutA,
    /// Second output of a splitter.
    DoutB,
    /// Third output of a 3-way splitter.
    DoutC,
}

impl PortName {
    /// All port names, in a stable order.
    pub const ALL: [PortName; 10] = [
        PortName::Din,
        PortName::DinA,
        PortName::DinB,
        PortName::DinC,
        PortName::Clk,
        PortName::Rst,
        PortName::Dout,
        PortName::DoutA,
        PortName::DoutB,
        PortName::DoutC,
    ];

    /// Number of distinct port names (the length of [`PortName::ALL`]).
    pub const COUNT: usize = 10;

    /// Dense 0-based index of this port (its position in [`PortName::ALL`]),
    /// for array-indexed per-port tables on the simulator hot path.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lowercase name as used in the paper's figures (`din`, `clk`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            PortName::Din => "din",
            PortName::DinA => "dinA",
            PortName::DinB => "dinB",
            PortName::DinC => "dinC",
            PortName::Clk => "clk",
            PortName::Rst => "rst",
            PortName::Dout => "dout",
            PortName::DoutA => "doutA",
            PortName::DoutB => "doutB",
            PortName::DoutC => "doutC",
        }
    }

    /// True if this is one of the data-input channels of a confluence buffer.
    pub fn is_cb_input(self) -> bool {
        matches!(self, PortName::DinA | PortName::DinB | PortName::DinC)
    }
}

impl fmt::Display for PortName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_at_least_one_input_and_output() {
        for kind in CellKind::ALL {
            assert!(!kind.inputs().is_empty(), "{kind} has no inputs");
            assert!(!kind.outputs().is_empty(), "{kind} has no outputs");
        }
    }

    #[test]
    fn splitter_fanout_matches_name() {
        assert_eq!(CellKind::Spl2.outputs().len(), 2);
        assert_eq!(CellKind::Spl3.outputs().len(), 3);
        assert_eq!(CellKind::Cb2.inputs().len(), 2);
        assert_eq!(CellKind::Cb3.inputs().len(), 3);
    }

    #[test]
    fn non_splitters_have_single_output() {
        for kind in CellKind::ALL {
            if !matches!(kind, CellKind::Spl2 | CellKind::Spl3) {
                assert_eq!(kind.outputs(), &[PortName::Dout], "{kind}");
            }
        }
    }

    #[test]
    fn port_dir_detects_inputs_outputs_and_unknown() {
        assert_eq!(CellKind::Dff.port_dir(PortName::Din), Some(PortDir::Input));
        assert_eq!(
            CellKind::Dff.port_dir(PortName::Dout),
            Some(PortDir::Output)
        );
        assert_eq!(CellKind::Dff.port_dir(PortName::Rst), None);
        assert_eq!(CellKind::Jtl.port_dir(PortName::DinB), None);
    }

    #[test]
    fn stateful_classification() {
        assert!(CellKind::Ndro.is_stateful());
        assert!(CellKind::Tffl.is_stateful());
        assert!(CellKind::Tffr.is_stateful());
        assert!(CellKind::Dff.is_stateful());
        assert!(!CellKind::Jtl.is_stateful());
        assert!(!CellKind::Cb2.is_stateful());
        assert!(!CellKind::Spl2.is_stateful());
    }

    #[test]
    fn ndro_has_three_inputs() {
        assert_eq!(
            CellKind::Ndro.inputs(),
            &[PortName::Din, PortName::Rst, PortName::Clk]
        );
    }

    #[test]
    fn port_index_matches_position_in_all() {
        assert_eq!(PortName::ALL.len(), PortName::COUNT);
        for (i, p) in PortName::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }

    #[test]
    fn kind_index_matches_position_in_all() {
        assert_eq!(CellKind::ALL.len(), CellKind::COUNT);
        for (i, k) in CellKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k}");
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = CellKind::ALL.iter().map(|k| k.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CellKind::ALL.len());
    }

    #[test]
    fn display_matches_mnemonic() {
        for kind in CellKind::ALL {
            assert_eq!(kind.to_string(), kind.mnemonic());
        }
    }
}
