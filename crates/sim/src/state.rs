//! Behavioural state machines of the RSFQ cells.
//!
//! Each model implements the timing diagrams of Fig. 3 in the paper:
//! a DFF releases its stored pulse on `clk`, an NDRO reads non-destructively,
//! TFFL/TFFR emit on the 0→1 / 1→0 flip respectively, splitters duplicate
//! and confluence buffers merge.

use std::fmt;
use sushi_cells::{CellKind, PortName};

/// Internal state of one cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Cells without internal state (JTL, SPL, CB, DC/SFQ converter).
    Stateless,
    /// DFF: whether an SFQ is currently stored.
    Dff {
        /// True when a `din` pulse is held awaiting `clk`.
        stored: bool,
    },
    /// NDRO: whether the readout loop is set.
    Ndro {
        /// True after `din`, false after `rst`.
        set: bool,
    },
    /// TFFL/TFFR internal toggle state.
    Tff {
        /// Current logical state (false = 0, true = 1).
        state: bool,
    },
    /// SFQ/DC converter output level.
    SfqDc {
        /// Current DC level; toggles on every incoming pulse.
        level: bool,
    },
}

impl CellState {
    /// The reset-time state for a cell of `kind`.
    pub fn initial(kind: CellKind) -> Self {
        match kind {
            CellKind::Dff => CellState::Dff { stored: false },
            CellKind::Ndro => CellState::Ndro { set: false },
            CellKind::Tffl | CellKind::Tffr => CellState::Tff { state: false },
            CellKind::SfqDc => CellState::SfqDc { level: false },
            _ => CellState::Stateless,
        }
    }

    /// Applies one pulse arriving on `port` and returns what the cell emits.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an input of `kind` or the state variant does
    /// not match `kind` (both indicate engine bugs, not user errors).
    pub fn on_pulse(&mut self, kind: CellKind, port: PortName) -> PulseResponse {
        debug_assert!(
            kind.inputs().contains(&port),
            "pulse delivered to non-input {port} of {kind}"
        );
        use PortName::*;
        match (kind, &mut *self) {
            (CellKind::Jtl | CellKind::DcSfq, CellState::Stateless) => PulseResponse::emit1(Dout),
            (CellKind::SfqDc, CellState::SfqDc { level }) => {
                *level = !*level;
                PulseResponse::emit1(Dout)
            }
            (CellKind::Spl2, CellState::Stateless) => PulseResponse::emit2(DoutA, DoutB),
            (CellKind::Spl3, CellState::Stateless) => PulseResponse::emit3(DoutA, DoutB, DoutC),
            (CellKind::Cb2 | CellKind::Cb3, CellState::Stateless) => PulseResponse::emit1(Dout),
            (CellKind::Dff, CellState::Dff { stored }) => match port {
                Din => {
                    if *stored {
                        PulseResponse::warn(LogicalIssue::DffOverwrite)
                    } else {
                        *stored = true;
                        PulseResponse::none()
                    }
                }
                Clk => {
                    if *stored {
                        *stored = false;
                        PulseResponse::emit1(Dout)
                    } else {
                        PulseResponse::none()
                    }
                }
                _ => unreachable!("DFF has no port {port}"),
            },
            (CellKind::Ndro, CellState::Ndro { set }) => match port {
                Din => {
                    if *set {
                        // Electrically harmless (stays set) but the paper
                        // requires rst before new data; flag it.
                        PulseResponse::warn(LogicalIssue::NdroDoubleSet)
                    } else {
                        *set = true;
                        PulseResponse::none()
                    }
                }
                Rst => {
                    *set = false;
                    PulseResponse::none()
                }
                Clk => {
                    if *set {
                        PulseResponse::emit1(Dout)
                    } else {
                        PulseResponse::none()
                    }
                }
                _ => unreachable!("NDRO has no port {port}"),
            },
            (CellKind::Tffl, CellState::Tff { state }) => {
                *state = !*state;
                if *state {
                    PulseResponse::emit1(Dout)
                } else {
                    PulseResponse::none()
                }
            }
            (CellKind::Tffr, CellState::Tff { state }) => {
                *state = !*state;
                if !*state {
                    PulseResponse::emit1(Dout)
                } else {
                    PulseResponse::none()
                }
            }
            (k, s) => panic!("state {s:?} does not match kind {k}"),
        }
    }
}

/// Non-fatal logical issues detected by the behavioural models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalIssue {
    /// A `din` pulse reached a DFF that already stored one.
    DffOverwrite,
    /// A `din` pulse reached an already-set NDRO without an intervening `rst`.
    NdroDoubleSet,
}

impl fmt::Display for LogicalIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalIssue::DffOverwrite => f.write_str("DFF data overwrite without clk"),
            LogicalIssue::NdroDoubleSet => f.write_str("NDRO set twice without rst"),
        }
    }
}

/// What a cell does in response to one pulse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PulseResponse {
    emits: [Option<PortName>; 3],
    /// A logical issue, if one was detected.
    pub issue: Option<LogicalIssue>,
}

impl PulseResponse {
    fn none() -> Self {
        Self {
            emits: [None; 3],
            issue: None,
        }
    }

    fn warn(issue: LogicalIssue) -> Self {
        Self {
            emits: [None; 3],
            issue: Some(issue),
        }
    }

    fn emit1(a: PortName) -> Self {
        Self {
            emits: [Some(a), None, None],
            issue: None,
        }
    }

    fn emit2(a: PortName, b: PortName) -> Self {
        Self {
            emits: [Some(a), Some(b), None],
            issue: None,
        }
    }

    fn emit3(a: PortName, b: PortName, c: PortName) -> Self {
        Self {
            emits: [Some(a), Some(b), Some(c)],
            issue: None,
        }
    }

    /// The ports this response emits on.
    pub fn emitted(&self) -> impl Iterator<Item = PortName> + '_ {
        self.emits.iter().flatten().copied()
    }

    /// True if no pulse is emitted.
    pub fn is_silent(&self) -> bool {
        self.emits[0].is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PortName::*;

    fn pulse(kind: CellKind, st: &mut CellState, port: PortName) -> Vec<PortName> {
        st.on_pulse(kind, port).emitted().collect()
    }

    #[test]
    fn jtl_passes_pulses() {
        let mut s = CellState::initial(CellKind::Jtl);
        assert_eq!(pulse(CellKind::Jtl, &mut s, Din), vec![Dout]);
    }

    #[test]
    fn splitters_duplicate() {
        let mut s = CellState::initial(CellKind::Spl2);
        assert_eq!(pulse(CellKind::Spl2, &mut s, Din), vec![DoutA, DoutB]);
        let mut s = CellState::initial(CellKind::Spl3);
        assert_eq!(
            pulse(CellKind::Spl3, &mut s, Din),
            vec![DoutA, DoutB, DoutC]
        );
    }

    #[test]
    fn cb_merges_either_input() {
        let mut s = CellState::initial(CellKind::Cb2);
        assert_eq!(pulse(CellKind::Cb2, &mut s, DinA), vec![Dout]);
        assert_eq!(pulse(CellKind::Cb2, &mut s, DinB), vec![Dout]);
    }

    #[test]
    fn dff_stores_then_releases() {
        let mut s = CellState::initial(CellKind::Dff);
        // clk on empty DFF: nothing.
        assert!(pulse(CellKind::Dff, &mut s, Clk).is_empty());
        // din stores silently; clk releases.
        assert!(pulse(CellKind::Dff, &mut s, Din).is_empty());
        assert_eq!(pulse(CellKind::Dff, &mut s, Clk), vec![Dout]);
        // A second clk: empty again (destructive read).
        assert!(pulse(CellKind::Dff, &mut s, Clk).is_empty());
    }

    #[test]
    fn dff_overwrite_flagged() {
        let mut s = CellState::initial(CellKind::Dff);
        s.on_pulse(CellKind::Dff, Din);
        let r = s.on_pulse(CellKind::Dff, Din);
        assert_eq!(r.issue, Some(LogicalIssue::DffOverwrite));
        assert!(r.is_silent());
    }

    #[test]
    fn ndro_reads_non_destructively() {
        let mut s = CellState::initial(CellKind::Ndro);
        assert!(pulse(CellKind::Ndro, &mut s, Clk).is_empty());
        assert!(pulse(CellKind::Ndro, &mut s, Din).is_empty());
        assert_eq!(pulse(CellKind::Ndro, &mut s, Clk), vec![Dout]);
        // Still set: a second read also emits.
        assert_eq!(pulse(CellKind::Ndro, &mut s, Clk), vec![Dout]);
        // Reset clears.
        assert!(pulse(CellKind::Ndro, &mut s, Rst).is_empty());
        assert!(pulse(CellKind::Ndro, &mut s, Clk).is_empty());
    }

    #[test]
    fn ndro_double_set_flagged() {
        let mut s = CellState::initial(CellKind::Ndro);
        s.on_pulse(CellKind::Ndro, Din);
        let r = s.on_pulse(CellKind::Ndro, Din);
        assert_eq!(r.issue, Some(LogicalIssue::NdroDoubleSet));
        // State remains set.
        assert_eq!(pulse(CellKind::Ndro, &mut s, Clk), vec![Dout]);
    }

    #[test]
    fn tffl_emits_on_rising_flip() {
        let mut s = CellState::initial(CellKind::Tffl);
        assert_eq!(pulse(CellKind::Tffl, &mut s, Din), vec![Dout]); // 0 -> 1
        assert!(pulse(CellKind::Tffl, &mut s, Din).is_empty()); // 1 -> 0
        assert_eq!(pulse(CellKind::Tffl, &mut s, Din), vec![Dout]); // 0 -> 1
    }

    #[test]
    fn tffr_emits_on_falling_flip() {
        let mut s = CellState::initial(CellKind::Tffr);
        assert!(pulse(CellKind::Tffr, &mut s, Din).is_empty()); // 0 -> 1
        assert_eq!(pulse(CellKind::Tffr, &mut s, Din), vec![Dout]); // 1 -> 0
    }

    #[test]
    fn tff_halves_pulse_count() {
        let mut s = CellState::initial(CellKind::Tffl);
        let mut out = 0;
        for _ in 0..100 {
            out += pulse(CellKind::Tffl, &mut s, Din).len();
        }
        assert_eq!(out, 50);
    }

    #[test]
    fn sfqdc_toggles_level_every_pulse() {
        let mut s = CellState::initial(CellKind::SfqDc);
        assert_eq!(pulse(CellKind::SfqDc, &mut s, Din), vec![Dout]);
        assert_eq!(s, CellState::SfqDc { level: true });
        pulse(CellKind::SfqDc, &mut s, Din);
        assert_eq!(s, CellState::SfqDc { level: false });
    }

    #[test]
    fn issue_display_is_descriptive() {
        assert!(LogicalIssue::DffOverwrite.to_string().contains("DFF"));
        assert!(LogicalIssue::NdroDoubleSet.to_string().contains("NDRO"));
    }
}
