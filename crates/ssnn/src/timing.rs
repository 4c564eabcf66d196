//! Asynchronous neuron timing (Section 5.2, Fig. 14).
//!
//! SUSHI has no clock lines; only three ordering constraints apply to the
//! control channels:
//!
//! 1. a `write` pulse must follow the `rst` pulse;
//! 2. an `input` pulse must follow the `set` pulse that configures it;
//! 3. the `read` output is triggered by — and aligned with — the `rst`
//!    pulse.
//!
//! Data (`input`) pulses themselves "can be arbitrarily fed without
//! constraints". [`TimingSchedule`] builds and validates such schedules,
//! and renders the Fig. 14-style level-conversion view.

use std::fmt;
use sushi_cells::timing::SAFE_INTERVAL_PS;
use sushi_cells::Ps;

/// Channel classes of the asynchronous protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Data input pulses (unconstrained ordering).
    Input,
    /// Polarity/connection configuration (set0/set1, switch set).
    Set,
    /// State reset (also triggers the aligned read).
    Rst,
    /// State write (must follow rst).
    Write,
    /// Read output (an *output* channel, aligned with rst).
    Read,
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChannelKind::Input => "input",
            ChannelKind::Set => "set",
            ChannelKind::Rst => "rst",
            ChannelKind::Write => "write",
            ChannelKind::Read => "read",
        };
        f.write_str(s)
    }
}

/// One scheduled pulse.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPulse {
    /// The channel's protocol class.
    pub kind: ChannelKind,
    /// Concrete channel name (e.g. `npe0_set1_3`).
    pub channel: String,
    /// Pulse time, ps.
    pub time: Ps,
}

/// A violation of the Section 5.2 ordering constraints.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingError {
    /// A `write` appeared with no earlier `rst`.
    WriteBeforeRst {
        /// Offending pulse time.
        at: Ps,
    },
    /// An `input` appeared with no earlier `set` (when sets are present).
    InputBeforeSet {
        /// Offending pulse time.
        at: Ps,
    },
    /// Pulses on one channel closer than the safe interval.
    TooClose {
        /// The channel.
        channel: String,
        /// Offending pulse time.
        at: Ps,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::WriteBeforeRst { at } => write!(f, "write at {at:.1}ps precedes any rst"),
            TimingError::InputBeforeSet { at } => write!(f, "input at {at:.1}ps precedes its set"),
            TimingError::TooClose { channel, at } => {
                write!(f, "pulses on {channel} too close at {at:.1}ps")
            }
        }
    }
}

impl std::error::Error for TimingError {}

/// A validated asynchronous pulse schedule.
///
/// # Examples
///
/// ```
/// use sushi_ssnn::timing::{ChannelKind, TimingSchedule};
///
/// let mut s = TimingSchedule::new();
/// s.push(ChannelKind::Rst, "rst", 0.0);
/// s.push(ChannelKind::Write, "write", 80.0);
/// s.push(ChannelKind::Set, "set1", 160.0);
/// s.push(ChannelKind::Input, "in", 240.0);
/// assert!(s.validate().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingSchedule {
    pulses: Vec<TimedPulse>,
}

impl TimingSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pulse.
    pub fn push(&mut self, kind: ChannelKind, channel: impl Into<String>, time: Ps) {
        self.pulses.push(TimedPulse {
            kind,
            channel: channel.into(),
            time,
        });
    }

    /// All pulses, in insertion order.
    pub fn pulses(&self) -> &[TimedPulse] {
        &self.pulses
    }

    /// The last pulse time, or 0 if empty.
    pub fn end_time(&self) -> Ps {
        self.pulses.iter().map(|p| p.time).fold(0.0, Ps::max)
    }

    /// Checks the Section 5.2 constraints; returns every violation.
    pub fn validate(&self) -> Vec<TimingError> {
        let mut errors = Vec::new();
        let mut sorted: Vec<&TimedPulse> = self.pulses.iter().collect();
        sorted.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("no NaN times"));
        let first_rst = sorted
            .iter()
            .find(|p| p.kind == ChannelKind::Rst)
            .map(|p| p.time);
        let first_set = sorted
            .iter()
            .find(|p| p.kind == ChannelKind::Set)
            .map(|p| p.time);
        let has_set = first_set.is_some();
        for p in &sorted {
            match p.kind {
                ChannelKind::Write if first_rst.is_none_or(|t| p.time < t + SAFE_INTERVAL_PS) => {
                    errors.push(TimingError::WriteBeforeRst { at: p.time });
                }
                ChannelKind::Input
                    if has_set && first_set.is_none_or(|t| p.time < t + SAFE_INTERVAL_PS) =>
                {
                    errors.push(TimingError::InputBeforeSet { at: p.time });
                }
                _ => {}
            }
        }
        // Per-channel safe interval.
        let mut last: std::collections::BTreeMap<&str, Ps> = Default::default();
        for p in &sorted {
            if let Some(&prev) = last.get(p.channel.as_str()) {
                if p.time - prev < SAFE_INTERVAL_PS {
                    errors.push(TimingError::TooClose {
                        channel: p.channel.clone(),
                        at: p.time,
                    });
                }
            }
            last.insert(&p.channel, p.time);
        }
        errors
    }

    /// Converts each named channel's pulses into named pulse-time vectors
    /// for injection into a simulator.
    pub fn by_channel(&self) -> std::collections::BTreeMap<String, Vec<Ps>> {
        let mut map: std::collections::BTreeMap<String, Vec<Ps>> = Default::default();
        for p in &self.pulses {
            map.entry(p.channel.clone()).or_default().push(p.time);
        }
        for v in map.values_mut() {
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN times"));
        }
        map
    }

    /// Builds the Fig. 14 example: a full rst / write / set / input / read
    /// cycle with `inputs` data pulses.
    pub fn fig14_example(inputs: usize) -> Self {
        let mut s = Self::new();
        let step = SAFE_INTERVAL_PS * 2.0;
        s.push(ChannelKind::Rst, "rst", 0.0);
        s.push(ChannelKind::Read, "read", 0.0); // aligned with rst
        s.push(ChannelKind::Write, "write", step);
        s.push(ChannelKind::Set, "set", 2.0 * step);
        for i in 0..inputs {
            s.push(ChannelKind::Input, "input", 3.0 * step + i as Ps * step);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_example_is_valid() {
        let s = TimingSchedule::fig14_example(6);
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        assert_eq!(
            s.pulses()
                .iter()
                .filter(|p| p.kind == ChannelKind::Input)
                .count(),
            6
        );
    }

    #[test]
    fn write_before_rst_is_flagged() {
        let mut s = TimingSchedule::new();
        s.push(ChannelKind::Write, "write", 0.0);
        s.push(ChannelKind::Rst, "rst", 100.0);
        let errs = s.validate();
        assert!(matches!(errs[0], TimingError::WriteBeforeRst { .. }));
    }

    #[test]
    fn input_before_set_is_flagged_only_when_sets_exist() {
        let mut s = TimingSchedule::new();
        s.push(ChannelKind::Input, "in", 0.0);
        assert!(s.validate().is_empty(), "inputs alone are unconstrained");
        s.push(ChannelKind::Set, "set", 100.0);
        let errs = s.validate();
        assert!(matches!(errs[0], TimingError::InputBeforeSet { .. }));
    }

    #[test]
    fn same_channel_pulses_need_spacing() {
        let mut s = TimingSchedule::new();
        s.push(ChannelKind::Input, "in", 0.0);
        s.push(ChannelKind::Input, "in", 10.0);
        let errs = s.validate();
        assert!(matches!(errs[0], TimingError::TooClose { .. }));
    }

    #[test]
    fn read_is_aligned_with_rst_in_example() {
        let s = TimingSchedule::fig14_example(1);
        let rst = s
            .pulses()
            .iter()
            .find(|p| p.kind == ChannelKind::Rst)
            .unwrap();
        let read = s
            .pulses()
            .iter()
            .find(|p| p.kind == ChannelKind::Read)
            .unwrap();
        assert_eq!(rst.time, read.time);
    }

    #[test]
    fn by_channel_groups_and_sorts() {
        let mut s = TimingSchedule::new();
        s.push(ChannelKind::Input, "a", 100.0);
        s.push(ChannelKind::Input, "a", 50.0);
        s.push(ChannelKind::Input, "b", 10.0);
        let m = s.by_channel();
        assert_eq!(m["a"], vec![50.0, 100.0]);
        assert_eq!(m["b"], vec![10.0]);
    }

    #[test]
    fn error_display() {
        assert!(TimingError::WriteBeforeRst { at: 5.0 }
            .to_string()
            .contains("write"));
    }
}
