//! Stimulus construction helpers.
//!
//! A [`Stimulus`] is a set of named pulse trains that can be injected into a
//! [`Simulator`](crate::Simulator) in one call. The [`StimulusBuilder`]
//! enforces a minimum inter-pulse interval per channel, which is how the
//! encoding phase of the paper "regulates the pulse interval during input
//! creation based on the cell constraints".

use std::collections::BTreeMap;
use std::fmt;
use sushi_cells::timing::SAFE_INTERVAL_PS;
use sushi_cells::Ps;

/// Errors from stimulus construction.
#[derive(Debug, Clone, PartialEq)]
pub enum StimulusError {
    /// A pulse was scheduled closer than the channel's minimum interval to
    /// its predecessor.
    IntervalTooShort {
        /// The channel.
        channel: String,
        /// Previous pulse time.
        prev: Ps,
        /// Offending pulse time.
        at: Ps,
        /// Required minimum interval.
        min: Ps,
    },
    /// Pulse times must be non-decreasing per channel.
    NotMonotonic {
        /// The channel.
        channel: String,
        /// Previous pulse time.
        prev: Ps,
        /// Offending pulse time.
        at: Ps,
    },
}

impl fmt::Display for StimulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StimulusError::IntervalTooShort { channel, prev, at, min } => write!(
                f,
                "channel {channel}: pulse at {at:.2}ps only {:.2}ps after {prev:.2}ps (min {min:.2}ps)",
                at - prev
            ),
            StimulusError::NotMonotonic { channel, prev, at } => {
                write!(f, "channel {channel}: pulse at {at:.2}ps precedes {prev:.2}ps")
            }
        }
    }
}

impl std::error::Error for StimulusError {}

/// Named pulse trains ready for injection.
///
/// # Examples
///
/// ```
/// use sushi_sim::StimulusBuilder;
///
/// let stim = StimulusBuilder::new()
///     .pulse("a", 0.0)?
///     .pulse("a", 40.0)?
///     .pulse("b", 10.0)?
///     .build();
/// assert_eq!(stim.pulse_count(), 3);
/// # Ok::<(), sushi_sim::stimulus::StimulusError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stimulus {
    channels: BTreeMap<String, Vec<Ps>>,
}

impl Stimulus {
    /// The pulse train of `channel`, empty if unknown.
    pub fn pulses(&self, channel: &str) -> &[Ps] {
        self.channels.get(channel).map_or(&[], Vec::as_slice)
    }

    /// Iterates over `(channel, pulses)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Ps])> {
        self.channels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Total pulses across all channels.
    pub fn pulse_count(&self) -> usize {
        self.channels.values().map(Vec::len).sum()
    }

    /// The latest pulse time across all channels, or 0 if empty.
    pub fn end_time(&self) -> Ps {
        self.channels
            .values()
            .filter_map(|v| v.last())
            .copied()
            .fold(0.0, Ps::max)
    }

    /// Injects every channel into `sim`. Channels whose names the netlist
    /// does not know are reported as errors by the simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::SimError::UnknownInput`].
    pub fn inject_into(&self, sim: &mut crate::Simulator<'_>) -> Result<(), crate::SimError> {
        for (name, pulses) in &self.channels {
            sim.inject(name, pulses)?;
        }
        Ok(())
    }
}

/// Builds a [`Stimulus`] while enforcing per-channel minimum intervals.
#[derive(Debug, Clone)]
pub struct StimulusBuilder {
    stim: Stimulus,
    min_interval: Ps,
}

impl StimulusBuilder {
    /// A builder enforcing the chip-wide safe interval
    /// ([`SAFE_INTERVAL_PS`], 40 ps).
    pub fn new() -> Self {
        Self::with_min_interval(SAFE_INTERVAL_PS)
    }

    /// A builder enforcing a custom per-channel minimum interval.
    pub fn with_min_interval(min_interval: Ps) -> Self {
        Self {
            stim: Stimulus::default(),
            min_interval,
        }
    }

    /// Appends one pulse to `channel` at time `t`.
    ///
    /// # Errors
    ///
    /// Rejects non-monotonic times and intervals below the builder's
    /// minimum.
    pub fn pulse(mut self, channel: &str, t: Ps) -> Result<Self, StimulusError> {
        let train = self.stim.channels.entry(channel.to_owned()).or_default();
        if let Some(&prev) = train.last() {
            if t < prev {
                return Err(StimulusError::NotMonotonic {
                    channel: channel.to_owned(),
                    prev,
                    at: t,
                });
            }
            if t - prev < self.min_interval {
                return Err(StimulusError::IntervalTooShort {
                    channel: channel.to_owned(),
                    prev,
                    at: t,
                    min: self.min_interval,
                });
            }
        }
        train.push(t);
        Ok(self)
    }

    /// Appends `count` pulses to `channel` starting at `start`, spaced by
    /// the builder's minimum interval.
    ///
    /// # Errors
    ///
    /// As [`StimulusBuilder::pulse`].
    pub fn burst(mut self, channel: &str, start: Ps, count: usize) -> Result<Self, StimulusError> {
        let step = self.min_interval;
        for i in 0..count {
            self = self.pulse(channel, start + i as Ps * step)?;
        }
        Ok(self)
    }

    /// Finalizes the stimulus.
    pub fn build(self) -> Stimulus {
        self.stim
    }
}

impl Default for StimulusBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_enforces_interval() {
        let err = StimulusBuilder::new()
            .pulse("a", 0.0)
            .unwrap()
            .pulse("a", 10.0)
            .unwrap_err();
        assert!(matches!(err, StimulusError::IntervalTooShort { .. }));
    }

    #[test]
    fn builder_rejects_backwards_time() {
        let err = StimulusBuilder::new()
            .pulse("a", 100.0)
            .unwrap()
            .pulse("a", 50.0)
            .unwrap_err();
        assert!(matches!(err, StimulusError::NotMonotonic { .. }));
    }

    #[test]
    fn channels_are_independent() {
        let stim = StimulusBuilder::new()
            .pulse("a", 0.0)
            .unwrap()
            .pulse("b", 1.0)
            .unwrap()
            .build();
        assert_eq!(stim.pulses("a"), &[0.0]);
        assert_eq!(stim.pulses("b"), &[1.0]);
        assert_eq!(stim.pulses("c"), &[] as &[Ps]);
    }

    #[test]
    fn burst_spaces_by_min_interval() {
        let stim = StimulusBuilder::with_min_interval(20.0)
            .burst("a", 100.0, 3)
            .unwrap()
            .build();
        assert_eq!(stim.pulses("a"), &[100.0, 120.0, 140.0]);
        assert_eq!(stim.end_time(), 140.0);
    }

    #[test]
    fn inject_into_simulator() {
        use sushi_cells::{CellKind, CellLibrary, PortName};
        let mut n = crate::Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let j = n.add_cell(CellKind::Jtl, "j");
        n.connect(src, PortName::Dout, j, PortName::Din).unwrap();
        n.add_input("in", src, PortName::Din).unwrap();
        n.probe("out", j, PortName::Dout).unwrap();
        let lib = CellLibrary::nb03();
        let mut sim = crate::Simulator::new(&n, &lib);
        let stim = StimulusBuilder::new().burst("in", 0.0, 5).unwrap().build();
        stim.inject_into(&mut sim).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("out").len(), 5);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn error_display() {
        let e = StimulusError::IntervalTooShort {
            channel: "x".into(),
            prev: 0.0,
            at: 10.0,
            min: 40.0,
        };
        assert!(e.to_string().contains("x"));
        assert!(e.to_string().contains("min 40.00ps"));
    }
}
