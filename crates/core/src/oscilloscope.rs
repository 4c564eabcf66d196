//! The measurement-bench model: sampling chip outputs like the paper's
//! oscilloscope (Fig. 16).
//!
//! Chip outputs pass through SFQ/DC converters, so the oscilloscope sees a
//! DC level that inverts on every output pulse (pulse-level conversion,
//! Fig. 14). Verification means: the sampled level trace from the "chip"
//! (cell-accurate run) matches the level trace predicted by simulation,
//! and the recovered per-label pulse sequences give the correct inference
//! result.

use sushi_cells::Ps;
use sushi_sim::{levels_from_pulses, LevelTrace, PulseTrain};

/// An oscilloscope sampling chip output channels at a fixed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oscilloscope {
    sample_interval_ps: Ps,
}

impl Oscilloscope {
    /// An oscilloscope sampling every `sample_interval_ps` picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    pub fn new(sample_interval_ps: Ps) -> Self {
        assert!(sample_interval_ps > 0.0, "sample interval must be positive");
        Self { sample_interval_ps }
    }

    /// The level trace a bench would record for `pulses`.
    pub fn trace(&self, pulses: &PulseTrain) -> LevelTrace {
        levels_from_pulses(pulses.times(), false)
    }

    /// Samples the level at regular intervals over `[0, end_ps]`.
    pub fn sample(&self, pulses: &PulseTrain, end_ps: Ps) -> Vec<bool> {
        let trace = self.trace(pulses);
        let mut t = 0.0;
        let mut out = Vec::new();
        while t <= end_ps {
            out.push(trace.level_at(t));
            t += self.sample_interval_ps;
        }
        out
    }

    /// Recovers the pulse count in each of `windows` equal windows over
    /// `[0, end_ps]` by counting level toggles — the "0-1-1-1-1" per-label
    /// sequences of Fig. 16(c).
    pub fn pulse_sequence(&self, pulses: &PulseTrain, end_ps: Ps, windows: usize) -> Vec<usize> {
        assert!(windows > 0, "need at least one window");
        let trace = self.trace(pulses);
        let w = end_ps / windows as Ps;
        (0..windows)
            .map(|k| trace.toggles_between(k as Ps * w, (k + 1) as Ps * w))
            .collect()
    }

    /// Formats a label line like the paper's Fig. 16(d):
    /// `label3: 0-0-0-0-1`.
    pub fn label_line(
        &self,
        label: usize,
        pulses: &PulseTrain,
        end_ps: Ps,
        windows: usize,
    ) -> String {
        let seq: Vec<String> = self
            .pulse_sequence(pulses, end_ps, windows)
            .iter()
            .map(ToString::to_string)
            .collect();
        format!("label{label}: {}", seq.join("-"))
    }

    /// The verification criterion of Section 6.2: the chip's sampled trace
    /// must invert exactly where the simulation's does.
    pub fn traces_match(&self, sim: &PulseTrain, chip: &PulseTrain, end_ps: Ps) -> bool {
        self.sample(sim, end_ps) == self.sample(chip, end_ps)
    }
}

impl Default for Oscilloscope {
    /// 1 ns sampling: coarse enough to emulate a bench, fine enough to
    /// separate inference windows.
    fn default() -> Self {
        Self::new(1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_reflects_toggles() {
        let osc = Oscilloscope::new(100.0);
        let pulses = PulseTrain::from_times(vec![150.0, 350.0]);
        let s = osc.sample(&pulses, 500.0);
        assert_eq!(s, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn pulse_sequence_recovers_counts_per_window() {
        let osc = Oscilloscope::default();
        // 3 pulses in window 1, 2 in window 3 (windows of 1000 ps).
        let pulses = PulseTrain::from_times(vec![1100.0, 1400.0, 1800.0, 3100.0, 3500.0]);
        let seq = osc.pulse_sequence(&pulses, 5000.0, 5);
        assert_eq!(seq, vec![0, 3, 0, 2, 0]);
    }

    #[test]
    fn label_line_formats_like_fig16() {
        let osc = Oscilloscope::default();
        let pulses = PulseTrain::from_times(vec![1500.0, 2500.0, 3500.0, 4500.0]);
        let line = osc.label_line(1, &pulses, 5000.0, 5);
        assert_eq!(line, "label1: 0-1-1-1-1");
    }

    #[test]
    fn matching_traces_verify() {
        let osc = Oscilloscope::new(100.0);
        let sim = PulseTrain::from_times(vec![130.0, 310.0]);
        let chip = PulseTrain::from_times(vec![140.0, 320.0]); // jitter within a sample window
        assert!(osc.traces_match(&sim, &chip, 400.0));
        let wrong = PulseTrain::from_times(vec![130.0]);
        assert!(!osc.traces_match(&sim, &wrong, 400.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        let _ = Oscilloscope::new(0.0);
    }
}
