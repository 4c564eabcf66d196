//! Waveform capture, pulse-level conversion and comparison.
//!
//! The paper validates the fabricated chip by comparing oscilloscope
//! waveforms against simulation waveforms (Fig. 16), using *pulse-level
//! conversion*: each SFQ pulse inverts a sampled DC level (Fig. 14,
//! "3 pulses are sampled at the output channel, so the level at the real
//! output channel is inverted by 3 times"). This module provides exactly
//! those observables: pulse trains, derived level traces, tolerance-based
//! train comparison, and ASCII waveform rendering.

use sushi_cells::Ps;

/// An ordered sequence of pulse times on one channel.
///
/// # Examples
///
/// ```
/// use sushi_sim::PulseTrain;
///
/// let t = PulseTrain::from_times(vec![10.0, 50.0, 90.0]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.count_in_window(0.0, 60.0), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PulseTrain {
    times: Vec<Ps>,
}

impl PulseTrain {
    /// Creates a train from times, sorting them.
    pub fn from_times(mut times: Vec<Ps>) -> Self {
        times.sort_by(|a, b| a.partial_cmp(b).expect("pulse times are not NaN"));
        Self { times }
    }

    /// The pulse times, ascending.
    pub fn times(&self) -> &[Ps] {
        &self.times
    }

    /// Number of pulses.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the train has no pulses.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of pulses in `[start, end)`.
    pub fn count_in_window(&self, start: Ps, end: Ps) -> usize {
        self.times
            .iter()
            .filter(|&&t| t >= start && t < end)
            .count()
    }

    /// Mean pulse rate in GHz over `[start, end)` (pulses / ps * 1000).
    pub fn rate_ghz(&self, start: Ps, end: Ps) -> f64 {
        if end <= start {
            return 0.0;
        }
        self.count_in_window(start, end) as f64 / (end - start) * 1000.0
    }

    /// True if both trains have the same pulse count and each pair of
    /// corresponding pulses is within `tol_ps`.
    ///
    /// This is the paper's chip-verification criterion: the oscilloscope
    /// waveform must match the simulation waveform pulse for pulse.
    pub fn matches(&self, other: &PulseTrain, tol_ps: Ps) -> bool {
        self.len() == other.len()
            && self
                .times
                .iter()
                .zip(&other.times)
                .all(|(a, b)| (a - b).abs() <= tol_ps)
    }

    /// The derived level trace under pulse-level conversion, starting from
    /// a low level.
    pub fn to_levels(&self) -> LevelTrace {
        levels_from_pulses(&self.times, false)
    }
}

impl FromIterator<Ps> for PulseTrain {
    fn from_iter<I: IntoIterator<Item = Ps>>(iter: I) -> Self {
        Self::from_times(iter.into_iter().collect())
    }
}

impl Extend<Ps> for PulseTrain {
    fn extend<I: IntoIterator<Item = Ps>>(&mut self, iter: I) {
        self.times.extend(iter);
        self.times
            .sort_by(|a, b| a.partial_cmp(b).expect("pulse times are not NaN"));
    }
}

impl From<&[Ps]> for PulseTrain {
    fn from(times: &[Ps]) -> Self {
        Self::from_times(times.to_vec())
    }
}

/// A DC level trace as sampled by the measurement bench: a list of
/// `(time, new_level)` transitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelTrace {
    initial: bool,
    transitions: Vec<(Ps, bool)>,
}

impl LevelTrace {
    /// The level at time `t` (just after any transition at exactly `t`).
    pub fn level_at(&self, t: Ps) -> bool {
        self.transitions
            .iter()
            .take_while(|(tt, _)| *tt <= t)
            .last()
            .map_or(self.initial, |(_, l)| *l)
    }

    /// All transitions, ascending in time.
    pub fn transitions(&self) -> &[(Ps, bool)] {
        &self.transitions
    }

    /// Total number of level toggles (equals the pulse count).
    pub fn toggle_count(&self) -> usize {
        self.transitions.len()
    }

    /// Samples the level at each time in `at`.
    pub fn sample(&self, at: &[Ps]) -> Vec<bool> {
        at.iter().map(|&t| self.level_at(t)).collect()
    }

    /// Recovers the pulse count between two sample points: the number of
    /// toggles in `(t0, t1]`.
    pub fn toggles_between(&self, t0: Ps, t1: Ps) -> usize {
        self.transitions
            .iter()
            .filter(|(t, _)| *t > t0 && *t <= t1)
            .count()
    }
}

/// Pulse-level conversion: each pulse inverts the DC level (Fig. 14).
pub fn levels_from_pulses(pulses: &[Ps], initial: bool) -> LevelTrace {
    let mut level = initial;
    let mut transitions = Vec::with_capacity(pulses.len());
    let mut sorted: Vec<Ps> = pulses.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("pulse times are not NaN"));
    for t in sorted {
        level = !level;
        transitions.push((t, level));
    }
    LevelTrace {
        initial,
        transitions,
    }
}

/// Renders named pulse trains as ASCII rows over `[t0, t1)` using `cols`
/// time bins; each bin with at least one pulse prints `|`.
///
/// This is the textual analogue of the paper's Fig. 16 waveform plots.
pub fn render_pulse_rows(rows: &[(&str, &[Ps])], t0: Ps, t1: Ps, cols: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let span = (t1 - t0).max(Ps::MIN_POSITIVE);
    for (name, pulses) in rows {
        let mut bins = vec![false; cols.max(1)];
        for &t in *pulses {
            if t >= t0 && t < t1 {
                let idx = (((t - t0) / span) * cols as Ps) as usize;
                bins[idx.min(cols - 1)] = true;
            }
        }
        let _ = write!(out, "{name:>width$} ");
        for b in bins {
            out.push(if b { '|' } else { '_' });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_times_sorts() {
        let t = PulseTrain::from_times(vec![30.0, 10.0, 20.0]);
        assert_eq!(t.times(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn window_counting() {
        let t = PulseTrain::from_times(vec![0.0, 10.0, 20.0, 30.0]);
        assert_eq!(t.count_in_window(5.0, 25.0), 2);
        assert_eq!(t.count_in_window(0.0, 0.0), 0);
    }

    #[test]
    fn rate_in_ghz() {
        // 10 pulses over 1000 ps = 10 GHz.
        let t: PulseTrain = (0..10).map(|i| i as Ps * 100.0).collect();
        assert!((t.rate_ghz(0.0, 1000.0) - 10.0).abs() < 1e-9);
        assert_eq!(t.rate_ghz(10.0, 10.0), 0.0);
    }

    #[test]
    fn matches_with_tolerance() {
        let a = PulseTrain::from_times(vec![100.0, 200.0]);
        let b = PulseTrain::from_times(vec![101.0, 199.5]);
        assert!(a.matches(&b, 2.0));
        assert!(!a.matches(&b, 0.5));
        let c = PulseTrain::from_times(vec![100.0]);
        assert!(!a.matches(&c, 10.0));
    }

    #[test]
    fn level_conversion_inverts_per_pulse() {
        let lt = levels_from_pulses(&[10.0, 20.0, 30.0], false);
        assert!(!lt.level_at(5.0));
        assert!(lt.level_at(10.0));
        assert!(!lt.level_at(25.0));
        assert!(lt.level_at(35.0));
        assert_eq!(lt.toggle_count(), 3);
    }

    #[test]
    fn level_conversion_respects_initial() {
        let lt = levels_from_pulses(&[10.0], true);
        assert!(lt.level_at(0.0));
        assert!(!lt.level_at(15.0));
    }

    #[test]
    fn toggles_between_recovers_pulse_count() {
        let lt = levels_from_pulses(&[10.0, 20.0, 30.0, 40.0], false);
        assert_eq!(lt.toggles_between(15.0, 45.0), 3);
        assert_eq!(lt.toggles_between(0.0, 5.0), 0);
    }

    #[test]
    fn sampling_matches_fig14_example() {
        // Fig 14: 3 output pulses -> the sampled level inverts 3 times,
        // ending opposite to where it started.
        let lt = levels_from_pulses(&[100.0, 300.0, 500.0], false);
        let s = lt.sample(&[0.0, 200.0, 400.0, 600.0]);
        assert_eq!(s, vec![false, true, false, true]);
    }

    #[test]
    fn render_shows_pulses_as_bars() {
        let art = render_pulse_rows(&[("in", &[5.0, 55.0]), ("out", &[95.0])], 0.0, 100.0, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('|'));
        assert!(lines[0].starts_with(" in") || lines[0].starts_with("in"));
        // The single out pulse lands in the last bin.
        assert!(lines[1].ends_with('|'));
    }

    #[test]
    fn extend_keeps_sorted() {
        let mut t = PulseTrain::from_times(vec![50.0]);
        t.extend([10.0, 90.0]);
        assert_eq!(t.times(), &[10.0, 50.0, 90.0]);
    }
}
