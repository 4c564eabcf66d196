//! Chip-level power model primitives.
//!
//! RSFQ power has two components: a *static* bias-current term proportional
//! to the number of junctions (dominant) and a *dynamic* switching term of
//! roughly `I_c * Phi_0` per JJ flip (tiny). The paper evaluates power
//! "without considering the cooling costs"; we do the same, but expose the
//! cooling multiplier for completeness.

use crate::CellLibrary;

/// Carnot-limited specific power of a 4.2 K cryocooler relative to the
/// dissipated chip power (W of wall power per W at 4.2 K). Real systems are
/// ~1000x; the paper (like most RSFQ papers) excludes this.
pub const COOLING_OVERHEAD_FACTOR: f64 = 1000.0;

/// A chip-level power estimate.
///
/// # Examples
///
/// ```
/// use sushi_cells::{CellLibrary, PowerModel};
///
/// let lib = CellLibrary::nb03();
/// let p = PowerModel::new(&lib).estimate(100_000, 1.0e12, 50.0);
/// assert!(p.total_mw() > p.dynamic_mw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Static bias power in mW (including fixed chip overhead).
    pub static_mw: f64,
    /// Dynamic switching power in mW.
    pub dynamic_mw: f64,
}

impl PowerEstimate {
    /// Total chip power in mW, excluding cooling (as in the paper).
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }

    /// Total wall power in mW if the 4.2 K cooling overhead were included.
    pub fn total_with_cooling_mw(&self) -> f64 {
        self.total_mw() * COOLING_OVERHEAD_FACTOR
    }
}

/// Computes [`PowerEstimate`]s from a [`CellLibrary`]'s constants.
#[derive(Debug, Clone)]
pub struct PowerModel<'a> {
    library: &'a CellLibrary,
}

impl<'a> PowerModel<'a> {
    /// Creates a power model over `library`.
    pub fn new(library: &'a CellLibrary) -> Self {
        Self { library }
    }

    /// Estimates power for a design with `jj_count` junctions switching
    /// `events_per_s` times per second, each event flipping on average
    /// `jj_per_event` junctions.
    pub fn estimate(&self, jj_count: u64, events_per_s: f64, jj_per_event: f64) -> PowerEstimate {
        PowerEstimate {
            static_mw: self.library.static_power_mw(jj_count),
            dynamic_mw: self.library.dynamic_power_mw(events_per_s, jj_per_event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_dominates_dynamic() {
        let lib = CellLibrary::nb03();
        let p = PowerModel::new(&lib).estimate(99_982, 1.355e12, 50.0);
        assert!(p.static_mw > 100.0 * p.dynamic_mw);
        // Near the paper's 41.87 mW.
        assert!((p.total_mw() - 41.87).abs() < 0.5, "total {}", p.total_mw());
    }

    #[test]
    fn cooling_overhead_is_multiplicative() {
        let lib = CellLibrary::nb03();
        let p = PowerModel::new(&lib).estimate(10_000, 0.0, 0.0);
        assert!((p.total_with_cooling_mw() - p.total_mw() * COOLING_OVERHEAD_FACTOR).abs() < 1e-9);
    }

    #[test]
    fn zero_activity_means_zero_dynamic() {
        let lib = CellLibrary::nb03();
        let p = PowerModel::new(&lib).estimate(10_000, 0.0, 50.0);
        assert_eq!(p.dynamic_mw, 0.0);
        assert!(p.static_mw > 0.0);
    }
}
