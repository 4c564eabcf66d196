//! Per-cell resource and electrical parameters.
//!
//! The reproduction cannot use the proprietary SIMIT-Nb03 library data
//! directly; the default values in [`CellParams::nb03`] are drawn from the
//! public RSFQ literature for a 2 µm niobium process and then calibrated so
//! that the *aggregate* numbers of the paper (Table 2, Fig. 13, Fig. 20,
//! Table 4) are reproduced by the architecture generator. See DESIGN.md.

use crate::{CellKind, Ps};

/// Resource and electrical parameters of one standard cell.
///
/// # Examples
///
/// ```
/// use sushi_cells::{CellKind, CellParams};
///
/// let jtl = CellParams::nb03(CellKind::Jtl);
/// assert_eq!(jtl.jj_count, 2);
/// assert!(jtl.delay_ps > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Number of Josephson junctions in the cell.
    pub jj_count: u32,
    /// Placed cell area in µm² (includes bias resistors and moats).
    pub area_um2: f64,
    /// Input-to-output propagation delay in ps.
    pub delay_ps: Ps,
    /// Static bias-current power draw in nW (RSFQ power is dominated by the
    /// DC bias network, not by switching).
    pub bias_power_nw: f64,
    /// Energy of one switching event in aJ (~`I_c * Phi_0` per JJ flip).
    pub switch_energy_aj: f64,
}

/// Static bias power per Josephson junction in nW.
///
/// Calibrated so the 32-NPE peak design lands at the paper's 41.87 mW
/// (Fig. 20 / Table 4) together with [`FIXED_CHIP_POWER_MW`].
pub const BIAS_NW_PER_JJ: f64 = 339.0;

/// Chip-level fixed power (bias distribution, IO drivers) in mW.
pub const FIXED_CHIP_POWER_MW: f64 = 8.0;

/// Switching energy per JJ flip in aJ (0.2 aJ ~= 2e-19 J, the paper's
/// "energy consumption of ~1e-19 J to complete a state flipping").
pub const SWITCH_AJ_PER_JJ: f64 = 0.2;

/// Average placed area per JJ in µm² for the 2 µm process.
///
/// Derived from Table 2: 44.73 mm² / 45,542 JJs ≈ 982 µm²/JJ.
pub const AREA_UM2_PER_JJ: f64 = 982.0;

impl CellParams {
    /// Nb03-like default parameters for `kind`.
    ///
    /// JJ counts follow typical RSFQ cell-library publications (JTL 2,
    /// SPL 3, CB 7, DFF 6, NDRO 11, TFF 8); delays are scaled for a 2 µm
    /// process; area/power/energy derive from the per-JJ constants above.
    pub fn nb03(kind: CellKind) -> Self {
        let (jj_count, delay_ps) = match kind {
            CellKind::Jtl => (2, 7.0),
            CellKind::Spl2 => (3, 7.5),
            CellKind::Spl3 => (5, 9.0),
            CellKind::Cb2 => (7, 9.5),
            CellKind::Cb3 => (12, 12.0),
            CellKind::Dff => (6, 9.3),
            CellKind::Ndro => (11, 15.0),
            CellKind::Tffl => (8, 11.0),
            CellKind::Tffr => (8, 11.0),
            CellKind::DcSfq => (6, 10.0),
            CellKind::SfqDc => (12, 14.0),
        };
        Self::from_jj_count(jj_count, delay_ps)
    }

    /// Builds parameters from a JJ count and delay using the per-JJ scaling
    /// constants ([`AREA_UM2_PER_JJ`], [`BIAS_NW_PER_JJ`], [`SWITCH_AJ_PER_JJ`]).
    pub fn from_jj_count(jj_count: u32, delay_ps: Ps) -> Self {
        Self {
            jj_count,
            area_um2: f64::from(jj_count) * AREA_UM2_PER_JJ,
            delay_ps,
            bias_power_nw: f64::from(jj_count) * BIAS_NW_PER_JJ,
            switch_energy_aj: f64::from(jj_count) * SWITCH_AJ_PER_JJ,
        }
    }

    /// A copy with delay, area and bias power scaled (process migration).
    ///
    /// # Panics
    ///
    /// Panics if any factor is not positive.
    pub fn scaled(&self, delay_f: f64, area_f: f64, power_f: f64) -> Self {
        assert!(
            delay_f > 0.0 && area_f > 0.0 && power_f > 0.0,
            "factors must be positive"
        );
        Self {
            jj_count: self.jj_count,
            area_um2: self.area_um2 * area_f,
            delay_ps: self.delay_ps * delay_f,
            bias_power_nw: self.bias_power_nw * power_f,
            switch_energy_aj: self.switch_energy_aj,
        }
    }

    /// Static power of `n` instances of this cell, in mW.
    pub fn bias_power_mw(&self, n: u64) -> f64 {
        self.bias_power_nw * n as f64 * 1e-6
    }

    /// Energy of `events` switching events, in pJ.
    pub fn switch_energy_pj(&self, events: u64) -> f64 {
        self.switch_energy_aj * events as f64 * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nb03_jj_counts_are_plausible() {
        assert_eq!(CellParams::nb03(CellKind::Jtl).jj_count, 2);
        assert_eq!(CellParams::nb03(CellKind::Spl2).jj_count, 3);
        assert_eq!(CellParams::nb03(CellKind::Ndro).jj_count, 11);
        assert_eq!(CellParams::nb03(CellKind::Tffl).jj_count, 8);
        // Complex cells cost more than wiring cells.
        assert!(
            CellParams::nb03(CellKind::Ndro).jj_count > CellParams::nb03(CellKind::Jtl).jj_count
        );
    }

    #[test]
    fn area_scales_with_jj_count() {
        for kind in CellKind::ALL {
            let p = CellParams::nb03(kind);
            let expected = f64::from(p.jj_count) * AREA_UM2_PER_JJ;
            assert!((p.area_um2 - expected).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn bias_power_aggregation() {
        let jtl = CellParams::nb03(CellKind::Jtl);
        // 1000 JTLs = 2000 JJs * 339 nW = 0.678 mW.
        let mw = jtl.bias_power_mw(1000);
        assert!((mw - 0.678).abs() < 1e-9);
    }

    #[test]
    fn switch_energy_aggregation() {
        let ndro = CellParams::nb03(CellKind::Ndro);
        // 11 JJ * 0.2 aJ = 2.2 aJ per event; 1e6 events = 2.2 pJ.
        let pj = ndro.switch_energy_pj(1_000_000);
        assert!((pj - 2.2).abs() < 1e-9);
    }

    #[test]
    fn delays_positive_and_wiring_fastest() {
        let jtl = CellParams::nb03(CellKind::Jtl);
        for kind in CellKind::ALL {
            let p = CellParams::nb03(kind);
            assert!(p.delay_ps > 0.0);
            assert!(p.delay_ps >= jtl.delay_ps, "{kind} faster than a JTL");
        }
    }
}
