//! The complete cell library: parameters + constraints + routing constants.

use crate::params::{FIXED_CHIP_POWER_MW, SWITCH_AJ_PER_JJ};
use crate::{CellKind, CellParams, ConstraintTable, Ps};
use std::collections::BTreeMap;

/// Chip-level routing constants used by the architecture generator's
/// floorplan/wiring model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingParams {
    /// Span of one JTL repeater stage along a route, in µm. The number of
    /// wiring JTLs on a route of length L is `ceil(L / jtl_pitch_um)`.
    pub jtl_pitch_um: f64,
    /// Signal propagation delay per mm of routed JTL wiring, in ps.
    pub wire_delay_ps_per_mm: Ps,
    /// Extra JJs consumed by one transmission-line crossing (the paper:
    /// "the transmission line crossing overhead is high — twice the width
    /// of the original transmission line").
    pub crossing_jj: u32,
    /// Placement pitch of one NPE tile in mm (sets route lengths).
    pub npe_pitch_mm: f64,
    /// Area overhead factor for routing tracks relative to summed cell area.
    pub track_area_factor: f64,
}

impl RoutingParams {
    /// Nb03-like defaults, calibrated against Table 2 / Fig. 13 aggregates.
    pub fn nb03() -> Self {
        Self {
            jtl_pitch_um: 30.0,
            wire_delay_ps_per_mm: 10.4,
            crossing_jj: 4,
            npe_pitch_mm: 0.62,
            track_area_factor: 1.0,
        }
    }

    /// Number of wiring JTL stages needed to cover `len_mm` of route.
    pub fn jtls_for_route(&self, len_mm: f64) -> u64 {
        if len_mm <= 0.0 {
            return 0;
        }
        ((len_mm * 1000.0) / self.jtl_pitch_um).ceil() as u64
    }

    /// Propagation delay of `len_mm` of routed wiring, in ps.
    pub fn wire_delay_ps(&self, len_mm: f64) -> Ps {
        len_mm.max(0.0) * self.wire_delay_ps_per_mm
    }
}

impl Default for RoutingParams {
    fn default() -> Self {
        Self::nb03()
    }
}

/// A complete RSFQ cell library: per-cell parameters, per-cell timing
/// constraints, and chip-level routing/power constants.
///
/// # Examples
///
/// ```
/// use sushi_cells::{CellKind, CellLibrary};
///
/// let lib = CellLibrary::nb03();
/// assert_eq!(lib.name(), "SIMIT-Nb03-like");
/// let total_jj = lib.params(CellKind::Ndro).jj_count + lib.params(CellKind::Tffl).jj_count;
/// assert!(total_jj > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: String,
    params: BTreeMap<CellKind, CellParams>,
    constraints: BTreeMap<CellKind, ConstraintTable>,
    routing: RoutingParams,
    /// Fixed chip-level power in mW (bias distribution, IO).
    fixed_power_mw: f64,
}

impl CellLibrary {
    /// The default SIMIT-Nb03-like library used throughout the reproduction.
    pub fn nb03() -> Self {
        let mut params = BTreeMap::new();
        let mut constraints = BTreeMap::new();
        for kind in CellKind::ALL {
            params.insert(kind, CellParams::nb03(kind));
            constraints.insert(kind, ConstraintTable::paper_table1(kind));
        }
        Self {
            name: "SIMIT-Nb03-like".to_owned(),
            params,
            constraints,
            routing: RoutingParams::nb03(),
            fixed_power_mw: FIXED_CHIP_POWER_MW,
        }
    }

    /// An advanced-process library (MIT-LL SFQ5ee-like, 350 nm, high
    /// critical-current density): ~3x faster cells, ~8x denser layout,
    /// halved bias power and proportionally tighter timing constraints.
    /// Used by the process-scaling ablation — the paper notes the design
    /// is "compressible or expandable based on the level of
    /// superconducting circuit technology".
    pub fn advanced() -> Self {
        let base = Self::nb03();
        let mut params = BTreeMap::new();
        let mut constraints = BTreeMap::new();
        for kind in CellKind::ALL {
            params.insert(kind, base.params(kind).scaled(1.0 / 3.0, 1.0 / 8.0, 0.5));
            constraints.insert(kind, base.constraints(kind).scaled(1.0 / 3.0));
        }
        Self {
            name: "SFQ5ee-like".to_owned(),
            params,
            constraints,
            routing: RoutingParams {
                jtl_pitch_um: 12.0,
                wire_delay_ps_per_mm: 8.0,
                crossing_jj: 4,
                npe_pitch_mm: 0.22,
                track_area_factor: 1.0,
            },
            fixed_power_mw: FIXED_CHIP_POWER_MW / 2.0,
        }
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameters of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if the library was built without an entry for `kind`
    /// (impossible for [`CellLibrary::nb03`]).
    pub fn params(&self, kind: CellKind) -> &CellParams {
        self.params
            .get(&kind)
            .unwrap_or_else(|| panic!("cell library {} has no params for {kind}", self.name))
    }

    /// Timing constraints of `kind`.
    pub fn constraints(&self, kind: CellKind) -> &ConstraintTable {
        self.constraints
            .get(&kind)
            .unwrap_or_else(|| panic!("cell library {} has no constraints for {kind}", self.name))
    }

    /// Chip-level routing constants.
    pub fn routing(&self) -> &RoutingParams {
        &self.routing
    }

    /// Fixed chip-level power in mW.
    pub fn fixed_power_mw(&self) -> f64 {
        self.fixed_power_mw
    }

    /// Replaces the parameters of one cell kind (builder style, for process
    /// exploration).
    pub fn with_params(mut self, kind: CellKind, p: CellParams) -> Self {
        self.params.insert(kind, p);
        self
    }

    /// Replaces the routing constants (builder style).
    pub fn with_routing(mut self, routing: RoutingParams) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the fixed chip-level power (builder style).
    pub fn with_fixed_power_mw(mut self, mw: f64) -> Self {
        self.fixed_power_mw = mw;
        self
    }

    /// Static power in mW of a design containing `jj_count` junctions,
    /// including the fixed chip overhead. Uses the library's JTL bias as
    /// the per-JJ constant (uniform across cells by construction).
    pub fn static_power_mw(&self, jj_count: u64) -> f64 {
        let jtl = self.params(CellKind::Jtl);
        let per_jj_nw = jtl.bias_power_nw / f64::from(jtl.jj_count);
        self.fixed_power_mw + jj_count as f64 * per_jj_nw * 1e-6
    }

    /// Dynamic power in mW of `events_per_s` switching events per second,
    /// each flipping on average `jj_per_event` junctions.
    pub fn dynamic_power_mw(&self, events_per_s: f64, jj_per_event: f64) -> f64 {
        events_per_s * jj_per_event * SWITCH_AJ_PER_JJ * 1e-18 * 1e3
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::nb03()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortName;

    #[test]
    fn nb03_covers_every_kind() {
        let lib = CellLibrary::nb03();
        for kind in CellKind::ALL {
            let p = lib.params(kind);
            assert!(p.jj_count > 0, "{kind}");
            let _ = lib.constraints(kind);
        }
    }

    #[test]
    fn static_power_includes_fixed_overhead() {
        let lib = CellLibrary::nb03();
        let p0 = lib.static_power_mw(0);
        assert!((p0 - FIXED_CHIP_POWER_MW).abs() < 1e-12);
        // Peak design calibration: ~99,982 JJs -> ~41.9 mW (paper: 41.87).
        let p = lib.static_power_mw(99_982);
        assert!((p - 41.87).abs() < 0.5, "got {p}");
    }

    #[test]
    fn dynamic_power_is_negligible_vs_static() {
        let lib = CellLibrary::nb03();
        // 1355 GSOPS with ~50 JJ flips per synaptic op.
        let dyn_mw = lib.dynamic_power_mw(1.355e12, 50.0);
        assert!(dyn_mw < 0.1, "dynamic {dyn_mw} mW should be tiny");
        assert!(dyn_mw > 0.0);
    }

    #[test]
    fn routing_jtl_count_rounds_up() {
        let r = RoutingParams::nb03();
        assert_eq!(r.jtls_for_route(0.0), 0);
        assert_eq!(r.jtls_for_route(-1.0), 0);
        // 0.031 mm = 31 µm needs 2 stages at 30 µm pitch.
        assert_eq!(r.jtls_for_route(0.031), 2);
        assert_eq!(r.jtls_for_route(0.030), 1);
    }

    #[test]
    fn routing_delay_linear_in_length() {
        let r = RoutingParams::nb03();
        let d1 = r.wire_delay_ps(1.0);
        let d2 = r.wire_delay_ps(2.0);
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
        assert_eq!(r.wire_delay_ps(-5.0), 0.0);
    }

    #[test]
    fn builder_overrides_apply() {
        let lib = CellLibrary::nb03()
            .with_fixed_power_mw(0.0)
            .with_params(CellKind::Jtl, CellParams::from_jj_count(4, 9.0));
        assert_eq!(lib.params(CellKind::Jtl).jj_count, 4);
        assert!((lib.static_power_mw(0)).abs() < 1e-12);
    }

    #[test]
    fn advanced_process_is_faster_denser_cooler() {
        let nb = CellLibrary::nb03();
        let adv = CellLibrary::advanced();
        for kind in CellKind::ALL {
            assert!(
                adv.params(kind).delay_ps < nb.params(kind).delay_ps,
                "{kind}"
            );
            assert!(
                adv.params(kind).area_um2 < nb.params(kind).area_um2,
                "{kind}"
            );
            assert!(
                adv.params(kind).bias_power_nw < nb.params(kind).bias_power_nw,
                "{kind}"
            );
            assert_eq!(
                adv.params(kind).jj_count,
                nb.params(kind).jj_count,
                "{kind}"
            );
        }
        // Constraints scale with speed.
        let nb_worst = nb.constraints(CellKind::Ndro).worst_case_ps();
        let adv_worst = adv.constraints(CellKind::Ndro).worst_case_ps();
        assert!((adv_worst - nb_worst / 3.0).abs() < 1e-9);
        assert!(adv.static_power_mw(100_000) < nb.static_power_mw(100_000));
    }

    #[test]
    fn constraints_match_table1() {
        let lib = CellLibrary::nb03();
        assert_eq!(
            lib.constraints(CellKind::Ndro)
                .min_separation(PortName::Din, PortName::Clk),
            Some(14.81)
        );
    }
}
