//! Resource accounting: Josephson junctions and area, split into logic vs
//! wiring (the paper's Table 2 and Fig. 13).

use std::collections::BTreeMap;
use std::fmt;
use sushi_cells::params::AREA_UM2_PER_JJ;

/// Resource component categories used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// NPE state-controller logic.
    Npe,
    /// Network distribution/collection cells and cross-point switches.
    NetworkFabric,
    /// Weight-structure gain loops.
    WeightStructures,
    /// IO converters (DC/SFQ in, SFQ/DC out, control pads).
    Io,
    /// Intra-SC routing JTLs.
    IntraSc,
    /// Shared data buses (row/column).
    DataRoutes,
    /// Control-distribution lines (rst/set/read/write, weight config).
    ControlRoutes,
    /// Transmission-line crossings.
    Crossings,
    /// Weight-structure delay JTL sections.
    WeightDelays,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Npe => "NPE logic",
            Category::NetworkFabric => "network fabric",
            Category::WeightStructures => "weight structures",
            Category::Io => "IO converters",
            Category::IntraSc => "intra-SC routing",
            Category::DataRoutes => "data buses",
            Category::ControlRoutes => "control routes",
            Category::Crossings => "crossings",
            Category::WeightDelays => "weight delay lines",
        };
        f.write_str(s)
    }
}

/// A per-category JJ budget split into logic and wiring, with derived area.
///
/// # Examples
///
/// ```
/// use sushi_arch::resources::{Category, ResourceReport};
///
/// let mut r = ResourceReport::new();
/// r.add_logic(Category::Npe, 800);
/// r.add_wiring(Category::DataRoutes, 200);
/// assert_eq!(r.total_jj(), 1000);
/// assert!((r.wiring_fraction() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceReport {
    logic: BTreeMap<Category, u64>,
    wiring: BTreeMap<Category, u64>,
}

impl ResourceReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds logic JJs under `category`.
    pub fn add_logic(&mut self, category: Category, jj: u64) {
        *self.logic.entry(category).or_insert(0) += jj;
    }

    /// Adds wiring JJs under `category`.
    pub fn add_wiring(&mut self, category: Category, jj: u64) {
        *self.wiring.entry(category).or_insert(0) += jj;
    }

    /// Total logic JJs.
    pub fn logic_jj(&self) -> u64 {
        self.logic.values().sum()
    }

    /// Total wiring JJs.
    pub fn wiring_jj(&self) -> u64 {
        self.wiring.values().sum()
    }

    /// Total JJs.
    pub fn total_jj(&self) -> u64 {
        self.logic_jj() + self.wiring_jj()
    }

    /// Wiring share of the total (0 for an empty report).
    pub fn wiring_fraction(&self) -> f64 {
        let total = self.total_jj();
        if total == 0 {
            0.0
        } else {
            self.wiring_jj() as f64 / total as f64
        }
    }

    /// Chip area in mm² under the per-JJ area constant.
    pub fn area_mm2(&self) -> f64 {
        self.total_jj() as f64 * AREA_UM2_PER_JJ * 1e-6
    }

    /// Per-category logic breakdown.
    pub fn logic_breakdown(&self) -> &BTreeMap<Category, u64> {
        &self.logic
    }

    /// Per-category wiring breakdown.
    pub fn wiring_breakdown(&self) -> &BTreeMap<Category, u64> {
        &self.wiring
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total JJs {:>8}    total area {:>7.2} mm^2",
            self.total_jj(),
            self.area_mm2()
        )?;
        writeln!(
            f,
            "wiring JJs {:>7} ({:>5.2}%)    logic JJs {:>7} ({:>5.2}%)",
            self.wiring_jj(),
            self.wiring_fraction() * 100.0,
            self.logic_jj(),
            (1.0 - self.wiring_fraction()) * 100.0
        )?;
        for (cat, jj) in &self.logic {
            writeln!(f, "  logic  {cat:<22} {jj:>8}")?;
        }
        for (cat, jj) in &self.wiring {
            writeln!(f, "  wiring {cat:<22} {jj:>8}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fraction() {
        let mut r = ResourceReport::new();
        r.add_logic(Category::Npe, 300);
        r.add_logic(Category::Io, 100);
        r.add_wiring(Category::DataRoutes, 600);
        assert_eq!(r.logic_jj(), 400);
        assert_eq!(r.wiring_jj(), 600);
        assert_eq!(r.total_jj(), 1000);
        assert!((r.wiring_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = ResourceReport::new();
        assert_eq!(r.total_jj(), 0);
        assert_eq!(r.wiring_fraction(), 0.0);
        assert_eq!(r.area_mm2(), 0.0);
    }

    #[test]
    fn area_uses_per_jj_constant() {
        let mut r = ResourceReport::new();
        r.add_logic(Category::Npe, 45_542);
        // Table 2 anchor: 45,542 JJs ~ 44.73 mm^2.
        assert!((r.area_mm2() - 44.72).abs() < 0.1, "{}", r.area_mm2());
    }

    #[test]
    fn repeated_adds_accumulate() {
        let mut r = ResourceReport::new();
        r.add_logic(Category::Npe, 10);
        r.add_logic(Category::Npe, 5);
        assert_eq!(r.logic_breakdown()[&Category::Npe], 15);
    }

    #[test]
    fn display_contains_table2_fields() {
        let mut r = ResourceReport::new();
        r.add_logic(Category::Npe, 100);
        r.add_wiring(Category::Crossings, 50);
        let s = r.to_string();
        assert!(s.contains("total JJs"));
        assert!(s.contains("wiring JJs"));
        assert!(s.contains("NPE logic"));
    }
}
