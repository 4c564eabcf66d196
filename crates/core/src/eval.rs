//! Chip-level evaluation: the Table 4 comparison rows and derived ratios.

use crate::baselines::Baseline;
use sushi_arch::{ChipConfig, PerfModel};

/// One row of the Table 4 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Chip name.
    pub name: String,
    /// Model class.
    pub model: String,
    /// Memory technology.
    pub memory: String,
    /// Fabrication technology.
    pub technology: String,
    /// Clock (MHz) or "Async".
    pub clock: String,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power display string in mW.
    pub power_mw: String,
    /// Peak GSOPS, when defined.
    pub gsops: Option<f64>,
    /// Power efficiency in GSOPS/W.
    pub gsops_per_w: f64,
}

impl From<Baseline> for EvalRow {
    fn from(b: Baseline) -> Self {
        let power = b.power_display();
        Self {
            name: b.name,
            model: b.model,
            memory: b.memory,
            technology: b.technology,
            clock: b.clock,
            area_mm2: b.area_mm2,
            power_mw: power,
            gsops: b.gsops,
            gsops_per_w: b.gsops_per_w,
        }
    }
}

/// SUSHI's row, measured from the peak (16x16, 32-NPE) configuration's
/// resource and performance models.
pub fn sushi_row() -> EvalRow {
    let chip = ChipConfig::mesh(16).build();
    let perf = PerfModel::new(&chip).evaluate();
    let area = chip.resources().area_mm2();
    EvalRow {
        name: "SUSHI".to_owned(),
        model: "SSNN".to_owned(),
        memory: "-".to_owned(),
        technology: "RSFQ, 2 um".to_owned(),
        clock: "Async".to_owned(),
        area_mm2: area,
        power_mw: format!("{:.2}", perf.power_mw),
        gsops: Some(perf.gsops),
        gsops_per_w: perf.gsops_per_w,
    }
}

/// All Table 4 rows: TrueNorth, Tianjic, SUSHI.
pub fn table4_rows() -> Vec<EvalRow> {
    let mut rows: Vec<EvalRow> = Baseline::all().into_iter().map(EvalRow::from).collect();
    rows.push(sushi_row());
    rows
}

/// SUSHI's peak-throughput advantage over TrueNorth (paper: 23x).
pub fn speedup_vs_truenorth() -> f64 {
    let sushi = sushi_row().gsops.expect("SUSHI publishes GSOPS");
    sushi
        / Baseline::truenorth()
            .gsops
            .expect("TrueNorth publishes GSOPS")
}

/// SUSHI's efficiency advantage over a baseline (paper: 81x TrueNorth,
/// 50x Tianjic).
pub fn efficiency_ratio(baseline: &Baseline) -> f64 {
    sushi_row().gsops_per_w / baseline.gsops_per_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sushi_row_matches_paper_scale() {
        let r = sushi_row();
        let gsops = r.gsops.unwrap();
        assert!((gsops - 1355.0).abs() / 1355.0 < 0.08, "gsops {gsops}");
        assert!((r.gsops_per_w - 32_366.0).abs() / 32_366.0 < 0.12);
        assert!((r.area_mm2 - 103.75).abs() / 103.75 < 0.10);
    }

    #[test]
    fn table4_has_three_rows_ending_with_sushi() {
        let rows = table4_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].name, "SUSHI");
        assert_eq!(rows[0].name, "TrueNorth");
    }

    /// The headline ratios: 23x TrueNorth throughput, 81x / 50x efficiency.
    #[test]
    fn headline_ratios_match_paper() {
        let speedup = speedup_vs_truenorth();
        assert!((speedup - 23.0).abs() < 2.5, "speedup {speedup}");
        let vs_tn = efficiency_ratio(&Baseline::truenorth());
        assert!((vs_tn - 81.0).abs() < 9.0, "vs TrueNorth {vs_tn}");
        let vs_tj = efficiency_ratio(&Baseline::tianjic());
        assert!((vs_tj - 50.0).abs() < 6.0, "vs Tianjic {vs_tj}");
    }
}
