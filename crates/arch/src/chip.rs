//! The SUSHI chip generator: configuration, resource accounting and
//! cell-level netlist emission.
//!
//! A chip is an `n x n` on-chip network (Section 4.2) of `2n` NPEs, each a
//! chain of state controllers, optionally with a pulse-gain weight
//! structure at every synapse. Resource accounting follows the calibrated
//! wiring model described in DESIGN.md: the paper's Table 2 corresponds to
//! [`WeightConfig::full`] at `n = 4`, while Fig. 13 / Table 4 use the
//! bare-NPE configuration ("we only place the necessary number of NPEs
//! without weight structure").

use crate::floorplan::Floorplan;
use crate::network::{NetworkKind, NetworkModel};
use crate::npe::NpeNetlist;
use crate::resources::{Category, ResourceReport};
use crate::weight::WeightNetlist;
use sushi_cells::{CellKind, CellLibrary, PortName};
use sushi_sim::{Netlist, NetlistError, PortRef};

/// Default number of SCs per NPE (Fig. 9 shows a 10-SC NPE; 2^10 = 1024
/// states covers the paper's "~500 states" requirement).
pub const DEFAULT_SC_PER_NPE: usize = 10;

/// Default weight-structure depth: 16 gain loops = 17 strength levels,
/// covering a 4-bit quantised weight range.
pub const DEFAULT_WEIGHT_LEVELS: u32 = 17;

/// Control lines per NPE: rst/set0/set1 shared per NPE (3) plus individual
/// read and write per SC.
const SHARED_CTRL_LINES_PER_NPE: usize = 3;

/// Repeater pitch of control-distribution passive transmission lines, mm.
const CTRL_REPEATER_PITCH_MM: f64 = 0.22;

/// Intra-SC routing JTLs (links between the SC's cells).
const INTRA_SC_JTLS: u64 = 10;

/// Weight-structure provisioning of a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightConfig {
    /// No weight structures (the fabricated/evaluated configurations).
    None,
    /// A pulse-gain weight structure at every synapse with the given number
    /// of strength levels (max gain).
    Full {
        /// Strength levels (maximum pulse gain).
        levels: u32,
    },
}

impl WeightConfig {
    /// The paper's full mesh configuration (Table 2): 17 levels.
    pub fn full() -> Self {
        WeightConfig::Full {
            levels: DEFAULT_WEIGHT_LEVELS,
        }
    }

    /// Strength levels, or 0 when absent.
    pub fn levels(&self) -> u32 {
        match self {
            WeightConfig::None => 0,
            WeightConfig::Full { levels } => *levels,
        }
    }
}

/// Builder for a [`ChipDesign`].
///
/// # Examples
///
/// ```
/// use sushi_arch::chip::{ChipConfig, WeightConfig};
///
/// let chip = ChipConfig::mesh(16).build();
/// // The paper's peak configuration: 32 NPEs, ~1e5 JJs.
/// assert_eq!(chip.npe_count(), 32);
/// let jj = chip.resources().total_jj();
/// assert!(jj > 90_000 && jj < 115_000, "jj = {jj}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    n: usize,
    sc_per_npe: usize,
    network: NetworkKind,
    weights: WeightConfig,
}

impl ChipConfig {
    /// An `n x n` mesh chip with default SC depth and no weight structures.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn mesh(n: usize) -> Self {
        assert!(n > 0, "mesh size must be positive");
        Self {
            n,
            sc_per_npe: DEFAULT_SC_PER_NPE,
            network: NetworkKind::Mesh,
            weights: WeightConfig::None,
        }
    }

    /// An `n x n` tree-network chip.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn tree(n: usize) -> Self {
        let mut c = Self::mesh(n);
        c.network = NetworkKind::Tree;
        c
    }

    /// Sets the number of SCs per NPE (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `sc == 0` or `sc > 31`.
    pub fn with_sc_per_npe(mut self, sc: usize) -> Self {
        assert!(sc > 0 && sc < 32, "SCs per NPE must be in 1..=31");
        self.sc_per_npe = sc;
        self
    }

    /// Sets the weight provisioning (builder style).
    pub fn with_weights(mut self, weights: WeightConfig) -> Self {
        self.weights = weights;
        self
    }

    /// Finalises the design against the default Nb03-like library.
    pub fn build(self) -> ChipDesign {
        self.build_with_library(CellLibrary::nb03())
    }

    /// Finalises the design against a custom library.
    pub fn build_with_library(self, library: CellLibrary) -> ChipDesign {
        ChipDesign {
            config: self,
            library,
        }
    }
}

/// A finalised chip design: configuration plus cell library.
#[derive(Debug, Clone)]
pub struct ChipDesign {
    config: ChipConfig,
    library: CellLibrary,
}

impl ChipDesign {
    /// The mesh dimension `n`.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// SCs per NPE.
    pub fn sc_per_npe(&self) -> usize {
        self.config.sc_per_npe
    }

    /// Number of NPEs (`2n`).
    pub fn npe_count(&self) -> usize {
        2 * self.config.n
    }

    /// Neuron states per NPE (`2^k`).
    pub fn states_per_npe(&self) -> u64 {
        1u64 << self.config.sc_per_npe
    }

    /// The weight provisioning.
    pub fn weights(&self) -> WeightConfig {
        self.config.weights
    }

    /// The cell library in force.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The network structural model.
    pub fn network(&self) -> NetworkModel {
        NetworkModel::new(self.config.network, self.config.n)
    }

    /// The grid floorplan.
    pub fn floorplan(&self) -> Floorplan {
        Floorplan::new(self.config.n, self.library.routing())
    }

    /// Total control lines routed to chip pads: shared rst/set0/set1 per
    /// NPE, individual read/write per SC, plus one weight-configuration
    /// line per synapse when weight structures are present.
    pub fn control_line_count(&self) -> u64 {
        let per_npe = (2 * self.config.sc_per_npe + SHARED_CTRL_LINES_PER_NPE) as u64;
        let npe_lines = self.npe_count() as u64 * per_npe;
        let weight_lines = match self.config.weights {
            WeightConfig::None => 0,
            WeightConfig::Full { .. } => self.network().synapse_count(),
        };
        npe_lines + weight_lines
    }

    /// Chip area in mm² under *this* library's density (the
    /// [`ResourceReport`]'s own area uses the Nb03 constant; this method
    /// responds to process scaling).
    pub fn area_mm2(&self) -> f64 {
        let jtl = self.library.params(CellKind::Jtl);
        let um2_per_jj = jtl.area_um2 / f64::from(jtl.jj_count);
        self.resources().total_jj() as f64 * um2_per_jj * 1e-6
    }

    /// The calibrated resource report (Table 2 / Fig. 13 model).
    pub fn resources(&self) -> ResourceReport {
        let lib = &self.library;
        let routing = lib.routing();
        let net = self.network();
        let fp = self.floorplan();
        let n = self.config.n as u64;
        let k = self.config.sc_per_npe as u64;
        let mut r = ResourceReport::new();

        // --- Logic ---
        r.add_logic(
            Category::Npe,
            self.npe_count() as u64 * NpeNetlist::logic_jj(lib, self.config.sc_per_npe),
        );
        r.add_logic(Category::NetworkFabric, net.logic_jj(lib));
        if let WeightConfig::Full { levels } = self.config.weights {
            r.add_logic(
                Category::WeightStructures,
                net.synapse_count() * WeightNetlist::logic_jj(lib, levels),
            );
        }
        let dcsfq = u64::from(lib.params(CellKind::DcSfq).jj_count);
        let sfqdc = u64::from(lib.params(CellKind::SfqDc).jj_count);
        r.add_logic(
            Category::Io,
            n * dcsfq + n * sfqdc + self.control_line_count() * dcsfq,
        );

        // --- Wiring ---
        r.add_wiring(
            Category::IntraSc,
            self.npe_count() as u64
                * k
                * INTRA_SC_JTLS
                * u64::from(lib.params(CellKind::Jtl).jj_count),
        );
        let data_mm = fp.data_route_mm() * net.route_scale();
        r.add_wiring(
            Category::DataRoutes,
            routing.jtls_for_route(data_mm) * u64::from(lib.params(CellKind::Jtl).jj_count),
        );
        let ctrl_mm = self.control_line_count() as f64 * fp.avg_edge_route_mm();
        let ctrl_repeaters = (ctrl_mm / CTRL_REPEATER_PITCH_MM).ceil() as u64;
        r.add_wiring(
            Category::ControlRoutes,
            ctrl_repeaters * u64::from(lib.params(CellKind::Jtl).jj_count),
        );
        r.add_wiring(
            Category::Crossings,
            net.crossing_count() * u64::from(routing.crossing_jj),
        );
        if let WeightConfig::Full { levels } = self.config.weights {
            r.add_wiring(
                Category::WeightDelays,
                net.synapse_count() * WeightNetlist::wiring_jj(lib, levels),
            );
        }
        r
    }

    /// Emits the full cell-level netlist of a small chip for cell-accurate
    /// simulation. Intended for verification-scale configurations — the
    /// cell count grows as `n^2 * levels`.
    ///
    /// Mesh chips get per-synapse cross-point switches and (optionally)
    /// weight structures; tree chips get fixed SPL broadcast trees with CB
    /// collection trees — "the tree network ... cannot be applied to build
    /// arbitrary connections", so it has no `sw_*` channels.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8` (use the behavioural executor for larger chips).
    pub fn build_netlist(&self) -> Result<ChipNetlist, NetlistError> {
        assert!(self.config.n <= 8, "cell-accurate netlists are for n <= 8");
        if self.config.network == NetworkKind::Tree {
            return self.build_tree_netlist();
        }
        use PortName::*;
        let n = self.config.n;
        let k = self.config.sc_per_npe;
        let mut nl = Netlist::new();

        // Row buses: input converter -> SPL chain with one tap per column.
        // taps[i][j] = output PortRef feeding synapse (i, j).
        let mut taps: Vec<Vec<PortRef>> = Vec::with_capacity(n);
        for i in 0..n {
            let src = nl.add_cell(CellKind::DcSfq, format!("in{i}"));
            nl.add_input(format!("in{i}"), src, Din)?;
            let mut row = Vec::with_capacity(n);
            if n == 1 {
                row.push(PortRef::new(src, Dout));
            } else {
                let mut trunk = PortRef::new(src, Dout);
                for j in 0..n - 1 {
                    let spl = nl.add_cell(CellKind::Spl2, format!("row{i}.spl{j}"));
                    nl.connect(trunk.cell, trunk.port, spl, Din)?;
                    row.push(PortRef::new(spl, DoutB));
                    trunk = PortRef::new(spl, DoutA);
                }
                row.push(trunk);
            }
            taps.push(row);
        }

        // Synapses: cross-point switch NDRO, then optional weight structure.
        // syn_out[j] collects per-column outputs to merge.
        let mut syn_out: Vec<Vec<PortRef>> = vec![Vec::with_capacity(n); n];
        for (i, row) in taps.iter().enumerate() {
            for (j, tap) in row.iter().enumerate() {
                let sw = nl.add_cell(CellKind::Ndro, format!("sw{i}_{j}"));
                nl.connect(tap.cell, tap.port, sw, Clk)?;
                nl.add_input(format!("sw_set{i}_{j}"), sw, Din)?;
                nl.add_input(format!("sw_rst{i}_{j}"), sw, Rst)?;
                let mut out = PortRef::new(sw, Dout);
                if let WeightConfig::Full { levels } = self.config.weights {
                    let w = WeightNetlist::build(&mut nl, &format!("w{i}_{j}"), levels)?;
                    nl.connect(out.cell, out.port, w.input.cell, w.input.port)?;
                    for (kk, (set, rst)) in w.loops.iter().enumerate() {
                        nl.add_input(format!("w{i}_{j}_set{kk}"), set.cell, set.port)?;
                        nl.add_input(format!("w{i}_{j}_rst{kk}"), rst.cell, rst.port)?;
                    }
                    out = w.out;
                }
                syn_out[j].push(out);
            }
        }

        // Column merge trees + output NPEs + output converters.
        for (j, sources) in syn_out.iter().enumerate() {
            let merged = if sources.len() == 1 {
                sources[0]
            } else {
                let mut acc = sources[0];
                for (s, src) in sources.iter().enumerate().skip(1) {
                    let cb = nl.add_cell(CellKind::Cb2, format!("col{j}.cb{s}"));
                    nl.connect(acc.cell, acc.port, cb, DinA)?;
                    nl.connect(src.cell, src.port, cb, DinB)?;
                    acc = PortRef::new(cb, Dout);
                }
                acc
            };
            let npe = NpeNetlist::build(&mut nl, &format!("npe{j}"), k)?;
            nl.connect(merged.cell, merged.port, npe.input.cell, npe.input.port)?;
            for (b, sc) in npe.scs.iter().enumerate() {
                nl.add_input(format!("npe{j}_set0_{b}"), sc.set0.cell, sc.set0.port)?;
                nl.add_input(format!("npe{j}_set1_{b}"), sc.set1.cell, sc.set1.port)?;
                nl.add_input(format!("npe{j}_write_{b}"), sc.write.cell, sc.write.port)?;
                nl.add_input(format!("npe{j}_rst_{b}"), sc.rst.cell, sc.rst.port)?;
                nl.probe(format!("npe{j}_read_{b}"), sc.read.cell, sc.read.port)?;
            }
            let pad = nl.add_cell(CellKind::SfqDc, format!("pad{j}"));
            nl.connect(npe.out.cell, npe.out.port, pad, Din)?;
            nl.probe(format!("out{j}"), pad, Dout)?;
        }

        Ok(ChipNetlist {
            netlist: nl,
            n,
            sc_per_npe: k,
            weights: self.config.weights,
        })
    }

    /// The tree-network netlist: every input broadcasts to every output
    /// NPE through an SPL tree; each NPE merges all inputs through a CB
    /// tree. Connections are fixed (normalized unit weights).
    fn build_tree_netlist(&self) -> Result<ChipNetlist, NetlistError> {
        use PortName::*;
        let n = self.config.n;
        let k = self.config.sc_per_npe;
        let mut nl = Netlist::new();
        // Broadcast trees: taps[i][j] feeds (input i -> column j).
        let mut taps: Vec<Vec<PortRef>> = Vec::with_capacity(n);
        for i in 0..n {
            let src = nl.add_cell(CellKind::DcSfq, format!("in{i}"));
            nl.add_input(format!("in{i}"), src, Din)?;
            let mut row = Vec::with_capacity(n);
            if n == 1 {
                row.push(PortRef::new(src, Dout));
            } else {
                let mut trunk = PortRef::new(src, Dout);
                for j in 0..n - 1 {
                    let spl = nl.add_cell(CellKind::Spl2, format!("bcast{i}.spl{j}"));
                    nl.connect(trunk.cell, trunk.port, spl, Din)?;
                    row.push(PortRef::new(spl, DoutB));
                    trunk = PortRef::new(spl, DoutA);
                }
                row.push(trunk);
            }
            taps.push(row);
        }
        for j in 0..n {
            let merged = if n == 1 {
                taps[0][0]
            } else {
                let mut acc = taps[0][j];
                for (s, row) in taps.iter().enumerate().skip(1) {
                    let cb = nl.add_cell(CellKind::Cb2, format!("col{j}.cb{s}"));
                    nl.connect(acc.cell, acc.port, cb, DinA)?;
                    nl.connect(row[j].cell, row[j].port, cb, DinB)?;
                    acc = PortRef::new(cb, Dout);
                }
                acc
            };
            let npe = NpeNetlist::build(&mut nl, &format!("npe{j}"), k)?;
            nl.connect(merged.cell, merged.port, npe.input.cell, npe.input.port)?;
            for (b, sc) in npe.scs.iter().enumerate() {
                nl.add_input(format!("npe{j}_set0_{b}"), sc.set0.cell, sc.set0.port)?;
                nl.add_input(format!("npe{j}_set1_{b}"), sc.set1.cell, sc.set1.port)?;
                nl.add_input(format!("npe{j}_write_{b}"), sc.write.cell, sc.write.port)?;
                nl.add_input(format!("npe{j}_rst_{b}"), sc.rst.cell, sc.rst.port)?;
                nl.probe(format!("npe{j}_read_{b}"), sc.read.cell, sc.read.port)?;
            }
            let pad = nl.add_cell(CellKind::SfqDc, format!("pad{j}"));
            nl.connect(npe.out.cell, npe.out.port, pad, Din)?;
            nl.probe(format!("out{j}"), pad, Dout)?;
        }
        Ok(ChipNetlist {
            netlist: nl,
            n,
            sc_per_npe: k,
            weights: WeightConfig::None,
        })
    }
}

/// A generated cell-level chip netlist with its naming conventions.
///
/// Channels: `in{i}` (row data), `sw_set{i}_{j}`/`sw_rst{i}_{j}`
/// (cross-point switches), `w{i}_{j}_set{k}`/`w{i}_{j}_rst{k}` (weight gain
/// loops), `npe{j}_set0_{b}`/`set1`/`write`/`rst` (neuron control),
/// `npe{j}_read_{b}` and `out{j}` (probes).
#[derive(Debug, Clone)]
pub struct ChipNetlist {
    /// The generated netlist.
    pub netlist: Netlist,
    /// Mesh dimension.
    pub n: usize,
    /// SCs per NPE.
    pub sc_per_npe: usize,
    /// Weight provisioning used.
    pub weights: WeightConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 anchor: 4x4 mesh with weight structures.
    #[test]
    fn table2_resources_within_tolerance() {
        let chip = ChipConfig::mesh(4)
            .with_weights(WeightConfig::full())
            .build();
        let r = chip.resources();
        let total = r.total_jj() as f64;
        let area = r.area_mm2();
        let wf = r.wiring_fraction();
        assert!((total - 45_542.0).abs() / 45_542.0 < 0.10, "total {total}");
        assert!((area - 44.73).abs() / 44.73 < 0.10, "area {area}");
        assert!((wf - 0.6813).abs() < 0.05, "wiring fraction {wf}");
    }

    /// Table 4 anchor: 32 NPEs (16x16 bare mesh) ~ 1e5 JJs, ~103.75 mm².
    #[test]
    fn peak_config_resources_within_tolerance() {
        let chip = ChipConfig::mesh(16).build();
        let r = chip.resources();
        let total = r.total_jj() as f64;
        assert!((total - 99_982.0).abs() / 99_982.0 < 0.10, "total {total}");
        let area = r.area_mm2();
        assert!((area - 103.75).abs() / 103.75 < 0.10, "area {area}");
    }

    #[test]
    fn resources_grow_monotonically_with_n() {
        let mut prev = 0;
        for n in [1usize, 2, 4, 8, 16] {
            let jj = ChipConfig::mesh(n).build().resources().total_jj();
            assert!(jj > prev, "n={n}");
            prev = jj;
        }
    }

    #[test]
    fn wiring_fraction_grows_with_scale() {
        let small = ChipConfig::mesh(1).build().resources().wiring_fraction();
        let big = ChipConfig::mesh(16).build().resources().wiring_fraction();
        assert!(big > small, "{small} -> {big}");
        // And stays below the 80% of synchronous designs (Section 3A).
        assert!(big < 0.80, "wiring fraction {big}");
    }

    #[test]
    fn tree_network_is_cheaper_than_mesh() {
        let mesh = ChipConfig::mesh(8).build().resources().total_jj();
        let tree = ChipConfig::tree(8).build().resources().total_jj();
        assert!(tree < mesh, "tree {tree} >= mesh {mesh}");
    }

    #[test]
    fn weight_structures_dominate_full_mesh_cost() {
        let bare = ChipConfig::mesh(4).build().resources().total_jj();
        let full = ChipConfig::mesh(4)
            .with_weights(WeightConfig::full())
            .build()
            .resources()
            .total_jj();
        assert!(full > 2 * bare, "bare {bare}, full {full}");
    }

    #[test]
    fn netlist_generation_small_mesh() {
        let chip = ChipConfig::mesh(2).with_sc_per_npe(3).build();
        let cn = chip.build_netlist().unwrap();
        // 2 inputs, 2 outputs, 4 switches.
        assert!(cn.netlist.inputs().contains_key("in0"));
        assert!(cn.netlist.inputs().contains_key("sw_set1_1"));
        assert!(cn.netlist.probes().contains_key("out1"));
        assert!(cn.netlist.cell_count() > 20);
    }

    #[test]
    fn netlist_with_weights_has_loop_channels() {
        let chip = ChipConfig::mesh(1)
            .with_sc_per_npe(2)
            .with_weights(WeightConfig::Full { levels: 3 })
            .build();
        let cn = chip.build_netlist().unwrap();
        assert!(cn.netlist.inputs().contains_key("w0_0_set0"));
        assert!(cn.netlist.inputs().contains_key("w0_0_set1"));
    }

    #[test]
    #[should_panic(expected = "n <= 8")]
    fn netlist_too_large_panics() {
        let _ = ChipConfig::mesh(16).build().build_netlist();
    }

    #[test]
    fn tree_netlist_has_no_switch_channels() {
        let chip = ChipConfig::tree(2).with_sc_per_npe(3).build();
        let cn = chip.build_netlist().unwrap();
        assert!(cn.netlist.inputs().contains_key("in0"));
        assert!(!cn.netlist.inputs().keys().any(|k| k.starts_with("sw_")));
        assert!(cn.netlist.probes().contains_key("out1"));
    }

    #[test]
    fn control_lines_count_individual_read_write() {
        let chip = ChipConfig::mesh(4).build();
        // 8 NPEs * (2*10 + 3) = 184.
        assert_eq!(chip.control_line_count(), 184);
        let full = ChipConfig::mesh(4)
            .with_weights(WeightConfig::full())
            .build();
        assert_eq!(full.control_line_count(), 184 + 16);
    }
}
