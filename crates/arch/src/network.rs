//! On-chip networks of NPEs: tree and mesh (Fig. 11 of the paper).
//!
//! * The **tree** network maximises SPL/CB usage, has no bus crossings and
//!   a compact layout, but "can only make simple distinctions of normalized
//!   weights and cannot be applied to build arbitrary connections".
//! * The **mesh** network is an `n x n` crossbar with a configurable NDRO
//!   switch at every crossing, supporting arbitrary connections and
//!   per-pair weights at the cost of `n^2` crossings.

use std::fmt;
use sushi_cells::{CellKind, CellLibrary};

/// The two on-chip network structures of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// SPL/CB distribution-and-collection trees (Fig. 11(a)).
    Tree,
    /// Crossbar with configurable NDRO cross-points (Fig. 11(c)).
    Mesh,
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkKind::Tree => f.write_str("tree"),
            NetworkKind::Mesh => f.write_str("mesh"),
        }
    }
}

/// Structural model of an `n`-input, `n`-output NPE network.
///
/// # Examples
///
/// ```
/// use sushi_arch::network::{NetworkKind, NetworkModel};
///
/// let mesh = NetworkModel::new(NetworkKind::Mesh, 4);
/// assert_eq!(mesh.synapse_count(), 16);
/// assert!(mesh.supports_arbitrary_topology());
/// let tree = NetworkModel::new(NetworkKind::Tree, 4);
/// assert!(!tree.supports_arbitrary_topology());
/// assert_eq!(tree.crossing_count(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    kind: NetworkKind,
    n: usize,
}

impl NetworkModel {
    /// A network of `n` input lines by `n` output neurons.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(kind: NetworkKind, n: usize) -> Self {
        assert!(n > 0, "network size must be positive");
        Self { kind, n }
    }

    /// The network kind.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// The network dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of NPEs attached (input side + output side).
    pub fn npe_count(&self) -> usize {
        2 * self.n
    }

    /// Number of synapses (input-output pairs).
    pub fn synapse_count(&self) -> u64 {
        (self.n * self.n) as u64
    }

    /// Bus crossings required by the layout.
    pub fn crossing_count(&self) -> u64 {
        match self.kind {
            NetworkKind::Tree => 0,
            NetworkKind::Mesh => self.synapse_count(),
        }
    }

    /// Whether any input can be connected to any output with an individual
    /// weight (mesh yes, tree no).
    pub fn supports_arbitrary_topology(&self) -> bool {
        matches!(self.kind, NetworkKind::Mesh)
    }

    /// SPL cells in the distribution structure: each input line fans out to
    /// `n` taps, needing `n - 1` splitters.
    pub fn spl_count(&self) -> u64 {
        (self.n * (self.n - 1)) as u64
    }

    /// CB cells in the collection structure: each output neuron merges `n`
    /// lines, needing `n - 1` buffers.
    pub fn cb_count(&self) -> u64 {
        (self.n * (self.n - 1)) as u64
    }

    /// Configurable cross-point NDRO switches (mesh only).
    pub fn switch_ndro_count(&self) -> u64 {
        match self.kind {
            NetworkKind::Tree => 0,
            NetworkKind::Mesh => self.synapse_count(),
        }
    }

    /// Logic JJ count of the network fabric under `library`.
    pub fn logic_jj(&self, library: &CellLibrary) -> u64 {
        let spl = u64::from(library.params(CellKind::Spl2).jj_count);
        let cb = u64::from(library.params(CellKind::Cb2).jj_count);
        let ndro = u64::from(library.params(CellKind::Ndro).jj_count);
        self.spl_count() * spl + self.cb_count() * cb + self.switch_ndro_count() * ndro
    }

    /// Route-length scale factor relative to the mesh: the tree's flexible
    /// placement shortens buses ("saves design area by allowing flexible
    /// placement of NPEs").
    pub fn route_scale(&self) -> f64 {
        match self.kind {
            NetworkKind::Tree => 0.6,
            NetworkKind::Mesh => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_has_quadratic_synapses_and_crossings() {
        let m = NetworkModel::new(NetworkKind::Mesh, 8);
        assert_eq!(m.synapse_count(), 64);
        assert_eq!(m.crossing_count(), 64);
        assert_eq!(m.npe_count(), 16);
    }

    #[test]
    fn paper_example_4x4_has_8_neurons_16_synapses() {
        // Section 6.3A: "a 4x4 network with 8 neurons has 16 synapses".
        let m = NetworkModel::new(NetworkKind::Mesh, 4);
        assert_eq!(m.npe_count(), 8);
        assert_eq!(m.synapse_count(), 16);
    }

    #[test]
    fn tree_avoids_crossings_and_switches() {
        let t = NetworkModel::new(NetworkKind::Tree, 8);
        assert_eq!(t.crossing_count(), 0);
        assert_eq!(t.switch_ndro_count(), 0);
        assert!(t.route_scale() < 1.0);
    }

    #[test]
    fn mesh_costs_more_logic_than_tree() {
        let lib = CellLibrary::nb03();
        let m = NetworkModel::new(NetworkKind::Mesh, 8).logic_jj(&lib);
        let t = NetworkModel::new(NetworkKind::Tree, 8).logic_jj(&lib);
        assert!(m > t, "mesh {m} <= tree {t}");
    }

    #[test]
    fn single_line_network_needs_no_fabric() {
        let m = NetworkModel::new(NetworkKind::Mesh, 1);
        assert_eq!(m.spl_count(), 0);
        assert_eq!(m.cb_count(), 0);
        assert_eq!(m.synapse_count(), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(NetworkKind::Mesh.to_string(), "mesh");
        assert_eq!(NetworkKind::Tree.to_string(), "tree");
    }
}
