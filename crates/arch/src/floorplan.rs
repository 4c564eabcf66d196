//! Grid floorplan: route lengths for the wiring and delay models.
//!
//! The mesh network places `n` input-side NPEs along the left edge and `n`
//! output-side NPEs along the bottom edge of an `n x n` synapse grid at a
//! fixed tile pitch. Input row buses run horizontally, output column buses
//! vertically; control lines run from each NPE to the nearest chip edge.

use sushi_cells::RoutingParams;

/// Geometric floorplan of an `n x n` mesh.
///
/// # Examples
///
/// ```
/// use sushi_arch::floorplan::Floorplan;
/// use sushi_cells::RoutingParams;
///
/// let fp = Floorplan::new(4, &RoutingParams::nb03());
/// assert!(fp.chip_side_mm() > 0.0);
/// assert_eq!(fp.crossing_count(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floorplan {
    n: usize,
    pitch_mm: f64,
}

impl Floorplan {
    /// A floorplan for an `n x n` mesh at the routing parameters' NPE pitch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, routing: &RoutingParams) -> Self {
        assert!(n > 0, "mesh size must be positive");
        Self {
            n,
            pitch_mm: routing.npe_pitch_mm,
        }
    }

    /// Mesh dimension `n` (the chip has `2n` NPEs and `n^2` synapses).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile pitch in mm.
    pub fn pitch_mm(&self) -> f64 {
        self.pitch_mm
    }

    /// Side length of the synapse grid in mm.
    pub fn chip_side_mm(&self) -> f64 {
        self.n as f64 * self.pitch_mm
    }

    /// Position of synapse `(row, col)` in mm from the chip origin.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn synapse_position_mm(&self, row: usize, col: usize) -> (f64, f64) {
        assert!(
            row < self.n && col < self.n,
            "synapse ({row},{col}) outside {0}x{0}",
            self.n
        );
        (
            (col as f64 + 0.5) * self.pitch_mm,
            (row as f64 + 0.5) * self.pitch_mm,
        )
    }

    /// Total length of the shared data buses in mm: `n` horizontal input
    /// rows plus `n` vertical output columns, each spanning the grid.
    pub fn data_route_mm(&self) -> f64 {
        2.0 * (self.n * self.n) as f64 * self.pitch_mm
    }

    /// Number of row/column bus crossings (one per synapse).
    pub fn crossing_count(&self) -> u64 {
        (self.n * self.n) as u64
    }

    /// Average route length in mm from a tile to the chip edge (control
    /// lines are routed to edge pads).
    pub fn avg_edge_route_mm(&self) -> f64 {
        self.n as f64 / 2.0 * self.pitch_mm
    }

    /// Average data-path length in mm traversed by one synaptic pulse:
    /// input bus to the synapse plus column bus to the output NPE.
    ///
    /// The 0.99 factor is the mean traversal of the row bus plus the column
    /// bus, calibrated against the paper's transmission-delay shares
    /// (~6% at 1x1, ~53% at 16x16 — Section 6.3A).
    pub fn avg_synapse_route_mm(&self) -> f64 {
        0.99 * self.n as f64 * self.pitch_mm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: usize) -> Floorplan {
        Floorplan::new(n, &RoutingParams::nb03())
    }

    #[test]
    fn geometry_scales_with_n() {
        let f1 = fp(1);
        let f4 = fp(4);
        assert!((f4.chip_side_mm() - 4.0 * f1.chip_side_mm()).abs() < 1e-12);
        assert_eq!(f4.crossing_count(), 16);
        assert_eq!(f1.crossing_count(), 1);
    }

    #[test]
    fn data_route_quadratic() {
        assert!((fp(4).data_route_mm() / fp(2).data_route_mm() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn synapse_positions_inside_chip() {
        let f = fp(3);
        for r in 0..3 {
            for c in 0..3 {
                let (x, y) = f.synapse_position_mm(r, c);
                assert!(x > 0.0 && x < f.chip_side_mm());
                assert!(y > 0.0 && y < f.chip_side_mm());
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_synapse_panics() {
        fp(2).synapse_position_mm(2, 0);
    }

    #[test]
    fn average_routes_grow_linearly() {
        assert!((fp(8).avg_edge_route_mm() / fp(4).avg_edge_route_mm() - 2.0).abs() < 1e-12);
        assert!((fp(8).avg_synapse_route_mm() / fp(4).avg_synapse_route_mm() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_panics() {
        fp(0);
    }
}
