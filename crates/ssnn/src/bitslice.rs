//! The bit-slice SSNN method (Section 5.3, Fig. 15).
//!
//! A layer whose fan-in/fan-out exceeds the chip's `n x n` mesh is cut
//! into `n`-row by `n`-column tiles. Tiles sharing a column block are
//! scheduled consecutively: the NPE counters *preserve their state* between
//! tiles, so partial sums accumulate across row blocks without any extra
//! registers — "the bit-slice method is based on the state-preserving
//! capability of superconducting cells". The neuron fires only after its
//! last row block.

use crate::binarize::BinarizedSnn;
use crate::packed::PackedFrames;
use std::ops::Range;

/// One tile of one layer mapped onto the chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Layer index.
    pub layer: usize,
    /// Input rows covered.
    pub rows: Range<usize>,
    /// Output columns covered.
    pub cols: Range<usize>,
    /// True if this is the last row block of its column block — the
    /// neurons fire (and reset) after this slice.
    pub fires: bool,
}

impl Slice {
    /// Synapses inside this tile.
    pub fn synapse_count(&self) -> u64 {
        (self.rows.len() * self.cols.len()) as u64
    }
}

/// The ordered slice schedule of a whole network on an `n x n` chip.
///
/// # Examples
///
/// ```
/// use sushi_ssnn::SliceSchedule;
///
/// let s = SliceSchedule::for_shapes(&[(784, 800), (800, 10)], 16);
/// assert!(s.len() > 0);
/// assert!(s.utilization() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceSchedule {
    slices: Vec<Slice>,
    n: usize,
    /// The `(inputs, outputs)` shape of every layer sliced.
    shapes: Vec<(usize, usize)>,
}

impl SliceSchedule {
    /// Slices layers of the given `(inputs, outputs)` shapes onto an
    /// `n x n` chip, ordered layer -> column block -> row block.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any shape has a zero dimension.
    pub fn for_shapes(shapes: &[(usize, usize)], n: usize) -> Self {
        assert!(n > 0, "chip width must be positive");
        let mut slices = Vec::new();
        for (layer, &(inputs, outputs)) in shapes.iter().enumerate() {
            assert!(
                inputs > 0 && outputs > 0,
                "layer {layer} has a zero dimension"
            );
            let row_blocks = inputs.div_ceil(n);
            for c0 in (0..outputs).step_by(n) {
                let cols = c0..(c0 + n).min(outputs);
                for (rb, r0) in (0..inputs).step_by(n).enumerate() {
                    let rows = r0..(r0 + n).min(inputs);
                    slices.push(Slice {
                        layer,
                        rows,
                        cols: cols.clone(),
                        fires: rb + 1 == row_blocks,
                    });
                }
            }
        }
        Self {
            slices,
            n,
            shapes: shapes.to_vec(),
        }
    }

    /// Builds the schedule for a binarized network.
    pub fn for_network(net: &BinarizedSnn, n: usize) -> Self {
        Self::for_shapes(&layer_shapes(net), n)
    }

    /// The chip width used.
    pub fn chip_width(&self) -> usize {
        self.n
    }

    /// Number of slices (time slots).
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True if no slices were produced (never for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// The slices in schedule order.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Real synapses divided by occupied chip slots: the fill factor of
    /// the bit-sliced schedule (feeds the FPS model's utilization).
    pub fn utilization(&self) -> f64 {
        let used: u64 = self.slices.iter().map(Slice::synapse_count).sum();
        let slots = self.len() as u64 * (self.n * self.n) as u64;
        if slots == 0 {
            0.0
        } else {
            used as f64 / slots as f64
        }
    }

    /// Executes one time step of `net` slice by slice, with per-neuron
    /// partial sums preserved across row blocks — must agree exactly with
    /// the unsliced oracle ([`BinarizedSnn::step_scalar`]).
    ///
    /// Each layer's input is packed once into [`PackedFrames`] words, and
    /// each tile is evaluated against the layer's packed columns: the
    /// slice's row range becomes a masked popcount window, so partial
    /// sums accumulate 64 synapses per word-op while remaining exact
    /// integers (bitwise identical to the scalar sweep).
    ///
    /// # Panics
    ///
    /// Panics if the schedule was built for other layer shapes than
    /// `net`'s, or on input-width mismatch.
    pub fn sliced_step(&self, net: &BinarizedSnn, input: &[bool]) -> Vec<bool> {
        let shapes = layer_shapes(net);
        assert!(
            self.shapes == shapes,
            "schedule built for layer shapes {:?}, network has {shapes:?}",
            self.shapes
        );
        assert_eq!(input.len(), net.input_width(), "input width mismatch");
        let mut x = PackedFrames::from_bool_frames(input.len(), &[input]);
        let mut layer_idx = 0usize;
        let mut acc: Vec<i64> = vec![0; net.layers()[0].outputs()];
        let mut out: Vec<bool> = vec![false; net.layers()[0].outputs()];
        for slice in &self.slices {
            if slice.layer != layer_idx {
                // Advance to the next layer: its input is the previous
                // layer's spike vector.
                layer_idx = slice.layer;
                x.reset(out.len());
                x.push_frame_from_bools(&out);
                acc = vec![0; net.layers()[layer_idx].outputs()];
                out = vec![false; net.layers()[layer_idx].outputs()];
            }
            let layer = &net.layers()[layer_idx];
            layer.packed().accumulate_rows_into(
                x.frame(0),
                slice.rows.clone(),
                slice.cols.clone(),
                &mut acc,
            );
            if slice.fires {
                for j in slice.cols.clone() {
                    out[j] = acc[j] >= layer.threshold(j);
                    acc[j] = 0; // stateless reset at step end
                }
            }
        }
        out
    }
}

/// The `(inputs, outputs)` shape of every layer of `net`.
fn layer_shapes(net: &BinarizedSnn) -> Vec<(usize, usize)> {
    net.layers()
        .iter()
        .map(|l| (l.inputs(), l.outputs()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::BinaryLayer;

    #[test]
    fn tiles_cover_every_synapse_exactly_once() {
        let s = SliceSchedule::for_shapes(&[(10, 7)], 4);
        let mut seen = vec![vec![0u32; 7]; 10];
        for sl in s.slices() {
            for i in sl.rows.clone() {
                for j in sl.cols.clone() {
                    seen[i][j] += 1;
                }
            }
        }
        assert!(seen.iter().flatten().all(|&c| c == 1));
    }

    #[test]
    fn fires_only_on_last_row_block() {
        let s = SliceSchedule::for_shapes(&[(10, 4)], 4);
        // 3 row blocks per column block; only the last fires.
        let col_block: Vec<&Slice> = s.slices().iter().filter(|sl| sl.cols.start == 0).collect();
        assert_eq!(col_block.len(), 3);
        assert!(!col_block[0].fires);
        assert!(!col_block[1].fires);
        assert!(col_block[2].fires);
    }

    #[test]
    fn paper_network_slice_count() {
        // 784x800 on 16x16: ceil(784/16)=49 row blocks x 50 col blocks
        // = 2450 slices; plus 800x10: 50 x 1 = 50.
        let s = SliceSchedule::for_shapes(&[(784, 800), (800, 10)], 16);
        assert_eq!(s.len(), 49 * 50 + 50);
    }

    #[test]
    fn utilization_accounts_for_ragged_edges() {
        // 784x800 tiles perfectly (49x50 of 16x16); 800x10 wastes 6 of
        // every 16 columns.
        let s = SliceSchedule::for_shapes(&[(784, 800), (800, 10)], 16);
        let expected = (784.0 * 800.0 + 800.0 * 10.0) / ((2450.0 + 50.0) * 256.0);
        assert!((s.utilization() - expected).abs() < 1e-12);
        assert!(s.utilization() > 0.9);
    }

    #[test]
    fn sliced_step_equals_unsliced_reference() {
        // A 2-layer net that does not tile evenly.
        let l1_signs: Vec<i8> = (0..9 * 5)
            .map(|i| if (i * 13) % 3 == 0 { -1 } else { 1 })
            .collect();
        let l2_signs: Vec<i8> = (0..5 * 3)
            .map(|i| if (i * 7) % 4 == 0 { -1 } else { 1 })
            .collect();
        let net = BinarizedSnn::from_layers(vec![
            BinaryLayer::from_signs(l1_signs, 9, 5, vec![2, 1, 3, 2, 1]),
            BinaryLayer::from_signs(l2_signs, 5, 3, vec![1, 2, 1]),
        ]);
        for n in [1usize, 2, 3, 4, 16] {
            let sched = SliceSchedule::for_network(&net, n);
            for mask in 0..512u32 {
                let input: Vec<bool> = (0..9).map(|b| mask >> b & 1 == 1).collect();
                assert_eq!(
                    sched.sliced_step(&net, &input),
                    net.step_scalar(&input),
                    "n={n} mask={mask:09b}"
                );
            }
        }
    }

    #[test]
    fn single_tile_network_is_one_slice_per_layer() {
        let s = SliceSchedule::for_shapes(&[(4, 4), (4, 4)], 8);
        assert_eq!(s.len(), 2);
        assert!(s.slices().iter().all(|sl| sl.fires));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = SliceSchedule::for_shapes(&[(4, 4)], 0);
    }

    fn ones_net(shapes: &[(usize, usize)]) -> BinarizedSnn {
        let layers = shapes
            .iter()
            .map(|&(ins, outs)| {
                BinaryLayer::from_signs(vec![1; ins * outs], ins, outs, vec![1; outs])
            })
            .collect();
        BinarizedSnn::from_layers(layers)
    }

    /// On a 7-wide layer, a schedule for 5 columns would leave columns 5
    /// and 6 unevaluated (silently `false`).
    #[test]
    #[should_panic(expected = "schedule built for layer shapes [(9, 5)], network has [(9, 7)]")]
    fn schedule_for_narrower_layer_panics() {
        let sched = SliceSchedule::for_shapes(&[(9, 5)], 4);
        let _ = sched.sliced_step(&ones_net(&[(9, 7)]), &[true; 9]);
    }

    /// On a two-layer network, a one-layer schedule would return the
    /// hidden layer as the output.
    #[test]
    #[should_panic(
        expected = "schedule built for layer shapes [(9, 5)], network has [(9, 5), (5, 3)]"
    )]
    fn schedule_for_fewer_layers_panics() {
        let sched = SliceSchedule::for_shapes(&[(9, 5)], 4);
        let _ = sched.sliced_step(&ones_net(&[(9, 5), (5, 3)]), &[true; 9]);
    }
}
