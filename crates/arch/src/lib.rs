//! SUSHI architecture: generators and analytical models.
//!
//! This crate implements the architectural layer of the paper:
//!
//! * [`state_controller`] — the asynchronous state controller (SC) of
//!   Fig. 4/5/8, both as a cell-level netlist generator (for the
//!   `sushi-sim` cell-accurate path) and as a fast behavioural model;
//! * [`npe`] — the neuromorphic processing element: a serial chain of SCs
//!   forming a multi-state element (Fig. 9) and the biological neuron state
//!   machine of Fig. 6/7;
//! * [`weight`] — pulse-gain weight structures (Fig. 10);
//! * [`network`] — tree and mesh on-chip networks of NPEs (Fig. 11);
//! * [`floorplan`] — a grid floorplan giving route lengths for the wiring
//!   model;
//! * [`resources`] — JJ/area accounting split into logic vs wiring
//!   (Table 2, Fig. 13);
//! * [`chip`] — the chip generator combining all of the above;
//! * [`power`] — the performance / power / efficiency models behind
//!   Table 4 and Figs. 19–21.
//!
//! # Examples
//!
//! ```
//! use sushi_arch::chip::{ChipConfig, WeightConfig};
//!
//! // The paper's Table 2 configuration: a 4x4 mesh with weight structures.
//! let chip = ChipConfig::mesh(4).with_weights(WeightConfig::full()).build();
//! let r = chip.resources();
//! assert!(r.total_jj() > 40_000 && r.total_jj() < 52_000);
//! ```

pub mod chip;
pub mod floorplan;
pub mod network;
pub mod npe;
pub mod power;
pub mod resources;
pub mod scaleout;
pub mod state_controller;
pub mod sync_baseline;
pub mod weight;

pub use chip::{ChipConfig, ChipDesign, WeightConfig};
pub use network::NetworkKind;
pub use npe::{BioNeuron, NpeChain};
pub use power::PerfModel;
pub use resources::ResourceReport;
pub use scaleout::{npe_mesh, MultiChip};
pub use state_controller::{ScBehavior, ScMode, ScNetlist};
pub use sync_baseline::SyncAccelerator;
pub use weight::WeightStructure;
