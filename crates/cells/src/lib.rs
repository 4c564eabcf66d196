//! RSFQ standard-cell library model for the SUSHI reproduction.
//!
//! Rapid single-flux-quantum (RSFQ) circuits are built from a small set of
//! standard cells (Josephson transmission lines, splitters, confluence
//! buffers, flip-flops, non-destructive readouts, toggle flip-flops). This
//! crate models the *library-level* view of those cells:
//!
//! * [`CellKind`] — the cell taxonomy and its port interface,
//! * [`timing::ConstraintTable`] — the minimum pulse-separation constraints
//!   from Table 1 of the paper,
//! * [`params::CellParams`] — per-cell Josephson-junction count, area, delay,
//!   bias power and switching energy,
//! * [`CellLibrary`] — a complete parameter set (the SIMIT-Nb03-like default
//!   is [`CellLibrary::nb03`]) including chip-level routing and power
//!   constants used by the architecture generator.
//!
//! The behavioural semantics of the cells (what a pulse *does*) live in the
//! `sushi-sim` crate; this crate is purely the data substrate.
//!
//! # Examples
//!
//! ```
//! use sushi_cells::{CellKind, CellLibrary};
//!
//! let lib = CellLibrary::nb03();
//! let ndro = lib.params(CellKind::Ndro);
//! assert!(ndro.jj_count >= 2);
//! // Table 1: two NDRO clock pulses must be at least 39.9 ps apart.
//! let c = lib.constraints(CellKind::Ndro);
//! assert!(c.min_separation(sushi_cells::PortName::Clk, sushi_cells::PortName::Clk).unwrap() > 39.0);
//! ```

pub mod kind;
pub mod library;
pub mod params;
pub mod timing;

pub use kind::{CellKind, PortDir, PortName};
pub use library::{CellLibrary, RoutingParams};
pub use params::CellParams;
pub use timing::{Constraint, ConstraintTable};

/// Picoseconds, the native time unit of the library.
///
/// All delays and constraint windows in this crate are expressed in
/// picoseconds; `f64` keeps sub-picosecond resolution for accumulated wire
/// delays.
pub type Ps = f64;
