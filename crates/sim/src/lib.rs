//! Event-driven RSFQ netlist simulator.
//!
//! This crate plays the role that Synopsys VCS plays in the paper: it
//! simulates a netlist of RSFQ standard cells at pulse granularity, checks
//! the Table 1 timing constraints at run time, and captures waveforms that
//! can be compared against a measured ("oscilloscope") trace.
//!
//! The design is asynchronous-first, matching SUSHI: there is no clock —
//! every SFQ pulse is a discrete event, and each behavioural cell model
//! ([`CellKind`](sushi_cells::CellKind)) reacts to pulse arrivals by flipping
//! internal state and/or emitting pulses after its propagation delay.
//!
//! # Examples
//!
//! Build a two-cell netlist, pulse it twice, and watch the TFFL divide by two:
//!
//! ```
//! use sushi_cells::{CellKind, CellLibrary, PortName};
//! use sushi_sim::{Netlist, Simulator};
//!
//! let mut n = Netlist::new();
//! let src = n.add_cell(CellKind::DcSfq, "src");
//! let tff = n.add_cell(CellKind::Tffl, "tff");
//! n.connect(src, PortName::Dout, tff, PortName::Din).unwrap();
//! n.add_input("in", src, PortName::Din).unwrap();
//! n.probe("out", tff, PortName::Dout).unwrap();
//!
//! let lib = CellLibrary::nb03();
//! let mut sim = Simulator::new(&n, &lib);
//! sim.inject("in", &[100.0, 200.0]).unwrap();
//! sim.run_to_completion().unwrap();
//! // TFFL emits on the 0 -> 1 flip only: one output pulse for two inputs.
//! assert_eq!(sim.pulses("out").len(), 1);
//! assert!(sim.violations().is_empty());
//! ```

pub mod batch;
pub mod config;
pub mod engine;
pub mod event;
pub mod json;
pub mod netlist;
pub mod observe;
pub mod partition;
pub mod queue;
pub mod state;
pub mod stimulus;
pub mod vcd;
pub mod waveform;

pub use batch::{BatchReport, BatchRunner, WorkerMetrics};
pub use config::{EvalOptions, SimConfig};
pub use engine::{Fault, SimError, SimOutcome, SimStats, Simulator, Violation, ViolationReport};
pub use json::{Json, JsonError};
pub use netlist::{CellId, Netlist, NetlistError, PortRef};
pub use observe::{
    ActivityProfiler, CellActivity, HotCellEntry, RingTracer, SimObserver, TraceEvent, TraceKind,
};
pub use partition::PartitionPlan;
pub use queue::CalendarQueue;
pub use stimulus::{Stimulus, StimulusBuilder};
// Re-exported for callers that plan their own fan-out, such as the
// benchmark's verify replay.
pub use sushi_par::chunk_plan;
pub use waveform::{levels_from_pulses, render_pulse_rows, LevelTrace, PulseTrain};
