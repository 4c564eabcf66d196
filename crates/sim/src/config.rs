//! Declarative simulator construction ([`SimConfig`]) and evaluation
//! options ([`EvalOptions`]).
//!
//! `SimConfig` replaces the old `Simulator::new(..).with_jitter(..)`
//! builder chain: the configuration is a plain value that can be stored
//! and applied to any netlist/library pair. The same config can build
//! many simulators (e.g. one per batch worker).
//!
//! `EvalOptions` plays the matching role one layer up: the knobs shared by
//! every batch-evaluation entry point (worker count, metrics reporting),
//! so "sequential vs parallel" and "plain vs instrumented" are config
//! choices rather than different APIs.
//!
//! # Examples
//!
//! ```
//! use sushi_cells::{CellKind, CellLibrary, PortName};
//! use sushi_sim::{Netlist, SimConfig};
//!
//! let mut n = Netlist::new();
//! let src = n.add_cell(CellKind::DcSfq, "src");
//! n.add_input("in", src, PortName::Din).unwrap();
//! n.probe("out", src, PortName::Dout).unwrap();
//! let lib = CellLibrary::nb03();
//!
//! let mut sim = SimConfig::new()
//!     .jitter(42, 1.5)
//!     .event_limit(10_000)
//!     .build(&n, &lib);
//! sim.inject("in", &[100.0]).unwrap();
//! sim.run_to_completion().unwrap();
//! assert_eq!(sim.pulses("out").len(), 1);
//! ```

use crate::engine::{Fault, Simulator};
use crate::netlist::{CellId, Netlist};
use sushi_cells::{CellLibrary, Ps};

/// A declarative simulator configuration: jitter, faults and event
/// limit. Observers are attached to a built simulator with
/// [`Simulator::attach_observer`].
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    jitter: Option<(u64, Ps)>,
    faults: Vec<(CellId, Fault)>,
    event_limit: Option<u64>,
}

impl SimConfig {
    /// An empty configuration: nominal timing, no faults, default event
    /// limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables deterministic Gaussian timing jitter with standard
    /// deviation `sigma_ps` on every cell propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_ps` is negative.
    pub fn jitter(mut self, seed: u64, sigma_ps: Ps) -> Self {
        assert!(sigma_ps >= 0.0, "jitter sigma must be non-negative");
        self.jitter = Some((seed, sigma_ps));
        self
    }

    /// Injects a fabrication defect into `cell`.
    pub fn fault(mut self, cell: CellId, fault: Fault) -> Self {
        self.faults.push((cell, fault));
        self
    }

    /// Overrides the delivered-event budget.
    pub fn event_limit(mut self, limit: u64) -> Self {
        self.event_limit = Some(limit);
        self
    }

    /// Builds a simulator over `netlist`/`library` with this
    /// configuration applied.
    pub fn build<'a>(&self, netlist: &'a Netlist, library: &'a CellLibrary) -> Simulator<'a> {
        let mut sim = Simulator::new(netlist, library);
        if let Some((seed, sigma)) = self.jitter {
            sim.set_jitter(seed, sigma);
        }
        for &(cell, fault) in &self.faults {
            sim.set_fault(cell, fault);
        }
        if let Some(limit) = self.event_limit {
            sim.set_event_limit(limit);
        }
        sim
    }
}

/// Options shared by the batch-evaluation entry points (`SushiChip::
/// evaluate`, `CellAccurateChip::run_column_blocks`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalOptions {
    /// Worker threads; `None` picks the host's available parallelism.
    pub workers: Option<usize>,
    /// Collect a metrics report (per-worker throughput, violations and,
    /// on the cell-accurate path, the [`HOT_CELLS`](crate::HOT_CELLS)
    /// hottest cells) alongside the results. Off by default: reports
    /// carry wall-clock times, which would break bitwise run comparisons.
    pub report: bool,
}

impl EvalOptions {
    /// The defaults: auto worker count, no report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the work into exactly `n` workers (clamped to the item
    /// count), the ranges of `sushi_par::fan_out`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0, "worker count must be positive");
        self.workers = Some(n);
        self
    }

    /// Enables or disables the metrics report.
    pub fn report(mut self, on: bool) -> Self {
        self.report = on;
        self
    }

    /// Resolves the worker count against the host (at least 1): one per
    /// host CPU ([`sushi_par::host_workers`]) unless set.
    pub fn resolve_workers(&self) -> usize {
        self.workers.unwrap_or_else(sushi_par::host_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_cells::{CellKind, CellLibrary, PortName};

    fn chain() -> Netlist {
        let mut n = Netlist::new();
        let src = n.add_cell(CellKind::DcSfq, "src");
        let j = n.add_cell(CellKind::Jtl, "j");
        n.connect(src, PortName::Dout, j, PortName::Din).unwrap();
        n.add_input("in", src, PortName::Din).unwrap();
        n.probe("out", j, PortName::Dout).unwrap();
        n
    }

    #[test]
    fn build_applies_every_field() {
        let n = chain();
        let l = CellLibrary::nb03();
        let mut sim = SimConfig::new().event_limit(1).build(&n, &l);
        sim.inject("in", &[0.0, 100.0]).unwrap();
        assert!(sim.run_to_completion().is_err(), "event limit applies");

        let mut faulty = SimConfig::new()
            .fault(CellId::from_index(1), Fault::DropOutput)
            .build(&n, &l);
        faulty.inject("in", &[100.0]).unwrap();
        faulty.run_to_completion().unwrap();
        assert!(faulty.pulses("out").is_empty(), "fault applies");

        let run = |seed: u64| {
            let mut sim = SimConfig::new().jitter(seed, 1.0).build(&n, &l);
            sim.inject("in", &[100.0, 500.0]).unwrap();
            sim.run_to_completion().unwrap();
            sim.pulses("out").to_vec()
        };
        assert_eq!(run(7), run(7), "jitter is deterministic");
        assert_ne!(run(7), run(8), "jitter seed applies");
    }

    #[test]
    fn eval_options_builder_and_resolution() {
        let opts = EvalOptions::new().workers(3).report(true);
        assert_eq!(opts.resolve_workers(), 3);
        assert!(opts.report);
        let auto = EvalOptions::default();
        assert!(auto.resolve_workers() >= 1);
        assert!(!auto.report);
    }
}
