//! Declarative simulator construction ([`SimConfig`]) and evaluation
//! options ([`EvalOptions`]).
//!
//! `SimConfig` replaces the old `Simulator::new(..).with_jitter(..)`
//! builder chain: the configuration is a plain value that can be stored,
//! compared, serialized and applied to any netlist/library pair. The same
//! config can build many simulators (e.g. one per batch worker).
//!
//! `EvalOptions` plays the matching role one layer up: the knobs shared by
//! every batch-evaluation entry point (worker count, base seed, metrics
//! reporting), so "sequential vs parallel" and "plain vs instrumented" are
//! config choices rather than different APIs.
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
use crate::json::{Json, JsonError};
use crate::netlist::{CellId, Netlist};
use crate::observe::SimObserver;
use sushi_cells::{CellLibrary, Ps};

/// A declarative simulator configuration.
///
/// Equality and serialization cover the reproducibility-relevant fields
/// (jitter, faults, event limit); the attached observer is a run-time
/// instrument and is deliberately excluded from both.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    jitter: Option<(u64, Ps)>,
    faults: Vec<(CellId, Fault)>,
    event_limit: Option<u64>,
    observer: Option<Box<dyn SimObserver>>,
}

impl PartialEq for SimConfig {
    fn eq(&self, other: &Self) -> bool {
        self.jitter == other.jitter
            && self.faults == other.faults
            && self.event_limit == other.event_limit
    }
}

impl SimConfig {
    /// An empty configuration: nominal timing, no faults, default event
    /// limit, no observer.
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

    /// Attaches an observer; it receives every engine hook during runs and
    /// can be recovered afterwards with
    /// [`Simulator::take_observer_as`](crate::Simulator::take_observer_as).
    pub fn observer(mut self, obs: impl SimObserver + 'static) -> Self {
        self.observer = Some(Box::new(obs));
        self
    }

    /// The configured jitter `(seed, sigma_ps)`, if any.
    pub fn jitter_params(&self) -> Option<(u64, Ps)> {
        self.jitter
    }

    /// The configured faults.
    pub fn faults(&self) -> &[(CellId, Fault)] {
        &self.faults
    }

    /// The configured event limit, if overridden.
    pub fn event_limit_value(&self) -> Option<u64> {
        self.event_limit
    }

    /// True if an observer is attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Builds a simulator over `netlist`/`library` with this
    /// configuration applied. The config is consumed because the observer
    /// (if any) moves into the simulator; clone first to reuse it.
    pub fn build<'a>(self, netlist: &'a Netlist, library: &'a CellLibrary) -> Simulator<'a> {
        let mut sim = Simulator::new(netlist, library);
        if let Some((seed, sigma)) = self.jitter {
            sim.set_jitter(seed, sigma);
        }
        for (cell, fault) in self.faults {
            sim.set_fault(cell, fault);
        }
        if let Some(limit) = self.event_limit {
            sim.set_event_limit(limit);
        }
        if let Some(obs) = self.observer {
            sim.set_observer(obs);
        }
        sim
    }

    /// The serializable form of the configuration (observer excluded).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "jitter",
                match self.jitter {
                    Some((seed, sigma)) => Json::obj(vec![
                        ("seed", Json::UInt(seed)),
                        ("sigma_ps", Json::Num(sigma)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "faults",
                Json::Arr(
                    self.faults
                        .iter()
                        .map(|(cell, fault)| {
                            Json::obj(vec![
                                ("cell", Json::UInt(cell.index() as u64)),
                                (
                                    "fault",
                                    Json::Str(
                                        match fault {
                                            Fault::DropOutput => "drop_output",
                                            Fault::IgnoreInput => "ignore_input",
                                        }
                                        .to_owned(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "event_limit",
                match self.event_limit {
                    Some(n) => Json::UInt(n),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Rebuilds a configuration from [`SimConfig::to_json`] output. The
    /// observer is not part of the serialized form; attach one afterwards
    /// if needed.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let bad = |pos: usize, message: &str| JsonError {
            pos,
            message: message.to_owned(),
        };
        let v = Json::parse(text)?;
        let mut config = SimConfig::new();
        match v.get("jitter") {
            Some(Json::Null) | None => {}
            Some(j) => {
                let seed = j
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(0, "jitter.seed must be a u64"))?;
                let sigma = j
                    .get("sigma_ps")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(0, "jitter.sigma_ps must be a number"))?;
                config = config.jitter(seed, sigma);
            }
        }
        if let Some(faults) = v.get("faults") {
            for f in faults
                .as_arr()
                .ok_or_else(|| bad(0, "faults must be an array"))?
            {
                let cell = f
                    .get("cell")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(0, "fault.cell must be a u64"))?;
                let fault = match f.get("fault").and_then(Json::as_str) {
                    Some("drop_output") => Fault::DropOutput,
                    Some("ignore_input") => Fault::IgnoreInput,
                    _ => return Err(bad(0, "fault.fault must name a known fault")),
                };
                config = config.fault(CellId::from_index(cell as usize), fault);
            }
        }
        match v.get("event_limit") {
            Some(Json::Null) | None => {}
            Some(n) => {
                let limit = n
                    .as_u64()
                    .ok_or_else(|| bad(0, "event_limit must be a u64"))?;
                config = config.event_limit(limit);
            }
        }
        Ok(config)
    }
}

/// Options shared by the batch-evaluation entry points (`SushiChip::
/// evaluate`, `CellAccurateChip::run_column_blocks`, `BatchRunner`).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOptions {
    /// Worker threads; `None` picks the host's available parallelism.
    pub workers: Option<usize>,
    /// Base seed mixed into per-item seeds (0 reproduces historical runs).
    pub seed: u64,
    /// Collect a metrics report (per-worker throughput, hot cells,
    /// violations) alongside the results. Off by default: reports carry
    /// wall-clock times, which would break bitwise run comparisons.
    pub report: bool,
    /// Rows in the hot-cell top-N table when `report` is on.
    pub hot_top_n: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            workers: None,
            seed: 0,
            report: false,
            hot_top_n: 8,
        }
    }
}

impl EvalOptions {
    /// The defaults: auto worker count, seed 0, no report.
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

    /// Sets the base seed mixed into per-item seeds.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the metrics report.
    pub fn report(mut self, on: bool) -> Self {
        self.report = on;
        self
    }

    /// Sets the hot-cell table depth used when reporting.
    pub fn hot_top_n(mut self, n: usize) -> Self {
        self.hot_top_n = n;
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
    use crate::observe::ActivityProfiler;
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
    fn config_round_trips_through_json() {
        let config = SimConfig::new()
            .jitter(0xDEAD_BEEF_DEAD_BEEF, 2.5)
            .fault(CellId::from_index(3), Fault::DropOutput)
            .fault(CellId::from_index(7), Fault::IgnoreInput)
            .event_limit(123_456_789_012_345);
        let text = config.to_json().to_string();
        let back = SimConfig::from_json(&text).unwrap();
        assert_eq!(back, config);
        // Field-level checks: u64s survive exactly.
        assert_eq!(back.jitter_params(), Some((0xDEAD_BEEF_DEAD_BEEF, 2.5)));
        assert_eq!(back.event_limit_value(), Some(123_456_789_012_345));
        assert_eq!(back.faults().len(), 2);
    }

    #[test]
    fn empty_config_round_trips_and_observer_is_excluded() {
        let config = SimConfig::new();
        let back = SimConfig::from_json(&config.to_json().to_string()).unwrap();
        assert_eq!(back, config);
        // Observer presence affects neither equality nor serialization.
        let with_obs = SimConfig::new().observer(ActivityProfiler::new());
        assert!(with_obs.has_observer());
        assert_eq!(with_obs, config);
        assert_eq!(with_obs.to_json().to_string(), config.to_json().to_string());
    }

    #[test]
    fn from_json_rejects_malformed_configs() {
        assert!(SimConfig::from_json("not json").is_err());
        assert!(SimConfig::from_json(r#"{"jitter":{"seed":"x"}}"#).is_err());
        assert!(SimConfig::from_json(r#"{"faults":[{"cell":1,"fault":"melt"}]}"#).is_err());
        assert!(SimConfig::from_json(r#"{"event_limit":-3.0}"#).is_err());
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
        let opts = EvalOptions::new()
            .workers(3)
            .seed(99)
            .report(true)
            .hot_top_n(4);
        assert_eq!(opts.resolve_workers(), 3);
        assert_eq!(opts.seed, 99);
        assert!(opts.report);
        assert_eq!(opts.hot_top_n, 4);
        let auto = EvalOptions::default();
        assert!(auto.resolve_workers() >= 1);
        assert!(!auto.report);
    }
}
