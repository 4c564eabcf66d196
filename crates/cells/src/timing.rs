//! Minimum pulse-separation constraints (Table 1 of the paper).
//!
//! In asynchronous RSFQ operation the only timing rule is a minimum interval
//! between pulses arriving at particular port pairs of a cell: "A-B is the
//! time (ps) that the B channel input must lag behind the A channel input".
//! The constraint tables here are consumed by the `sushi-sim` runtime checker
//! and by the `sushi-ssnn` pulse-stream encoder (which must *generate*
//! streams that respect them).

use crate::{CellKind, PortName, Ps};
use std::fmt;

/// One minimum-separation rule: a pulse on `second` must arrive at least
/// `min_ps` after the most recent pulse on `first`.
///
/// A rule with `first == second` is a minimum inter-pulse interval on a
/// single port (e.g. `din-din 19.9` for a JTL).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// The earlier pulse's port.
    pub first: PortName,
    /// The later pulse's port.
    pub second: PortName,
    /// Minimum separation in picoseconds.
    pub min_ps: Ps,
}

impl Constraint {
    /// Creates a rule that `second` must lag `first` by at least `min_ps`.
    pub fn new(first: PortName, second: PortName, min_ps: Ps) -> Self {
        Self {
            first,
            second,
            min_ps,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{} {:.2}ps", self.first, self.second, self.min_ps)
    }
}

/// The set of separation rules for one cell kind.
///
/// # Examples
///
/// ```
/// use sushi_cells::{CellKind, ConstraintTable, PortName};
///
/// let t = ConstraintTable::paper_table1(CellKind::Dff);
/// assert_eq!(t.min_separation(PortName::Din, PortName::Clk), Some(8.53));
/// assert_eq!(t.min_separation(PortName::Clk, PortName::Rst), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConstraintTable {
    rules: Vec<Constraint>,
    /// Rule indices grouped by the arriving (`second`) port, so the
    /// simulator hot path only inspects rules that can fire for a given
    /// pulse. Either empty (no rules) or [`PortName::COUNT`] entries;
    /// rebuilt on every mutation.
    by_second: Vec<Vec<u32>>,
}

impl PartialEq for ConstraintTable {
    fn eq(&self, other: &Self) -> bool {
        // by_second is derived from rules; comparing it would be redundant.
        self.rules == other.rules
    }
}

impl ConstraintTable {
    /// An empty table (no constraints).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the constraint table for `kind` exactly as published in
    /// Table 1 of the paper.
    ///
    /// Cells not listed in Table 1 (splitter variants, converters) inherit
    /// the generic 19.9 ps per-input interval that the paper applies to
    /// JTL/SPL wiring cells.
    pub fn paper_table1(kind: CellKind) -> Self {
        use PortName::*;
        let rules = match kind {
            // "CB dinA/B-dinA/B 19.9, dinA/B-dinB/A 5.7"
            CellKind::Cb2 => vec![
                Constraint::new(DinA, DinA, 19.9),
                Constraint::new(DinB, DinB, 19.9),
                Constraint::new(DinA, DinB, 5.7),
                Constraint::new(DinB, DinA, 5.7),
            ],
            CellKind::Cb3 => vec![
                Constraint::new(DinA, DinA, 19.9),
                Constraint::new(DinB, DinB, 19.9),
                Constraint::new(DinC, DinC, 19.9),
                Constraint::new(DinA, DinB, 5.7),
                Constraint::new(DinB, DinA, 5.7),
                Constraint::new(DinA, DinC, 5.7),
                Constraint::new(DinC, DinA, 5.7),
                Constraint::new(DinB, DinC, 5.7),
                Constraint::new(DinC, DinB, 5.7),
            ],
            // "SPL din-din 19.9"
            CellKind::Spl2 | CellKind::Spl3 => vec![Constraint::new(Din, Din, 19.9)],
            // "DFF din-din 19.9, din-clk 8.53, clk-clk 19.9"
            CellKind::Dff => vec![
                Constraint::new(Din, Din, 19.9),
                Constraint::new(Din, Clk, 8.53),
                Constraint::new(Clk, Clk, 19.9),
            ],
            // "NDRO din/rst-rst/din 39.9, clk-clk 39.9, din-clk 14.81, rst-clk 16.61"
            CellKind::Ndro => vec![
                Constraint::new(Din, Rst, 39.9),
                Constraint::new(Rst, Din, 39.9),
                Constraint::new(Din, Din, 39.9),
                Constraint::new(Rst, Rst, 39.9),
                Constraint::new(Clk, Clk, 39.9),
                Constraint::new(Din, Clk, 14.81),
                Constraint::new(Rst, Clk, 16.61),
            ],
            // "TFF clk-clk 39.9" — the TFF's single input acts as its clock.
            CellKind::Tffl | CellKind::Tffr => vec![Constraint::new(Din, Din, 39.9)],
            // "JTL din-din 19.9"
            CellKind::Jtl => vec![Constraint::new(Din, Din, 19.9)],
            // Converters: generic wiring-cell interval.
            CellKind::DcSfq | CellKind::SfqDc => vec![Constraint::new(Din, Din, 19.9)],
        };
        Self::from_rules(rules)
    }

    /// Builds a table from explicit rules.
    pub fn from_rules(rules: Vec<Constraint>) -> Self {
        let mut t = Self {
            rules,
            by_second: Vec::new(),
        };
        t.rebuild_index();
        t
    }

    fn rebuild_index(&mut self) {
        self.by_second = vec![Vec::new(); PortName::COUNT];
        for (i, r) in self.rules.iter().enumerate() {
            self.by_second[r.second.index()].push(i as u32);
        }
    }

    /// Adds a rule to the table (builder style).
    pub fn with_rule(mut self, rule: Constraint) -> Self {
        self.rules.push(rule);
        self.rebuild_index();
        self
    }

    /// All rules of this table.
    pub fn rules(&self) -> &[Constraint] {
        &self.rules
    }

    /// The minimum lag required from a pulse on `first` to a later pulse on
    /// `second`, or `None` if the pair is unconstrained.
    pub fn min_separation(&self, first: PortName, second: PortName) -> Option<Ps> {
        self.rules
            .iter()
            .filter(|r| r.first == first && r.second == second)
            .map(|r| r.min_ps)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: Ps| a.max(v))))
    }

    /// Checks a pulse arriving on `port` at time `t` against the most recent
    /// arrival times per port; returns every violated rule.
    ///
    /// `last_arrivals` yields `(port, last_time)` pairs; ports without prior
    /// pulses are simply omitted (if a port repeats, its last time wins).
    pub fn check<I>(&self, port: PortName, t: Ps, last_arrivals: I) -> Vec<&Constraint>
    where
        I: IntoIterator<Item = (PortName, Ps)>,
    {
        let mut dense = [Ps::NEG_INFINITY; PortName::COUNT];
        for (prev_port, prev_t) in last_arrivals {
            dense[prev_port.index()] = prev_t;
        }
        let mut violated = Vec::new();
        self.check_dense(port, t, &dense, |rule, _| violated.push(rule));
        violated
    }

    /// Streaming constraint check against a dense per-port arrival table
    /// (the simulator hot path).
    ///
    /// `last_arrival` holds the most recent pulse time per port, indexed by
    /// [`PortName::index`], with [`Ps::NEG_INFINITY`] meaning "never". Only
    /// rules whose `second` port is `port` are inspected; `hit` receives
    /// each violated rule together with the prior arrival time that broke
    /// it.
    #[inline]
    pub fn check_dense<'a, F>(
        &'a self,
        port: PortName,
        t: Ps,
        last_arrival: &[Ps; PortName::COUNT],
        mut hit: F,
    ) where
        F: FnMut(&'a Constraint, Ps),
    {
        let Some(indices) = self.by_second.get(port.index()) else {
            return;
        };
        for &ri in indices {
            let rule = &self.rules[ri as usize];
            let prev = last_arrival[rule.first.index()];
            if t - prev < rule.min_ps {
                hit(rule, prev);
            }
        }
    }

    /// The largest `min_ps` over all rules, used as a conservative
    /// "safe interval" when encoding pulse streams.
    pub fn worst_case_ps(&self) -> Ps {
        self.rules.iter().map(|r| r.min_ps).fold(0.0, Ps::max)
    }

    /// A copy with every separation scaled by `factor` (process scaling:
    /// faster junctions shrink the required intervals).
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    pub fn scaled(&self, factor: Ps) -> ConstraintTable {
        assert!(factor > 0.0, "scale factor must be positive");
        ConstraintTable::from_rules(
            self.rules
                .iter()
                .map(|r| Constraint::new(r.first, r.second, r.min_ps * factor))
                .collect(),
        )
    }
}

/// A conservative chip-wide safe inter-pulse interval.
///
/// The paper: "we employ larger interval constraints to ensure the correct
/// operation of the cells". 40 ps clears every rule in Table 1 (the worst is
/// the NDRO at 39.9 ps).
pub const SAFE_INTERVAL_PS: Ps = 40.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        use PortName::*;
        let cb = ConstraintTable::paper_table1(CellKind::Cb2);
        assert_eq!(cb.min_separation(DinA, DinA), Some(19.9));
        assert_eq!(cb.min_separation(DinA, DinB), Some(5.7));

        let dff = ConstraintTable::paper_table1(CellKind::Dff);
        assert_eq!(dff.min_separation(Din, Clk), Some(8.53));
        assert_eq!(dff.min_separation(Clk, Clk), Some(19.9));

        let ndro = ConstraintTable::paper_table1(CellKind::Ndro);
        assert_eq!(ndro.min_separation(Din, Rst), Some(39.9));
        assert_eq!(ndro.min_separation(Rst, Din), Some(39.9));
        assert_eq!(ndro.min_separation(Clk, Clk), Some(39.9));
        assert_eq!(ndro.min_separation(Din, Clk), Some(14.81));
        assert_eq!(ndro.min_separation(Rst, Clk), Some(16.61));

        let tff = ConstraintTable::paper_table1(CellKind::Tffl);
        assert_eq!(tff.min_separation(Din, Din), Some(39.9));

        let jtl = ConstraintTable::paper_table1(CellKind::Jtl);
        assert_eq!(jtl.min_separation(Din, Din), Some(19.9));
    }

    #[test]
    fn unconstrained_pairs_return_none() {
        let dff = ConstraintTable::paper_table1(CellKind::Dff);
        assert_eq!(dff.min_separation(PortName::Clk, PortName::Din), None);
    }

    #[test]
    fn check_flags_violation() {
        let jtl = ConstraintTable::paper_table1(CellKind::Jtl);
        // Second pulse only 10 ps after the first: violates 19.9 ps.
        let v = jtl.check(PortName::Din, 110.0, [(PortName::Din, 100.0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].min_ps, 19.9);
    }

    #[test]
    fn check_passes_when_separated() {
        let jtl = ConstraintTable::paper_table1(CellKind::Jtl);
        let v = jtl.check(PortName::Din, 120.0, [(PortName::Din, 100.0)]);
        assert!(v.is_empty());
    }

    #[test]
    fn check_considers_all_prior_ports() {
        let ndro = ConstraintTable::paper_table1(CellKind::Ndro);
        // clk at t=50 after din at t=40 (needs 14.81) and rst at t=45 (needs 16.61).
        let v = ndro.check(
            PortName::Clk,
            50.0,
            [(PortName::Din, 40.0), (PortName::Rst, 45.0)],
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dense_check_matches_sparse_check() {
        for kind in CellKind::ALL {
            let table = ConstraintTable::paper_table1(kind);
            // Arrivals staggered tightly enough that some rule must trip.
            let arrivals: Vec<(PortName, Ps)> = kind
                .inputs()
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, 100.0 + i as Ps))
                .collect();
            let mut dense = [Ps::NEG_INFINITY; PortName::COUNT];
            for &(p, t) in &arrivals {
                dense[p.index()] = t;
            }
            for &port in kind.inputs() {
                let sparse = table.check(port, 104.0, arrivals.iter().copied());
                let mut streamed = Vec::new();
                table.check_dense(port, 104.0, &dense, |r, _| streamed.push(r));
                assert_eq!(sparse, streamed, "{kind} {port}");
                assert!(!sparse.is_empty(), "{kind} {port} should trip at 4ps lag");
            }
        }
    }

    #[test]
    fn dense_check_reports_breaking_arrival_time() {
        let ndro = ConstraintTable::paper_table1(CellKind::Ndro);
        let mut dense = [Ps::NEG_INFINITY; PortName::COUNT];
        dense[PortName::Din.index()] = 40.0;
        dense[PortName::Rst.index()] = 45.0;
        let mut hits = Vec::new();
        ndro.check_dense(PortName::Clk, 50.0, &dense, |r, prev| {
            hits.push((r.first, prev))
        });
        hits.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        assert_eq!(hits, vec![(PortName::Din, 40.0), (PortName::Rst, 45.0)]);
    }

    #[test]
    fn empty_table_dense_check_is_silent() {
        let t = ConstraintTable::new();
        let dense = [0.0; PortName::COUNT];
        let mut hits = 0;
        t.check_dense(PortName::Din, 0.0, &dense, |_, _| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn safe_interval_clears_every_rule() {
        for kind in CellKind::ALL {
            let t = ConstraintTable::paper_table1(kind);
            assert!(
                t.worst_case_ps() <= SAFE_INTERVAL_PS,
                "{kind}: worst case {} exceeds safe interval",
                t.worst_case_ps()
            );
        }
    }

    #[test]
    fn with_rule_extends_table() {
        let t = ConstraintTable::new()
            .with_rule(Constraint::new(PortName::Din, PortName::Din, 10.0))
            .with_rule(Constraint::new(PortName::Din, PortName::Din, 25.0));
        // min_separation takes the most restrictive rule.
        assert_eq!(t.min_separation(PortName::Din, PortName::Din), Some(25.0));
        assert_eq!(t.rules().len(), 2);
    }

    #[test]
    fn display_formats_rule() {
        let c = Constraint::new(PortName::Din, PortName::Clk, 8.53);
        assert_eq!(c.to_string(), "din-clk 8.53ps");
    }
}
