//! Netlist representation with RSFQ structural validation.
//!
//! RSFQ wiring rules differ from CMOS: every cell output drives **exactly
//! one** input (fan-out requires explicit SPL cells), and every input is
//! driven by at most one output (merging requires explicit CB cells). The
//! [`Netlist`] builder enforces both rules at `connect` time.

use std::collections::BTreeMap;
use std::fmt;
use sushi_cells::{CellKind, PortDir, PortName, Ps};

/// Identifier of a cell instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index of this cell in the netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a cell id from a raw index (e.g. one read back from a
    /// serialized fault list or activity report). The id is only
    /// meaningful against the netlist it originally came from.
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A (cell, port) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// The cell instance.
    pub cell: CellId,
    /// The port on that cell.
    pub port: PortName,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(cell: CellId, port: PortName) -> Self {
        Self { cell, port }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.cell, self.port)
    }
}

/// Errors raised while building a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// The referenced port does not exist on the cell kind.
    NoSuchPort {
        cell: CellId,
        kind: CellKind,
        port: PortName,
    },
    /// A source port must be an output and a destination an input.
    WrongDirection { at: PortRef, expected: PortDir },
    /// The output port already drives another input (RSFQ fan-out is 1).
    OutputAlreadyDriven { from: PortRef, existing: PortRef },
    /// The input port already has a driver.
    InputAlreadyDriven { to: PortRef, existing: PortRef },
    /// An IO or probe name was registered twice.
    DuplicateName(String),
    /// Negative wire delay.
    NegativeDelay(Ps),
    /// Non-finite (NaN or infinite) wire delay. A NaN delay would poison
    /// the event queue's total order mid-run; it is rejected here instead.
    InvalidDelay(Ps),
    /// Unknown cell id (from another netlist).
    UnknownCell(CellId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::NoSuchPort { cell, kind, port } => {
                write!(f, "cell {cell} ({kind}) has no port {port}")
            }
            NetlistError::WrongDirection { at, expected } => {
                write!(f, "port {at} is not an {expected:?} port")
            }
            NetlistError::OutputAlreadyDriven { from, existing } => {
                write!(
                    f,
                    "output {from} already drives {existing} (fan-out is 1; use a splitter)"
                )
            }
            NetlistError::InputAlreadyDriven { to, existing } => {
                write!(
                    f,
                    "input {to} already driven by {existing} (use a confluence buffer)"
                )
            }
            NetlistError::DuplicateName(n) => write!(f, "name {n:?} registered twice"),
            NetlistError::NegativeDelay(d) => write!(f, "negative wire delay {d} ps"),
            NetlistError::InvalidDelay(d) => {
                write!(f, "wire delay must be finite, got {d} ps")
            }
            NetlistError::UnknownCell(c) => write!(f, "cell {c} does not belong to this netlist"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// One cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInst {
    /// The cell's kind.
    pub kind: CellKind,
    /// Human-readable instance label (used in violation reports and dumps).
    pub label: String,
}

/// A wire from an output port to an input port with a propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    /// Destination input port.
    pub to: PortRef,
    /// Additional wire delay in ps (JTL chain / PTL segment), on top of the
    /// source cell's own delay.
    pub delay_ps: Ps,
}

/// A netlist of RSFQ cells with named external inputs and probes.
///
/// # Examples
///
/// ```
/// use sushi_cells::{CellKind, PortName};
/// use sushi_sim::Netlist;
///
/// let mut n = Netlist::new();
/// let a = n.add_cell(CellKind::Jtl, "a");
/// let b = n.add_cell(CellKind::Jtl, "b");
/// n.connect(a, PortName::Dout, b, PortName::Din)?;
/// assert_eq!(n.cell_count(), 2);
/// # Ok::<(), sushi_sim::NetlistError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    cells: Vec<CellInst>,
    /// Driver map: output port -> wire.
    wires: BTreeMap<PortRef, Wire>,
    /// Reverse map: input port -> its driver (for single-driver validation).
    drivers: BTreeMap<PortRef, PortRef>,
    inputs: BTreeMap<String, PortRef>,
    probes: BTreeMap<String, PortRef>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cell instance and returns its id.
    pub fn add_cell(&mut self, kind: CellKind, label: impl Into<String>) -> CellId {
        let id = CellId(u32::try_from(self.cells.len()).expect("netlist too large"));
        self.cells.push(CellInst {
            kind,
            label: label.into(),
        });
        id
    }

    /// Connects `from.(out_port)` to `to.(in_port)` with zero wire delay.
    ///
    /// # Errors
    ///
    /// Returns an error if a port does not exist, directions are wrong, or
    /// either end is already connected (RSFQ fan-out/fan-in is 1).
    pub fn connect(
        &mut self,
        from: CellId,
        out_port: PortName,
        to: CellId,
        in_port: PortName,
    ) -> Result<(), NetlistError> {
        self.connect_with_delay(from, out_port, to, in_port, 0.0)
    }

    /// Connects with an explicit wire delay in ps (modelling a JTL chain or
    /// passive transmission line without instantiating each stage).
    ///
    /// # Errors
    ///
    /// As [`Netlist::connect`], plus [`NetlistError::NegativeDelay`] for
    /// negative delays and [`NetlistError::InvalidDelay`] for NaN or
    /// infinite ones.
    pub fn connect_with_delay(
        &mut self,
        from: CellId,
        out_port: PortName,
        to: CellId,
        in_port: PortName,
        delay_ps: Ps,
    ) -> Result<(), NetlistError> {
        if !delay_ps.is_finite() {
            return Err(NetlistError::InvalidDelay(delay_ps));
        }
        if delay_ps < 0.0 {
            return Err(NetlistError::NegativeDelay(delay_ps));
        }
        let from_ref = self.checked_port(from, out_port, PortDir::Output)?;
        let to_ref = self.checked_port(to, in_port, PortDir::Input)?;
        if let Some(w) = self.wires.get(&from_ref) {
            return Err(NetlistError::OutputAlreadyDriven {
                from: from_ref,
                existing: w.to,
            });
        }
        if let Some(&existing) = self.drivers.get(&to_ref) {
            return Err(NetlistError::InputAlreadyDriven {
                to: to_ref,
                existing,
            });
        }
        self.wires.insert(
            from_ref,
            Wire {
                to: to_ref,
                delay_ps,
            },
        );
        self.drivers.insert(to_ref, from_ref);
        Ok(())
    }

    /// Registers a named external input feeding pulses into `cell.port`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ports, non-input ports, ports that
    /// already have a driver, or duplicate names.
    pub fn add_input(
        &mut self,
        name: impl Into<String>,
        cell: CellId,
        port: PortName,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        let port_ref = self.checked_port(cell, port, PortDir::Input)?;
        if let Some(&existing) = self.drivers.get(&port_ref) {
            return Err(NetlistError::InputAlreadyDriven {
                to: port_ref,
                existing,
            });
        }
        if self.inputs.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.inputs.insert(name, port_ref);
        Ok(())
    }

    /// Registers a named probe observing pulses emitted from `cell.port`
    /// (an output port). Probing does not consume the pulse.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/non-output ports or duplicate names.
    pub fn probe(
        &mut self,
        name: impl Into<String>,
        cell: CellId,
        port: PortName,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        let port_ref = self.checked_port(cell, port, PortDir::Output)?;
        if self.probes.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.probes.insert(name, port_ref);
        Ok(())
    }

    fn checked_port(
        &self,
        cell: CellId,
        port: PortName,
        expected: PortDir,
    ) -> Result<PortRef, NetlistError> {
        let inst = self
            .cells
            .get(cell.index())
            .ok_or(NetlistError::UnknownCell(cell))?;
        match inst.kind.port_dir(port) {
            None => Err(NetlistError::NoSuchPort {
                cell,
                kind: inst.kind,
                port,
            }),
            Some(d) if d != expected => Err(NetlistError::WrongDirection {
                at: PortRef::new(cell, port),
                expected,
            }),
            Some(_) => Ok(PortRef::new(cell, port)),
        }
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell instance for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn cell(&self, id: CellId) -> &CellInst {
        &self.cells[id.index()]
    }

    /// Iterates over `(id, instance)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &CellInst)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// The wire driven by `port_ref`, if connected.
    pub fn wire_from(&self, port_ref: PortRef) -> Option<&Wire> {
        self.wires.get(&port_ref)
    }

    /// Iterates over all `(source output port, wire)` pairs, in port order.
    ///
    /// The simulator uses this once at construction to build its dense
    /// per-port wire table; per-event lookups never touch the map.
    pub fn wires(&self) -> impl Iterator<Item = (PortRef, &Wire)> {
        self.wires.iter().map(|(&r, w)| (r, w))
    }

    /// Named external inputs.
    pub fn inputs(&self) -> &BTreeMap<String, PortRef> {
        &self.inputs
    }

    /// Named probes.
    pub fn probes(&self) -> &BTreeMap<String, PortRef> {
        &self.probes
    }

    /// Count of cells per kind (the basis for resource accounting).
    pub fn kind_histogram(&self) -> BTreeMap<CellKind, u64> {
        let mut h = BTreeMap::new();
        for c in &self.cells {
            *h.entry(c.kind).or_insert(0) += 1;
        }
        h
    }

    /// Total Josephson-junction count under `library`-style per-kind counts.
    pub fn jj_count(&self, library: &sushi_cells::CellLibrary) -> u64 {
        self.kind_histogram()
            .iter()
            .map(|(k, n)| u64::from(library.params(*k).jj_count) * n)
            .sum()
    }

    /// Dangling *input* ports (never driven and not external inputs).
    /// These are legal (a never-pulsed reset line) but worth auditing.
    pub fn undriven_inputs(&self) -> Vec<PortRef> {
        let external: Vec<PortRef> = self.inputs.values().copied().collect();
        let mut out = Vec::new();
        for (id, inst) in self.cells() {
            for &p in inst.kind.inputs() {
                let r = PortRef::new(id, p);
                if !self.drivers.contains_key(&r) && !external.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// A human-readable structural dump (one line per cell and wire).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (id, c) in self.cells() {
            let _ = writeln!(s, "{id} {} {}", c.kind, c.label);
        }
        for (from, w) in &self.wires {
            let _ = writeln!(s, "{from} -> {} ({:.1}ps)", w.to, w.delay_ps);
        }
        for (n, r) in &self.inputs {
            let _ = writeln!(s, "input {n} -> {r}");
        }
        for (n, r) in &self.probes {
            let _ = writeln!(s, "probe {n} <- {r}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_jtl() -> (Netlist, CellId, CellId) {
        let mut n = Netlist::new();
        let a = n.add_cell(CellKind::Jtl, "a");
        let b = n.add_cell(CellKind::Jtl, "b");
        (n, a, b)
    }

    #[test]
    fn connect_and_lookup() {
        let (mut n, a, b) = two_jtl();
        n.connect(a, PortName::Dout, b, PortName::Din).unwrap();
        let w = n.wire_from(PortRef::new(a, PortName::Dout)).unwrap();
        assert_eq!(w.to, PortRef::new(b, PortName::Din));
        assert_eq!(w.delay_ps, 0.0);
    }

    #[test]
    fn fanout_of_one_is_enforced() {
        let mut n = Netlist::new();
        let a = n.add_cell(CellKind::Jtl, "a");
        let b = n.add_cell(CellKind::Jtl, "b");
        let c = n.add_cell(CellKind::Jtl, "c");
        n.connect(a, PortName::Dout, b, PortName::Din).unwrap();
        let err = n.connect(a, PortName::Dout, c, PortName::Din).unwrap_err();
        assert!(matches!(err, NetlistError::OutputAlreadyDriven { .. }));
    }

    #[test]
    fn single_driver_is_enforced() {
        let mut n = Netlist::new();
        let a = n.add_cell(CellKind::Jtl, "a");
        let b = n.add_cell(CellKind::Jtl, "b");
        let c = n.add_cell(CellKind::Jtl, "c");
        n.connect(a, PortName::Dout, c, PortName::Din).unwrap();
        let err = n.connect(b, PortName::Dout, c, PortName::Din).unwrap_err();
        assert!(matches!(err, NetlistError::InputAlreadyDriven { .. }));
    }

    #[test]
    fn splitter_allows_two_sinks() {
        let mut n = Netlist::new();
        let s = n.add_cell(CellKind::Spl2, "s");
        let a = n.add_cell(CellKind::Jtl, "a");
        let b = n.add_cell(CellKind::Jtl, "b");
        n.connect(s, PortName::DoutA, a, PortName::Din).unwrap();
        n.connect(s, PortName::DoutB, b, PortName::Din).unwrap();
    }

    #[test]
    fn bad_port_rejected() {
        let (mut n, a, b) = two_jtl();
        let err = n.connect(a, PortName::DoutB, b, PortName::Din).unwrap_err();
        assert!(matches!(err, NetlistError::NoSuchPort { .. }));
    }

    #[test]
    fn wrong_direction_rejected() {
        let (mut n, a, b) = two_jtl();
        let err = n.connect(a, PortName::Din, b, PortName::Din).unwrap_err();
        assert!(matches!(err, NetlistError::WrongDirection { .. }));
        let err = n.connect(a, PortName::Dout, b, PortName::Dout).unwrap_err();
        assert!(matches!(err, NetlistError::WrongDirection { .. }));
    }

    #[test]
    fn negative_delay_rejected() {
        let (mut n, a, b) = two_jtl();
        let err = n
            .connect_with_delay(a, PortName::Dout, b, PortName::Din, -1.0)
            .unwrap_err();
        assert_eq!(err, NetlistError::NegativeDelay(-1.0));
    }

    /// Regression: a NaN delay used to pass the `< 0.0` check and only blow
    /// up later, deep inside the event queue's total-order comparison,
    /// once the first pulse crossed the wire mid-run.
    #[test]
    fn non_finite_delay_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (mut n, a, b) = two_jtl();
            let err = n
                .connect_with_delay(a, PortName::Dout, b, PortName::Din, bad)
                .unwrap_err();
            assert!(
                matches!(err, NetlistError::InvalidDelay(d) if d.is_nan() == bad.is_nan()),
                "delay {bad}: got {err:?}"
            );
            assert!(err.to_string().contains("finite"), "{err}");
            // The failed connect must leave the netlist untouched.
            assert!(n.wires().next().is_none());
        }
    }

    #[test]
    fn input_on_driven_port_rejected() {
        let (mut n, a, b) = two_jtl();
        n.connect(a, PortName::Dout, b, PortName::Din).unwrap();
        let err = n.add_input("x", b, PortName::Din).unwrap_err();
        assert!(matches!(err, NetlistError::InputAlreadyDriven { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut n, a, b) = two_jtl();
        n.add_input("x", a, PortName::Din).unwrap();
        let err = n.add_input("x", b, PortName::Din).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("x".into()));
        n.probe("p", a, PortName::Dout).unwrap();
        let err = n.probe("p", b, PortName::Dout).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("p".into()));
    }

    #[test]
    fn unknown_cell_rejected() {
        let (mut n, a, _) = two_jtl();
        let ghost = CellId(99);
        let err = n
            .connect(a, PortName::Dout, ghost, PortName::Din)
            .unwrap_err();
        assert_eq!(err, NetlistError::UnknownCell(ghost));
    }

    #[test]
    fn histogram_and_jj_count() {
        let mut n = Netlist::new();
        n.add_cell(CellKind::Jtl, "a");
        n.add_cell(CellKind::Jtl, "b");
        n.add_cell(CellKind::Ndro, "n");
        let h = n.kind_histogram();
        assert_eq!(h[&CellKind::Jtl], 2);
        assert_eq!(h[&CellKind::Ndro], 1);
        let lib = sushi_cells::CellLibrary::nb03();
        assert_eq!(n.jj_count(&lib), 2 * 2 + 11);
    }

    #[test]
    fn undriven_inputs_reported() {
        let mut n = Netlist::new();
        let d = n.add_cell(CellKind::Dff, "d");
        n.add_input("x", d, PortName::Din).unwrap();
        // Clk is neither driven nor external.
        let u = n.undriven_inputs();
        assert_eq!(u, vec![PortRef::new(d, PortName::Clk)]);
    }

    #[test]
    fn dump_mentions_cells_and_wires() {
        let (mut n, a, b) = two_jtl();
        n.connect(a, PortName::Dout, b, PortName::Din).unwrap();
        let d = n.dump();
        assert!(d.contains("c0 jtl a"));
        assert!(d.contains("c0.dout -> c1.din"));
    }
}
