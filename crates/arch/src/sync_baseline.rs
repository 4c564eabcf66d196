//! A conventional *synchronous* RSFQ accelerator model — the design style
//! SUSHI argues against (Section 3).
//!
//! The paper's motivation rests on three measured pain points of
//! synchronous RSFQ designs:
//!
//! * **Timing** — every synchronous cell needs its own clock line, and the
//!   clock distribution network "typically accounts for about 80% of the
//!   total design";
//! * **Memory wall** — "shift registers made up of multiple DFFs in series
//!   are the most commonly used on-chip memory", suitable only for
//!   sequential access; SuperNPU reached "only 16% of its peak inference
//!   throughput" because of it;
//! * **Integration** — bit-parallel processing exceeds current JJ budgets.
//!
//! This module builds those baseline structures for real: a cell-level
//! [`ShiftRegister`] generator with its counter-flow clock tree (plus a
//! behavioural model), and the analytical [`SyncAccelerator`] model
//! (SuperNPU-like) whose resource split and sustained throughput reproduce
//! the motivation numbers. The `ablations` bench compares it against
//! SUSHI's asynchronous design.

use crate::resources::{Category, ResourceReport};
use std::collections::VecDeque;
use sushi_cells::{CellKind, CellLibrary, PortName, Ps};
use sushi_sim::{Netlist, NetlistError, PortRef};

/// Cell-level ports of a generated shift register.
#[derive(Debug, Clone)]
pub struct ShiftRegisterPorts {
    /// Serial data input (first DFF's `din`).
    pub din: PortRef,
    /// Shared clock input (root of the internal clock splitter tree).
    pub clk: PortRef,
    /// Serial data output (last DFF's `dout`).
    pub dout: PortRef,
}

/// Generates an `n`-stage DFF shift register with its clock fan-out tree.
///
/// Data shifts one stage per clock pulse, using the DFFs' gate-level
/// pipeline property: each clock pulse releases every stage's stored bit
/// into the next stage. The clock reaches stages through an SPL tree with
/// deliberately increasing delays so stage `k+1` is always clocked before
/// stage `k`'s new datum arrives (counter-flow clocking).
#[derive(Debug, Clone, Copy)]
pub struct ShiftRegister;

/// Wire delay inserted between clock taps so the stages are released in
/// counter-flow order.
const CLOCK_STAGGER_PS: Ps = 40.0;

impl ShiftRegister {
    /// Emits an `n`-stage shift register labelled with `prefix`.
    ///
    /// # Errors
    ///
    /// Propagates netlist wiring errors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(
        netlist: &mut Netlist,
        prefix: &str,
        n: usize,
    ) -> Result<ShiftRegisterPorts, NetlistError> {
        use PortName::*;
        assert!(n > 0, "a shift register needs at least one stage");
        let dffs: Vec<_> = (0..n)
            .map(|i| netlist.add_cell(CellKind::Dff, format!("{prefix}.dff{i}")))
            .collect();
        for w in dffs.windows(2) {
            netlist.connect(w[0], Dout, w[1], Din)?;
        }
        // Clock tree: a chain of SPL2s, tapping the *last* stage first
        // (counter-flow): the clock reaches dff[n-1] with the least delay
        // and dff[0] with the most, so a stage is emptied before its
        // upstream neighbour's datum arrives.
        let clk_root = if n == 1 {
            PortRef::new(dffs[0], Clk)
        } else {
            let spls: Vec<_> = (0..n - 1)
                .map(|i| netlist.add_cell(CellKind::Spl2, format!("{prefix}.clkspl{i}")))
                .collect();
            // spl[i] taps dff[n-1-i]; its other output feeds spl[i+1].
            for (i, spl) in spls.iter().enumerate() {
                let stagger = CLOCK_STAGGER_PS;
                netlist.connect_with_delay(*spl, PortName::DoutB, dffs[n - 1 - i], Clk, 0.0)?;
                if i + 1 < spls.len() {
                    netlist.connect_with_delay(*spl, PortName::DoutA, spls[i + 1], Din, stagger)?;
                } else {
                    netlist.connect_with_delay(*spl, PortName::DoutA, dffs[0], Clk, stagger)?;
                }
            }
            PortRef::new(spls[0], Din)
        };
        Ok(ShiftRegisterPorts {
            din: PortRef::new(dffs[0], Din),
            clk: clk_root,
            dout: PortRef::new(dffs[n - 1], Dout),
        })
    }

    /// JJ count of an `n`-stage register under `library` (DFFs plus the
    /// clock splitter chain — the clock tree is why synchronous memory is
    /// wiring-hungry).
    pub fn jj_count(library: &CellLibrary, n: usize) -> u64 {
        let dff = u64::from(library.params(CellKind::Dff).jj_count);
        let spl = u64::from(library.params(CellKind::Spl2).jj_count);
        dff * n as u64 + spl * (n.saturating_sub(1)) as u64
    }
}

/// Behavioural shift-register model (a clocked FIFO of bits).
///
/// # Examples
///
/// ```
/// use sushi_arch::sync_baseline::ShiftRegisterModel;
///
/// let mut sr = ShiftRegisterModel::new(3);
/// sr.load(true);
/// assert_eq!(sr.clock(), false); // 3 clocks for the bit to emerge
/// assert_eq!(sr.clock(), false);
/// assert_eq!(sr.clock(), true);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftRegisterModel {
    stages: VecDeque<bool>,
}

impl ShiftRegisterModel {
    /// An `n`-stage register initialised to zeros.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a shift register needs at least one stage");
        Self {
            stages: VecDeque::from(vec![false; n]),
        }
    }

    /// Stage count.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the register has no stages (never; `new` requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stores `bit` into stage 0 — like a DFF, the data input latches
    /// immediately without a clock. Loading twice without a clock between
    /// is the DFF-overwrite hazard; the last value wins here.
    pub fn load(&mut self, bit: bool) {
        self.stages[0] = bit;
    }

    /// One clock pulse: releases the last stage's bit (returned) and
    /// shifts every other stage forward; stage 0 becomes empty.
    pub fn clock(&mut self) -> bool {
        let out = self.stages.pop_back().expect("non-empty");
        self.stages.push_front(false);
        out
    }

    /// Reads the whole contents, newest first (stage 0 first).
    pub fn contents(&self) -> Vec<bool> {
        self.stages.iter().copied().collect()
    }

    /// Random access cost in clock cycles: a shift register must rotate
    /// until the wanted word reaches the output — the memory-wall term.
    pub fn random_access_cycles(&self, index: usize) -> usize {
        assert!(index < self.len(), "index {index} out of {}", self.len());
        self.len() - index
    }
}

/// Analytical model of a synchronous RSFQ SNN accelerator (SuperNPU-like):
/// bit-serial PEs, shift-register weight memory, global clock tree.
///
/// # Examples
///
/// ```
/// use sushi_arch::sync_baseline::SyncAccelerator;
///
/// let acc = SyncAccelerator::supernpu_like();
/// let r = acc.resources();
/// // The paper: clock distribution ~80% of a synchronous design.
/// assert!(r.wiring_fraction() > 0.75);
/// // SuperNPU sustained only ~16% of peak.
/// assert!((acc.sustained_utilization() - 0.16).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncAccelerator {
    /// Number of processing elements (bit-serial MACs).
    pub pe_count: usize,
    /// Weight word width in bits.
    pub word_bits: usize,
    /// On-chip weight memory capacity in words (shift registers).
    pub memory_words: usize,
    /// Clock frequency in GHz.
    pub clock_ghz: f64,
}

/// JJs per bit-serial PE (adder + accumulator DFFs + control), from
/// published bit-slice ALU budgets.
const JJ_PER_PE: u64 = 420;

/// Clocked cells per PE (each needing a private clock line).
const CLOCKED_CELLS_PER_PE: u64 = 30;

/// Clock-tree JJs per clocked cell: one splitter leg plus the JTL run to
/// reach it. This is what makes synchronous RSFQ wiring-bound.
const CLOCK_JJ_PER_CLOCKED_CELL: u64 = 30;

/// Independent shift-register banks that can rotate in parallel.
const BANK_PARALLELISM: f64 = 4.0;

impl SyncAccelerator {
    /// A SuperNPU-like configuration scaled to SUSHI's JJ budget
    /// (~1e5 JJs): 32 bit-serial PEs, 8-bit weights, 2K words of
    /// shift-register memory at 20 GHz.
    pub fn supernpu_like() -> Self {
        Self {
            pe_count: 32,
            word_bits: 8,
            memory_words: 256,
            clock_ghz: 20.0,
        }
    }

    /// Resource report under `library`'s constants.
    pub fn resources_with(&self, library: &CellLibrary) -> ResourceReport {
        let mut r = ResourceReport::new();
        r.add_logic(Category::Npe, self.pe_count as u64 * JJ_PER_PE);
        let memory_bits = (self.memory_words * self.word_bits) as u64;
        r.add_logic(
            Category::WeightStructures,
            memory_bits * u64::from(library.params(CellKind::Dff).jj_count),
        );
        let clocked = self.pe_count as u64 * CLOCKED_CELLS_PER_PE + memory_bits;
        r.add_wiring(Category::ControlRoutes, clocked * CLOCK_JJ_PER_CLOCKED_CELL);
        // Data routing between memory and PEs.
        r.add_wiring(Category::DataRoutes, self.pe_count as u64 * 220);
        r
    }

    /// Resource report under the default Nb03-like library.
    pub fn resources(&self) -> ResourceReport {
        self.resources_with(&CellLibrary::nb03())
    }

    /// Peak synaptic throughput in GSOPS: every PE completes one synaptic
    /// op per `word_bits` cycles (bit-serial).
    pub fn peak_gsops(&self) -> f64 {
        self.pe_count as f64 * self.clock_ghz / self.word_bits as f64
    }

    /// Sustained fraction of peak: PEs stall while weights stream out of
    /// the sequential-access shift registers. Each synaptic op needs one
    /// `word_bits`-bit weight, but a random-access pattern costs on
    /// average half a rotation of the containing register bank.
    pub fn sustained_utilization(&self) -> f64 {
        // Average rotation to reach a word = memory_words / 2 cycles,
        // amortised over the independently rotating banks.
        let stall = self.memory_words as f64 / 2.0 / BANK_PARALLELISM;
        let compute = self.word_bits as f64;
        compute / (compute + stall) * 0.9 // 10% pipeline bubbles
    }

    /// Sustained throughput in GSOPS.
    pub fn sustained_gsops(&self) -> f64 {
        self.peak_gsops() * self.sustained_utilization()
    }

    /// Chip power in mW: static bias plus the synchronous dynamic term —
    /// *every clocked cell switches every cycle*, unlike SUSHI's
    /// event-driven cells.
    pub fn power_mw_with(&self, library: &CellLibrary) -> f64 {
        let r = self.resources_with(&library.clone());
        let static_mw = library.static_power_mw(r.total_jj());
        let clocked = self.pe_count as f64 * CLOCKED_CELLS_PER_PE as f64
            + (self.memory_words * self.word_bits) as f64;
        let dynamic_mw = library.dynamic_power_mw(self.clock_ghz * 1e9 * clocked, 6.0);
        static_mw + dynamic_mw
    }

    /// Power under the default library, mW.
    pub fn power_mw(&self) -> f64 {
        self.power_mw_with(&CellLibrary::nb03())
    }

    /// Sustained power efficiency in GSOPS/W.
    pub fn gsops_per_w(&self) -> f64 {
        self.sustained_gsops() / (self.power_mw() * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_sim::SimConfig;

    #[test]
    fn behavioral_register_is_a_fifo() {
        let mut sr = ShiftRegisterModel::new(4);
        let pattern = [true, false, true, true, false, true];
        let mut out = Vec::new();
        for &b in &pattern {
            sr.load(b);
            out.push(sr.clock());
        }
        // Flush the pipeline.
        for _ in 0..4 {
            out.push(sr.clock());
        }
        // A bit loaded before clock k emerges on clock k+3 (4 stages).
        assert_eq!(&out[3..9], &pattern);
        assert!(out[..3].iter().all(|&b| !b));
        assert!(!out[9]);
    }

    #[test]
    fn random_access_costs_a_rotation() {
        let sr = ShiftRegisterModel::new(16);
        assert_eq!(sr.random_access_cycles(15), 1); // head of the queue
        assert_eq!(sr.random_access_cycles(0), 16); // full rotation
    }

    #[test]
    fn cell_level_register_shifts_data() {
        let lib = CellLibrary::nb03();
        let mut n = Netlist::new();
        let ports = ShiftRegister::build(&mut n, "sr", 3).unwrap();
        n.add_input("din", ports.din.cell, ports.din.port).unwrap();
        n.add_input("clk", ports.clk.cell, ports.clk.port).unwrap();
        n.probe("dout", ports.dout.cell, ports.dout.port).unwrap();
        let mut sim = SimConfig::new().build(&n, &lib);
        // Load a 1, then clock three times: it must appear exactly once,
        // on the third clock.
        sim.inject("din", &[100.0]).unwrap();
        sim.inject("clk", &[500.0, 1000.0, 1500.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("dout").len(), 1);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
        // The 1 emerged after the third clock (plus propagation).
        assert!(sim.pulses("dout")[0] > 1500.0);
    }

    #[test]
    fn cell_level_register_streams_a_pattern() {
        let lib = CellLibrary::nb03();
        let mut n = Netlist::new();
        let ports = ShiftRegister::build(&mut n, "sr", 2).unwrap();
        n.add_input("din", ports.din.cell, ports.din.port).unwrap();
        n.add_input("clk", ports.clk.cell, ports.clk.port).unwrap();
        n.probe("dout", ports.dout.cell, ports.dout.port).unwrap();
        let mut sim = SimConfig::new().build(&n, &lib);
        // Pattern 1,1 loaded between clocks: both bits must emerge.
        sim.inject("din", &[100.0, 1100.0]).unwrap();
        sim.inject("clk", &[1000.0, 2000.0, 3000.0]).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.pulses("dout").len(), 2);
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
    }

    #[test]
    fn register_jj_count_scales() {
        let lib = CellLibrary::nb03();
        // n DFFs (6 JJ) + (n-1) SPLs (3 JJ).
        assert_eq!(ShiftRegister::jj_count(&lib, 1), 6);
        assert_eq!(ShiftRegister::jj_count(&lib, 8), 8 * 6 + 7 * 3);
    }

    /// The Section 3A claim: a synchronous design is ~80% wiring.
    #[test]
    fn synchronous_design_is_wiring_bound() {
        let r = SyncAccelerator::supernpu_like().resources();
        assert!(
            (r.wiring_fraction() - 0.80).abs() < 0.06,
            "wiring fraction {}",
            r.wiring_fraction()
        );
        // And it burns a JJ budget comparable to SUSHI's peak design.
        assert!(
            r.total_jj() > 50_000 && r.total_jj() < 150_000,
            "{}",
            r.total_jj()
        );
    }

    /// The Section 3B claim: shift-register memory holds the design to
    /// ~16% of peak (SuperNPU).
    #[test]
    fn memory_wall_limits_sustained_throughput() {
        let acc = SyncAccelerator::supernpu_like();
        let u = acc.sustained_utilization();
        assert!((u - 0.16).abs() < 0.05, "utilization {u}");
        assert!(acc.sustained_gsops() < acc.peak_gsops() / 4.0);
    }

    /// SUSHI's asynchronous design beats the synchronous baseline on both
    /// wiring share and sustained efficiency.
    #[test]
    fn sushi_beats_the_synchronous_baseline() {
        let sushi = crate::chip::ChipConfig::mesh(16).build();
        let sushi_res = sushi.resources();
        let sushi_perf = crate::PerfModel::new(&sushi);
        let sync = SyncAccelerator::supernpu_like();
        assert!(sushi_res.wiring_fraction() < sync.resources().wiring_fraction());
        assert!(sushi_perf.gsops() > 10.0 * sync.sustained_gsops());
        assert!(sushi_perf.gsops_per_w() > 5.0 * sync.gsops_per_w());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_register_panics() {
        let _ = ShiftRegisterModel::new(0);
    }
}
