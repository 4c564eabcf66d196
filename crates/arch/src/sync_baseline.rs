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
//! This module models that baseline analytically: [`SyncAccelerator`]
//! (SuperNPU-like), whose resource split and sustained throughput
//! reproduce the motivation numbers. `experiments sync` compares it
//! against SUSHI's asynchronous design.

use crate::resources::{Category, ResourceReport};
use sushi_cells::{CellKind, CellLibrary};

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
}
