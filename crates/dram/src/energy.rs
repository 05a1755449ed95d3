//! DRAM energy accounting.
//!
//! The parameters are calibrated so that the *system-level* behaviours the
//! PAPI paper reports emerge from the model:
//!
//! - streaming weights with no data reuse makes DRAM access ≈ 96.7 % of
//!   PIM execution energy (Fig. 7(a)), falling to ≈ 33 % at a data-reuse
//!   level of 64 (Fig. 7(b)) — the transfer/compute side of that split
//!   lives in `papi-pim`;
//! - a 1P1B die streaming with no reuse lands slightly above the 116 W
//!   HBM3 power budget, while 4P1B with reuse ≥ 4 fits inside it
//!   (Fig. 7(c)).

use papi_types::{Energy, Power, Time};
use serde::{Deserialize, Serialize};

/// Per-command and background energy parameters for one HBM stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Energy of one ACT/PRE pair (whole-row activation), in picojoules.
    pub activate_pj: f64,
    /// Array + periphery energy per byte of column access (read), in pJ.
    pub read_pj_per_byte: f64,
    /// Array + periphery energy per byte of column access (write), in pJ.
    pub write_pj_per_byte: f64,
    /// Additional I/O energy per byte driven off-die (TSV + PHY), in pJ.
    /// Near-bank PIM consumption does not pay this.
    pub io_pj_per_byte: f64,
    /// Energy of refreshing one bank once, in picojoules.
    pub refresh_pj_per_bank: f64,
    /// Background (standby) power of the whole stack.
    pub background: Power,
}

impl EnergyParams {
    /// HBM3 preset calibrated to the PAPI paper (see module docs).
    pub fn hbm3() -> Self {
        Self {
            activate_pj: 1200.0,
            read_pj_per_byte: 61.56, // ≈7.7 pJ/bit; +row activation ≈ 7.77 pJ/bit
            write_pj_per_byte: 65.0,
            io_pj_per_byte: 24.0, // ≈3 pJ/bit off-die
            refresh_pj_per_bank: 2000.0,
            background: Power::from_watts(4.0),
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::hbm3()
    }
}

/// Raw event counters accumulated by a [`Controller`](crate::Controller).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyCounter {
    /// Row activations (ACT/PRE pairs).
    pub activations: u64,
    /// Bytes read by column accesses.
    pub read_bytes: u64,
    /// Bytes written by column accesses.
    pub write_bytes: u64,
    /// Bytes that additionally crossed the off-die interface.
    pub io_bytes: u64,
    /// Per-bank refresh operations.
    pub bank_refreshes: u64,
}

impl EnergyCounter {
    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.activations += other.activations;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.io_bytes += other.io_bytes;
        self.bank_refreshes += other.bank_refreshes;
    }

    /// Converts raw counters into an energy breakdown for a run that
    /// lasted `elapsed` wall-clock time.
    pub fn breakdown(&self, params: &EnergyParams, elapsed: Time) -> DramEnergyBreakdown {
        DramEnergyBreakdown {
            activation: Energy::from_picojoules(self.activations as f64 * params.activate_pj),
            column: Energy::from_picojoules(
                self.read_bytes as f64 * params.read_pj_per_byte
                    + self.write_bytes as f64 * params.write_pj_per_byte,
            ),
            io: Energy::from_picojoules(self.io_bytes as f64 * params.io_pj_per_byte),
            refresh: Energy::from_picojoules(
                self.bank_refreshes as f64 * params.refresh_pj_per_bank,
            ),
            background: params.background * elapsed,
        }
    }
}

/// Energy consumed by a DRAM device over a simulated interval, split by
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramEnergyBreakdown {
    /// Row activate/precharge energy.
    pub activation: Energy,
    /// Column (array + periphery) access energy.
    pub column: Energy,
    /// Off-die I/O energy (zero for near-bank PIM consumption).
    pub io: Energy,
    /// Refresh energy.
    pub refresh: Energy,
    /// Standby/background energy.
    pub background: Energy,
}

impl DramEnergyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Energy {
        self.activation + self.column + self.io + self.refresh + self.background
    }

    /// The "DRAM access" bucket of the paper's Fig. 7: activation +
    /// column energy (what it costs to get weight bits out of the arrays).
    pub fn dram_access(&self) -> Energy {
        self.activation + self.column
    }

    /// Average power over a run of length `elapsed`.
    pub fn average_power(&self, elapsed: Time) -> Power {
        self.total() / elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_access_energy_is_about_7_77_pj_per_bit() {
        // One 2 KiB row fully streamed: 1 activation + 2048 B of reads.
        let p = EnergyParams::hbm3();
        let c = EnergyCounter {
            activations: 1,
            read_bytes: 2048,
            ..Default::default()
        };
        let b = c.breakdown(&p, Time::from_nanos(1.0));
        let per_bit = b.dram_access().as_picojoules() / (2048.0 * 8.0);
        assert!(
            (per_bit - 7.77).abs() < 0.05,
            "got {per_bit} pJ/bit, want ~7.77"
        );
    }

    #[test]
    fn io_energy_only_counts_io_bytes() {
        let p = EnergyParams::hbm3();
        let c = EnergyCounter {
            read_bytes: 1000,
            io_bytes: 0,
            ..Default::default()
        };
        assert_eq!(c.breakdown(&p, Time::ZERO).io, Energy::ZERO);
        let c2 = EnergyCounter {
            read_bytes: 1000,
            io_bytes: 1000,
            ..Default::default()
        };
        let b = c2.breakdown(&p, Time::ZERO);
        assert!((b.io.as_picojoules() - 24_000.0).abs() < 1e-6);
    }

    #[test]
    fn background_scales_with_time() {
        let p = EnergyParams::hbm3();
        let c = EnergyCounter::default();
        let b1 = c.breakdown(&p, Time::from_millis(1.0));
        let b2 = c.breakdown(&p, Time::from_millis(2.0));
        assert!((b2.background.value() - 2.0 * b1.background.value()).abs() < 1e-15);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = EnergyCounter {
            activations: 1,
            read_bytes: 10,
            write_bytes: 5,
            io_bytes: 2,
            bank_refreshes: 3,
        };
        a.merge(&a.clone());
        assert_eq!(a.activations, 2);
        assert_eq!(a.read_bytes, 20);
        assert_eq!(a.write_bytes, 10);
        assert_eq!(a.io_bytes, 4);
        assert_eq!(a.bank_refreshes, 6);
    }

    #[test]
    fn average_power_is_total_over_time() {
        let p = EnergyParams::hbm3();
        let c = EnergyCounter {
            activations: 1000,
            read_bytes: 1 << 20,
            ..Default::default()
        };
        let t = Time::from_micros(10.0);
        let b = c.breakdown(&p, t);
        let pw = b.average_power(t);
        assert!((pw.value() - b.total().value() / t.value()).abs() < 1e-9);
    }
}
