//! The PIM energy split of the paper's Fig. 7(a)/(b): **DRAM access** /
//! **Transfer** / **Computation**.
//!
//! Calibration targets (paper §6.1):
//!
//! - with no data reuse, DRAM access is **96.7 %** of PIM energy;
//! - at data-reuse 64, DRAM access falls to ≈ **33 %**.
//!
//! With the DRAM side fixed at ≈ 62.15 pJ/byte (7.77 pJ/bit, from
//! `papi-dram`'s HBM3 energy parameters) the split pins transfer +
//! compute at ≈ 4.24 pJ/MAC, which we apportion 2.6 pJ to operand
//! transfer (buffer die → TSV → bank-group controller → FPU) and 1.64 pJ
//! to the FP16 MAC itself.

use papi_types::{Bytes, Energy};
use serde::{Deserialize, Serialize};

/// Transfer/compute energy constants for near-bank execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PimEnergyModel {
    /// Energy to move one MAC's operands through the on-die network
    /// (buffer die, TSV, controllers), in picojoules.
    pub transfer_pj_per_mac: f64,
    /// Energy of one FP16 multiply-accumulate, in picojoules.
    pub compute_pj_per_mac: f64,
}

impl PimEnergyModel {
    /// The calibration described in the module docs.
    pub fn paper() -> Self {
        Self {
            transfer_pj_per_mac: 2.6,
            compute_pj_per_mac: 1.64,
        }
    }

    /// Transfer + compute energy per MAC.
    pub fn non_dram_pj_per_mac(&self) -> f64 {
        self.transfer_pj_per_mac + self.compute_pj_per_mac
    }

    /// Builds the three-way energy breakdown for a kernel that fetched
    /// `fetch_bytes` of weights at `dram_pj_per_byte` and executed `macs`
    /// multiply-accumulates.
    #[inline]
    pub fn breakdown(
        &self,
        fetch_bytes: Bytes,
        dram_pj_per_byte: f64,
        macs: f64,
    ) -> PimEnergyBreakdown {
        PimEnergyBreakdown {
            dram_access: Energy::from_picojoules(fetch_bytes.value() * dram_pj_per_byte),
            transfer: Energy::from_picojoules(macs * self.transfer_pj_per_mac),
            compute: Energy::from_picojoules(macs * self.compute_pj_per_mac),
        }
    }
}

impl Default for PimEnergyModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// PIM execution energy split by source (Fig. 7(a)/(b)).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PimEnergyBreakdown {
    /// Activating/precharging rows and reading columns.
    pub dram_access: Energy,
    /// Moving operands through the on-die network.
    pub transfer: Energy,
    /// The FPU MACs themselves.
    pub compute: Energy,
}

impl PimEnergyBreakdown {
    /// Total energy.
    #[inline]
    pub fn total(&self) -> Energy {
        self.dram_access + self.transfer + self.compute
    }

    /// Fractions `(dram_access, transfer, compute)` of the total, for
    /// regenerating Fig. 7(a)/(b). Returns zeros for an empty breakdown.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total().value();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.dram_access.value() / total,
            self.transfer.value() / total,
            self.compute.value() / total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRAM_PJ_PER_BYTE: f64 = 62.15;

    /// Fig. 7(a): no data reuse → DRAM access ≈ 96.7 % of energy.
    #[test]
    fn fig7a_no_reuse_dram_share() {
        let m = PimEnergyModel::paper();
        let macs = 1e9;
        let fetch = Bytes::new(macs * 2.0); // every FP16 weight fetched once
        let b = m.breakdown(fetch, DRAM_PJ_PER_BYTE, macs);
        let (dram, transfer, compute) = b.fractions();
        assert!((dram - 0.967).abs() < 0.005, "dram share {dram}");
        assert!(transfer > compute, "transfer should dominate compute");
    }

    /// Fig. 7(b): data reuse 64 → DRAM access ≈ 33 % of energy.
    #[test]
    fn fig7b_reuse64_dram_share() {
        let m = PimEnergyModel::paper();
        let macs = 64e9;
        let fetch = Bytes::new(1e9 * 2.0); // weights fetched once, used 64×
        let b = m.breakdown(fetch, DRAM_PJ_PER_BYTE, macs);
        let (dram, _, _) = b.fractions();
        assert!(
            (dram - 0.331).abs() < 0.03,
            "dram share {dram}, paper reports 33.1 %"
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = PimEnergyModel::paper();
        let b = m.breakdown(Bytes::new(1e6), DRAM_PJ_PER_BYTE, 3e6);
        let (a, t, c) = b.fractions();
        assert!((a + t + c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        let b = PimEnergyBreakdown::default();
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0));
        assert_eq!(b.total(), Energy::ZERO);
    }
}
