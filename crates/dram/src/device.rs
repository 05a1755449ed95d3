//! Assembled HBM device presets.

use crate::energy::EnergyParams;
use crate::organization::Topology;
use crate::timing::TimingParams;
use papi_types::{Bandwidth, Bytes};
use serde::{Deserialize, Serialize};

/// One HBM3 stack: geometry + timing + energy parameters.
///
/// # Example
///
/// ```
/// use papi_dram::HbmDevice;
///
/// let std16 = HbmDevice::hbm3_16gb();
/// assert!((std16.capacity().as_gib() - 16.0).abs() < 1e-9);
/// let fc = HbmDevice::fc_pim_12gb();
/// assert!((fc.capacity().as_gib() - 12.0).abs() < 1e-9);
/// assert!(fc.topology.total_banks() < std16.topology.total_banks());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HbmDevice {
    /// Human-readable device name.
    pub name: String,
    /// Bank hierarchy and row/column geometry.
    pub topology: Topology,
    /// Timing constraints.
    pub timing: TimingParams,
    /// Energy parameters.
    pub energy: EnergyParams,
}

impl HbmDevice {
    /// The standard 16 GB / 128-bank HBM3 stack used by the AttAcc (1P1B),
    /// HBM-PIM (1P2B) and Attn-PIM devices in the paper.
    pub fn hbm3_16gb() -> Self {
        Self {
            name: "HBM3-16GB".to_owned(),
            topology: Topology::hbm3_16gb(),
            timing: TimingParams::hbm3(),
            energy: EnergyParams::hbm3(),
        }
    }

    /// The 12 GB / 96-bank FC-PIM die (paper §6.1, Eq. (4)): a quarter of
    /// the banks is traded for the area of 4 FPUs per bank.
    pub fn fc_pim_12gb() -> Self {
        Self {
            name: "FC-PIM-12GB".to_owned(),
            topology: Topology::fc_pim_12gb(),
            timing: TimingParams::hbm3(),
            energy: EnergyParams::hbm3(),
        }
    }

    /// Total capacity of the stack.
    pub fn capacity(&self) -> Bytes {
        self.topology.capacity()
    }

    /// Theoretical per-bank streaming bandwidth (one column access every
    /// `t_ccd`, ignoring row turnaround): ≈ 21.3 GB/s for the HBM3 preset,
    /// matching the paper's per-bank figure.
    pub fn peak_bank_bandwidth(&self) -> Bandwidth {
        let bytes_per_sec = self.topology.column_bytes as f64
            / (self.timing.t_ck.as_secs() * self.timing.t_ccd as f64);
        Bandwidth::new(bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_bank_bandwidth_matches_paper() {
        let d = HbmDevice::hbm3_16gb();
        // 32 B / 1.5 ns = 21.33 GB/s — the paper's ~20.8 GB/s per bank.
        assert!((d.peak_bank_bandwidth().as_gb_per_sec() - 21.33).abs() < 0.05);
    }

    #[test]
    fn fc_pim_loses_quarter_of_banks_and_capacity() {
        let std16 = HbmDevice::hbm3_16gb();
        let fc = HbmDevice::fc_pim_12gb();
        assert_eq!(
            fc.topology.total_banks() * 4,
            std16.topology.total_banks() * 3
        );
        assert!((fc.capacity().value() * 4.0 - std16.capacity().value() * 3.0).abs() < 1.0);
    }
}
