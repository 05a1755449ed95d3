//! DRAM organization: the channel → pseudo-channel → bank-group → bank
//! hierarchy and row/column geometry.

use papi_types::Bytes;
use serde::{Deserialize, Serialize};

/// Geometry of one HBM stack.
///
/// The paper's devices map onto this as:
///
/// - standard 16 GB PIM device (AttAcc 1P1B, HBM-PIM 1P2B, Attn-PIM):
///   4 channels × 4 pseudo-channels × 4 bank groups × 2 banks = 128 banks;
/// - FC-PIM device (Eq. (4) area constraint): 3 bank groups per
///   pseudo-channel → 96 banks and 12 GB.
///
/// # Example
///
/// ```
/// use papi_dram::Topology;
///
/// let t = Topology::hbm3_16gb();
/// assert_eq!(t.total_banks(), 128);
/// assert_eq!(t.banks_per_pseudo_channel(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Independent channels per stack.
    pub channels: usize,
    /// Pseudo-channels per channel.
    pub pseudo_channels_per_channel: usize,
    /// Bank groups per pseudo-channel.
    pub bank_groups_per_pseudo_channel: usize,
    /// Banks per bank group.
    pub banks_per_bank_group: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Bytes per row (row-buffer size).
    pub row_bytes: u64,
    /// Bytes per column access (prefetch × DQ width).
    pub column_bytes: u64,
}

impl Topology {
    /// The standard 16 GB HBM3 stack with 128 banks used for AttAcc-style
    /// (1P1B), HBM-PIM-style (1P2B) and Attn-PIM devices.
    pub fn hbm3_16gb() -> Self {
        Self {
            channels: 4,
            pseudo_channels_per_channel: 4,
            bank_groups_per_pseudo_channel: 4,
            banks_per_bank_group: 2,
            rows_per_bank: 65_536, // 16 GiB / 128 banks / 2 KiB rows
            row_bytes: 2048,
            column_bytes: 32,
        }
    }

    /// The 12 GB FC-PIM die of the paper's §6.1: the Eq. (4) area
    /// constraint caps a 4P1B die at 96 banks (3 bank groups), trading a
    /// quarter of the capacity for FPU area.
    pub fn fc_pim_12gb() -> Self {
        Self {
            bank_groups_per_pseudo_channel: 3,
            ..Self::hbm3_16gb()
        }
    }

    /// Total number of banks in the stack.
    pub fn total_banks(&self) -> usize {
        self.channels
            * self.pseudo_channels_per_channel
            * self.bank_groups_per_pseudo_channel
            * self.banks_per_bank_group
    }

    /// Banks visible to a single pseudo-channel controller.
    pub fn banks_per_pseudo_channel(&self) -> usize {
        self.bank_groups_per_pseudo_channel * self.banks_per_bank_group
    }

    /// Column accesses needed to stream one full row.
    pub(crate) fn columns_per_row(&self) -> u64 {
        self.row_bytes / self.column_bytes
    }

    /// Total stack capacity.
    pub(crate) fn capacity(&self) -> Bytes {
        Bytes::from_u64(self.total_banks() as u64 * self.rows_per_bank * self.row_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_device_geometry() {
        let t = Topology::hbm3_16gb();
        assert_eq!(t.total_banks(), 128);
        assert_eq!(t.banks_per_pseudo_channel(), 8);
        assert_eq!(t.columns_per_row(), 64);
        assert!((t.capacity().as_gib() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn fc_pim_device_geometry_matches_eq4() {
        let t = Topology::fc_pim_12gb();
        // Eq. (4): m(4 × 0.1025 + 0.83) <= 121  =>  m <= 97, paper picks 96.
        assert_eq!(t.total_banks(), 96);
        assert!((t.capacity().as_gib() - 12.0).abs() < 1e-9);
        assert_eq!(t.bank_groups_per_pseudo_channel, 3);
    }
}
