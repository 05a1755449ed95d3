//! `xPyB` PIM configurations: *x* FPUs for every *y* banks.

use serde::{Deserialize, Serialize};

/// How many FPUs serve how many banks (the paper's `xPyB` notation).
///
/// # Example
///
/// ```
/// use papi_pim::PimConfig;
///
/// assert_eq!(PimConfig::new(4, 1).label(), "4P1B");
/// assert_eq!(PimConfig::PIM_2P1B.label(), "2P1B");
/// assert_eq!(PimConfig::new(1, 2).banks(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PimConfig {
    fpus: u32,
    banks: u32,
}

impl PimConfig {
    /// PAPI's FC-PIM: 4 FPUs per bank (compute-dense).
    pub(crate) const FC_PIM_4P1B: Self = Self { fpus: 4, banks: 1 };
    /// Intermediate configuration evaluated in Fig. 7(c).
    pub const PIM_2P1B: Self = Self { fpus: 2, banks: 1 };
    /// AttAcc: 1 FPU per bank.
    pub(crate) const ATTACC_1P1B: Self = Self { fpus: 1, banks: 1 };
    /// Samsung HBM-PIM and PAPI's Attn-PIM: 1 FPU per 2 banks.
    pub(crate) const ATTN_PIM_1P2B: Self = Self { fpus: 1, banks: 2 };

    /// Creates an arbitrary `xPyB` configuration.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[track_caller]
    pub fn new(fpus: u32, banks: u32) -> Self {
        assert!(fpus > 0 && banks > 0, "xPyB counts must be positive");
        Self { fpus, banks }
    }

    /// Banks in the ratio (the `y` of `xPyB`).
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// FPUs per bank as a ratio (0.5 for 1P2B, 4.0 for 4P1B).
    pub(crate) fn fpus_per_bank(&self) -> f64 {
        self.fpus as f64 / self.banks as f64
    }

    /// Banks served by one FPU (2.0 for 1P2B, 0.25 for 4P1B).
    pub(crate) fn banks_per_fpu(&self) -> f64 {
        self.banks as f64 / self.fpus as f64
    }

    /// Total FPUs on a die with `total_banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `total_banks` is not a multiple of the bank group size
    /// `y` (the configuration could not tile the die).
    #[track_caller]
    pub(crate) fn total_fpus(&self, total_banks: usize) -> usize {
        assert!(
            total_banks.is_multiple_of(self.banks as usize),
            "{total_banks} banks do not tile under {self}"
        );
        total_banks / self.banks as usize * self.fpus as usize
    }

    /// The paper's label, e.g. `"4P1B"`.
    pub fn label(&self) -> String {
        format!("{}P{}B", self.fpus, self.banks)
    }
}

impl core::fmt::Display for PimConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}P{}B", self.fpus, self.banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PimConfig::FC_PIM_4P1B.label(), "4P1B");
        assert_eq!(PimConfig::ATTACC_1P1B.label(), "1P1B");
        assert_eq!(PimConfig::ATTN_PIM_1P2B.label(), "1P2B");
        assert_eq!(PimConfig::PIM_2P1B.to_string(), "2P1B");
    }

    #[test]
    fn fpu_counts_on_dies() {
        assert_eq!(PimConfig::FC_PIM_4P1B.total_fpus(96), 384);
        assert_eq!(PimConfig::ATTACC_1P1B.total_fpus(128), 128);
        assert_eq!(PimConfig::ATTN_PIM_1P2B.total_fpus(128), 64);
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn odd_banks_do_not_tile_1p2b() {
        PimConfig::ATTN_PIM_1P2B.total_fpus(97);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fpus_rejected() {
        PimConfig::new(0, 1);
    }

    #[test]
    fn ratios_are_inverses() {
        for cfg in [
            PimConfig::FC_PIM_4P1B,
            PimConfig::PIM_2P1B,
            PimConfig::ATTACC_1P1B,
            PimConfig::ATTN_PIM_1P2B,
        ] {
            assert!((cfg.fpus_per_bank() * cfg.banks_per_fpu() - 1.0).abs() < 1e-12);
        }
    }
}
