//! Die-area model and the paper's Eq. (3) bank-count solver.
//!
//! Section 6.1 of the paper derives how many banks fit on a PIM-enabled
//! HBM die once FPUs claim their share of silicon:
//!
//! ```text
//! m (n × A_FPU + A_bank) ≤ A_max          (Eq. 3)
//! ```
//!
//! with `A_FPU = 0.1025 mm²` (CACTI-3DD, 22 nm), `A_bank = 0.83 mm²` and
//! `A_max = 121 mm²`. For the 4P1B FC-PIM configuration this caps the die
//! at 97 banks; the paper rounds down to 96 (three bank groups per
//! pseudo-channel), giving the 12 GB FC-PIM device.

use crate::config::PimConfig;
use papi_types::Area;
use serde::{Deserialize, Serialize};

/// Area constants of Eq. (3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaParams {
    /// Area of one bank, including its slice of peripheral circuits.
    pub bank: Area,
    /// Area of one FPU.
    pub fpu: Area,
    /// Maximum die area available.
    pub die_limit: Area,
    /// Bank-count granularity: banks are added/removed a bank group at a
    /// time across all pseudo-channels (32 banks for the 4-channel ×
    /// 4-pseudo-channel × 2-banks-per-group HBM3 floorplan).
    pub bank_granularity: usize,
    /// The unmodified die's bank count (and the cap for PIM dies).
    pub baseline_banks: usize,
}

impl AreaParams {
    /// The paper's constants: 0.83 mm² per bank, 0.1025 mm² per FPU,
    /// 121 mm² die, 32-bank granularity, 128-bank baseline.
    pub fn paper() -> Self {
        Self {
            bank: Area::from_mm2(0.83),
            fpu: Area::from_mm2(0.1025),
            die_limit: Area::from_mm2(121.0),
            bank_granularity: 32,
            baseline_banks: 128,
        }
    }

    /// The raw Eq. (3) bound: the largest `m` with
    /// `m (n × A_FPU + A_bank) ≤ A_max`.
    pub(crate) fn max_banks_unrounded(&self, config: PimConfig) -> usize {
        let per_bank = config.fpus_per_bank() * self.fpu.as_mm2() + self.bank.as_mm2();
        (self.die_limit.as_mm2() / per_bank).floor() as usize
    }

    /// The implementable bank count: Eq. (3) rounded down to the bank
    /// granularity and capped at the baseline die's bank count.
    ///
    /// Reproduces the paper's §6.1: 4P1B → 96 banks.
    pub fn bank_count(&self, config: PimConfig) -> usize {
        let max = self.max_banks_unrounded(config).min(self.baseline_banks);
        max - max % self.bank_granularity
    }
}

impl Default for AreaParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eq4_reproduces_96_banks_for_4p1b() {
        let a = AreaParams::paper();
        // Eq. (4): m(0.1025 × 4 + 0.83) ≤ 121  ⇒  m ≤ 97.
        assert_eq!(a.max_banks_unrounded(PimConfig::FC_PIM_4P1B), 97);
        assert_eq!(a.bank_count(PimConfig::FC_PIM_4P1B), 96);
    }

    #[test]
    fn single_fpu_configs_keep_full_die() {
        let a = AreaParams::paper();
        // 1P1B: m ≤ 121 / 0.9325 = 129.7 → capped at the 128-bank baseline.
        assert_eq!(a.bank_count(PimConfig::ATTACC_1P1B), 128);
        // 1P2B needs even less area per bank.
        assert_eq!(a.bank_count(PimConfig::ATTN_PIM_1P2B), 128);
    }

    #[test]
    fn two_fpu_config_loses_a_bank_group() {
        let a = AreaParams::paper();
        // 2P1B: m ≤ 121 / 1.035 = 116.9 → 96 after 32-bank rounding.
        assert_eq!(a.max_banks_unrounded(PimConfig::PIM_2P1B), 116);
        assert_eq!(a.bank_count(PimConfig::PIM_2P1B), 96);
    }

    #[test]
    fn chosen_counts_always_fit() {
        let a = AreaParams::paper();
        for cfg in [
            PimConfig::FC_PIM_4P1B,
            PimConfig::PIM_2P1B,
            PimConfig::ATTACC_1P1B,
            PimConfig::ATTN_PIM_1P2B,
        ] {
            // Eq. (3)'s die area of `banks` banks under `cfg`.
            let fits = |banks: usize| {
                let per_bank = cfg.fpus_per_bank() * a.fpu.as_mm2() + a.bank.as_mm2();
                per_bank * banks as f64 <= a.die_limit.value() + 1e-9
            };
            let banks = a.bank_count(cfg);
            assert!(fits(banks), "{cfg} with {banks} banks overflows");
            assert!(
                !fits(a.max_banks_unrounded(cfg) + 1),
                "{cfg} bound is not tight"
            );
        }
    }

    proptest! {
        #[test]
        fn more_fpus_never_more_banks(x in 1u32..16) {
            let a = AreaParams::paper();
            let fewer = a.bank_count(PimConfig::new(x, 1));
            let more = a.bank_count(PimConfig::new(x + 1, 1));
            prop_assert!(more <= fewer);
        }

        #[test]
        fn bank_count_respects_granularity(x in 1u32..16, y in 1u32..4) {
            let a = AreaParams::paper();
            let banks = a.bank_count(PimConfig::new(x, y));
            prop_assert_eq!(banks % a.bank_granularity, 0);
            prop_assert!(banks <= a.baseline_banks);
        }
    }
}
