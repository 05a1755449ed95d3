//! Power draw versus data-reuse level — the model behind Fig. 7(c).
//!
//! Power is energy rate: the DRAM side draws `fetch_bandwidth ×
//! pJ/byte`, the FPU side draws `mac_rate × (transfer + compute) pJ`,
//! plus the stack's background power. Because the number of parallel
//! weight streams per bank falls as data reuse rises (see
//! `PimDevice::streams_per_bank`), power falls steeply with reuse:
//! 4P1B drops from ~390 W at reuse 1 to under the 116 W HBM3 budget at
//! reuse ≥ 4, which is exactly the paper's argument for why batching and
//! speculative decoding *enable* compute-dense PIM.

use crate::device::PimDevice;
use papi_types::{DataType, Power};
use serde::{Deserialize, Serialize};

/// The JEDEC IDD7-style power budget of one HBM3 cube.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBudget {
    /// Maximum sustained power for one stack.
    pub limit: Power,
}

impl PowerBudget {
    /// The paper's 116 W budget for an 8-high 16 GB HBM3 cube.
    pub fn hbm3_cube() -> Self {
        Self {
            limit: Power::from_watts(116.0),
        }
    }

    /// Whether `power` fits within the budget.
    pub fn admits(&self, power: Power) -> bool {
        power.value() <= self.limit.value()
    }
}

impl Default for PowerBudget {
    fn default() -> Self {
        Self::hbm3_cube()
    }
}

/// Sustained power draw of `device` executing a streaming kernel at
/// data-reuse level `reuse` with full FPU-side utilization.
pub fn power_draw(device: &PimDevice, reuse: u64, dtype: DataType) -> Power {
    let fetch = device.weight_fetch_bandwidth(reuse, dtype);
    let macs_per_sec = device.mac_rate(reuse, dtype);
    let dram = fetch.value() * device.dram_access_pj_per_byte() * 1e-12;
    let fpu = macs_per_sec * device.energy_model.non_dram_pj_per_mac() * 1e-12;
    Power::new(dram + fpu) + device.hbm.energy.background
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_types::DataType;

    fn fc_pim_with_reuse(reuse: u64) -> Power {
        power_draw(&PimDevice::fc_pim(), reuse, DataType::Fp16)
    }

    /// Fig. 7(c): 4P1B with no reuse blows far past the budget.
    #[test]
    fn fc_pim_no_reuse_is_far_over_budget() {
        let p = fc_pim_with_reuse(1);
        assert!(
            p.as_watts() > 300.0 && p.as_watts() < 500.0,
            "4P1B @ reuse 1 = {p}, paper shows ~400 W"
        );
    }

    /// Fig. 7(c): 4P1B meets the 116 W budget exactly from reuse 4 on.
    #[test]
    fn fc_pim_meets_budget_at_reuse_4() {
        let budget = PowerBudget::hbm3_cube();
        assert!(!budget.admits(fc_pim_with_reuse(2)));
        assert!(budget.admits(fc_pim_with_reuse(4)));
        assert!(budget.admits(fc_pim_with_reuse(64)));
    }

    /// §6.2: 1P1B without reuse slightly exceeds the budget — the reason
    /// Attn-PIM is 1P2B.
    #[test]
    fn attacc_1p1b_no_reuse_slightly_over_budget() {
        let p = power_draw(&PimDevice::attacc(), 1, DataType::Fp16);
        let budget = PowerBudget::hbm3_cube();
        assert!(
            !budget.admits(p),
            "1P1B @ reuse 1 = {p} should exceed 116 W"
        );
        assert!(p.as_watts() < 150.0, "but only slightly: {p}");
    }

    /// §6.2: 1P2B at reuse 1 (attention with speculation length 1) fits.
    #[test]
    fn attn_pim_1p2b_no_reuse_fits_budget() {
        let p = power_draw(&PimDevice::attn_pim(), 1, DataType::Fp16);
        assert!(
            PowerBudget::hbm3_cube().admits(p),
            "1P2B @ reuse 1 = {p} should fit 116 W"
        );
    }

    /// Power is monotonically non-increasing in reuse for every config.
    #[test]
    fn power_monotone_in_reuse() {
        for device in [
            PimDevice::fc_pim(),
            PimDevice::attacc(),
            PimDevice::attn_pim(),
        ] {
            let mut last = f64::INFINITY;
            for reuse in [1u64, 2, 4, 8, 16, 32, 64] {
                let p = power_draw(&device, reuse, DataType::Fp16).as_watts();
                assert!(
                    p <= last + 1e-9,
                    "{} power rose from {last} to {p} at reuse {reuse}",
                    device.name
                );
                last = p;
            }
        }
    }

    /// Higher-FPU configs draw more power at the same (low) reuse.
    #[test]
    fn more_fpus_more_power_at_low_reuse() {
        let p1 = power_draw(&PimDevice::attacc(), 1, DataType::Fp16);
        let p4 = power_draw(&PimDevice::fc_pim(), 1, DataType::Fp16);
        assert!(p4.value() > 2.0 * p1.value());
    }
}
