//! The AttAcc data-partitioning scheme (paper §6.4).
//!
//! - **FC weights / Kᵀ matrices**: partitioned column-wise at the
//!   pseudo-channel and bank-group levels, row-wise at the bank level.
//! - **V matrices**: the transpose — row-wise at pseudo-channel /
//!   bank-group, column-wise at banks.
//! - **Attention heads**: each (request, head) unit is assigned to one
//!   Attn-PIM device.
//!
//! The planner's job in the simulator is to quantify *imbalance*: when a
//! dimension does not divide evenly, the slowest device/bank determines
//! kernel latency, so execution time scales by `ceil(work / units) /
//! (work / units)`.

use serde::{Deserialize, Serialize};

/// How a weight matrix spreads over devices and banks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct TilePlan {
    /// Devices sharing the matrix.
    pub devices: usize,
    /// Output rows handled by the busiest device.
    pub rows_per_device: u64,
    /// Weight elements held by the busiest bank within that device (the
    /// per-device tile splits two-dimensionally across banks, per §6.4:
    /// column-wise at pseudo-channel/bank-group level, row-wise at bank
    /// level).
    pub elems_per_bank: u64,
    /// Latency multiplier from device-level imbalance (≥ 1).
    pub device_imbalance: f64,
    /// Latency multiplier from bank-level imbalance (≥ 1).
    pub bank_imbalance: f64,
}

/// Plans the distribution of an `out_rows × in_cols` weight matrix over
/// `devices` dies with `banks_per_device` banks each. Rows split across
/// devices; each device's `rows × in_cols` tile then splits 2D across
/// its banks (the §6.4 pseudo-channel/bank-group column split and bank
/// row split), so bank-level granularity is in *elements*.
///
/// # Panics
///
/// Panics if any argument is zero.
#[track_caller]
pub(crate) fn plan_weight_partition(
    out_rows: u64,
    in_cols: u64,
    devices: usize,
    banks_per_device: usize,
) -> TilePlan {
    assert!(out_rows > 0 && in_cols > 0, "matrix must be non-empty");
    assert!(
        devices > 0 && banks_per_device > 0,
        "need hardware to plan on"
    );
    let per_device = out_rows.div_ceil(devices as u64);
    let tile_elems = per_device * in_cols;
    let per_bank = tile_elems.div_ceil(banks_per_device as u64);
    let ideal_device = out_rows as f64 / devices as f64;
    let ideal_bank = tile_elems as f64 / banks_per_device as f64;
    TilePlan {
        devices,
        rows_per_device: per_device,
        elems_per_bank: per_bank,
        device_imbalance: per_device as f64 / ideal_device,
        bank_imbalance: if ideal_bank > 0.0 {
            per_bank as f64 / ideal_bank
        } else {
            1.0
        },
    }
}

/// Assignment of `(request, head)` attention units over devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct HeadPlan {
    /// Total (request, head) units.
    pub units: u64,
    /// Units on the busiest device.
    pub units_per_device: u64,
    /// Latency multiplier versus a perfectly even spread (≥ 1).
    pub imbalance: f64,
}

/// Plans attention-head placement: every (request, head) pair becomes one
/// unit, spread round-robin over `devices`.
///
/// # Panics
///
/// Panics if any argument is zero.
#[track_caller]
pub(crate) fn plan_attention_heads(requests: u64, heads: u64, devices: usize) -> HeadPlan {
    assert!(requests > 0 && heads > 0, "attention needs work");
    assert!(devices > 0, "attention needs devices");
    let units = requests * heads;
    let per_device = units.div_ceil(devices as u64);
    let ideal = units as f64 / devices as f64;
    HeadPlan {
        units,
        units_per_device: per_device,
        imbalance: per_device as f64 / ideal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_split_has_no_imbalance() {
        let plan = plan_weight_partition(12288, 12288, 32, 96);
        assert_eq!(plan.rows_per_device, 384);
        assert_eq!(plan.elems_per_bank, 384 * 12288 / 96);
        assert!((plan.device_imbalance * plan.bank_imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uneven_split_penalizes_latency() {
        // 100 rows over 3 devices: 34 on the busiest.
        let plan = plan_weight_partition(100, 64, 3, 10);
        assert_eq!(plan.rows_per_device, 34);
        assert!(plan.device_imbalance > 1.0);
        assert!(plan.bank_imbalance >= 1.0);
    }

    #[test]
    fn bank_imbalance_negligible_for_real_kernels() {
        // A GPT-3 66B FFN-down kernel over the paper's pools: 2D bank
        // tiling keeps bank imbalance within rounding.
        let plan = plan_weight_partition(9216, 4 * 9216, 30, 128);
        assert!(
            plan.bank_imbalance < 1.001,
            "bank imbalance {}",
            plan.bank_imbalance
        );
    }

    #[test]
    fn head_plan_even_and_uneven() {
        let even = plan_attention_heads(4, 60, 60);
        assert_eq!(even.units_per_device, 4);
        assert!((even.imbalance - 1.0).abs() < 1e-12);

        let uneven = plan_attention_heads(1, 7, 60);
        assert_eq!(uneven.units_per_device, 1);
        // 7 units on 60 devices: busiest has 1, ideal is 7/60.
        assert!(uneven.imbalance > 8.0);
    }

    #[test]
    #[should_panic(expected = "hardware")]
    fn zero_devices_rejected() {
        plan_weight_partition(10, 10, 0, 10);
    }

    proptest! {
        #[test]
        fn imbalance_at_least_one(rows in 1u64..100_000, cols in 1u64..8192, devices in 1usize..64, banks in 1usize..256) {
            let plan = plan_weight_partition(rows, cols, devices, banks);
            prop_assert!(plan.device_imbalance >= 1.0 - 1e-12);
            prop_assert!(plan.bank_imbalance >= 1.0 - 1e-12);
        }

        #[test]
        fn busiest_device_covers_all_rows(rows in 1u64..100_000, devices in 1usize..64) {
            let plan = plan_weight_partition(rows, 128, devices, 8);
            prop_assert!(plan.rows_per_device * devices as u64 >= rows);
        }

        #[test]
        fn head_units_covered(requests in 1u64..128, heads in 1u64..128, devices in 1usize..64) {
            let plan = plan_attention_heads(requests, heads, devices);
            prop_assert!(plan.units_per_device * devices as u64 >= plan.units);
            prop_assert!(plan.imbalance >= 1.0 - 1e-12);
        }
    }
}
