//! Effective-bandwidth derivation.
//!
//! The analytical PIM kernel model in `papi-pim` needs *sustained*
//! bandwidths, not datasheet peaks: row activation, precharge, refresh and
//! the activation window all eat into the 21.3 GB/s a bank can
//! theoretically stream. Rather than hard-coding an efficiency factor,
//! this module runs short micro-simulations on the cycle-level
//! [`Controller`] and measures what actually comes out — so the
//! end-to-end PAPI experiments are grounded in the DRAM timing model.
//!
//! # Cost
//!
//! A derivation queues its whole access pattern, then drains it cycle by
//! cycle. The drain is linear in the requests queued (see
//! [`crate::controller`]), so a derivation costs O(requests + cycles ·
//! banks). `papi-pim`'s `PimDevice::new` runs
//! `pim_streaming_bandwidth(device, 8, 32)` once per device: 8 × 32 × 64
//! = 16,384 reads over 4.47 µs of simulated time. In a release build on
//! a 2-vCPU x86-64 VM that takes 0.6–1.0 ms of host time.

use crate::controller::Controller;
use crate::device::HbmDevice;
use papi_types::{Bandwidth, Time};
use serde::{Deserialize, Serialize};

/// Result of a bandwidth micro-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedBandwidth {
    /// Sustained bandwidth of a single bank.
    pub per_bank: Bandwidth,
    /// Sustained bandwidth of the simulated controller (all its banks).
    pub controller_aggregate: Bandwidth,
    /// Extrapolated sustained bandwidth of the whole device (all banks).
    pub device_aggregate: Bandwidth,
    /// Fraction of the theoretical peak achieved (0..1].
    pub efficiency: f64,
    /// Wall-clock time the micro-simulation covered.
    pub simulated: Time,
}

/// Derives the sustained *near-bank* streaming bandwidth: every bank of
/// one pseudo-channel streams `rows_per_bank` full rows into its local
/// consumer, as a PIM GEMV does with weight rows.
///
/// # Panics
///
/// Panics if `banks` is zero or exceeds the device's banks per
/// pseudo-channel, or if `rows_per_bank` is zero.
#[track_caller]
pub fn pim_streaming_bandwidth(
    device: &HbmDevice,
    banks: usize,
    rows_per_bank: u64,
) -> DerivedBandwidth {
    assert!(rows_per_bank > 0, "need at least one row to stream");
    assert!(
        banks > 0 && banks <= device.topology.banks_per_pseudo_channel(),
        "banks must be in 1..={}",
        device.topology.banks_per_pseudo_channel()
    );
    let mut ctrl = Controller::new(device.timing.clone(), banks, device.topology.column_bytes);
    for bank in 0..banks {
        for row in 0..rows_per_bank {
            ctrl.enqueue_row_stream(bank, row, device.topology.columns_per_row());
        }
    }
    let cycles = ctrl
        .run_until_drained(500_000_000)
        .expect("micro-simulation failed to drain; timing deadlock bug");
    let elapsed = device.timing.cycles_to_time(cycles);
    let bytes = ctrl.stats().bytes_transferred as f64;
    let aggregate = Bandwidth::new(bytes / elapsed.as_secs());
    let per_bank = aggregate / banks as f64;
    let device_aggregate = per_bank * device.topology.total_banks() as f64;
    let efficiency = per_bank.value() / device.peak_bank_bandwidth().value();
    DerivedBandwidth {
        per_bank,
        controller_aggregate: aggregate,
        device_aggregate,
        efficiency,
        simulated: elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pim_streaming_efficiency_is_realistic() {
        let d = HbmDevice::hbm3_16gb();
        let bw = pim_streaming_bandwidth(&d, 8, 32);
        // Row turnaround (tRTP+tRP+tRCD = 46 cycles per 128-cycle row
        // stream) plus refresh puts efficiency in the 0.6..0.8 band.
        assert!(
            bw.efficiency > 0.6 && bw.efficiency < 0.8,
            "efficiency {} outside expected band",
            bw.efficiency
        );
        // Per-bank sustained bandwidth ~15-17 GB/s.
        assert!(bw.per_bank.as_gb_per_sec() > 12.0);
        assert!(bw.per_bank.as_gb_per_sec() < 18.0);
    }

    #[test]
    fn device_aggregate_scales_with_bank_count() {
        let std16 = HbmDevice::hbm3_16gb();
        let fc = HbmDevice::fc_pim_12gb();
        let bw_std = pim_streaming_bandwidth(&std16, 8, 16);
        let bw_fc = pim_streaming_bandwidth(&fc, 6, 16);
        // Same per-bank rate, 96 vs 128 banks → 3:4 aggregate.
        let ratio = bw_fc.device_aggregate.value() / bw_std.device_aggregate.value();
        assert!(
            (ratio - 0.75).abs() < 0.05,
            "FC-PIM/standard aggregate ratio {ratio} should be ~0.75"
        );
    }

    #[test]
    fn longer_runs_converge() {
        let d = HbmDevice::hbm3_16gb();
        let short = pim_streaming_bandwidth(&d, 4, 8);
        let long = pim_streaming_bandwidth(&d, 4, 64);
        let rel = (short.per_bank.value() - long.per_bank.value()).abs() / long.per_bank.value();
        assert!(rel < 0.1, "short vs long disagree by {rel}");
    }
}
