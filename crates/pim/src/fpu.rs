//! The near-bank floating-point unit.

use papi_types::{Area, FlopsRate, Frequency};
use serde::{Deserialize, Serialize};

/// One near-bank FPU: a SIMD multiply-accumulate unit fed directly from
/// the bank's column read-out, as in AttAcc.
///
/// The preset matches the paper: 16 FP16 lanes at 666 MHz, 0.1025 mm²
/// (§6.1), consuming one 32-byte column access per cycle when streaming.
///
/// # Example
///
/// ```
/// use papi_pim::FpuSpec;
///
/// let fpu = FpuSpec::attacc();
/// // 16 lanes at 666 MHz: 10.67 GMAC/s.
/// assert!((fpu.lanes as f64 * fpu.clock.value() / 1e9 - 10.67).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpuSpec {
    /// SIMD lanes (MACs per cycle).
    pub lanes: u32,
    /// Operating frequency.
    pub clock: Frequency,
    /// Die area of one FPU.
    pub area: Area,
    /// Computation energy per multiply-accumulate, in picojoules.
    pub compute_pj_per_mac: f64,
}

impl FpuSpec {
    /// The AttAcc/PAPI FPU: 16 lanes × 666 MHz, 0.1025 mm².
    ///
    /// The per-MAC compute energy (together with the transfer energy in
    /// [`PimEnergyModel`](crate::PimEnergyModel)) is calibrated so the
    /// Fig. 7(a) energy split holds: DRAM access is 96.7 % of PIM energy
    /// at data-reuse 1.
    pub fn attacc() -> Self {
        Self {
            lanes: 16,
            clock: Frequency::from_mhz(666.67),
            area: Area::from_mm2(0.1025),
            compute_pj_per_mac: 1.64,
        }
    }

    /// Multiply-accumulates per second (lanes × clock).
    pub(crate) fn mac_rate(&self) -> f64 {
        self.lanes as f64 * self.clock.value()
    }

    /// FLOPs per second (2 FLOPs per MAC).
    pub(crate) fn flops_rate(&self) -> FlopsRate {
        FlopsRate::new(2.0 * self.mac_rate())
    }
}

impl Default for FpuSpec {
    fn default() -> Self {
        Self::attacc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacc_fpu_rates() {
        let f = FpuSpec::attacc();
        // 16 lanes × 666.67 MHz = 10.67 GMAC/s = 21.3 GFLOPS.
        assert!((f.flops_rate().as_gflops() - 21.33).abs() < 0.1);
    }

    #[test]
    fn area_matches_paper() {
        assert!((FpuSpec::attacc().area.as_mm2() - 0.1025).abs() < 1e-12);
    }
}
