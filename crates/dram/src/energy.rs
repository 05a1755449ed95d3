//! HBM3 energy parameters, read by the PIM energy and power models.
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

use papi_types::Power;
use serde::{Deserialize, Serialize};

/// Row-activation, column-read and background energy of one HBM stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Energy of one ACT/PRE pair (whole-row activation), in picojoules.
    pub activate_pj: f64,
    /// Array + periphery energy per byte of column read, in pJ.
    pub read_pj_per_byte: f64,
    /// Background (standby) power of the whole stack.
    pub background: Power,
}

impl EnergyParams {
    /// HBM3 preset calibrated to the PAPI paper (see module docs).
    pub fn hbm3() -> Self {
        Self {
            activate_pj: 1200.0,
            read_pj_per_byte: 61.56, // ≈7.7 pJ/bit; +row activation ≈ 7.77 pJ/bit
            background: Power::from_watts(4.0),
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::hbm3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_access_energy_is_about_7_77_pj_per_bit() {
        // One 2 KiB row fully streamed: 1 activation + 2048 B of reads.
        let p = EnergyParams::hbm3();
        let per_bit = (p.activate_pj + 2048.0 * p.read_pj_per_byte) / (2048.0 * 8.0);
        assert!(
            (per_bit - 7.77).abs() < 0.05,
            "got {per_bit} pJ/bit, want ~7.77"
        );
    }
}
