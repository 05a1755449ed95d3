//! HBM3 timing parameters.
//!
//! All constraints are stored in integer cycles of the command clock
//! (`t_ck`). The defaults model an HBM3 stack with 5.2 Gbps/pin signalling
//! — the configuration the PAPI paper evaluates — with a 666 MHz bank
//! streaming clock (one 32-byte column access every other command-clock
//! cycle), matching AttAcc's near-bank processing rate of one 16-lane FP16
//! MAC per 1.5 ns per bank.

use papi_types::{Frequency, Time};
use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in command-clock cycles.
pub type Cycle = u64;

/// Validation error for an inconsistent [`TimingParams`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingError {
    message: String,
}

impl TimingError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for TimingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "inconsistent DRAM timing: {}", self.message)
    }
}

impl std::error::Error for TimingError {}

/// JEDEC-style DRAM timing constraints in command-clock cycles.
///
/// # Example
///
/// ```
/// use papi_dram::TimingParams;
///
/// let t = TimingParams::hbm3();
/// t.validate().unwrap();
/// assert_eq!(t.t_rc, t.t_ras + t.t_rp);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Command clock period.
    pub t_ck: Time,
    /// ACT → internal RD delay (row-to-column delay).
    pub t_rcd: Cycle,
    /// PRE → ACT delay (row precharge).
    pub t_rp: Cycle,
    /// ACT → PRE minimum row-open time.
    pub t_ras: Cycle,
    /// ACT → ACT same bank (row cycle); must equal `t_ras + t_rp`.
    pub t_rc: Cycle,
    /// RD → RD same bank (column-to-column, streaming interval).
    pub t_ccd: Cycle,
    /// The data beat of one column read after its CAS latency: a read
    /// issued at cycle `c` completes at `c + t_cl + t_bus`.
    pub t_bus: Cycle,
    /// ACT → ACT different banks (activation-to-activation delay).
    pub t_rrd: Cycle,
    /// Four-activation window: at most 4 ACTs in any `t_faw` window.
    pub t_faw: Cycle,
    /// RD → PRE delay (read-to-precharge).
    pub t_rtp: Cycle,
    /// RD command → first data beat (CAS latency).
    pub t_cl: Cycle,
    /// Refresh cycle time (all banks busy during refresh).
    pub t_rfc: Cycle,
    /// Average refresh interval (one REF command every `t_refi` cycles).
    pub t_refi: Cycle,
}

impl TimingParams {
    /// HBM3 preset used throughout the PAPI reproduction.
    ///
    /// The command clock is 1.333 GHz (`t_ck` = 0.75 ns); a 32-byte column
    /// access issues every `t_ccd` = 2 cycles = 1.5 ns, i.e. a 666 MHz
    /// per-bank streaming rate — the paper's FPU clock.
    pub fn hbm3() -> Self {
        Self {
            t_ck: Time::from_nanos(0.75),
            t_rcd: 19,    // ~14.3 ns
            t_rp: 19,     // ~14.3 ns
            t_ras: 38,    // ~28.5 ns
            t_rc: 57,     // ~42.8 ns
            t_ccd: 2,     // 1.5 ns  (666 MHz streaming)
            t_bus: 1,     // one 0.75 ns data beat after CAS
            t_rrd: 4,     // ~3 ns
            t_faw: 16,    // ~12 ns
            t_rtp: 8,     // ~6 ns
            t_cl: 20,     // ~15 ns
            t_rfc: 347,   // ~260 ns
            t_refi: 5200, // ~3.9 us
        }
    }

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingError`] describing the first violated relation
    /// (e.g. `t_rc != t_ras + t_rp`, zero clock period, or a refresh
    /// interval shorter than the refresh operation itself).
    pub fn validate(&self) -> Result<(), TimingError> {
        if self.t_ck.is_zero() {
            return Err(TimingError::new("t_ck must be positive"));
        }
        if self.t_rc != self.t_ras + self.t_rp {
            return Err(TimingError::new(format!(
                "t_rc ({}) must equal t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            )));
        }
        if self.t_ccd == 0 {
            return Err(TimingError::new("t_ccd must be at least 1"));
        }
        if self.t_refi <= self.t_rfc {
            return Err(TimingError::new(
                "t_refi must exceed t_rfc or the device only refreshes",
            ));
        }
        if self.t_faw < self.t_rrd {
            return Err(TimingError::new("t_faw must be at least t_rrd"));
        }
        if self.t_ras < self.t_rcd {
            return Err(TimingError::new("t_ras must be at least t_rcd"));
        }
        Ok(())
    }

    /// Converts a cycle count into wall-clock time.
    pub fn cycles_to_time(&self, cycles: Cycle) -> Time {
        self.t_ck * cycles as f64
    }

    /// The command-clock frequency.
    pub fn clock(&self) -> Frequency {
        Frequency::new(1.0 / self.t_ck.as_secs())
    }

    /// The per-bank streaming frequency (one column access per `t_ccd`).
    pub fn streaming_clock(&self) -> Frequency {
        Frequency::new(1.0 / (self.t_ck.as_secs() * self.t_ccd as f64))
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::hbm3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm3_preset_is_valid() {
        TimingParams::hbm3().validate().unwrap();
    }

    #[test]
    fn hbm3_streaming_rate_is_666mhz() {
        let t = TimingParams::hbm3();
        assert!((t.streaming_clock().as_mhz() - 666.7).abs() < 1.0);
    }

    #[test]
    fn cycles_to_time_scales_linearly() {
        let t = TimingParams::hbm3();
        let one = t.cycles_to_time(1);
        let thousand = t.cycles_to_time(1000);
        assert!((thousand.as_nanos() - 1000.0 * one.as_nanos()).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_trc_mismatch() {
        let mut t = TimingParams::hbm3();
        t.t_rc += 1;
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("t_rc"));
    }

    #[test]
    fn validation_catches_refresh_starvation() {
        let mut t = TimingParams::hbm3();
        t.t_refi = t.t_rfc;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_ccd() {
        let mut t = TimingParams::hbm3();
        t.t_ccd = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_faw_smaller_than_rrd() {
        let mut t = TimingParams::hbm3();
        t.t_faw = t.t_rrd - 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn clock_matches_period() {
        let t = TimingParams::hbm3();
        assert!((t.clock().period().as_nanos() - t.t_ck.as_nanos()).abs() < 1e-12);
    }
}
