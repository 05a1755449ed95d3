//! Service-level objectives (paper §3.2(a)).
//!
//! "Under the online serving scenario, different user latency SLOs
//! dictate varying maximum batch sizes." A [`SloSpec`] is the user
//! latency objective the serving metrics score requests against:
//! time to first token and time per output token, which together
//! define goodput and SLO attainment.

use papi_types::Time;
use serde::{Deserialize, Serialize};

/// A user latency objective over the serving metrics: first token
/// within [`ttft`](SloSpec::ttft) of arrival, then a steady decode pace
/// of at most [`tpot`](SloSpec::tpot) per token.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Time-to-first-token budget (queueing + prefill).
    pub ttft: Time,
    /// Time-per-output-token budget (per-iteration decode latency).
    pub tpot: Time,
}

impl SloSpec {
    /// An interactive-chat objective: first token within `ttft_ms`,
    /// then `tpot_ms` per token.
    pub fn interactive(ttft_ms: f64, tpot_ms: f64) -> Self {
        Self {
            ttft: Time::from_millis(ttft_ms),
            tpot: Time::from_millis(tpot_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactive_slo_constructor() {
        let slo = SloSpec::interactive(500.0, 30.0);
        assert_eq!(slo.ttft.as_millis(), 500.0);
        assert_eq!(slo.tpot.as_millis(), 30.0);
    }
}
