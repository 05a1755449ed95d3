//! Service-level-objective analysis (paper §3.2(a)).
//!
//! "Under the online serving scenario, different user latency SLOs
//! dictate varying maximum batch sizes" — e.g. a DGX node that could
//! batch 854 requests must cap at 22 under a 30 ms SLO. This module
//! computes that cap for any of our systems: the largest initial RLP
//! whose *per-iteration* decoding latency meets the target.

use crate::config::SystemConfig;
use crate::pricer::IterationPricer;
use papi_types::Time;
use papi_workload::IterationRecord;
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

/// Per-iteration decoding latency of `config` at steady state
/// `(rlp, tlp)` with `kv_len` tokens of context per request, priced
/// directly through the shared [`IterationPricer`] (the scheduler picks
/// the FC placement exactly as it would online).
///
/// # Panics
///
/// Panics if any argument is zero, or if the KV demand exceeds the
/// attention pool.
#[track_caller]
pub fn iteration_latency(config: &SystemConfig, rlp: u64, tlp: u64, kv_len: u64) -> Time {
    assert!(
        rlp > 0 && tlp > 0 && kv_len > 0,
        "arguments must be positive"
    );
    let kv_demand = (rlp * kv_len) as f64 * config.model.kv_bytes_per_token().value();
    if let Err(msg) = config.validate_capacity(kv_demand) {
        panic!("{msg}");
    }
    let record = IterationRecord {
        rlp,
        tlp,
        total_kv_len: rlp * kv_len,
        max_kv_len: kv_len,
        new_tokens: rlp * tlp,
        finished: 0,
    };
    let placement = config.scheduler.build().decide(rlp, tlp);
    IterationPricer::new(config)
        .price_iteration(placement, &record)
        .total_time()
}

/// The largest batch (initial RLP) whose per-iteration latency meets
/// `slo`, searched up to `max_batch`. Returns 0 if even a single request
/// misses the objective.
pub fn max_batch_for_slo(
    config: &SystemConfig,
    tlp: u64,
    kv_len: u64,
    slo: Time,
    max_batch: u64,
) -> u64 {
    let meets = |rlp: u64| iteration_latency(config, rlp, tlp, kv_len).value() <= slo.value();
    if !meets(1) {
        return 0;
    }
    // Latency is monotone non-decreasing in RLP: binary search the edge.
    let (mut lo, mut hi) = (1u64, max_batch.max(1));
    if meets(hi) {
        return hi;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DecodingSimulator;
    use papi_llm::ModelPreset;
    use papi_workload::DecodeTrace;

    /// The SLO path and the trace engine price through the same
    /// [`IterationPricer`]; a one-iteration trace must cost exactly the
    /// same through either front end.
    #[test]
    fn slo_latency_matches_engine_pricing() {
        let config = SystemConfig::papi_with_alpha(ModelPreset::Llama65B.config(), 24.0);
        for (rlp, tlp) in [(1u64, 1u64), (8, 2), (64, 4)] {
            let direct = iteration_latency(&config, rlp, tlp, 512);
            let trace = DecodeTrace {
                iterations: vec![IterationRecord {
                    rlp,
                    tlp,
                    total_kv_len: rlp * 512,
                    max_kv_len: 512,
                    new_tokens: rlp * tlp,
                    finished: rlp,
                }],
                requests: rlp,
                total_tokens: rlp * tlp,
                total_input_tokens: rlp * 512,
                sum_input_len_squared: rlp * 512 * 512,
            };
            let via_engine = DecodingSimulator::new(config.clone())
                .run_trace(&trace)
                .total_latency();
            assert_eq!(direct, via_engine, "divergence at ({rlp}, {tlp})");
        }
    }

    #[test]
    fn interactive_slo_constructor() {
        let slo = SloSpec::interactive(500.0, 30.0);
        assert_eq!(slo.ttft.as_millis(), 500.0);
        assert_eq!(slo.tpot.as_millis(), 30.0);
    }

    #[test]
    fn tighter_slo_smaller_batch() {
        let config = SystemConfig::a100_attacc(ModelPreset::Llama65B.config());
        let loose = max_batch_for_slo(&config, 1, 512, Time::from_millis(120.0), 512);
        let tight = max_batch_for_slo(&config, 1, 512, Time::from_millis(25.0), 512);
        assert!(
            loose > tight,
            "120 ms admits {loose}, 25 ms admits {tight} — should shrink"
        );
    }

    #[test]
    fn impossible_slo_admits_zero() {
        let config = SystemConfig::a100_attacc(ModelPreset::Gpt3_175B.config());
        assert_eq!(
            max_batch_for_slo(&config, 1, 512, Time::from_micros(1.0), 512),
            0
        );
    }

    #[test]
    fn papi_serves_slos_the_gpu_baseline_cannot() {
        // The GPU baseline's per-iteration floor is the memory-bound FC
        // pass (~14 ms for LLaMA-65B on 6 A100s): any tighter SLO admits
        // zero requests. PAPI's FC-PIM runs small batches far faster, so
        // it still serves the objective.
        let model = ModelPreset::Llama65B.config();
        let papi = SystemConfig::papi(model.clone());
        let base = SystemConfig::a100_attacc(model);
        let tight = Time::from_millis(10.0);
        assert_eq!(max_batch_for_slo(&base, 1, 512, tight, 256), 0);
        let b_papi = max_batch_for_slo(&papi, 1, 512, tight, 256);
        assert!(b_papi >= 1, "PAPI should serve the 10 ms SLO, got {b_papi}");
    }

    #[test]
    fn papi_admitted_batch_tracks_the_baseline_at_loose_slos() {
        // Above α both designs run FC on the GPUs; PAPI's 1P2B Attn-PIM
        // attention is slightly slower than 1P1B AttAcc, so its admitted
        // batch may trail by a few percent — but no more.
        let model = ModelPreset::Llama65B.config();
        let papi = SystemConfig::papi(model.clone());
        let base = SystemConfig::a100_attacc(model);
        for slo_ms in [20.0, 40.0] {
            let slo = Time::from_millis(slo_ms);
            let b_papi = max_batch_for_slo(&papi, 1, 512, slo, 512);
            let b_base = max_batch_for_slo(&base, 1, 512, slo, 512);
            assert!(
                b_papi as f64 >= 0.85 * b_base as f64,
                "at {slo_ms} ms: PAPI admits {b_papi} vs baseline {b_base}"
            );
        }
    }

    #[test]
    fn latency_monotone_in_rlp() {
        let config = SystemConfig::pim_only_papi(ModelPreset::Gpt3_66B.config());
        let mut last = 0.0;
        for rlp in [1u64, 2, 4, 8, 16, 32, 64] {
            let t = iteration_latency(&config, rlp, 1, 512).value();
            assert!(t >= last, "latency fell at rlp {rlp}");
            last = t;
        }
    }

    #[test]
    fn iteration_latency_in_plausible_band() {
        // LLaMA-65B, batch 22, the paper's SLO anecdote regime: tens of
        // milliseconds per decoding iteration.
        let config = SystemConfig::a100_attacc(ModelPreset::Llama65B.config());
        let t = iteration_latency(&config, 22, 1, 512);
        assert!(t.as_millis() > 5.0 && t.as_millis() < 100.0, "{t}");
    }
}
