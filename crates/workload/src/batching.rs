//! Batching policies and the workload → trace simulation.

use crate::dataset::DatasetKind;
use crate::request::Request;
use crate::speculative::{SpeculativeConfig, TlpPolicy};
use crate::trace::{DecodeTrace, IterationRecord};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How the serving system forms batches (paper §2.2.1 / §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchingPolicy {
    /// Batch-level scheduling: no new request joins until the whole
    /// batch completes. Runtime RLP decays as requests finish (Fig. 3).
    /// This is the paper's evaluation setting.
    Static,
    /// Token-level scheduling: a finished request's slot is refilled
    /// from the arrival queue at the next iteration, keeping RLP near
    /// the maximum while demand lasts.
    MixedContinuous,
}

/// A complete workload description: dataset, batch, speculation,
/// batching policy and reproducibility seed.
///
/// # Example
///
/// ```
/// use papi_workload::{DatasetKind, WorkloadSpec};
///
/// let spec = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 2)
///     .with_seed(7);
/// let trace = spec.trace();
/// assert_eq!(trace.iterations[0].rlp, 16);
/// trace.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Dataset category.
    pub dataset: DatasetKind,
    /// Initial RLP (batch size).
    pub initial_rlp: u64,
    /// Speculative-decoding configuration (TLP).
    pub speculation: SpeculativeConfig,
    /// Runtime speculation-length policy (fixed or batch-co-optimized).
    pub tlp_policy: TlpPolicy,
    /// Batching policy.
    pub policy: BatchingPolicy,
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// Extra queued requests available for continuous refill (beyond the
    /// initial batch).
    pub queue_depth: usize,
    /// Optional cap on simulated iterations (for quick tests and
    /// benches).
    pub max_iterations: Option<u64>,
}

impl WorkloadSpec {
    /// The paper's evaluation setting: static batching with a fixed
    /// speculation length.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `speculation_len` is zero.
    #[track_caller]
    pub fn static_batching(dataset: DatasetKind, batch: u64, speculation_len: u64) -> Self {
        assert!(batch > 0, "batch must be positive");
        Self {
            dataset,
            initial_rlp: batch,
            speculation: SpeculativeConfig::fixed(speculation_len),
            tlp_policy: TlpPolicy::Fixed,
            policy: BatchingPolicy::Static,
            seed: 0xC0FFEE,
            queue_depth: 0,
            max_iterations: None,
        }
    }

    /// Mixed continuous batching with `queue_depth` requests waiting.
    #[track_caller]
    pub fn continuous_batching(
        dataset: DatasetKind,
        batch: u64,
        speculation_len: u64,
        queue_depth: usize,
    ) -> Self {
        Self {
            policy: BatchingPolicy::MixedContinuous,
            queue_depth,
            ..Self::static_batching(dataset, batch, speculation_len)
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the speculation configuration.
    pub fn with_speculation(mut self, speculation: SpeculativeConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// Enables batch-co-optimized dynamic speculation length (§3.2's
    /// runtime-TLP scenario): the controller targets
    /// `RLP × TLP ≈ target_tokens`, raising speculation as the batch
    /// drains, up to `max_length`.
    pub fn with_adaptive_tlp(mut self, target_tokens: u64, max_length: u64) -> Self {
        self.tlp_policy = TlpPolicy::Adaptive {
            target_tokens,
            max_length,
        };
        self
    }

    /// Caps the number of simulated iterations.
    pub fn with_max_iterations(mut self, max: u64) -> Self {
        self.max_iterations = Some(max);
        self
    }

    /// Generates the requests this workload serves (initial batch plus
    /// refill queue).
    pub fn requests(&self) -> Vec<Request> {
        self.dataset
            .generate(self.seed, self.initial_rlp as usize + self.queue_depth)
    }

    /// Simulates the decode and returns the per-iteration trace.
    ///
    /// Every live request banks `tlp` tokens per iteration (its last
    /// iteration banks what remains), so the batch changes only when a
    /// request finishes. The loop therefore leaps from one finish to
    /// the next, writing the records in between in closed form: the
    /// cost is O(records + requests × finish events) rather than
    /// O(records × requests).
    pub fn trace(&self) -> DecodeTrace {
        let all = self.requests();
        let mut queue: VecDeque<Request> = all.into();
        let mut live: Vec<LiveRequest> = Vec::with_capacity(self.initial_rlp as usize);
        let mut prefill_tokens = 0u64;
        let mut prefill_sq = 0u64;
        let mut admit = |r: Request, live: &mut Vec<LiveRequest>| {
            prefill_tokens += r.input_len;
            prefill_sq += r.input_len * r.input_len;
            live.push(LiveRequest::admit(r));
        };
        for _ in 0..self.initial_rlp {
            if let Some(r) = queue.pop_front() {
                admit(r, &mut live);
            }
        }
        let mut trace = DecodeTrace {
            requests: 0,
            ..Default::default()
        };
        let mut iterations = 0u64;
        while !live.is_empty() {
            let rlp = live.len() as u64;
            let tlp = self.tlp_policy.length_at(rlp, self.speculation.length);
            let mut total_kv = 0;
            let mut max_kv = 0;
            // Iterations every live request survives without finishing.
            let mut quiet = u64::MAX;
            for req in &live {
                total_kv += req.kv_len();
                max_kv = max_kv.max(req.kv_len());
                quiet = quiet.min(req.remaining().saturating_sub(1) / tlp);
            }
            let budget = self.max_iterations.map_or(u64::MAX, |max| max - iterations);
            let leap = quiet.min(budget);
            // Every request grows by `tlp` per leapt iteration, so the
            // longest KV cache stays the longest.
            let in_flight = rlp * tlp;
            trace.iterations.extend((0..leap).map(|j| IterationRecord {
                rlp,
                tlp,
                total_kv_len: total_kv + j * in_flight,
                max_kv_len: max_kv + j * tlp,
                new_tokens: in_flight,
                finished: 0,
            }));
            trace.total_tokens += leap * in_flight;
            total_kv += leap * in_flight;
            max_kv += leap * tlp;
            iterations += leap;
            if leap == budget {
                // Account the still-running requests so validate()
                // remains meaningful on truncated traces.
                trace.requests += rlp;
                trace.iterations.push(IterationRecord {
                    rlp,
                    tlp: self.speculation.tlp(),
                    total_kv_len: total_kv,
                    max_kv_len: max_kv,
                    new_tokens: 0,
                    finished: rlp,
                });
                break;
            }
            iterations += 1;
            let mut new_tokens = 0;
            let mut finished = 0;
            live.retain_mut(|req| {
                // Bank the leap's tokens, then step one iteration.
                req.generated += leap * tlp;
                let banked = tlp.min(req.remaining());
                req.generated += banked;
                new_tokens += banked;
                if req.remaining() == 0 {
                    finished += 1;
                    false
                } else {
                    true
                }
            });
            trace.iterations.push(IterationRecord {
                rlp,
                tlp,
                total_kv_len: total_kv,
                max_kv_len: max_kv,
                new_tokens,
                finished,
            });
            trace.total_tokens += new_tokens;
            trace.requests += finished;
            if self.policy == BatchingPolicy::MixedContinuous {
                while (live.len() as u64) < self.initial_rlp {
                    match queue.pop_front() {
                        Some(r) => admit(r, &mut live),
                        None => break,
                    }
                }
            }
        }
        trace.iterations.shrink_to_fit();
        trace.total_input_tokens = prefill_tokens;
        trace.sum_input_len_squared = prefill_sq;
        trace
    }
}

#[derive(Debug, Clone)]
struct LiveRequest {
    request: Request,
    generated: u64,
}

impl LiveRequest {
    fn admit(request: Request) -> Self {
        Self {
            request,
            generated: 0,
        }
    }

    fn remaining(&self) -> u64 {
        self.request.output_len - self.generated
    }

    fn kv_len(&self) -> u64 {
        self.request.input_len + self.generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_rlp_is_monotone_nonincreasing() {
        // The paper's Fig. 3: runtime RLP only decays under static
        // batching.
        let spec = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 32, 1);
        let trace = spec.trace();
        trace.validate().unwrap();
        let rlp = trace.rlp_series();
        assert_eq!(rlp[0], 32);
        assert!(rlp.windows(2).all(|w| w[1] <= w[0]), "RLP increased");
        assert_eq!(*rlp.last().unwrap(), 1);
    }

    #[test]
    fn static_iterations_match_longest_request() {
        let spec = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 8, 1);
        let reqs = spec.requests();
        let longest = reqs.iter().map(|r| r.output_len).max().unwrap();
        let trace = spec.trace();
        assert_eq!(trace.len() as u64, longest);
    }

    #[test]
    fn speculation_shortens_the_decode() {
        let s1 = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 1);
        let s4 = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 4);
        let (t1, t4) = (s1.trace(), s4.trace());
        assert_eq!(t1.total_tokens, t4.total_tokens, "same tokens generated");
        let ratio = t1.len() as f64 / t4.len() as f64;
        assert!(
            ratio > 3.0 && ratio <= 4.0,
            "speculation 4 should cut iterations ~4×, got {ratio}"
        );
    }

    #[test]
    fn continuous_batching_holds_rlp_while_queue_lasts() {
        let spec = WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, 8, 1, 64);
        let trace = spec.trace();
        trace.validate().unwrap();
        // While the queue has depth, RLP stays at the maximum.
        let early = &trace.rlp_series()[..trace.len() / 4];
        assert!(early.iter().all(|&r| r == 8), "early RLP should hold at 8");
        // All 72 requests eventually finish.
        assert_eq!(trace.requests, 72);
    }

    #[test]
    fn continuous_serves_more_tokens_than_static_same_length() {
        let static_spec = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 8, 1);
        let cont_spec = WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, 8, 1, 32);
        let ts = static_spec.trace();
        let tc = cont_spec.trace();
        let static_tput = ts.total_tokens as f64 / ts.len() as f64;
        let cont_tput = tc.total_tokens as f64 / tc.len() as f64;
        assert!(
            cont_tput > static_tput,
            "continuous {cont_tput} tokens/iter should beat static {static_tput}"
        );
    }

    #[test]
    fn max_iterations_truncates_but_stays_valid() {
        let spec = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 16, 1)
            .with_max_iterations(10);
        let trace = spec.trace();
        trace.validate().unwrap();
        assert!(trace.len() <= 11);
    }

    #[test]
    fn prefill_totals_cover_admitted_requests() {
        let spec = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 8, 1);
        let reqs = spec.requests();
        let trace = spec.trace();
        let expected: u64 = reqs.iter().map(|r| r.input_len).sum();
        let expected_sq: u64 = reqs.iter().map(|r| r.input_len * r.input_len).sum();
        assert_eq!(trace.total_input_tokens, expected);
        assert_eq!(trace.sum_input_len_squared, expected_sq);

        // Continuous batching admits the queue too.
        let cont = WorkloadSpec::continuous_batching(DatasetKind::GeneralQa, 8, 1, 16);
        let all: u64 = cont.requests().iter().map(|r| r.input_len).sum();
        assert_eq!(cont.trace().total_input_tokens, all);
    }

    #[test]
    fn same_seed_same_trace() {
        let a = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 8, 2)
            .with_seed(5)
            .trace();
        let b = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 8, 2)
            .with_seed(5)
            .trace();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_tlp_holds_tokens_in_flight_as_rlp_decays() {
        let fixed = WorkloadSpec::static_batching(DatasetKind::CreativeWriting, 32, 2).with_seed(7);
        let adaptive = fixed.clone().with_adaptive_tlp(64, 8);
        let (tf, ta) = (fixed.trace(), adaptive.trace());
        tf.validate().unwrap();
        ta.validate().unwrap();
        // Same tokens end up generated either way.
        assert_eq!(tf.total_tokens, ta.total_tokens);
        // Under the adaptive policy, the decayed tail still runs near the
        // target while the fixed policy collapses to RLP × 2.
        let tail_fixed = &tf.iterations[tf.len() * 3 / 4..];
        let tail_adaptive = &ta.iterations[ta.len() * 3 / 4..];
        let mean_tokens = |records: &[IterationRecord]| {
            records.iter().map(|it| it.tokens_in_flight()).sum::<u64>() as f64
                / records.len() as f64
        };
        assert!(
            mean_tokens(tail_adaptive) > 2.0 * mean_tokens(tail_fixed),
            "adaptive tail {} vs fixed tail {}",
            mean_tokens(tail_adaptive),
            mean_tokens(tail_fixed)
        );
        // And it finishes in fewer iterations.
        assert!(ta.len() < tf.len());
    }

    #[test]
    fn adaptive_tlp_varies_within_bounds() {
        let spec = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 16, 1)
            .with_adaptive_tlp(32, 6)
            .with_seed(3);
        let trace = spec.trace();
        assert!(trace.iterations.iter().all(|it| (1..=6).contains(&it.tlp)));
        // The first iteration at RLP 16 targets 32/16 = 2.
        assert_eq!(trace.iterations[0].tlp, 2);
        // TLP rises as the batch drains.
        let last = trace.iterations.last().unwrap();
        assert!(last.tlp > trace.iterations[0].tlp);
    }

    #[test]
    fn kv_grows_over_iterations() {
        let spec = WorkloadSpec::static_batching(DatasetKind::GeneralQa, 4, 1);
        let trace = spec.trace();
        // While no request finishes, total KV strictly grows.
        let mut prev = 0;
        for it in trace.iterations.iter().take_while(|it| it.finished == 0) {
            assert!(it.total_kv_len > prev);
            prev = it.total_kv_len;
        }
    }
}
