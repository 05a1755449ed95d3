//! Per-iteration decode traces.
//!
//! A [`DecodeTrace`] is the interface between the workload layer and the
//! system simulator: one record per decoding iteration capturing the
//! parallelism state (RLP, TLP), the batch's aggregate KV footprint, and
//! the tokens banked — everything the hardware model needs to price the
//! iteration, and everything the PAPI scheduler observes at runtime.

use serde::{Deserialize, Serialize};

/// The state of one decoding iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Live requests at the start of the iteration (runtime RLP).
    pub rlp: u64,
    /// Speculation length exercised (TLP).
    pub tlp: u64,
    /// Sum of KV-cache lengths over live requests, in tokens (sets
    /// attention traffic).
    pub total_kv_len: u64,
    /// Longest single KV cache, in tokens (sets capacity pressure).
    pub max_kv_len: u64,
    /// Tokens banked by all requests this iteration.
    pub new_tokens: u64,
    /// Requests that emitted `<|eos|>` during this iteration.
    pub finished: u64,
}

impl IterationRecord {
    /// Tokens processed in parallel this iteration (`RLP × TLP`) — the
    /// FC kernel's data-reuse level.
    pub fn tokens_in_flight(&self) -> u64 {
        self.rlp * self.tlp
    }
}

/// A complete decode of one batch (or one serving episode).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DecodeTrace {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Requests served.
    pub requests: u64,
    /// Output tokens produced overall.
    pub total_tokens: u64,
    /// Prompt tokens across all served requests (the prefill phase's
    /// workload).
    pub total_input_tokens: u64,
    /// Sum of squared prompt lengths — the prefill attention kernel is
    /// quadratic in each request's prompt.
    pub sum_input_len_squared: u64,
}

impl DecodeTrace {
    /// Number of decoding iterations.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// The RLP series over iterations — the paper's Fig. 3 curve.
    pub fn rlp_series(&self) -> Vec<u64> {
        self.iterations.iter().map(|it| it.rlp).collect()
    }

    /// Token-weighted mean RLP (how much parallelism the average token
    /// saw).
    pub fn mean_rlp(&self) -> f64 {
        if self.total_tokens == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .iterations
            .iter()
            .map(|it| it.rlp as f64 * it.new_tokens as f64)
            .sum();
        weighted / self.total_tokens as f64
    }

    /// Fraction of iterations spent below `threshold` RLP — the share of
    /// the decode where a statically-scheduled GPU is starved (and PAPI
    /// reschedules to FC-PIM).
    pub fn fraction_below_rlp(&self, threshold: u64) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations
            .iter()
            .filter(|it| it.rlp < threshold)
            .count() as f64
            / self.iterations.len() as f64
    }

    /// Internal consistency check: token and finish counts add up, and
    /// each iteration has a live batch, consistent KV lengths, no more
    /// finishes than live requests (`finished ≤ rlp`), at least one
    /// banked token per live request (`new_tokens ≥ rlp`) and no more
    /// banked tokens than were verified (`new_tokens ≤ rlp × tlp`).
    pub fn validate(&self) -> Result<(), String> {
        let tokens: u64 = self.iterations.iter().map(|it| it.new_tokens).sum();
        if tokens != self.total_tokens {
            return Err(format!(
                "iteration tokens {tokens} != trace total {}",
                self.total_tokens
            ));
        }
        let finished: u64 = self.iterations.iter().map(|it| it.finished).sum();
        if finished != self.requests {
            return Err(format!("finished {finished} != requests {}", self.requests));
        }
        for (i, it) in self.iterations.iter().enumerate() {
            if it.rlp == 0 {
                return Err(format!("iteration {i} has zero RLP"));
            }
            if it.max_kv_len == 0 || it.total_kv_len < it.max_kv_len {
                return Err(format!("iteration {i} has inconsistent KV lengths"));
            }
            if it.finished > it.rlp {
                return Err(format!(
                    "iteration {i} finishes {} of {} live requests",
                    it.finished, it.rlp
                ));
            }
            if it.new_tokens < it.rlp {
                return Err(format!(
                    "iteration {i} banks {} tokens for {} live requests",
                    it.new_tokens, it.rlp
                ));
            }
            if it.new_tokens > it.tokens_in_flight() {
                return Err(format!(
                    "iteration {i} banks {} tokens but verifies {}",
                    it.new_tokens,
                    it.tokens_in_flight()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rlp: u64, new_tokens: u64, finished: u64) -> IterationRecord {
        IterationRecord {
            rlp,
            tlp: 1,
            total_kv_len: rlp * 100,
            max_kv_len: 100,
            new_tokens,
            finished,
        }
    }

    #[test]
    fn tokens_in_flight() {
        let it = IterationRecord {
            rlp: 4,
            tlp: 2,
            total_kv_len: 400,
            max_kv_len: 100,
            new_tokens: 8,
            finished: 0,
        };
        assert_eq!(it.tokens_in_flight(), 8);
    }

    #[test]
    fn validate_accepts_consistent_trace() {
        let trace = DecodeTrace {
            iterations: vec![record(2, 2, 0), record(2, 2, 1), record(1, 1, 1)],
            requests: 2,
            total_tokens: 5,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        trace.validate().unwrap();
    }

    #[test]
    fn validate_rejects_token_mismatch() {
        let trace = DecodeTrace {
            iterations: vec![record(1, 1, 1)],
            requests: 1,
            total_tokens: 2,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_rejects_per_iteration_overruns() {
        let overrun = |record: IterationRecord| DecodeTrace {
            iterations: vec![record],
            requests: record.finished,
            total_tokens: record.new_tokens,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        overrun(record(2, 2, 2)).validate().unwrap();
        let err = overrun(record(2, 2, 3)).validate().unwrap_err();
        assert!(err.contains("finishes 3 of 2"), "{err}");
        let err = overrun(record(2, 3, 0)).validate().unwrap_err();
        assert!(err.contains("banks 3 tokens but verifies 2"), "{err}");
    }

    #[test]
    fn validate_rejects_a_request_that_banks_nothing() {
        // Every live request banks at least one token per iteration, so
        // a zero-token record (or one short of the batch) is corrupt.
        let stalled = |new_tokens: u64| DecodeTrace {
            iterations: vec![IterationRecord {
                tlp: 4,
                ..record(2, new_tokens, 0)
            }],
            requests: 0,
            total_tokens: new_tokens,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        stalled(2).validate().unwrap();
        for new_tokens in [0, 1] {
            let err = stalled(new_tokens).validate().unwrap_err();
            assert!(
                err.contains(&format!("banks {new_tokens} tokens for 2 live requests")),
                "{err}"
            );
        }
    }

    #[test]
    fn mean_rlp_token_weighted() {
        let trace = DecodeTrace {
            iterations: vec![record(4, 4, 0), record(1, 1, 1)],
            requests: 1,
            total_tokens: 5,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        // (4×4 + 1×1) / 5 = 3.4
        assert!((trace.mean_rlp() - 3.4).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_rlp_counts_iterations() {
        let trace = DecodeTrace {
            iterations: vec![record(4, 1, 0), record(2, 1, 0), record(1, 1, 1)],
            requests: 1,
            total_tokens: 3,
            total_input_tokens: 0,
            sum_input_len_squared: 0,
        };
        assert!((trace.fraction_below_rlp(3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(trace.fraction_below_rlp(1), 0.0);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = DecodeTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_rlp(), 0.0);
        assert_eq!(t.fraction_below_rlp(10), 0.0);
    }
}
