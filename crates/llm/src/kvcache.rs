//! KV-cache capacity arithmetic (the paper's §3.2 memory-capacity
//! limits on initial RLP).

use crate::config::ModelConfig;
use papi_types::Bytes;
use serde::{Deserialize, Serialize};

/// KV-cache capacity planner for a given model on a given memory pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCachePlanner {
    kv_bytes_per_token: Bytes,
    weight_bytes: Bytes,
}

impl KvCachePlanner {
    /// Builds a planner for `model`.
    pub fn new(model: &ModelConfig) -> Self {
        Self {
            kv_bytes_per_token: model.kv_bytes_per_token(),
            weight_bytes: model.weight_bytes(),
        }
    }

    /// KV bytes required by one request whose total sequence (input +
    /// output) reaches `seq_len` tokens.
    pub(crate) fn request_bytes(&self, seq_len: u64) -> Bytes {
        self.kv_bytes_per_token * seq_len as f64
    }

    /// KV bytes for a whole batch at a uniform sequence length.
    pub fn batch_bytes(&self, requests: u64, seq_len: u64) -> Bytes {
        self.request_bytes(seq_len) * requests as f64
    }

    /// How many requests of `seq_len` tokens fit in `memory`, after
    /// reserving space for the model weights when `reserve_weights` is
    /// set (the paper's §3.2 examples reserve them).
    pub fn max_requests(&self, memory: Bytes, seq_len: u64, reserve_weights: bool) -> u64 {
        let reserved = if reserve_weights {
            self.weight_bytes.value()
        } else {
            0.0
        };
        let available = (memory.value() - reserved).max(0.0);
        (available / self.request_bytes(seq_len).value()).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;
    use proptest::prelude::*;

    /// §3.2: "A computing system with 640 GB HBM can house 282 requests
    /// with input and output lengths of 128, but only 18 requests with
    /// input and output lengths of 2048." Our accounting (weights
    /// reserved, 4.72 MB/token) lands in the same decade: a few hundred
    /// short requests, a couple dozen long ones.
    #[test]
    fn paper_memory_capacity_examples() {
        let planner = KvCachePlanner::new(&ModelPreset::Gpt3_175B.config());
        let memory = Bytes::new(640e9);
        let short = planner.max_requests(memory, 128 + 128, true);
        let long = planner.max_requests(memory, 2048 + 2048, true);
        assert!(
            short > 200 && short < 350,
            "short-sequence capacity {short}"
        );
        assert!(long > 10 && long < 30, "long-sequence capacity {long}");
        assert!(short / long >= 10);
    }

    #[test]
    fn weights_reservation_matters() {
        let planner = KvCachePlanner::new(&ModelPreset::Gpt3_175B.config());
        let memory = Bytes::new(640e9);
        let with = planner.max_requests(memory, 4096, true);
        let without = planner.max_requests(memory, 4096, false);
        assert!(without > with);
    }

    #[test]
    fn zero_when_weights_do_not_fit() {
        let planner = KvCachePlanner::new(&ModelPreset::Gpt3_175B.config());
        assert_eq!(planner.max_requests(Bytes::new(100e9), 128, true), 0);
    }

    #[test]
    fn batch_bytes_scale() {
        let planner = KvCachePlanner::new(&ModelPreset::Llama65B.config());
        let one = planner.request_bytes(256);
        let batch = planner.batch_bytes(16, 256);
        assert!((batch.value() - 16.0 * one.value()).abs() < 1.0);
    }

    proptest! {
        #[test]
        fn longer_sequences_fit_fewer_requests(a in 1u64..4096, b in 1u64..4096) {
            let planner = KvCachePlanner::new(&ModelPreset::Gpt3_66B.config());
            let memory = Bytes::new(640e9);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                planner.max_requests(memory, lo, true) >= planner.max_requests(memory, hi, true)
            );
        }

        #[test]
        fn capacity_times_request_fits(seq in 1u64..8192) {
            let planner = KvCachePlanner::new(&ModelPreset::Llama65B.config());
            let memory = Bytes::new(512e9);
            let n = planner.max_requests(memory, seq, true);
            let used = planner.batch_bytes(n, seq).value()
                + ModelPreset::Llama65B.config().weight_bytes().value();
            prop_assert!(used <= memory.value() * (1.0 + 1e-9));
        }
    }
}
