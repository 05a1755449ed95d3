//! Speculative decoding: token-level parallelism (TLP).
//!
//! The hardware verifies `length` tokens per request each iteration, and
//! every one of them is banked: the paper models TLP as an exogenous
//! knob, not acceptance, so decoding is deterministic.

use serde::{Deserialize, Serialize};

/// How the serving system picks the speculation length each iteration.
///
/// The paper's §3.2 observes that TLP "can also be dynamically adjusted
/// at runtime" — citing dynamic speculation-length optimization (its
/// ref. 28) and batching/speculation co-optimization (ref. 38): "when
/// the batch size is small, the speculation length can be increased to
/// maximize resource utilization."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TlpPolicy {
    /// Keep the configured speculation length (the paper's evaluation
    /// setting).
    Fixed,
    /// Co-optimize with the live batch: pick the speculation length that
    /// keeps `RLP × TLP` near `target_tokens`, clamped to
    /// `[1, max_length]`.
    Adaptive {
        /// Tokens-in-flight the controller aims for.
        target_tokens: u64,
        /// Hard ceiling on speculation length (draft-model quality
        /// limit).
        max_length: u64,
    },
}

impl TlpPolicy {
    /// The speculation length to use at the observed `rlp`, given the
    /// configured base `length`.
    pub fn length_at(&self, rlp: u64, base_length: u64) -> u64 {
        match *self {
            TlpPolicy::Fixed => base_length,
            TlpPolicy::Adaptive {
                target_tokens,
                max_length,
            } => (target_tokens / rlp.max(1)).clamp(1, max_length.max(1)),
        }
    }
}

/// Speculative-decoding configuration.
///
/// # Example
///
/// ```
/// use papi_workload::SpeculativeConfig;
///
/// let spec = SpeculativeConfig::fixed(4);
/// assert_eq!(spec.tlp(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculativeConfig {
    /// Speculation length: tokens verified and banked per request per
    /// iteration (TLP). 1 = plain serial decoding.
    pub length: u64,
}

impl SpeculativeConfig {
    /// Fixed speculation length (the paper's evaluation setting;
    /// `length = 1` disables speculation).
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    #[track_caller]
    pub fn fixed(length: u64) -> Self {
        assert!(length > 0, "speculation length must be at least 1");
        Self { length }
    }

    /// The token-level parallelism this configuration exercises: the
    /// tokens each request verifies, and banks, per iteration.
    pub fn tlp(&self) -> u64 {
        self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_length_rejected() {
        SpeculativeConfig::fixed(0);
    }

    #[test]
    fn adaptive_tlp_targets_constant_tokens() {
        let policy = TlpPolicy::Adaptive {
            target_tokens: 64,
            max_length: 8,
        };
        assert_eq!(policy.length_at(64, 1), 1);
        assert_eq!(policy.length_at(32, 1), 2);
        assert_eq!(policy.length_at(16, 1), 4);
        assert_eq!(policy.length_at(8, 1), 8);
        // Clamped at the draft ceiling once the batch is tiny.
        assert_eq!(policy.length_at(2, 1), 8);
        assert_eq!(policy.length_at(1, 1), 8);
    }

    #[test]
    fn fixed_policy_keeps_base_length() {
        assert_eq!(TlpPolicy::Fixed.length_at(3, 4), 4);
        assert_eq!(TlpPolicy::Fixed.length_at(1000, 4), 4);
    }
}
