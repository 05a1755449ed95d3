//! Speculative decoding: token-level parallelism (TLP).
//!
//! The hardware verifies `length` tokens per request each iteration, and
//! every one of them is banked: the paper models TLP as an exogenous
//! knob, not acceptance, so decoding is deterministic.

use serde::{Deserialize, Serialize};

/// Speculative-decoding configuration: a fixed speculation length, or
/// one co-optimized with the live batch.
///
/// The paper's §3.2 observes that TLP "can also be dynamically adjusted
/// at runtime" — citing dynamic speculation-length optimization (its
/// ref. 28) and batching/speculation co-optimization (ref. 38): "when
/// the batch size is small, the speculation length can be increased to
/// maximize resource utilization." [`SpeculativeConfig::adaptive`]
/// builds that case.
///
/// # Example
///
/// ```
/// use papi_workload::SpeculativeConfig;
///
/// let spec = SpeculativeConfig::fixed(4);
/// assert_eq!(spec.tlp(), 4);
/// assert_eq!(spec.tlp_at(32), 4);
///
/// let adaptive = SpeculativeConfig::adaptive(64, 8);
/// assert_eq!(adaptive.tlp_at(32), 2);
/// assert_eq!(adaptive.tlp_at(2), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculativeConfig {
    /// Speculation length: tokens verified and banked per request per
    /// iteration (TLP). 1 = plain serial decoding. Under a co-optimization
    /// target this is the ceiling (the draft model's quality limit).
    pub length: u64,
    /// Tokens in flight (`RLP × TLP`) the runtime controller aims for;
    /// `None` keeps `length` every iteration (the paper's evaluation
    /// setting).
    pub target_tokens: Option<u64>,
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
        Self {
            length,
            target_tokens: None,
        }
    }

    /// Batch-co-optimized speculation length (§3.2's runtime-TLP
    /// scenario): each iteration picks the length that keeps
    /// `RLP × TLP` near `target_tokens`, clamped to `[1, max_length]`,
    /// so speculation rises as the batch drains.
    ///
    /// # Panics
    ///
    /// Panics if `max_length` is zero.
    #[track_caller]
    pub fn adaptive(target_tokens: u64, max_length: u64) -> Self {
        Self {
            target_tokens: Some(target_tokens),
            ..Self::fixed(max_length)
        }
    }

    /// The token-level parallelism this configuration exercises: the
    /// tokens each request verifies, and banks, per iteration (the
    /// ceiling under a co-optimization target).
    pub fn tlp(&self) -> u64 {
        self.length
    }

    /// The speculation length to use with `rlp` requests live.
    pub fn tlp_at(&self, rlp: u64) -> u64 {
        match self.target_tokens {
            None => self.length,
            Some(target) => (target / rlp.max(1)).clamp(1, self.length),
        }
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
    #[should_panic(expected = "at least 1")]
    fn zero_adaptive_ceiling_rejected() {
        SpeculativeConfig::adaptive(64, 0);
    }

    #[test]
    fn adaptive_tlp_targets_constant_tokens() {
        let spec = SpeculativeConfig::adaptive(64, 8);
        assert_eq!(spec.tlp_at(64), 1);
        assert_eq!(spec.tlp_at(32), 2);
        assert_eq!(spec.tlp_at(16), 4);
        assert_eq!(spec.tlp_at(8), 8);
        // Clamped at the draft ceiling once the batch is tiny.
        assert_eq!(spec.tlp_at(2), 8);
        assert_eq!(spec.tlp_at(1), 8);
    }

    #[test]
    fn adaptive_tlp_matches_the_co_optimization_formula() {
        for target in 0..=256 {
            for max_length in 1..=8 {
                let spec = SpeculativeConfig::adaptive(target, max_length);
                assert_eq!(spec.tlp(), max_length);
                for rlp in 0..=128 {
                    let expected = (target / rlp.max(1)).clamp(1, max_length.max(1));
                    assert_eq!(
                        spec.tlp_at(rlp),
                        expected,
                        "{target} / {rlp} ≤ {max_length}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_length_ignores_the_batch() {
        assert_eq!(SpeculativeConfig::fixed(4).tlp_at(3), 4);
        assert_eq!(SpeculativeConfig::fixed(4).tlp_at(1000), 4);
    }
}
