//! Admission control: who joins the running batch.
//!
//! The serving session owns the *mechanism* — block allocation, prefix
//! forking, eviction of cold cached prefixes, and recompute-style
//! preemption (newest first, never below a batch of one) — while an
//! [`AdmissionSpec`] makes the one *decision* that differs between
//! rules: [`admit`](AdmissionSpec::admit), may the queue-front request
//! join the running batch right now? The session consults it only
//! while the batch is non-empty: an empty batch always admits, so no
//! rule can deadlock an episode.
//!
//! [`AdmissionSpec::BlockGranular`] is the default: it plans whole
//! prompts against the block-granular committed budget, treating cached
//! prefixes as reclaimable headroom. [`AdmissionSpec::Fcfs`] is the
//! classic token-counting baseline: it ignores paging — no block
//! rounding, no eviction discount — so at block size 1 without sharing
//! the two coincide, and under a paged pool `Fcfs` over-admits exactly
//! where fragmentation bites. The rule is a
//! [`SessionTuning`](crate::serving::SessionTuning) field.

use serde::{Deserialize, Serialize};

/// The session state an admission decision may inspect.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionView {
    /// Blocks committed to live sequences (pool occupancy minus what
    /// prefix-cache eviction could reclaim on demand).
    pub committed_blocks: u64,
    /// Blocks the admission planner may use (the headroom budget, not
    /// the raw pool).
    pub budget_blocks: u64,
    /// Tokens per block of the pool.
    pub block_size: u64,
    /// Logical KV tokens resident across live requests.
    pub kv_tokens: u64,
}

impl AdmissionView {
    /// Blocks a request needing `tokens` KV tokens would allocate.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size.max(1))
    }

    /// The admission budget in tokens (block budget × block size).
    pub fn budget_tokens(&self) -> u64 {
        self.budget_blocks * self.block_size
    }
}

/// Which built-in admission rule arbitrates batch entry — what
/// [`SessionTuning`](crate::serving::SessionTuning) carries, so cluster
/// specs and sweeps stay serializable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionSpec {
    /// Plan whole prompts against the block-granular committed budget;
    /// cached prefixes count as reclaimable headroom (the default).
    #[default]
    BlockGranular,
    /// First-come-first-served token counting: plan in exact tokens —
    /// no block rounding, and no credit for evictable cached prefixes
    /// — so under a paged pool it admits optimistically where
    /// fragmentation bites and conservatively where the prefix cache
    /// could have been reclaimed.
    Fcfs,
}

impl AdmissionSpec {
    /// Whether a queue-front request reserving `prefill_tokens` KV
    /// tokens (its prompt, plus any regenerated context after a
    /// preemption) may join the running batch given `view`. The session
    /// asks only while the batch is non-empty.
    pub fn admit(&self, prefill_tokens: u64, view: &AdmissionView) -> bool {
        match self {
            AdmissionSpec::BlockGranular => {
                view.committed_blocks + view.blocks_for(prefill_tokens) <= view.budget_blocks
            }
            AdmissionSpec::Fcfs => view.kv_tokens + prefill_tokens <= view.budget_tokens(),
        }
    }

    /// Display label for reports and sweeps.
    pub fn label(&self) -> String {
        match self {
            AdmissionSpec::BlockGranular => "block-granular",
            AdmissionSpec::Fcfs => "fcfs",
        }
        .to_owned()
    }
}

impl core::fmt::Display for AdmissionSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_granular_plans_in_blocks() {
        // 33 tokens = 3 blocks of 16; 60 committed + 3 > 62 budget.
        let v = AdmissionView {
            committed_blocks: 60,
            budget_blocks: 62,
            block_size: 16,
            kv_tokens: 200,
        };
        assert!(!AdmissionSpec::BlockGranular.admit(33, &v));
        // A token-counting baseline would have said yes (992-token
        // budget, 200 + 33 tokens resident) — fragmentation is
        // invisible to it.
        assert!(AdmissionSpec::Fcfs.admit(33, &v));
        // With two free blocks and a 32-token prompt, both admit.
        assert!(AdmissionSpec::BlockGranular.admit(32, &v));
    }

    #[test]
    fn fcfs_ignores_the_eviction_discount() {
        // Committed is low (a big evictable prefix cache), but resident
        // tokens already exceed the budget: FCFS refuses, the paged
        // planner admits.
        let v = AdmissionView {
            committed_blocks: 200,
            budget_blocks: 1_000,
            block_size: 1,
            kv_tokens: 950,
        };
        assert!(!AdmissionSpec::Fcfs.admit(100, &v));
        assert!(AdmissionSpec::BlockGranular.admit(100, &v));
    }

    #[test]
    fn spec_labels() {
        assert_eq!(AdmissionSpec::BlockGranular.to_string(), "block-granular");
        assert_eq!(AdmissionSpec::Fcfs.label(), "fcfs");
        assert_eq!(AdmissionSpec::default(), AdmissionSpec::BlockGranular);
    }
}
