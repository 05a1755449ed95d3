//! The KV capacity tier: spill-to-host offload instead of eviction.
//!
//! Under pool pressure the serving engine's only relief used to be
//! discarding cold cached prefixes
//! ([`PrefixTree::evict_lru`](crate::PrefixTree::evict_lru)) or
//! preempting live requests — both
//! throw away paid prefill. A [`KvTier`] is the L3-style alternative: a
//! second, larger block budget (host DRAM / DIMM-PIM) that *remembers*
//! evicted prefixes as logical records, so a request that re-lands on
//! one can fetch it back — at a priced transfer, but far below the cost
//! of re-prefilling the context.
//!
//! Like the hot [`KvBlockPool`](crate::KvBlockPool), the tier stores no
//! tensor data and no block identities — crossing the tier boundary is
//! an export (the hot blocks are freed; the tier records only the
//! logical token count), mirroring the
//! [`KvSeqExport`](crate::KvSeqExport) migration seam. A prefix
//! therefore never occupies both tiers at once: it is hot, spilled, or
//! gone.
//!
//! Two policy seams decide the traffic, mirroring the serving control
//! plane's `RoutePolicy`/`AdmissionPolicy` style: [`SpillPolicy`] (is
//! this evicted prefix worth keeping?) and [`FetchPolicy`] (is this
//! re-landed prefix worth the transfer, or should the engine just
//! re-prefill?). Built-ins are named declaratively by the serde-able
//! [`SpillSpec`]/[`FetchSpec`].

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// One spilled prefix: the logical record the tier keeps in place of
/// the freed hot blocks.
#[derive(Debug, Clone, Copy)]
struct TierEntry {
    /// Logical tokens the prefix held (always whole hot-pool blocks —
    /// the prefix cache only ever holds full blocks).
    tokens: u64,
    /// Recency tick for the tier's own LRU.
    last_use: u64,
}

/// Occupancy snapshot of a [`KvTier`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Tokens per block (the hot pool's granularity; the tier accounts
    /// in the same units so budgets compare directly).
    pub block_size: u64,
    /// The tier's block budget.
    pub budget_blocks: u64,
    /// Blocks the spilled entries occupy right now.
    pub blocks_in_use: u64,
    /// Spilled prefixes resident.
    pub entries: u64,
}

/// What a spill attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillOutcome {
    /// Whether the prefix landed in the tier (`false`: it exceeded the
    /// whole budget, or the policy of the caller declined upstream).
    pub accepted: bool,
    /// Tier-resident prefixes dropped (LRU) to make room — true data
    /// loss, unlike the spill itself.
    pub evicted_entries: u64,
    /// Blocks those dropped prefixes freed.
    pub evicted_blocks: u64,
}

/// A host-DRAM / DIMM-PIM capacity pool for cold KV prefixes.
///
/// Pure bookkeeping, like everything in this crate: the tier tracks
/// *which* prefixes are spilled and how many blocks they occupy, not
/// any cache contents. Transfer cost is priced by the serving layer
/// (`TierPricing` in `papi-interconnect`) — the tier itself is
/// price-free so it can be unit-tested as a data structure.
#[derive(Debug, Clone)]
pub struct KvTier {
    block_size: u64,
    budget_blocks: u64,
    entries: HashMap<u64, TierEntry>,
    /// `(last_use, key)` of every entry, coldest first.
    lru: BTreeSet<(u64, u64)>,
    blocks_in_use: u64,
    tick: u64,
}

impl KvTier {
    /// A tier of `budget_blocks` blocks, each holding `block_size`
    /// token slots (use the hot pool's block size so budgets compare).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` or `budget_blocks` is zero.
    #[track_caller]
    pub fn new(block_size: u64, budget_blocks: u64) -> Self {
        assert!(block_size > 0, "tier block size must be positive");
        assert!(budget_blocks > 0, "tier budget must be positive");
        Self {
            block_size,
            budget_blocks,
            entries: HashMap::new(),
            lru: BTreeSet::new(),
            blocks_in_use: 0,
            tick: 0,
        }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// The tier's block budget.
    pub fn budget_blocks(&self) -> u64 {
        self.budget_blocks
    }

    /// Blocks the spilled entries occupy right now.
    pub fn blocks_in_use(&self) -> u64 {
        self.blocks_in_use
    }

    /// Blocks still unoccupied.
    pub fn free_blocks(&self) -> u64 {
        self.budget_blocks - self.blocks_in_use
    }

    /// Spilled prefixes resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is spilled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Blocks needed to hold `tokens` logical tokens.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size)
    }

    /// Tokens the tier holds under `key`, without touching recency.
    pub fn peek(&self, key: u64) -> Option<u64> {
        self.entries.get(&key).map(|e| e.tokens)
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> TierStats {
        TierStats {
            block_size: self.block_size,
            budget_blocks: self.budget_blocks,
            blocks_in_use: self.blocks_in_use,
            entries: self.entries.len() as u64,
        }
    }

    /// Records a prefix of `tokens` logical tokens under `key`,
    /// dropping the tier's own least-recently-used entries if the
    /// budget runs short. A re-spill under an existing key keeps the
    /// longer record (a prefix only ever grows) and refreshes recency.
    ///
    /// Returns what happened; on `accepted == false` (the prefix alone
    /// exceeds the whole budget) the tier is left untouched.
    pub fn spill(&mut self, key: u64, tokens: u64) -> SpillOutcome {
        let mut outcome = SpillOutcome {
            accepted: false,
            evicted_entries: 0,
            evicted_blocks: 0,
        };
        let have = self.entries.get(&key).map_or(0, |e| e.tokens);
        let need = self.blocks_for(tokens.max(have)) - self.blocks_for(have);
        if self.blocks_for(tokens.max(have)) > self.budget_blocks {
            return outcome;
        }
        while self.free_blocks() < need {
            // The incoming key must not be its own victim: skip it when
            // extending an existing record.
            let victim = *self
                .lru
                .iter()
                .find(|&&(_, k)| k != key)
                .expect("budget check guarantees a victim exists");
            self.lru.remove(&victim);
            let dropped = self.entries.remove(&victim.1).expect("victim exists");
            let freed = self.blocks_for(dropped.tokens);
            self.blocks_in_use -= freed;
            outcome.evicted_entries += 1;
            outcome.evicted_blocks += freed;
        }
        self.tick += 1;
        let entry = self.entries.entry(key).or_insert(TierEntry {
            tokens: 0,
            last_use: 0,
        });
        entry.tokens = entry.tokens.max(tokens);
        self.lru.remove(&(entry.last_use, key));
        self.lru.insert((self.tick, key));
        entry.last_use = self.tick;
        self.blocks_in_use += need;
        outcome.accepted = true;
        outcome
    }

    /// Removes the prefix under `key` and returns its token count —
    /// the record the caller re-materializes in the hot pool. The
    /// tier's blocks are freed immediately: the prefix lives in exactly
    /// one tier at a time.
    pub fn fetch(&mut self, key: u64) -> Option<u64> {
        let entry = self.entries.remove(&key)?;
        self.lru.remove(&(entry.last_use, key));
        self.blocks_in_use -= self.blocks_for(entry.tokens);
        Some(entry.tokens)
    }

    /// Drops every tier-resident prefix (a cold restart: the capacity
    /// tier's memory does not survive a replica retiring and
    /// re-provisioning).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
        self.blocks_in_use = 0;
        self.tick = 0;
    }
}

/// An evicted hot prefix a [`SpillPolicy`] rules on.
#[derive(Debug, Clone, Copy)]
pub struct SpillCandidate {
    /// The prefix-cache key.
    pub key: u64,
    /// Logical tokens the prefix held.
    pub tokens: u64,
    /// Hot-pool blocks it occupied.
    pub blocks: u64,
}

/// Decides whether an evicted prefix is worth keeping in the tier.
///
/// Consulted once per hot-cache eviction when a tier is configured;
/// `false` means plain eviction (the pre-tier behaviour, and the right
/// call for prefixes too small to ever repay a fetch).
pub trait SpillPolicy: std::fmt::Debug + Send {
    /// Whether to record `candidate` in the tier.
    fn should_spill(&mut self, candidate: &SpillCandidate) -> bool;

    /// Display label for reports and sweeps.
    fn label(&self) -> String;
}

/// A tier-resident prefix a [`FetchPolicy`] rules on, at the moment a
/// request re-lands on its key.
#[derive(Debug, Clone, Copy)]
pub struct FetchCandidate {
    /// The prefix-cache key.
    pub key: u64,
    /// Tokens the tier holds under the key.
    pub tier_tokens: u64,
    /// Leading tokens the arriving request could reuse.
    pub reuse_tokens: u64,
    /// Tokens a fetch would actually restore (the overlap, in whole
    /// blocks).
    pub usable_tokens: u64,
}

/// Decides whether a re-landed prefix is worth fetching back from the
/// tier, or whether the engine should just re-prefill.
pub trait FetchPolicy: std::fmt::Debug + Send {
    /// Whether to fetch `candidate` back into the hot pool.
    fn should_fetch(&mut self, candidate: &FetchCandidate) -> bool;

    /// Display label for reports and sweeps.
    fn label(&self) -> String;
}

/// Spills every evicted prefix (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpillAll;

impl SpillPolicy for SpillAll {
    fn should_spill(&mut self, _candidate: &SpillCandidate) -> bool {
        true
    }

    fn label(&self) -> String {
        "spill-all".to_owned()
    }
}

/// Spills only prefixes of at least `min_blocks` hot blocks — tiny
/// prefixes are cheap to re-prefill and not worth tier churn.
#[derive(Debug, Clone, Copy)]
pub struct SpillMinBlocks {
    /// Smallest prefix (in hot-pool blocks) worth spilling.
    pub min_blocks: u64,
}

impl SpillPolicy for SpillMinBlocks {
    fn should_spill(&mut self, candidate: &SpillCandidate) -> bool {
        candidate.blocks >= self.min_blocks
    }

    fn label(&self) -> String {
        format!("spill-min-blocks:{}", self.min_blocks)
    }
}

/// Fetches every re-landed prefix (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct FetchAll;

impl FetchPolicy for FetchAll {
    fn should_fetch(&mut self, _candidate: &FetchCandidate) -> bool {
        true
    }

    fn label(&self) -> String {
        "fetch-all".to_owned()
    }
}

/// Fetches only when the request would reuse at least `min_tokens`
/// restored tokens; below that, re-prefill beats the transfer.
#[derive(Debug, Clone, Copy)]
pub struct FetchMinTokens {
    /// Smallest usable overlap (tokens) worth a fetch.
    pub min_tokens: u64,
}

impl FetchPolicy for FetchMinTokens {
    fn should_fetch(&mut self, candidate: &FetchCandidate) -> bool {
        candidate.usable_tokens >= self.min_tokens
    }

    fn label(&self) -> String {
        format!("fetch-min-tokens:{}", self.min_tokens)
    }
}

/// Declarative, serde-able name for a built-in [`SpillPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SpillSpec {
    /// [`SpillAll`] — the default.
    #[default]
    Always,
    /// [`SpillMinBlocks`] with the given floor.
    MinBlocks(u64),
}

impl SpillSpec {
    /// Builds the named policy.
    pub fn build(&self) -> Box<dyn SpillPolicy> {
        match *self {
            SpillSpec::Always => Box::new(SpillAll),
            SpillSpec::MinBlocks(min_blocks) => Box::new(SpillMinBlocks { min_blocks }),
        }
    }
}

/// Declarative, serde-able name for a built-in [`FetchPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FetchSpec {
    /// [`FetchAll`] — the default.
    #[default]
    Always,
    /// [`FetchMinTokens`] with the given floor.
    MinTokens(u64),
}

impl FetchSpec {
    /// Builds the named policy.
    pub fn build(&self) -> Box<dyn FetchPolicy> {
        match *self {
            FetchSpec::Always => Box::new(FetchAll),
            FetchSpec::MinTokens(min_tokens) => Box::new(FetchMinTokens { min_tokens }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_fetch_round_trip_conserves_blocks() {
        let mut tier = KvTier::new(16, 8);
        let outcome = tier.spill(7, 40); // 3 blocks
        assert!(outcome.accepted);
        assert_eq!(outcome.evicted_entries, 0);
        assert_eq!(tier.blocks_in_use(), 3);
        assert_eq!(tier.peek(7), Some(40));
        assert_eq!(tier.fetch(7), Some(40));
        assert_eq!(tier.blocks_in_use(), 0);
        assert_eq!(tier.fetch(7), None);
    }

    #[test]
    fn clear_cold_starts_the_tier() {
        let mut tier = KvTier::new(16, 8);
        assert!(tier.spill(7, 40).accepted);
        assert!(tier.spill(9, 16).accepted);
        tier.clear();
        assert!(tier.is_empty());
        assert_eq!(tier.blocks_in_use(), 0);
        assert_eq!(tier.peek(7), None);
        assert_eq!(tier.fetch(9), None);
        // The tier still works after a cold start.
        assert!(tier.spill(7, 40).accepted);
        assert_eq!(tier.blocks_in_use(), 3);
    }

    #[test]
    fn respill_keeps_the_longer_record() {
        let mut tier = KvTier::new(16, 8);
        assert!(tier.spill(7, 64).accepted); // 4 blocks
        assert!(tier.spill(7, 32).accepted); // shorter: no-op on length
        assert_eq!(tier.peek(7), Some(64));
        assert_eq!(tier.blocks_in_use(), 4);
        assert!(tier.spill(7, 96).accepted); // longer: extends in place
        assert_eq!(tier.peek(7), Some(96));
        assert_eq!(tier.blocks_in_use(), 6);
    }

    #[test]
    fn budget_pressure_drops_the_coldest_entry() {
        let mut tier = KvTier::new(16, 6);
        assert!(tier.spill(1, 48).accepted); // 3 blocks
        assert!(tier.spill(2, 48).accepted); // 3 blocks, tier full
                                             // Touch 1 so 2 becomes the coldest.
        assert!(tier.spill(1, 48).accepted);
        let outcome = tier.spill(3, 32); // needs 2: must drop 2's 3 blocks
        assert!(outcome.accepted);
        assert_eq!(outcome.evicted_entries, 1);
        assert_eq!(outcome.evicted_blocks, 3);
        assert_eq!(tier.peek(2), None);
        assert!(tier.peek(1).is_some() && tier.peek(3).is_some());
        assert_eq!(tier.blocks_in_use(), 5);
    }

    #[test]
    fn an_oversized_prefix_is_rejected_without_eviction() {
        let mut tier = KvTier::new(16, 4);
        assert!(tier.spill(1, 32).accepted);
        let outcome = tier.spill(2, 1_000); // 63 blocks > whole budget
        assert!(!outcome.accepted);
        assert_eq!(outcome.evicted_entries, 0);
        assert_eq!(tier.peek(1), Some(32)); // untouched
        assert_eq!(tier.blocks_in_use(), 2);
    }

    #[test]
    fn extending_a_record_never_evicts_itself() {
        let mut tier = KvTier::new(16, 4);
        assert!(tier.spill(9, 32).accepted); // 2 blocks
        let outcome = tier.spill(9, 64); // grow to the whole budget
        assert!(outcome.accepted);
        assert_eq!(outcome.evicted_entries, 0);
        assert_eq!(tier.peek(9), Some(64));
        assert_eq!(tier.free_blocks(), 0);
    }

    #[test]
    fn stats_snapshot() {
        let mut tier = KvTier::new(8, 10);
        assert!(tier.spill(3, 20).accepted);
        let stats = tier.stats();
        assert_eq!(stats.block_size, 8);
        assert_eq!(stats.budget_blocks, 10);
        assert_eq!(stats.blocks_in_use, 3);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn policy_built_ins_and_labels() {
        let mut spill_all = SpillSpec::Always.build();
        let mut spill_min = SpillSpec::MinBlocks(4).build();
        let c = SpillCandidate {
            key: 1,
            tokens: 48,
            blocks: 3,
        };
        assert!(spill_all.should_spill(&c));
        assert!(!spill_min.should_spill(&c));
        assert_eq!(spill_all.label(), "spill-all");
        assert_eq!(spill_min.label(), "spill-min-blocks:4");

        let mut fetch_all = FetchSpec::Always.build();
        let mut fetch_min = FetchSpec::MinTokens(64).build();
        let f = FetchCandidate {
            key: 1,
            tier_tokens: 48,
            reuse_tokens: 100,
            usable_tokens: 48,
        };
        assert!(fetch_all.should_fetch(&f));
        assert!(!fetch_min.should_fetch(&f));
        assert_eq!(fetch_all.label(), "fetch-all");
        assert_eq!(fetch_min.label(), "fetch-min-tokens:64");
    }
}
