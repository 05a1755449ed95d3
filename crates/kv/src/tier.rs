//! The KV capacity tier: spill-to-host offload instead of eviction.
//!
//! Under pool pressure the serving engine's only relief used to be
//! discarding cold cached prefixes
//! ([`PrefixTree::evict_lru_entry`](crate::PrefixTree::evict_lru_entry))
//! or preempting live requests — both
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
//! The traffic follows one rule each way: the serving session spills
//! every evicted non-empty prefix, and fetches back every re-landed
//! one whose usable overlap the hot pool can make room for.

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

/// What a spill attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillOutcome {
    /// Whether the prefix landed in the tier (`false`: it exceeded the
    /// whole budget).
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
/// (a `TransferCost` over the DDR5 DIMM `LinkSpec` of
/// `papi_core::interconnect`) — the tier itself is price-free so it can be
/// unit-tested as a data structure.
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

    /// The tier's block budget.
    pub fn budget_blocks(&self) -> u64 {
        self.budget_blocks
    }

    /// Blocks the spilled entries occupy right now.
    pub fn blocks_in_use(&self) -> u64 {
        self.blocks_in_use
    }

    /// Blocks still unoccupied.
    pub(crate) fn free_blocks(&self) -> u64 {
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
    fn occupancy_after_a_spill() {
        let mut tier = KvTier::new(8, 10);
        assert!(tier.spill(3, 20).accepted);
        assert_eq!(tier.block_size, 8);
        assert_eq!(tier.budget_blocks(), 10);
        assert_eq!(tier.blocks_in_use(), 3);
        assert_eq!(tier.len(), 1);
    }
}
