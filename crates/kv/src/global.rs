//! The fleet-wide prefix directory: every replica's spilled records,
//! shared over the inter-node fabric.
//!
//! A [`KvTier`](crate::KvTier) is private: a conversation that re-lands
//! on the *wrong* replica re-prefills its context from scratch even
//! though that context sits, spilled, one fabric hop away. A
//! [`GlobalKvTier`] closes the gap — one directory, keyed by
//! conversation prefix, registering which replica owns each spilled
//! record and how many reusable tokens it holds. A fork-miss that also
//! misses the local tier can consult the directory and re-materialize
//! the prefix from its owner at inter-node fabric cost.
//!
//! Coherence is trivial because the records are immutable *logical*
//! token counts: a prefix only ever grows, so registration is
//! first-writer-wins on the owner and extend-only on the length, and
//! nothing is ever invalidated. Reading an entry never removes it — the
//! owner keeps its copy, and a remote fetch is a copy-out, not a
//! transfer of ownership. That append-only discipline is also what
//! makes deterministic fleet co-simulation cheap: the serving engine
//! merges each replica's registrations at control-plane barriers in
//! replica order, and between barriers every replica reads a frozen
//! view.
//!
//! Like everything in this crate, the directory is pure bookkeeping:
//! the fabric transfer a remote fetch pays is priced by the serving
//! layer (a `TransferCost` over the cluster's inter-node `LinkSpec`, in
//! `papi-interconnect`).

use std::collections::HashMap;

/// One spilled prefix's fleet-wide registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalEntry {
    /// Replica index whose tier spilled the record first
    /// (first-writer-wins; never reassigned).
    pub owner: usize,
    /// Reusable logical tokens under the key (extend-only: re-spills
    /// keep the longer record).
    pub tokens: u64,
}

/// Occupancy snapshot of a [`GlobalKvTier`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalTierStats {
    /// Tokens per block (the hot pools' granularity, so footprints
    /// compare directly).
    pub block_size: u64,
    /// Registered prefixes.
    pub entries: u64,
    /// Logical tokens registered across all entries.
    pub tokens: u64,
    /// Blocks those tokens occupy.
    pub blocks: u64,
}

/// What a [`GlobalKvTier::publish`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// A new key: the caller became the record's owner.
    Registered,
    /// The key existed and the record grew to the published length
    /// (the owner is unchanged).
    Extended,
    /// The key existed with an equal or longer record: no change.
    Unchanged,
}

/// The fleet-wide directory of spilled prefixes.
///
/// Append-only within a serving episode: entries register and extend,
/// never shrink or vanish — [`retire`](Self::retire) exists for
/// conservation tests and episode teardown, not for the serving path.
#[derive(Debug, Clone, Default)]
pub struct GlobalKvTier {
    block_size: u64,
    entries: HashMap<u64, GlobalEntry>,
    publishes: u64,
    extensions: u64,
}

impl GlobalKvTier {
    /// A directory accounting in `block_size`-token blocks (use the hot
    /// pools' block size so footprints compare).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[track_caller]
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "global tier block size must be positive");
        Self {
            block_size,
            entries: HashMap::new(),
            publishes: 0,
            extensions: 0,
        }
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Blocks needed to hold `tokens` logical tokens.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size)
    }

    /// New keys registered so far (owner assignments).
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Existing records grown by a longer re-spill.
    pub fn extensions(&self) -> u64 {
        self.extensions
    }

    /// Registers `owner`'s spilled record of `tokens` logical tokens
    /// under `key`. First writer wins the owner slot; the token count
    /// is extend-only. Returns what changed.
    pub fn publish(&mut self, key: u64, owner: usize, tokens: u64) -> PublishOutcome {
        match self.entries.get_mut(&key) {
            None => {
                self.entries.insert(key, GlobalEntry { owner, tokens });
                self.publishes += 1;
                PublishOutcome::Registered
            }
            Some(entry) if tokens > entry.tokens => {
                entry.tokens = tokens;
                self.extensions += 1;
                PublishOutcome::Extended
            }
            Some(_) => PublishOutcome::Unchanged,
        }
    }

    /// The registration under `key`, if any. A lookup never removes the
    /// entry: the owner keeps its record, and a remote fetch copies it
    /// out.
    pub fn lookup(&self, key: u64) -> Option<GlobalEntry> {
        self.entries.get(&key).copied()
    }

    /// Whether `key` is registered anywhere in the fleet.
    pub fn resident(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Removes the registration under `key` and returns it — episode
    /// teardown and conservation tests only; the serving path never
    /// retires an entry (records are immutable, no invalidation).
    pub fn retire(&mut self, key: u64) -> Option<GlobalEntry> {
        self.entries.remove(&key)
    }

    /// Occupancy snapshot (sums over entries — order-independent).
    pub fn stats(&self) -> GlobalTierStats {
        let tokens: u64 = self.entries.values().map(|e| e.tokens).sum();
        let blocks: u64 = self
            .entries
            .values()
            .map(|e| self.blocks_for(e.tokens))
            .sum();
        GlobalTierStats {
            block_size: self.block_size,
            entries: self.entries.len() as u64,
            tokens,
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_writer_wins_the_owner_slot() {
        let mut dir = GlobalKvTier::new(16);
        assert_eq!(dir.publish(7, 2, 64), PublishOutcome::Registered);
        // A later replica spilling the same key cannot steal ownership.
        assert_eq!(dir.publish(7, 5, 64), PublishOutcome::Unchanged);
        assert_eq!(
            dir.lookup(7),
            Some(GlobalEntry {
                owner: 2,
                tokens: 64
            })
        );
        assert_eq!(dir.publishes(), 1);
    }

    #[test]
    fn records_are_extend_only() {
        let mut dir = GlobalKvTier::new(16);
        assert_eq!(dir.publish(7, 0, 64), PublishOutcome::Registered);
        assert_eq!(dir.publish(7, 3, 96), PublishOutcome::Extended);
        assert_eq!(dir.publish(7, 1, 32), PublishOutcome::Unchanged);
        let entry = dir.lookup(7).expect("registered");
        assert_eq!(entry.owner, 0, "extension must not reassign the owner");
        assert_eq!(entry.tokens, 96, "a prefix only ever grows");
        assert_eq!(dir.extensions(), 1);
    }

    #[test]
    fn lookup_never_removes() {
        let mut dir = GlobalKvTier::new(16);
        dir.publish(3, 1, 40);
        assert!(dir.resident(3));
        assert_eq!(dir.lookup(3).map(|e| e.tokens), Some(40));
        assert_eq!(dir.lookup(3).map(|e| e.tokens), Some(40));
        assert_eq!(dir.entries.len(), 1);
    }

    #[test]
    fn retire_drains_occupancy() {
        let mut dir = GlobalKvTier::new(16);
        dir.publish(1, 0, 40);
        dir.publish(2, 1, 16);
        assert_eq!(dir.stats().blocks, 3 + 1);
        assert_eq!(dir.retire(1).map(|e| e.tokens), Some(40));
        assert_eq!(dir.retire(1), None);
        assert_eq!(dir.retire(2).map(|e| e.owner), Some(1));
        assert!(dir.is_empty());
        assert_eq!(dir.stats().blocks, 0);
    }

    #[test]
    fn stats_account_in_hot_pool_blocks() {
        let mut dir = GlobalKvTier::new(8);
        dir.publish(1, 0, 20); // 3 blocks
        dir.publish(2, 2, 8); // 1 block
        let stats = dir.stats();
        assert_eq!(stats.block_size, 8);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.tokens, 28);
        assert_eq!(stats.blocks, 4);
        assert_eq!(dir.blocks_for(20), 3);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_is_rejected() {
        GlobalKvTier::new(0);
    }
}
