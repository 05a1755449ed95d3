//! Copy-on-write prefix sharing across requests.
//!
//! Requests that share a prompt prefix — a fleet-wide system prompt,
//! or the accumulated context of a multi-turn conversation — should
//! not each hold (nor each re-prefill) a private copy of it. The
//! [`PrefixTree`] caches the *full blocks* of completed contexts under
//! a workload-level key; an arriving request carrying the same key
//! forks those blocks (one more holder per span, no copy) and prefills
//! only its unshared suffix.
//!
//! Structurally this is a radix tree specialized to the linear chains
//! the workload generates: each conversation extends one path, so every
//! path is kept path-compressed as a single growable entry per key
//! (turn *k + 1* extends the entry turn *k* published). Divergent
//! writes never touch shared blocks: only full blocks are cached, so a
//! forked sequence's appends land in fresh tail blocks (the pool's
//! copy-on-write guard covers the remaining corner).

use crate::pool::{KvBlockPool, KvSeq};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// The workload's description of a request's shareable prompt prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefixHint {
    /// Cache key the prefix lives under (conversation id, or a
    /// fleet-wide id for a shared system prompt).
    pub key: u64,
    /// Leading prompt tokens shared with earlier requests under `key`
    /// (how much of *this* prompt may be served from cache).
    pub reuse_tokens: u64,
    /// Leading tokens of this request's *final* context (prompt +
    /// response) that later requests under `key` may share — what to
    /// publish into the cache when the request completes. Zero opts
    /// out (e.g. the last turn of a conversation, which nothing will
    /// ever extend).
    pub publish_tokens: u64,
}

#[derive(Debug, Clone)]
struct PrefixNode {
    /// The cache's own hold on the entry's full blocks.
    seq: KvSeq,
    last_use: u64,
    hits: u64,
}

/// What [`PrefixTree::evict_lru_entry`] removed — enough identity for
/// the caller to spill the prefix to a capacity tier instead of losing
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedPrefix {
    /// The evicted entry's cache key.
    pub key: u64,
    /// Logical tokens the entry cached (full blocks × block size).
    pub tokens: u64,
    /// Blocks that actually became free (blocks still held by live
    /// sequences stay allocated).
    pub freed: u64,
}

/// Serving-visible prefix-cache and paging counters, accumulated by the
/// engine and embedded in its report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KvCacheStats {
    /// Tokens per block.
    pub block_size: u64,
    /// Physical blocks in the pool.
    pub total_blocks: u64,
    /// Largest number of blocks ever simultaneously held.
    pub peak_blocks_in_use: u64,
    /// Prefix-cache lookups (one per admission carrying a hint).
    pub prefix_lookups: u64,
    /// Lookups that forked at least one cached block.
    pub prefix_hits: u64,
    /// Prompt tokens served from cached prefixes instead of prefill.
    pub cached_prompt_tokens: u64,
    /// Tokens actually prefilled (admission waves and chunks, including
    /// recompute after preemption).
    pub prefilled_tokens: u64,
    /// Contexts published into the prefix cache (inserts + extensions).
    pub prefix_insertions: u64,
    /// Cold prefixes evicted under pool pressure.
    pub prefix_evictions: u64,
    /// Prefill waves priced (equals admission waves when monolithic;
    /// counts every chunk when chunked prefill is on).
    pub prefill_chunks: u64,
    /// Worst observed internal fragmentation: allocated-but-unwritten
    /// token slots as a fraction of allocated slots.
    pub peak_fragmentation: f64,
    /// Capacity-tier block budget (zero: no tier configured).
    pub tier_budget_blocks: u64,
    /// Largest number of tier blocks ever simultaneously occupied.
    pub tier_peak_blocks: u64,
    /// Evicted prefixes recorded into the capacity tier instead of
    /// discarded.
    pub tier_spills: u64,
    /// Tokens those spills preserved.
    pub tier_spilled_tokens: u64,
    /// Spilled prefixes fetched back into the hot pool on reuse.
    pub tier_fetches: u64,
    /// Tokens those fetches restored (served from the tier instead of
    /// re-prefilled).
    pub tier_fetched_tokens: u64,
    /// Spilled prefixes the tier itself dropped (LRU) under its own
    /// budget pressure — true data loss.
    pub tier_evictions: u64,
    /// Total fetch transfer time, in seconds (each fetch's latency also
    /// lands in the admitted request's TTFT).
    pub tier_fetch_time_s: f64,
    /// Total fetch transfer energy, in joules.
    pub tier_fetch_energy_j: f64,
    /// Prefixes re-materialized from *another* replica's spilled record
    /// via the fleet-wide directory (zero: no shared tier, or every hit
    /// was local).
    pub remote_fetches: u64,
    /// Tokens those remote fetches restored across the fabric.
    pub remote_fetched_tokens: u64,
    /// Total remote-fetch wire time, in seconds (each fetch's latency
    /// also lands in the admitted request's TTFT).
    pub remote_fetch_time_s: f64,
    /// Total remote-fetch wire energy, in joules.
    pub remote_fetch_energy_j: f64,
}

impl KvCacheStats {
    /// Fraction of prefill demand served from the prefix cache.
    pub fn hit_rate(&self) -> f64 {
        let demand = self.cached_prompt_tokens + self.prefilled_tokens;
        if demand == 0 {
            return 0.0;
        }
        self.cached_prompt_tokens as f64 / demand as f64
    }
}

/// The prefix cache: completed contexts' full blocks, keyed by
/// workload prefix id, with LRU eviction under pool pressure.
#[derive(Debug, Clone, Default)]
pub struct PrefixTree {
    nodes: HashMap<u64, PrefixNode>,
    /// `(last_use, key)` of every entry: the LRU victim is the first.
    lru: BTreeSet<(u64, u64)>,
    tick: u64,
}

impl PrefixTree {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Blocks the cache holds references on (shared blocks included).
    pub fn cached_blocks(&self) -> u64 {
        self.nodes.values().map(|n| n.seq.block_count()).sum()
    }

    /// Blocks only the cache holds (refcount 1) — what eviction could
    /// return to the free pool right now. O(1): the pool maintains the
    /// count incrementally for the blocks this tree holds (one tree per
    /// pool).
    pub fn evictable_blocks(&self, pool: &KvBlockPool) -> u64 {
        let evictable = pool.tracked_exclusive_blocks();
        debug_assert_eq!(
            evictable,
            self.nodes
                .values()
                .flat_map(|n| n.seq.block_ids())
                .filter(|&b| pool.refcount(b) == 1)
                .count() as u64,
            "incremental evictable counter drifted from the node scan"
        );
        evictable
    }

    /// Cached tokens usable by a request that shares `want_tokens`
    /// leading tokens under `key` — full blocks only, without touching
    /// recency or stats (the admission planner peeks before it
    /// commits).
    pub fn peek(&self, key: u64, want_tokens: u64, pool: &KvBlockPool) -> u64 {
        self.nodes.get(&key).map_or(0, |node| {
            node.seq.block_count().min(want_tokens / pool.block_size()) * pool.block_size()
        })
    }

    /// Forks the cached prefix under `key` into a new sequence, up to
    /// `want_tokens` (rounded down to full blocks). Returns `None` on
    /// a miss (no entry, or nothing usable at this length). Refreshes
    /// the entry's recency on a hit.
    pub fn fork(&mut self, key: u64, want_tokens: u64, pool: &mut KvBlockPool) -> Option<KvSeq> {
        self.tick += 1;
        let tick = self.tick;
        let node = self.nodes.get_mut(&key)?;
        let usable = node.seq.block_count().min(want_tokens / pool.block_size());
        if usable == 0 {
            return None;
        }
        self.lru.remove(&(node.last_use, key));
        self.lru.insert((tick, key));
        node.last_use = tick;
        node.hits += 1;
        Some(pool.fork(&node.seq, usable))
    }

    /// Publishes the first `tokens` of a completed context under `key`:
    /// caches its full blocks, extending an existing entry if the new
    /// context is longer. Returns `true` if anything was inserted or
    /// extended.
    ///
    /// `seq` must cover at least `tokens` token slots; only its
    /// leading full blocks are cached.
    pub fn publish(&mut self, key: u64, seq: &KvSeq, tokens: u64, pool: &mut KvBlockPool) -> bool {
        let full = tokens / pool.block_size();
        debug_assert!(seq.block_count() >= full, "publish beyond the held blocks");
        self.tick += 1;
        let node = self.nodes.entry(key).or_insert_with(|| PrefixNode {
            seq: KvSeq::default(),
            last_use: 0,
            hits: 0,
        });
        self.lru.remove(&(node.last_use, key));
        self.lru.insert((self.tick, key));
        node.last_use = self.tick;
        let cached = node.seq.block_count();
        if full <= cached {
            return false;
        }
        pool.cache_range(seq, cached, full, &mut node.seq);
        true
    }

    /// Evicts the least-recently-used entry, releasing its block
    /// references. Returns how many blocks actually became free (blocks
    /// still held by live sequences stay allocated), or `None` when the
    /// cache is empty.
    pub(crate) fn evict_lru(&mut self, pool: &mut KvBlockPool) -> Option<u64> {
        self.evict_lru_entry(pool).map(|e| e.freed)
    }

    /// Like `evict_lru`, but also reports *what* was
    /// evicted — the identity a capacity tier needs to remember the
    /// prefix instead of forgetting it.
    pub fn evict_lru_entry(&mut self, pool: &mut KvBlockPool) -> Option<EvictedPrefix> {
        // Ties break on the key so eviction order is deterministic.
        let (_, victim) = self.lru.pop_first()?;
        let node = self.nodes.remove(&victim).expect("victim exists");
        Some(EvictedPrefix {
            key: victim,
            tokens: node.seq.block_count() * pool.block_size(),
            freed: pool.release_cached(node.seq),
        })
    }

    /// Releases every cached entry back to the pool.
    pub fn clear(&mut self, pool: &mut KvBlockPool) {
        while self.evict_lru(pool).is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_of(pool: &mut KvBlockPool, tokens: u64) -> KvSeq {
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, tokens));
        seq
    }

    #[test]
    fn publish_then_fork_shares_full_blocks_only() {
        let mut pool = KvBlockPool::new(16, 32);
        let mut tree = PrefixTree::new();
        let seq = seq_of(&mut pool, 50); // 4 blocks, 3 full
        assert!(tree.publish(7, &seq, 50, &mut pool));
        assert_eq!(tree.cached_blocks(), 3);
        pool.release_seq(seq);
        assert_eq!(pool.blocks_in_use(), 3); // cache keeps the full blocks

        assert_eq!(tree.peek(7, 200, &pool), 48);
        assert_eq!(tree.peek(7, 20, &pool), 16); // capped by the request's share
        assert_eq!(tree.peek(8, 200, &pool), 0);
        let forked = tree.fork(7, 200, &mut pool).expect("hit");
        assert_eq!(forked.tokens(), 48);
        assert_eq!(pool.blocks_in_use(), 3); // shared, not copied
        pool.release_seq(forked);
    }

    #[test]
    fn fork_miss_on_unknown_key_or_tiny_share() {
        let mut pool = KvBlockPool::new(16, 8);
        let mut tree = PrefixTree::new();
        assert!(tree.fork(1, 64, &mut pool).is_none());
        let seq = seq_of(&mut pool, 32);
        tree.publish(1, &seq, 32, &mut pool);
        assert!(tree.fork(1, 15, &mut pool).is_none()); // under one block
        pool.release_seq(seq);
    }

    #[test]
    fn publish_extends_but_never_shrinks() {
        let mut pool = KvBlockPool::new(8, 32);
        let mut tree = PrefixTree::new();
        let short = seq_of(&mut pool, 16);
        assert!(tree.publish(3, &short, 16, &mut pool));
        // A longer context under the same key extends the entry…
        let long = seq_of(&mut pool, 40);
        assert!(tree.publish(3, &long, 40, &mut pool));
        assert_eq!(tree.cached_blocks(), 2 + 3);
        // …while a shorter republish is a no-op.
        assert!(!tree.publish(3, &short, 16, &mut pool));
        pool.release_seq(short);
        pool.release_seq(long);
        assert_eq!(tree.evictable_blocks(&pool), 5);
    }

    #[test]
    fn lru_eviction_frees_cold_entries_first() {
        let mut pool = KvBlockPool::new(8, 32);
        let mut tree = PrefixTree::new();
        for key in [1u64, 2, 3] {
            let seq = seq_of(&mut pool, 16);
            tree.publish(key, &seq, 16, &mut pool);
            pool.release_seq(seq);
        }
        // Touch 1 so 2 becomes the coldest.
        assert!(tree.fork(1, 64, &mut pool).is_some_and(|s| {
            pool.release_seq(s);
            true
        }));
        assert_eq!(tree.evict_lru(&mut pool), Some(2));
        assert_eq!(tree.peek(2, 64, &pool), 0);
        assert!(tree.peek(1, 64, &pool) > 0 && tree.peek(3, 64, &pool) > 0);
        tree.clear(&mut pool);
        assert_eq!(pool.blocks_in_use(), 0);
        assert!(tree.is_empty());
    }

    #[test]
    fn eviction_of_a_live_shared_prefix_frees_nothing_yet() {
        let mut pool = KvBlockPool::new(8, 16);
        let mut tree = PrefixTree::new();
        let seq = seq_of(&mut pool, 16);
        tree.publish(9, &seq, 16, &mut pool);
        let live = tree.fork(9, 64, &mut pool).expect("hit");
        pool.release_seq(seq);
        assert_eq!(tree.evictable_blocks(&pool), 0); // live fork holds them
        assert_eq!(tree.evict_lru(&mut pool), Some(0));
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(pool.release_seq(live), 2);
    }

    #[test]
    fn hit_rate_arithmetic() {
        let stats = KvCacheStats {
            cached_prompt_tokens: 300,
            prefilled_tokens: 700,
            ..Default::default()
        };
        assert!((stats.hit_rate() - 0.3).abs() < 1e-12);
        assert_eq!(KvCacheStats::default().hit_rate(), 0.0);
    }
}
