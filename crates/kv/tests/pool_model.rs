//! Model-based property test for [`KvBlockPool`]: arbitrary
//! alloc / append / fork / release sequences — and prefix-cache
//! publish / fork / evict traffic — never leak blocks, never
//! double-free, and every block's refcount always equals the number of
//! live holders.
//!
//! The model is the set of live [`KvSeq`]s plus a mirror of every
//! [`PrefixTree`] entry's block list: after every operation the pool's
//! counters are re-derived from those holders and compared against the
//! pool's own bookkeeping.

use papi_kv::{BlockId, KvBlockPool, KvSeq, KvTier, PrefixTree};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Mirror of a [`PrefixTree`]: each key's cached block ids.
type TreeModel = HashMap<u64, Vec<BlockId>>;

fn check_against_model(pool: &KvBlockPool, seqs: &[KvSeq], seen: &mut HashSet<BlockId>) {
    check_with_cache(pool, seqs, &TreeModel::new(), None, seen);
}

/// `seen` accumulates every block id ever held, so a block no holder
/// keeps any more is checked to have dropped to refcount zero.
fn check_with_cache(
    pool: &KvBlockPool,
    seqs: &[KvSeq],
    cache: &TreeModel,
    tree: Option<&PrefixTree>,
    seen: &mut HashSet<BlockId>,
) {
    // Re-derive per-block holder counts from the live sequences and
    // the cache entries: `(holders, cache holders)`.
    let mut holders: HashMap<BlockId, (u32, u32)> = HashMap::new();
    for seq in seqs {
        for b in seq.block_ids() {
            holders.entry(b).or_default().0 += 1;
        }
    }
    for &b in cache.values().flatten() {
        let h = holders.entry(b).or_default();
        h.0 += 1;
        h.1 += 1;
    }
    // No leaks, no phantom blocks: in-use is exactly the held set, and
    // the free blocks are its complement.
    assert_eq!(pool.blocks_in_use(), holders.len() as u64);
    assert_eq!(
        pool.free_blocks() + pool.blocks_in_use(),
        pool.total_blocks()
    );
    // Refcounts match live holders, block by block.
    for (&b, &(rc, _)) in &holders {
        assert_eq!(
            pool.refcount(b),
            rc,
            "block {b}: pool refcount disagrees with live holders"
        );
    }
    seen.extend(holders.keys());
    for &b in seen.iter().filter(|b| !holders.contains_key(b)) {
        assert_eq!(pool.refcount(b), 0, "block {b}: released but still counted");
    }
    // Evictable blocks: those whose one holder is a cache entry.
    let exclusive = holders.values().filter(|&&h| h == (1, 1)).count() as u64;
    assert_eq!(pool.tracked_exclusive_blocks(), exclusive);
    if let Some(tree) = tree {
        assert_eq!(tree.evictable_blocks(pool), exclusive);
        assert_eq!(tree.len(), cache.len());
        let cached: usize = cache.values().map(Vec::len).sum();
        assert_eq!(tree.cached_blocks(), cached as u64);
    }
    // Every sequence keeps the capacity invariant.
    for seq in seqs {
        assert_eq!(seq.block_count(), pool.blocks_for(seq.tokens()));
        assert_eq!(seq.block_ids().count() as u64, seq.block_count());
    }
}

fn run_ops(block_size: u64, total_blocks: u64, ops: &[(u8, u64)]) {
    let mut pool = KvBlockPool::new(block_size, total_blocks);
    let mut tree = PrefixTree::new();
    let mut cache = TreeModel::new();
    let mut seqs: Vec<KvSeq> = Vec::new();
    let mut seen = HashSet::new();
    for &(op, arg) in ops {
        match op {
            // Open a fresh sequence and append up to `arg` tokens.
            0 => {
                let mut seq = pool.new_seq();
                let before = pool.stats();
                if !pool.append(&mut seq, arg) {
                    // A failed allocation must leave the pool untouched.
                    assert_eq!(pool.stats(), before);
                    assert_eq!(seq.tokens(), 0);
                }
                seqs.push(seq);
            }
            // Append to an existing sequence (may trigger copy-on-write
            // when its partial tail is shared with a fork).
            1 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                let mut seq = seqs.swap_remove(idx);
                let tokens_before = seq.tokens();
                if !pool.append(&mut seq, 1 + arg % 37) {
                    assert_eq!(seq.tokens(), tokens_before);
                }
                seqs.push(seq);
            }
            // Fork the full-block prefix of an existing sequence.
            2 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                let full = seqs[idx].tokens() / block_size;
                fork_and_check(&mut pool, &mut seqs, idx, full);
            }
            // Release a sequence.
            3 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                let seq = seqs.swap_remove(idx);
                pool.release_seq(seq);
            }
            // Export a sequence (migration detach) and immediately
            // re-import it. Import allocates private blocks, so it can
            // fail when the exported sequence shared blocks with forks
            // (export freed fewer blocks than the import needs); a
            // failed import drops the sequence, which the model treats
            // as a release.
            4 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                let seq = seqs.swap_remove(idx);
                let tokens = seq.tokens();
                let export = pool.export_seq(seq);
                assert_eq!(export.tokens, tokens);
                assert_eq!(export.blocks, pool.blocks_for(tokens));
                check_with_cache(&pool, &seqs, &cache, Some(&tree), &mut seen); // in flight: holds nothing
                if let Some(imported) = pool.import_seq(export) {
                    assert_eq!(imported.tokens(), tokens);
                    seqs.push(imported);
                }
            }
            // Publish a sequence's leading tokens into the prefix cache
            // under a small key space, so extensions, no-op republishes
            // and one block cached under two keys all happen.
            5 if !seqs.is_empty() => {
                let seq = &seqs[arg as usize % seqs.len()];
                let key = arg % 3;
                let full = (arg / 3 % 9).min(seq.tokens() / block_size);
                let entry = cache.entry(key).or_default();
                let grows = full as usize > entry.len();
                if grows {
                    let have = entry.len();
                    entry.extend(seq.block_ids().skip(have).take(full as usize - have));
                }
                assert_eq!(tree.publish(key, seq, full * block_size, &mut pool), grows);
            }
            // Fork a cached prefix: the fork shares the entry's blocks.
            6 => {
                let key = arg % 3;
                let want = arg / 3 % 9 * block_size;
                let usable = cache
                    .get(&key)
                    .map_or(0, |e| (e.len() as u64).min(want / block_size));
                assert_eq!(tree.peek(key, want, &pool), usable * block_size);
                match tree.fork(key, want, &mut pool) {
                    Some(fork) => {
                        assert!(fork
                            .block_ids()
                            .eq(cache[&key][..usable as usize].iter().copied()));
                        seqs.push(fork);
                    }
                    None => assert_eq!(usable, 0),
                }
            }
            // Evict the coldest entry; it frees exactly the blocks no
            // one else holds.
            7 => {
                let in_use = pool.blocks_in_use();
                match tree.evict_lru_entry(&mut pool) {
                    Some(evicted) => {
                        let blocks = cache.remove(&evicted.key).expect("evicted a cached key");
                        assert_eq!(evicted.tokens, blocks.len() as u64 * block_size);
                        assert_eq!(pool.blocks_in_use(), in_use - evicted.freed);
                    }
                    None => assert!(cache.is_empty()),
                }
            }
            // Fork any number of full blocks, from none to all of them
            // (a partial fork splits the holder runs).
            8 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                let full = arg % (seqs[idx].tokens() / block_size + 1);
                fork_and_check(&mut pool, &mut seqs, idx, full);
            }
            _ => {}
        }
        check_with_cache(&pool, &seqs, &cache, Some(&tree), &mut seen);
    }
    // Draining everything returns the pool to pristine.
    for seq in seqs.drain(..) {
        pool.release_seq(seq);
    }
    tree.clear(&mut pool);
    assert_eq!(pool.blocks_in_use(), 0);
    assert_eq!(pool.free_blocks(), pool.total_blocks());
}

/// Forks the first `full` blocks of `seqs[idx]`; the fork must share
/// exactly those blocks.
fn fork_and_check(pool: &mut KvBlockPool, seqs: &mut Vec<KvSeq>, idx: usize, full: u64) {
    let forked = pool.fork(&seqs[idx], full);
    assert_eq!(forked.tokens(), full * pool.block_size());
    let prefix: Vec<BlockId> = seqs[idx].block_ids().take(full as usize).collect();
    assert!(forked.block_ids().eq(prefix));
    seqs.push(forked);
}

/// Mirrors the tier against a model map, tolerating the tier's own LRU
/// drops (whose victims the model discovers by peeking): every
/// surviving entry matches the model's token count, occupancy is
/// exactly the sum over survivors, and nothing lives in both tiers —
/// a spilled context holds zero pool blocks by construction (spill
/// crosses through an export), which `check_against_model` already
/// proves for the pool side.
fn sync_tier_model(tier: &KvTier, model: &mut HashMap<u64, u64>) {
    model.retain(|&key, &mut tokens| match tier.peek(key) {
        Some(held) => {
            assert_eq!(held, tokens, "tier entry {key} drifted from the model");
            true
        }
        None => false, // LRU-dropped under tier budget pressure
    });
    assert_eq!(tier.len(), model.len(), "tier holds entries the model lost");
    let expected: u64 = model.values().map(|&t| tier.blocks_for(t)).sum();
    assert_eq!(tier.blocks_in_use(), expected, "tier occupancy drifted");
    assert!(tier.blocks_in_use() <= tier.budget_blocks());
}

/// Arbitrary spill/fetch traffic between a hot pool and a capacity
/// tier: pool invariants hold throughout (re-derived from live
/// sequences), tier occupancy always equals the modeled survivor set,
/// and a context is never resident in both tiers at once.
fn run_tier_ops(block_size: u64, total_blocks: u64, budget_blocks: u64, ops: &[(u8, u64)]) {
    let mut pool = KvBlockPool::new(block_size, total_blocks);
    let mut tier = KvTier::new(block_size, budget_blocks);
    let mut seqs: Vec<KvSeq> = Vec::new();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut seen = HashSet::new();
    for &(op, arg) in ops {
        match op {
            // Open a fresh sequence and append up to `arg` tokens (a
            // full pool refuses and leaves the sequence empty).
            0 => {
                let mut seq = pool.new_seq();
                let _ = pool.append(&mut seq, arg % 100);
                seqs.push(seq);
            }
            // Release a sequence.
            1 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                pool.release_seq(seqs.swap_remove(idx));
            }
            // Spill a live sequence: export it (the pool frees its
            // blocks — the context now holds *nothing* hot) and record
            // it in the tier under a small key space so re-spills and
            // extend-in-place both happen.
            2 if !seqs.is_empty() => {
                let idx = arg as usize % seqs.len();
                let seq = seqs.swap_remove(idx);
                let tokens = seq.tokens();
                let export = pool.export_seq(seq);
                assert_eq!(export.tokens, tokens);
                let key = arg % 6;
                let prior = model.get(&key).copied().unwrap_or(0);
                let outcome = tier.spill(key, tokens);
                if outcome.accepted {
                    model.insert(key, tokens.max(prior));
                } else {
                    // Rejected: the whole record exceeds the budget,
                    // and the tier must be untouched.
                    assert!(tier.blocks_for(tokens.max(prior)) > tier.budget_blocks());
                    assert_eq!(outcome.evicted_entries, 0);
                }
            }
            // Fetch a spilled context back: the tier frees its record
            // first (one tier at a time), then the pool
            // re-materializes it if there is room — the serving layer
            // guarantees room before fetching; here a failed append
            // just drops the context.
            3 => {
                let key = arg % 6;
                if let Some(tokens) = tier.fetch(key) {
                    assert_eq!(model.remove(&key), Some(tokens));
                    let mut seq = pool.new_seq();
                    if pool.append(&mut seq, tokens) {
                        seqs.push(seq);
                    } else {
                        pool.release_seq(seq);
                    }
                }
            }
            _ => {}
        }
        check_against_model(&pool, &seqs, &mut seen);
        sync_tier_model(&tier, &mut model);
    }
    // Draining both tiers returns everything to pristine.
    for seq in seqs.drain(..) {
        pool.release_seq(seq);
    }
    let keys: Vec<u64> = model.keys().copied().collect();
    for key in keys {
        assert!(tier.fetch(key).is_some());
    }
    assert_eq!(pool.blocks_in_use(), 0);
    assert_eq!(tier.blocks_in_use(), 0);
    assert!(tier.is_empty());
}

/// A cache entry extended from a second sequence holds that
/// sequence's later blocks while a fork holds its first: the two runs
/// have equal refcounts but different cache holders, and must stay
/// apart, or eviction accounting drifts once the sequence is released.
#[test]
fn cache_extension_beside_a_fork_keeps_runs_apart() {
    let mut pool = KvBlockPool::new(8, 16);
    let mut tree = PrefixTree::new();
    let (mut a, mut b) = (pool.new_seq(), pool.new_seq());
    assert!(pool.append(&mut a, 8) && pool.append(&mut b, 24));
    let fork = pool.fork(&b, 1);
    assert!(tree.publish(7, &a, 8, &mut pool));
    assert!(tree.publish(7, &b, 24, &mut pool)); // caches b's blocks 1..3
    let mut cache = TreeModel::new();
    cache.insert(7, a.block_ids().chain(b.block_ids().skip(1)).collect());
    let mut seen = HashSet::new();
    pool.release_seq(b);
    let seqs = [a, fork];
    check_with_cache(&pool, &seqs, &cache, Some(&tree), &mut seen);
    assert_eq!(pool.tracked_exclusive_blocks(), 2);
}

proptest! {
    #[test]
    fn paged_pool_never_leaks_or_double_frees(
        ops in proptest::collection::vec((0u8..5, 0u64..64), 1..120),
    ) {
        run_ops(16, 48, &ops);
    }

    /// Spill/fetch traffic across the hot pool and the capacity tier
    /// conserves occupancy on both sides: tier blocks always equal the
    /// surviving records' footprint, pool refcounts stay derived from
    /// live holders, and no context is ever resident in both at once.
    #[test]
    fn tier_spill_fetch_conserves_occupancy_across_tiers(
        ops in proptest::collection::vec((0u8..4, 0u64..64), 1..120),
    ) {
        // Tier budget of 24 blocks at block 16 — small enough that
        // LRU drops and whole-record rejections both fire.
        run_tier_ops(16, 48, 24, &ops);
    }

    /// Prefix-cache traffic and partial forks on top of sequence
    /// traffic: cache entries count as holders, and the pool's
    /// evictable count always equals the blocks whose only holder is a
    /// cache entry.
    #[test]
    fn prefix_cache_holds_match_the_model(
        ops in proptest::collection::vec((0u8..9, 0u64..64), 1..160),
    ) {
        run_ops(8, 96, &ops);
    }

    /// The same traffic at block size 1, where sequences hold dozens of
    /// blocks and forks cut anywhere inside a segment.
    #[test]
    fn scalar_prefix_cache_holds_match_the_model(
        ops in proptest::collection::vec((0u8..9, 0u64..64), 1..160),
    ) {
        run_ops(1, 400, &ops);
    }

    #[test]
    fn scalar_pool_never_leaks_or_double_frees(
        ops in proptest::collection::vec((0u8..5, 0u64..64), 1..120),
    ) {
        // Block size 1 — the scalar-equivalence configuration — obeys
        // the same invariants with one block per token.
        run_ops(1, 160, &ops);
    }

    /// The migration round trip: exporting every live sequence empties
    /// the pool (in-flight sequences occupy nothing), and importing
    /// them back restores occupancy and refcounts exactly — no leaks,
    /// no phantom blocks, at any block granularity.
    #[test]
    fn export_import_round_trip_restores_the_pool(
        granularity in 0u8..3,
        lengths in proptest::collection::vec(1u64..200, 1..12),
    ) {
        let block_size = [1u64, 4, 16][granularity as usize];
        let total: u64 = lengths.iter().map(|&t| t.div_ceil(block_size)).sum();
        let mut pool = KvBlockPool::new(block_size, total);
        let mut seqs: Vec<KvSeq> = Vec::new();
        for &tokens in &lengths {
            let mut seq = pool.new_seq();
            prop_assert!(pool.append(&mut seq, tokens));
            seqs.push(seq);
        }
        let before = pool.stats();
        let mut seen = HashSet::new();
        check_against_model(&pool, &seqs, &mut seen);

        let exports: Vec<_> = seqs.drain(..).map(|s| pool.export_seq(s)).collect();
        prop_assert_eq!(pool.blocks_in_use(), 0);
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());

        for export in exports {
            let imported = pool.import_seq(export).expect("round trip fits");
            prop_assert_eq!(imported.tokens(), export.tokens);
            seqs.push(imported);
        }
        prop_assert_eq!(pool.stats(), before);
        check_against_model(&pool, &seqs, &mut seen);

        for seq in seqs {
            pool.release_seq(seq);
        }
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());
    }
}
