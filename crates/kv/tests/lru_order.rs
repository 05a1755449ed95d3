//! Reference property test for LRU victim order: [`PrefixTree`] and
//! [`KvTier`] must evict exactly the entry a full min-scan over
//! `(last_use, key)` picks, under arbitrary publish / fork / evict and
//! spill / fetch traffic.

use papi_kv::{KvBlockPool, KvTier, PrefixTree};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference victim: the smallest `(last_use, key)`, skipping `skip`.
fn min_scan(last_use: &HashMap<u64, u64>, skip: Option<u64>) -> Option<u64> {
    last_use
        .iter()
        .filter(|(&k, _)| Some(k) != skip)
        .min_by_key(|(&k, &t)| (t, k))
        .map(|(&k, _)| k)
}

/// Publish / fork / evict on a prefix tree against a recency mirror.
fn run_tree_ops(ops: &[(u8, u64)]) {
    const BLOCK: u64 = 4;
    let mut pool = KvBlockPool::new(BLOCK, 4_096);
    let mut tree = PrefixTree::new();
    // Per key: the tick of its last publish or fork hit.
    let mut last_use: HashMap<u64, u64> = HashMap::new();
    let mut blocks: HashMap<u64, u64> = HashMap::new();
    let mut tick = 0;
    for &(op, arg) in ops {
        let key = arg % 7;
        match op {
            // Publish a fresh context; a longer one extends the entry,
            // and every publish refreshes recency.
            0 => {
                let tokens = arg * 3;
                let mut seq = pool.new_seq();
                assert!(pool.append(&mut seq, tokens));
                tree.publish(key, &seq, tokens, &mut pool);
                pool.release_seq(seq);
                tick += 1;
                last_use.insert(key, tick);
                let held = blocks.entry(key).or_default();
                *held = (*held).max(tokens / BLOCK);
            }
            // Fork: only a hit refreshes recency, but every call ticks.
            1 => {
                tick += 1;
                let want = arg * 2;
                let usable = blocks.get(&key).map_or(0, |&b| b.min(want / BLOCK));
                match tree.fork(key, want, &mut pool) {
                    Some(fork) => {
                        assert!(usable > 0);
                        last_use.insert(key, tick);
                        pool.release_seq(fork);
                    }
                    None => assert_eq!(usable, 0),
                }
            }
            // Evict: the victim is the reference's coldest entry.
            _ => {
                let expected = min_scan(&last_use, None);
                let evicted = tree.evict_lru_entry(&mut pool).map(|e| e.key);
                assert_eq!(evicted, expected, "prefix tree picked the wrong victim");
                if let Some(key) = evicted {
                    last_use.remove(&key);
                    blocks.remove(&key);
                }
            }
        }
        assert_eq!(tree.len(), last_use.len());
    }
    tree.clear(&mut pool);
    assert_eq!(pool.blocks_in_use(), 0);
}

/// Spill / fetch on a capacity tier against a recency-and-length mirror.
fn run_tier_ops(ops: &[(u8, u64)]) {
    let mut tier = KvTier::new(8, 20);
    let mut last_use: HashMap<u64, u64> = HashMap::new();
    let mut tokens_of: HashMap<u64, u64> = HashMap::new();
    let mut tick = 0;
    for &(op, arg) in ops {
        let key = arg % 6;
        if op == 0 {
            let have = tokens_of.get(&key).copied().unwrap_or(0);
            let tokens = arg * 2;
            let want = tokens.max(have);
            let outcome = tier.spill(key, tokens);
            if tier.blocks_for(want) > tier.budget_blocks() {
                assert!(!outcome.accepted);
                continue;
            }
            assert!(outcome.accepted);
            // Reference: drop the coldest *other* entries until the
            // growth fits — a re-spill never evicts its own record.
            let mut used: u64 = tokens_of.values().map(|&t| tier.blocks_for(t)).sum();
            let need = tier.blocks_for(want) - tier.blocks_for(have);
            let mut dropped = 0;
            while tier.budget_blocks() - used < need {
                let victim = min_scan(&last_use, Some(key)).expect("a victim exists");
                last_use.remove(&victim);
                used -= tier.blocks_for(tokens_of.remove(&victim).expect("mirrored"));
                dropped += 1;
            }
            assert_eq!(outcome.evicted_entries, dropped);
            tick += 1;
            last_use.insert(key, tick);
            tokens_of.insert(key, want);
        } else if let Some(tokens) = tier.fetch(key) {
            assert_eq!(tokens_of.remove(&key), Some(tokens));
            last_use.remove(&key);
        } else {
            assert!(!tokens_of.contains_key(&key));
        }
        // The same survivors, at the same lengths.
        assert_eq!(tier.len(), tokens_of.len());
        for (&k, &t) in &tokens_of {
            assert_eq!(tier.peek(k), Some(t), "tier dropped the wrong entry");
        }
    }
}

proptest! {
    #[test]
    fn prefix_tree_evicts_the_reference_victim(
        ops in proptest::collection::vec((0u8..3, 0u64..64), 1..200),
    ) {
        run_tree_ops(&ops);
    }

    /// Small budget and a small key space: re-spills that extend a
    /// record, LRU drops and whole-record rejections all fire.
    #[test]
    fn tier_evicts_the_reference_victim(
        ops in proptest::collection::vec((0u8..2, 0u64..96), 1..200),
    ) {
        run_tier_ops(&ops);
    }
}
