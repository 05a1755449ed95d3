//! Criterion benchmarks for KV bookkeeping: one conversation turn on a
//! replica with a prefix cache and a capacity tier — tier fetch,
//! publish, decode appends, finish, evict and spill back. Contexts of
//! 64, 358 and 1,600 blocks of 16 tokens cover a short chat, the
//! `replica_chat_tier` per-turn average, and a `fleet_disagg_tier`
//! long context. Every serving admission that restores a spilled
//! context walks this path, so its cost should not grow with context
//! length.

use criterion::{criterion_group, criterion_main, Criterion};
use papi_kv::{KvBlockPool, KvTier, PrefixTree};
use std::hint::black_box;

const BLOCK: u64 = 16;
/// Tokens decoded per turn, appended one at a time.
const DECODE: u64 = 256;
/// Cold conversations resident in the tier besides the measured one.
const COLD: u64 = 128;

fn bench_turn(c: &mut Criterion) {
    for blocks in [64u64, 358, 1_600] {
        let context = blocks * BLOCK;
        let mut pool = KvBlockPool::new(BLOCK, 1 << 20);
        let mut tree = PrefixTree::new();
        let mut tier = KvTier::new(BLOCK, 1 << 22);
        for key in 1..=COLD {
            assert!(tier.spill(key, context).accepted);
        }
        assert!(tier.spill(0, context).accepted);
        c.bench_function(&format!("kv_turn_{blocks}_blocks"), |b| {
            b.iter(|| {
                let tokens = tier.fetch(0).expect("spilled by the last turn");
                let mut seq = pool.new_seq();
                assert!(pool.append(&mut seq, tokens));
                tree.publish(0, &seq, tokens, &mut pool);
                for _ in 0..DECODE {
                    assert!(pool.append(&mut seq, 1));
                }
                tree.publish(0, &seq, seq.tokens(), &mut pool);
                pool.release_seq(seq);
                let evicted = tree.evict_lru_entry(&mut pool).expect("published");
                // Spill the turn's starting context so every turn repeats.
                tier.spill(evicted.key, context);
                black_box(evicted.freed)
            })
        });
    }
}

criterion_group!(benches, bench_turn);
criterion_main!(benches);
