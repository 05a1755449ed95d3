//! The fleet-shared tier's conservation law and equality pins.
//!
//! The global directory threads through the serving engine's fork-miss
//! path and the cluster engine's barriers. With the shared tier *off*
//! (the default), every one of those changes must be invisible: this
//! file re-asserts the tiered-KV golden and the two routing-equality
//! fleet goldens against the default (shared-tier-off) specs, reading
//! the same golden files `tests/tiered_kv.rs` and
//! `tests/routing_equality.rs` pin. With the tier *on*, accounting must
//! conserve tokens: a spill → remote fetch → republish round trip
//! leaves pool refcounts and directory occupancy exactly where they
//! started, which the proptest here drives over random prefix
//! populations.

mod common;

use papi::core::{
    ClusterEngine, ClusterSpec, DesignKind, ServingEngine, SessionTuning, SystemConfig,
};
use papi::kv::{GlobalKvTier, KvBlockPool, KvTier, PublishOutcome};
use papi::llm::ModelPreset;
use papi::workload::{ConversationDataset, DatasetKind, PolicySpec, ServingWorkload};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Conservation: spill → remote fetch → republish drains to pristine.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random prefix populations round-tripped through the full
    /// fleet-shared data path: the home replica spills each prefix
    /// into its private tier and registers it in the directory; a
    /// fetching replica re-materializes it block-aligned in its own
    /// pool and republishes (first-writer-wins: the directory entry
    /// must not change hands); random extensions only ever grow the
    /// record. Afterwards everything is torn down and every structure
    /// must read exactly pristine — any leak or double-free is an
    /// accounting bug in the tier, the directory, or the pool.
    #[test]
    fn global_tier_accounting_conserves_tokens(
        prefixes in proptest::collection::vec((1u64..97, 1u64..5001, 0u64..3001), 1..24),
        block_size_pick in 0usize..3,
    ) {
        let block_size = [8u64, 16, 64][block_size_pick];
        let budget_blocks = 1_000_000; // never the binding constraint here
        let mut home_pool = KvBlockPool::new(block_size, 1_000_000);
        let mut fetcher_pool = KvBlockPool::new(block_size, 1_000_000);
        let mut home_tier = KvTier::new(block_size, budget_blocks);
        let mut directory = GlobalKvTier::new(block_size);

        // Dedup keys (later entries win) so expectations are well-defined.
        let mut population: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
        for (key, tokens, extra) in prefixes {
            population.insert(key, (tokens, extra));
        }

        let mut fetched_seqs = Vec::new();
        for (&key, &(tokens, extra)) in &population {
            // Home replica: hold the prefix hot, then spill it out.
            let mut seq = home_pool.new_seq();
            prop_assert!(home_pool.append(&mut seq, tokens));
            prop_assert!(home_tier.spill(key, tokens).accepted);
            home_pool.release_seq(seq);
            prop_assert_eq!(directory.publish(key, 0, tokens), PublishOutcome::Registered);

            // Optional later turn on the home: the record only grows.
            if extra > 0 {
                prop_assert!(home_tier.spill(key, tokens + extra).accepted);
                prop_assert_eq!(
                    directory.publish(key, 0, tokens + extra),
                    PublishOutcome::Extended
                );
            }

            // Fetching replica: directory hit, block-aligned
            // re-materialization, local republish.
            let entry = directory.lookup(key).expect("just published");
            prop_assert_eq!(entry.owner, 0, "first writer keeps ownership");
            prop_assert_eq!(entry.tokens, tokens + extra);
            let mut seq = fetcher_pool.new_seq();
            prop_assert!(fetcher_pool.append(&mut seq, entry.tokens));
            // Republishing what the fleet already knows is a no-op: no
            // ownership transfer, no token growth, no double count.
            prop_assert_eq!(
                directory.publish(key, 1, entry.tokens),
                PublishOutcome::Unchanged
            );
            fetched_seqs.push((key, seq));
        }

        // Directory occupancy equals the longest published record per
        // key — tokens are conserved, never double-counted.
        let want_tokens: u64 = population.values().map(|&(t, e)| t + e).sum();
        let want_blocks: u64 = population
            .values()
            .map(|&(t, e)| directory.blocks_for(t + e))
            .sum();
        let stats = directory.stats();
        prop_assert_eq!(stats.entries, population.len() as u64);
        prop_assert_eq!(stats.tokens, want_tokens);
        prop_assert_eq!(stats.blocks, want_blocks);
        prop_assert_eq!(directory.publishes(), population.len() as u64);
        prop_assert_eq!(
            directory.extensions(),
            population.values().filter(|&&(_, e)| e > 0).count() as u64
        );

        // The fetching pool holds exactly the block-aligned footprint
        // of what it materialized.
        prop_assert_eq!(fetcher_pool.blocks_in_use(), want_blocks);

        // Tear everything down: fetch each record out of the home tier
        // (the prefix lives in exactly one tier at a time), release the
        // fetcher's sequences, retire the directory entries.
        for (&key, &(tokens, extra)) in &population {
            prop_assert_eq!(home_tier.fetch(key), Some(tokens + extra));
            let retired = directory.retire(key).expect("still registered");
            prop_assert_eq!(retired.tokens, tokens + extra);
        }
        for (_, seq) in fetched_seqs {
            fetcher_pool.release_seq(seq);
        }

        // Pristine: no leaked blocks, no stale refcounts, no residue.
        prop_assert_eq!(home_pool.blocks_in_use(), 0);
        prop_assert_eq!(fetcher_pool.blocks_in_use(), 0);
        prop_assert_eq!(home_tier.blocks_in_use(), 0);
        prop_assert!(home_tier.is_empty());
        prop_assert!(directory.is_empty());
        let drained = directory.stats();
        prop_assert_eq!(drained.entries, 0);
        prop_assert_eq!(drained.tokens, 0);
        prop_assert_eq!(drained.blocks, 0);
    }
}

// ---------------------------------------------------------------------
// Equality pins: shared-tier-off reproduces the private tier bit for bit.
// ---------------------------------------------------------------------

/// The tiered-KV golden (`tests/tiered_kv.rs`, first pinned before the
/// tier existed) still holds with the global-tier plumbing compiled into the
/// engine and disabled: the `ServingSession::global` slot defaults to
/// `None` and every remote-fetch branch is dead.
#[test]
fn shared_tier_off_engine_reproduces_the_tiered_kv_pin() {
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
        1.0,
        120,
    )
    .with_seed(23);
    let report = ServingEngine::new(SystemConfig::build(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
    ))
    .with_tuning(
        SessionTuning::new()
            .with_max_batch(16)
            .with_kv_block_size(16)
            .with_prefix_sharing(true),
    )
    .run(&workload);
    common::assert_golden("serving-pim_only-gpt175b-tier-off-thrash", &report);
    // And the remote-fetch counters stay identically zero.
    assert_eq!(report.kv.remote_fetches, 0);
    assert_eq!(report.kv.remote_fetched_tokens, 0);
    assert_eq!(report.kv.remote_fetch_time_s, 0.0);
    assert_eq!(report.kv.remote_fetch_energy_j, 0.0);
}

/// The routing-equality join-shortest-queue golden still holds with the
/// shared-tier control plane compiled into both cluster loops and
/// disabled: a default `ClusterSpec` opens no directory, schedules no
/// sync ticks, and reports `global_tier: None`.
#[test]
fn shared_tier_off_fleets_reproduce_the_routing_pins() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 16.0, 60).with_seed(17);
    let report = ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            3,
        )
        .with_routing(PolicySpec::JoinShortestQueue)
        .with_tuning(SessionTuning::default().with_max_batch(8)),
    )
    .expect("valid fleet")
    .run(&workload);
    assert!(
        report.global_tier.is_none(),
        "a default fleet must not report a shared tier"
    );
    common::assert_golden("fleet-jsq-scalar", &report);
}

/// The paged prefix-sharing conversation fleet — the shape closest to
/// the shared-tier path (block pool, prefix tree, multi-turn forks) —
/// also reproduces exactly with the tier off.
#[test]
fn shared_tier_off_paged_fleet_reproduces_the_conversation_pin() {
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        6.0,
        64,
    )
    .with_seed(13);
    let report = ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            4,
        )
        .with_routing(PolicySpec::JoinShortestQueue)
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_prefill_chunk(512),
        ),
    )
    .expect("valid fleet")
    .run(&workload);
    assert!(report.global_tier.is_none());
    common::assert_golden("fleet-jsq-paged-conversation", &report);
}
