//! The tiered-KV equality pin and behavior contract.
//!
//! The capacity tier reroutes the engine's eviction path through
//! `relieve_prefix_cache` and probes the tier at admission fork-misses.
//! With the tier *off* (the default), every one of those changes must
//! be invisible: this file pins a saturated long-context scenario — 58
//! prefix evictions, pool at 100% — to the whole report the pre-tier
//! engine produced (first pinned at `adb9013`; the golden file was
//! captured at 0a0ce34 while that pin still passed), and then checks
//! the tier-on behavior the feature exists for: spills instead of
//! discards, priced fetches that land in TTFT, materially higher SLO
//! goodput under thrash.

mod common;

use papi::core::{DesignKind, KvTierSpec, ServingEngine, SessionTuning, SloSpec, SystemConfig};
use papi::llm::ModelPreset;
use papi::workload::{ConversationDataset, DatasetKind, ServingWorkload};

/// A long-context multi-turn workload that saturates the PIM-only
/// pool: conversations resend ~4k-token contexts over 3 turns faster
/// than the cache can hold them, so the prefix cache thrashes (58 LRU
/// evictions before the tier existed).
fn thrashing_workload() -> ServingWorkload {
    ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
        1.0,
        120,
    )
    .with_seed(23)
}

/// The paged hot pool every run shares: 16-token blocks with prefix
/// sharing, batches of 16.
fn paged() -> SessionTuning {
    SessionTuning::new()
        .with_max_batch(16)
        .with_kv_block_size(16)
        .with_prefix_sharing(true)
}

fn engine(tuning: SessionTuning) -> ServingEngine {
    ServingEngine::new(SystemConfig::build(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
    ))
    .with_tuning(tuning)
}

/// The pre-tier engine's report, shared with `tests/global_tier.rs`.
const TIER_OFF_GOLDEN: &str = "serving-pim_only-gpt175b-tier-off-thrash";

#[test]
fn tier_off_reproduces_the_pre_tier_engine_bit_for_bit() {
    let report = engine(paged()).run(&thrashing_workload());
    // The pin only guards the eviction rewrite if eviction actually
    // ran: the scenario must genuinely thrash.
    assert!(
        report.kv.prefix_evictions > 0,
        "pin scenario stopped exercising eviction ({} evictions)",
        report.kv.prefix_evictions
    );
    assert_eq!(report.kv.total_blocks, report.kv.peak_blocks_in_use);
    common::assert_golden(TIER_OFF_GOLDEN, &report);
    // And the tier counters stay identically zero.
    assert_eq!(report.kv.tier_budget_blocks, 0);
    assert_eq!(report.kv.tier_spills, 0);
    assert_eq!(report.kv.tier_fetches, 0);
    assert_eq!(report.kv.tier_fetch_time_s, 0.0);
}

#[test]
fn explicit_none_tier_is_the_default() {
    let tuning = paged();
    assert_eq!(tuning.kv_tier, None);
    let report = engine(tuning).run(&thrashing_workload());
    common::assert_golden(TIER_OFF_GOLDEN, &report);
}

#[test]
fn spill_to_tier_beats_eviction_under_thrash() {
    let workload = thrashing_workload();
    let evict = engine(paged()).run(&workload);
    let tiered = engine(paged().with_kv_tier(KvTierSpec::new(60_000))).run(&workload);

    // The tier kept the evicted prefixes and served them back.
    assert!(tiered.kv.tier_spills > 0, "no spills under thrash");
    assert!(tiered.kv.tier_fetches > 0, "no fetches under thrash");
    assert!(tiered.kv.tier_fetched_tokens > 0);
    assert!(tiered.kv.tier_fetch_time_s > 0.0, "fetches must be priced");
    assert!(tiered.kv.tier_fetch_energy_j > 0.0);
    assert!(tiered.kv.tier_peak_blocks > 0);
    assert!(tiered.kv.tier_peak_blocks <= tiered.kv.tier_budget_blocks);

    // Fetched tokens count as cache hits, so hit rate and prefill
    // work both improve materially.
    assert!(
        tiered.kv.hit_rate() > evict.kv.hit_rate() + 0.2,
        "tier hit rate {:.3} should clear evict {:.3} by a wide margin",
        tiered.kv.hit_rate(),
        evict.kv.hit_rate()
    );
    assert!(tiered.kv.prefilled_tokens < evict.kv.prefilled_tokens);
    assert!(tiered.makespan.value() < evict.makespan.value());

    // And the headline: materially higher SLO goodput from the same
    // hot pool.
    let slo = SloSpec::interactive(600_000.0, 400.0);
    assert!(
        tiered.goodput(&slo) > 2.0 * evict.goodput(&slo),
        "tier goodput {:.4} should dwarf evict {:.4}",
        tiered.goodput(&slo),
        evict.goodput(&slo)
    );
}

/// A fetch crosses the DIMM channel on the critical path: its transfer
/// time is charged to prefill time and advances the session clock
/// before the fetching request is admitted, so every request behind it
/// waits that long for its first token. The thrashing replica is never
/// idle, so its makespan is exactly its prefill time (fetches included)
/// plus its decode time; a fetch left off the clock would open a gap of
/// the fetch time.
#[test]
fn fetch_pricing_lands_in_ttft() {
    let tiered = engine(paged().with_kv_tier(KvTierSpec::new(60_000))).run(&thrashing_workload());
    let fetch_s = tiered.kv.tier_fetch_time_s;
    assert!(tiered.kv.tier_fetches > 0);
    assert!(
        fetch_s > 0.01 * tiered.makespan.value(),
        "fetches must cost a visible share of the episode ({fetch_s} s)"
    );
    assert!(tiered.prefill_time.value() > fetch_s);
    let busy = tiered.prefill_time.value() + tiered.phases.total().value();
    assert!(
        (tiered.makespan.value() - busy).abs() < 1e-9 * busy,
        "makespan {} must be the busy time {busy}: fetches ride the clock",
        tiered.makespan
    );
}

#[test]
fn tier_occupancy_reaches_the_replica_snapshot() {
    let workload = thrashing_workload();
    let tiered_engine = engine(paged().with_kv_tier(KvTierSpec::new(60_000)));
    let mut session = tiered_engine.open_session(&workload);
    for request in workload.requests() {
        session.push(request);
    }
    let fresh = session.snapshot();
    assert_eq!(fresh.kv_tier_budget_blocks, 60_000);
    assert_eq!(fresh.kv_tier_blocks_in_use, 0);
    let mut peak = 0;
    while session.step() == papi::core::SessionStatus::Advanced {
        peak = peak.max(session.snapshot().kv_tier_blocks_in_use);
    }
    assert!(peak > 0, "spills never showed up in the snapshot");
    assert!(peak <= 60_000);
}

#[test]
#[should_panic(expected = "prefix_sharing")]
fn tier_without_prefix_sharing_is_rejected() {
    SessionTuning::new()
        .with_kv_tier(KvTierSpec::new(1_000))
        .validate()
        .unwrap();
}
