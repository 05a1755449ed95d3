//! Equality pin for the paged-KV refactor: the paged serving engine in
//! its scalar configuration — block size 1, prefix sharing off,
//! monolithic prefill (all defaults) — must reproduce the pre-refactor
//! engine's `ServingReport` bit for bit.
//!
//! The scalar reports were first pinned at commit 80b51bc (the last
//! scalar `kv_tokens` implementation) on the exact workloads the
//! serving unit tests exercise. Each whole report now sits in a golden
//! file under `tests/golden/` (see `tests/common/mod.rs`), captured at
//! 0a0ce34 while those pins still passed: every request record,
//! placement and RLP sample, the clock, energy, KV and scheduler
//! counters. Any behavioural drift in admission order, preemption,
//! pricing, or RNG consumption fails with the paths that moved.

mod common;

use papi::core::{
    DesignKind, KvTierSpec, ServingEngine, ServingReport, SessionTuning, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, ServingWorkload, SpeculativeConfig,
};

#[test]
fn scalar_configuration_reproduces_the_pre_refactor_reports_bit_for_bit() {
    let reports = [
        ServingEngine::new(SystemConfig::build(
            DesignKind::A100AttAcc,
            ModelPreset::Llama65B.config(),
        ))
        .with_tuning(SessionTuning::new().with_max_batch(16))
        .run(&ServingWorkload::poisson(DatasetKind::GeneralQa, 4.0, 48).with_seed(11)),
        ServingEngine::new(SystemConfig::build(
            DesignKind::PimOnlyPapi,
            ModelPreset::Gpt3_175B.config(),
        ))
        .with_tuning(
            SessionTuning::new()
                .with_max_batch(64)
                .with_kv_headroom(0.002),
        )
        .run(
            &ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 32)
                .with_seed(3),
        ),
        ServingEngine::new(SystemConfig::build(
            DesignKind::Papi,
            ModelPreset::Llama65B.config(),
        ))
        .with_tuning(SessionTuning::new().with_max_batch(64))
        .run(
            &ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 64)
                .with_seed(9),
        ),
        ServingEngine::new(SystemConfig::build(
            DesignKind::PimOnlyPapi,
            ModelPreset::Gpt3_175B.config(),
        ))
        .with_tuning(
            SessionTuning::new()
                .with_max_batch(32)
                .with_kv_headroom(0.002),
        )
        .run(
            &ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 32)
                .with_seed(3)
                .with_adaptive_tlp(64, 8),
        ),
    ];

    let goldens = [
        "serving-a100_attacc-llama65b-poisson",
        "serving-pim_only-gpt175b-kv-pressure",
        "serving-papi-llama65b-immediate",
        "serving-pim_only-gpt175b-adaptive-tlp",
    ];
    for (report, golden) in reports.iter().zip(goldens) {
        common::assert_golden(golden, report);
    }
}

/// Spelling the scalar configuration out explicitly (rather than via
/// defaults) is the same engine.
#[test]
fn explicit_scalar_options_match_the_defaults() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 4.0, 32).with_seed(11);
    let implicit = ServingEngine::new(SystemConfig::build(
        DesignKind::Papi,
        ModelPreset::Llama65B.config(),
    ))
    .with_tuning(SessionTuning::new().with_max_batch(16))
    .run(&workload);
    let explicit = ServingEngine::new(SystemConfig::build(
        DesignKind::Papi,
        ModelPreset::Llama65B.config(),
    ))
    .with_tuning(
        SessionTuning::new()
            .with_max_batch(16)
            .with_kv_block_size(1)
            .with_prefix_sharing(false),
    )
    .run(&workload);
    common::assert_same("explicit scalar options", &implicit, &explicit);
}

/// One serving shape that drives every stage of a session round on a
/// tight pool: 16-token blocks with prefix sharing, chunked prefill, a
/// small private capacity tier, speculation length 4 under adaptive
/// TLP, and a pool small enough that decode growth preempts at every
/// headroom. Only the admission headroom varies. Asserts the run
/// reached every stage — eviction into a tier, tier fetches, chunked
/// waves and preemption — before it returns the report.
#[track_caller]
fn staged_shape(headroom: f64) -> ServingReport {
    let mut config = SystemConfig::build(DesignKind::PimOnlyPapi, ModelPreset::Gpt3_175B.config());
    config.attn_pim.1 = 1;
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 3),
        6.0,
        48,
    )
    .with_seed(17)
    .with_speculation(SpeculativeConfig::fixed(4))
    .with_adaptive_tlp(32, 8);
    let report = ServingEngine::new(config)
        .with_tuning(
            SessionTuning::new()
                .with_max_batch(16)
                .with_kv_headroom(headroom)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_prefill_chunk(128)
                .with_kv_tier(KvTierSpec::new(96)),
        )
        .run(&workload);
    assert_eq!(report.records.len(), 48, "headroom {headroom}");
    assert!(
        report.preemptions > 0,
        "headroom {headroom}: never preempted"
    );
    assert!(
        report.kv.prefix_evictions > 0,
        "headroom {headroom}: never evicted"
    );
    assert!(
        report.kv.tier_spills > 0,
        "headroom {headroom}: never spilled"
    );
    assert!(
        report.kv.tier_fetches > 0,
        "headroom {headroom}: never fetched"
    );
    assert!(
        report.kv.prefill_chunks > 0,
        "headroom {headroom}: no prefill wave"
    );
    report
}

/// Pins the staged session round against the report captured from the
/// single-function round it replaced, on a shape no other serving
/// golden covers.
#[test]
fn staged_rounds_reproduce_the_parent() {
    common::assert_golden(
        "serving-pim_only-gpt175b-staged-block-granular",
        &staged_shape(0.97),
    );
}

/// The staged shape at headroom 0.99 and 1.0, where admission plans
/// into (almost) the whole pool: the block-granular budget never
/// overcommits, so every request finishes. First pinned at commit
/// 39c2b59, before the admission rule was inlined into the session.
#[test]
fn near_full_headroom_admits_within_the_pool() {
    common::assert_golden(
        "serving-pim_only-gpt175b-staged-headroom-0.99",
        &staged_shape(0.99),
    );
    common::assert_golden(
        "serving-pim_only-gpt175b-staged-headroom-1.0",
        &staged_shape(1.0),
    );
}
