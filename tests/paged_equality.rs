//! Equality pin for the paged-KV refactor: the paged serving engine in
//! its scalar configuration — block size 1, prefix sharing off,
//! monolithic prefill (all defaults) — must reproduce the pre-refactor
//! engine's `ServingReport` bit for bit.
//!
//! The golden values below were captured from the engine at commit
//! 80b51bc (the last scalar `kv_tokens` implementation) on the exact
//! workloads the serving unit tests exercise: clock, energy and prefill
//! time as `f64::to_bits`, plus an FNV fingerprint over every request
//! record, placement, and RLP sample. Any behavioural drift in
//! admission order, preemption, pricing, or RNG consumption changes at
//! least one of these numbers.

use papi::core::{
    DesignKind, KvTierSpec, ServingEngine, ServingReport, SessionTuning, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, ServingWorkload, SpeculativeConfig,
};

/// FNV-1a over the report's per-request records, placements, and RLP
/// series (field order fixed; floats hashed by bit pattern).
fn fingerprint(report: &ServingReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for r in &report.records {
        mix(r.id);
        mix(r.arrival.value().to_bits());
        mix(r.admitted.value().to_bits());
        mix(r.first_token.value().to_bits());
        mix(r.finished.value().to_bits());
        mix(r.prompt_tokens);
        mix(r.output_tokens);
        mix(r.preemptions);
    }
    for p in &report.placements {
        mix(*p as u64);
    }
    for r in &report.rlp_series {
        mix(*r);
    }
    h
}

struct Golden {
    name: &'static str,
    makespan_bits: u64,
    energy_bits: u64,
    prefill_bits: u64,
    iterations: u64,
    tokens: u64,
    preemptions: u64,
    peak_rlp: u64,
    peak_kv_tokens: u64,
    fingerprint: u64,
}

fn assert_matches(report: &ServingReport, golden: &Golden) {
    assert_eq!(
        report.makespan.value().to_bits(),
        golden.makespan_bits,
        "{}: makespan drifted from the pre-refactor engine",
        golden.name
    );
    assert_eq!(
        report.energy.value().to_bits(),
        golden.energy_bits,
        "{}: energy drifted",
        golden.name
    );
    assert_eq!(
        report.prefill_time.value().to_bits(),
        golden.prefill_bits,
        "{}: prefill time drifted",
        golden.name
    );
    assert_eq!(report.iterations, golden.iterations, "{}", golden.name);
    assert_eq!(report.tokens, golden.tokens, "{}", golden.name);
    assert_eq!(report.preemptions, golden.preemptions, "{}", golden.name);
    assert_eq!(report.peak_rlp, golden.peak_rlp, "{}", golden.name);
    assert_eq!(
        report.peak_kv_tokens, golden.peak_kv_tokens,
        "{}",
        golden.name
    );
    assert_eq!(
        fingerprint(report),
        golden.fingerprint,
        "{}: record/placement/RLP fingerprint drifted",
        golden.name
    );
}

#[test]
fn scalar_configuration_reproduces_the_pre_refactor_reports_bit_for_bit() {
    let cases = [
        Golden {
            name: "a100_attacc-llama65b-poisson",
            makespan_bits: 0x402971de872cabec,
            energy_bits: 0x40e22a1e364aaf83,
            prefill_bits: 0x3fe6cbaae43f388c,
            iterations: 824,
            tokens: 4599,
            preemptions: 0,
            peak_rlp: 13,
            peak_kv_tokens: 2770,
            fingerprint: 0x8cc6844d030223ac,
        },
        Golden {
            name: "pim_only-gpt175b-kv-pressure",
            makespan_bits: 0x40513fa2bc16a762,
            energy_bits: 0x411065248f601886,
            prefill_bits: 0x4015b4c24460e492,
            iterations: 10350,
            tokens: 20664,
            preemptions: 0,
            peak_rlp: 5,
            peak_kv_tokens: 3371,
            fingerprint: 0xecc1664d89869caa,
        },
        Golden {
            name: "papi-llama65b-immediate",
            makespan_bits: 0x4037847399b472bb,
            energy_bits: 0x40ed2794c5721ce3,
            prefill_bits: 0x3fe65d03cc1c87d3,
            iterations: 2959,
            tokens: 36323,
            preemptions: 0,
            peak_rlp: 64,
            peak_kv_tokens: 19740,
            fingerprint: 0x17a7b8234be8bc6a,
        },
        Golden {
            name: "pim_only-gpt175b-adaptive-tlp",
            makespan_bits: 0x404545f858bf8126,
            energy_bits: 0x40ed7a1e763dc2c5,
            prefill_bits: 0x4015b4c24460e492,
            iterations: 1298,
            tokens: 20664,
            preemptions: 0,
            peak_rlp: 5,
            peak_kv_tokens: 3374,
            fingerprint: 0xf3b5bebb4ca7af78,
        },
    ];

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

    for (report, golden) in reports.iter().zip(&cases) {
        assert_matches(report, golden);
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
    assert_eq!(implicit.records, explicit.records);
    assert_eq!(implicit.makespan, explicit.makespan);
    assert_eq!(implicit.energy, explicit.energy);
    assert_eq!(fingerprint(&implicit), fingerprint(&explicit));
}

/// One serving shape that drives every stage of a session round on a
/// tight pool: 16-token blocks with prefix sharing, chunked prefill, a
/// small private capacity tier, geometric speculation under adaptive
/// TLP, and a pool small enough that decode growth preempts at every
/// headroom. Only the admission headroom varies.
fn staged_shape(headroom: f64) -> ServingReport {
    let mut config = SystemConfig::build(DesignKind::PimOnlyPapi, ModelPreset::Gpt3_175B.config());
    config.attn_pim.1 = 1;
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 3),
        6.0,
        48,
    )
    .with_seed(17)
    .with_speculation(SpeculativeConfig::geometric(4, 0.6))
    .with_adaptive_tlp(32, 8);
    ServingEngine::new(config)
        .with_tuning(
            SessionTuning::new()
                .with_max_batch(16)
                .with_kv_headroom(headroom)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_prefill_chunk(128)
                .with_kv_tier(KvTierSpec::new(96)),
        )
        .run(&workload)
}

/// Asserts the staged shape ran every stage — eviction into a tier,
/// tier fetches, chunked waves and preemption — and matches `golden`.
#[track_caller]
fn assert_staged(headroom: f64, golden: &Golden) {
    let report = staged_shape(headroom);
    assert_eq!(report.records.len(), 48, "{}", golden.name);
    assert!(report.preemptions > 0, "{}: never preempted", golden.name);
    assert!(
        report.kv.prefix_evictions > 0,
        "{}: never evicted",
        golden.name
    );
    assert!(report.kv.tier_spills > 0, "{}: never spilled", golden.name);
    assert!(report.kv.tier_fetches > 0, "{}: never fetched", golden.name);
    assert!(
        report.kv.prefill_chunks > 0,
        "{}: no prefill wave",
        golden.name
    );
    assert_matches(&report, golden);
}

/// Pins the staged session round against reports captured from the
/// single-function round it replaced, on a shape no other serving
/// golden covers.
#[test]
fn staged_rounds_reproduce_the_parent() {
    assert_staged(
        0.97,
        &Golden {
            name: "pim_only-gpt175b-staged-block-granular",
            makespan_bits: 0x405b030c6815b0ac,
            energy_bits: 0x40e619897bb96741,
            prefill_bits: 0x4050c7e1ed4099dc,
            iterations: 382,
            tokens: 4006,
            preemptions: 1,
            peak_rlp: 8,
            peak_kv_tokens: 3514,
            fingerprint: 0x7079438f8cbe5f55,
        },
    );
}

/// The staged shape at headroom 0.99 and 1.0, where admission plans
/// into (almost) the whole pool: the block-granular budget never
/// overcommits, so every request finishes. Goldens captured at commit
/// 39c2b59, before the admission rule was inlined into the session.
#[test]
fn near_full_headroom_admits_within_the_pool() {
    assert_staged(
        0.99,
        &Golden {
            name: "pim_only-gpt175b-staged-headroom-0.99",
            makespan_bits: 0x405b8a67494e2afd,
            energy_bits: 0x40e66dadda8aa0e5,
            prefill_bits: 0x40514c280047c4d8,
            iterations: 382,
            tokens: 4006,
            preemptions: 5,
            peak_rlp: 8,
            peak_kv_tokens: 3575,
            fingerprint: 0x5fcb13f71260d91b,
        },
    );
    assert_staged(
        1.0,
        &Golden {
            name: "pim_only-gpt175b-staged-headroom-1.0",
            makespan_bits: 0x405c0b9900d620dd,
            energy_bits: 0x40e6b2316e943f07,
            prefill_bits: 0x4051cd59b7cfbab7,
            iterations: 382,
            tokens: 4006,
            preemptions: 12,
            peak_rlp: 8,
            peak_kv_tokens: 3575,
            fingerprint: 0xbcc1fabc62c2a008,
        },
    );
}
