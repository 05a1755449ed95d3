//! Equality pin for the control-plane policy redesign: the built-in
//! join-shortest-queue router, driven through the trait-based
//! `RoutePolicy` API, must reproduce the closed-enum router's
//! `ClusterReport`s bit for bit.
//!
//! The golden values below were captured from the cluster engine at
//! commit deb9aba (the last `RoutingPolicy`-enum implementation):
//! fleet request/token totals, makespan and energy as `f64::to_bits`,
//! and an FNV fingerprint over every replica's records, placements, RLP
//! series, makespan, and energy. Any drift in routing order, admission,
//! preemption, pricing, or RNG consumption changes at least one of
//! these numbers (like `tests/paged_equality.rs` does for the paging
//! refactor).

use papi::core::{ClusterEngine, ClusterReport, ClusterSpec, DesignKind, SessionTuning};
use papi::llm::ModelPreset;
use papi::workload::{
    ConversationDataset, DatasetKind, MigrationSpec, PolicySpec, ReplicaRole, Router,
    ServingWorkload,
};

/// FNV-1a over every replica's per-request records, placements, RLP
/// series, makespan, and energy (field order fixed; floats hashed by
/// bit pattern).
fn fingerprint(report: &ClusterReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for replica in &report.replicas {
        mix(replica.records.len() as u64);
        for r in &replica.records {
            mix(r.id);
            mix(r.arrival.value().to_bits());
            mix(r.admitted.value().to_bits());
            mix(r.first_token.value().to_bits());
            mix(r.finished.value().to_bits());
            mix(r.prompt_tokens);
            mix(r.output_tokens);
            mix(r.preemptions);
        }
        for p in &replica.placements {
            mix(*p as u64);
        }
        for r in &replica.rlp_series {
            mix(*r);
        }
        mix(replica.makespan.value().to_bits());
        mix(replica.energy.value().to_bits());
    }
    h
}

struct Golden {
    routing: PolicySpec,
    label: &'static str,
    requests: u64,
    tokens: u64,
    makespan_bits: u64,
    energy_bits: u64,
    fingerprint: u64,
}

fn assert_matches(report: &ClusterReport, golden: &Golden) {
    assert_eq!(report.routing, golden.label, "{}", golden.label);
    assert_eq!(report.requests(), golden.requests, "{}", golden.label);
    assert_eq!(report.tokens(), golden.tokens, "{}", golden.label);
    assert_eq!(
        report.makespan().value().to_bits(),
        golden.makespan_bits,
        "{}: fleet makespan drifted from the enum-router engine",
        golden.label
    );
    assert_eq!(
        report.energy().value().to_bits(),
        golden.energy_bits,
        "{}: fleet energy drifted",
        golden.label
    );
    assert_eq!(
        fingerprint(report),
        golden.fingerprint,
        "{}: replica record/placement/RLP fingerprint drifted",
        golden.label
    );
}

fn scalar_fleet(routing: PolicySpec) -> ClusterReport {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 16.0, 60).with_seed(17);
    ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            3,
        )
        .with_routing(routing)
        .with_tuning(SessionTuning::default().with_max_batch(8)),
    )
    .expect("valid fleet")
    .run(&workload)
}

/// The scalar fleet under join-shortest-queue.
const JSQ: Golden = Golden {
    routing: PolicySpec::JoinShortestQueue,
    label: "join-shortest-queue",
    requests: 60,
    tokens: 4673,
    makespan_bits: 0x400cc023211cc405,
    energy_bits: 0x40d19d81f0da2acc,
    fingerprint: 0xaa50d4cc4e42604f,
};

#[test]
fn builtin_policies_reproduce_the_enum_router_reports_bit_for_bit() {
    assert_matches(&scalar_fleet(JSQ.routing), &JSQ);
}

/// The same goldens hold when the built-in policy is driven explicitly
/// through the open trait seam (`run_with_policies` with a `Router` as
/// the `dyn RoutePolicy`) — `run()` is not a privileged path.
#[test]
fn trait_driven_builtins_match_the_declarative_path() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 16.0, 60).with_seed(17);
    let engine = ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            3,
        )
        .with_tuning(SessionTuning::default().with_max_batch(8)),
    )
    .expect("valid fleet");
    let mut router = Router::new(JSQ.routing);
    let report = engine.run_with_policies(&workload, &mut router, &mut MigrationSpec::default());
    assert_matches(&report, &JSQ);
    assert_eq!(router.decisions(), 60);
}

/// The disaggregation pin: a fleet with every replica *explicitly*
/// `Colocated` runs the full role-aware engine — role-stamped
/// snapshots, the migration clock, the event loop — and must still
/// reproduce the routing goldens bit for bit. Disaggregation is
/// pay-for-what-you-use: an all-colocated fleet never migrates, so
/// nothing may drift.
#[test]
fn all_colocated_fleet_reproduces_the_goldens() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 16.0, 60).with_seed(17);
    let report = ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            3,
        )
        .with_routing(JSQ.routing)
        .with_roles(vec![ReplicaRole::Colocated; 3])
        .with_tuning(SessionTuning::default().with_max_batch(8)),
    )
    .expect("valid fleet")
    .run(&workload);
    assert_matches(&report, &JSQ);
    assert_eq!(report.roles, vec![ReplicaRole::Colocated; 3]);
    assert_eq!(report.migration.migrations, 0);
    assert_eq!(report.migration.bytes, 0.0);
    assert!(report.migration.latency.is_none());
}

/// The paged prefix-sharing fleet (block 16, sharing, chunked prefill)
/// on the PR-3 multi-turn conversation dataset also reproduces exactly
/// — the tuning collapse into `SessionTuning` changed no replica
/// behavior.
#[test]
fn paged_conversation_fleet_reproduces_bit_for_bit() {
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
    assert_matches(
        &report,
        &Golden {
            routing: PolicySpec::JoinShortestQueue,
            label: "join-shortest-queue",
            requests: 64,
            tokens: 5783,
            makespan_bits: 0x4027428c40f7e427,
            energy_bits: 0x40e6ec3608763e7b,
            fingerprint: 0xdd83989553bd960f,
        },
    );
}
