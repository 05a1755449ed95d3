//! Equality pin for the control-plane policy redesign: the built-in
//! join-shortest-queue router, driven through the trait-based
//! `RoutePolicy` API, must reproduce the closed-enum router's
//! `ClusterReport`s bit for bit.
//!
//! The reports were first pinned at commit deb9aba (the last
//! `RoutingPolicy`-enum implementation). Each whole report now sits in
//! a golden file under `tests/golden/` (see `tests/common/mod.rs`),
//! captured at 0a0ce34 while those pins still passed: every replica's
//! records, placements, RLP series, makespan and energy, and the
//! fleet's routing, migration, tier and autoscale fields. Any drift in
//! routing order, admission, preemption, pricing, or RNG consumption
//! fails with the paths that moved (as `tests/paged_equality.rs` does
//! for the paging refactor).

mod common;

use papi::core::{ClusterEngine, ClusterReport, ClusterSpec, DesignKind, SessionTuning};
use papi::llm::ModelPreset;
use papi::workload::{
    ConversationDataset, DatasetKind, MigrationSpec, PolicySpec, ReplicaRole, Router,
    ServingWorkload,
};

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

/// The scalar fleet's golden, shared with `tests/global_tier.rs`.
const JSQ_GOLDEN: &str = "fleet-jsq-scalar";

#[test]
fn builtin_policies_reproduce_the_enum_router_reports_bit_for_bit() {
    let report = scalar_fleet(PolicySpec::JoinShortestQueue);
    assert_eq!(report.routing, "join-shortest-queue");
    common::assert_golden(JSQ_GOLDEN, &report);
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
    let mut router = Router::new(PolicySpec::JoinShortestQueue);
    let report = engine.run_with_policies(&workload, &mut router, &mut MigrationSpec::default());
    common::assert_golden(JSQ_GOLDEN, &report);
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
        .with_routing(PolicySpec::JoinShortestQueue)
        .with_roles(vec![ReplicaRole::Colocated; 3])
        .with_tuning(SessionTuning::default().with_max_batch(8)),
    )
    .expect("valid fleet")
    .run(&workload);
    common::assert_golden(JSQ_GOLDEN, &report);
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
    common::assert_golden("fleet-jsq-paged-conversation", &report);
}
