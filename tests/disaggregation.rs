//! Behavioral tests for disaggregated prefill/decode fleets: request
//! and token conservation across KV migration, honest latency
//! accounting for the transfer, and role contracts — driven through
//! the `papi` facade.

use papi::core::{ClusterEngine, ClusterReport, ClusterSpec, DesignKind, SessionTuning};
use papi::interconnect::LinkSpec;
use papi::llm::ModelPreset;
use papi::workload::{DatasetKind, PolicySpec, ReplicaRole, ServingWorkload};
use proptest::prelude::*;

/// A PIM-only Llama-65B fleet of `dp` replicas: the first `prefill`
/// are prefill-role, the rest decode-role.
fn split_fleet(dp: usize, prefill: usize) -> ClusterSpec {
    let roles: Vec<ReplicaRole> = (0..dp)
        .map(|i| {
            if i < prefill {
                ReplicaRole::Prefill
            } else {
                ReplicaRole::Decode
            }
        })
        .collect();
    ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Llama65B.config(),
        1,
        dp,
    )
    .with_roles(roles)
    .with_tuning(SessionTuning::default().with_max_batch(8))
}

fn engine(spec: ClusterSpec) -> ClusterEngine {
    ClusterEngine::new(spec).expect("valid fleet")
}

/// Every request completed exactly once somewhere decode-capable, no
/// id duplicated, fleet totals equal per-replica sums, and every
/// record's timestamps are ordered.
fn assert_conserved(report: &ClusterReport, n: u64) {
    assert_eq!(report.requests(), n, "requests lost or duplicated");
    let per_replica: u64 = report.replicas.iter().map(|r| r.records.len() as u64).sum();
    assert_eq!(report.requests(), per_replica);
    let record_tokens: u64 = report.records().map(|r| r.output_tokens).sum();
    assert_eq!(report.tokens(), record_tokens, "token totals drifted");
    let mut ids: Vec<u64> = report.records().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, n, "a request id appears twice");
    for (idx, replica) in report.replicas.iter().enumerate() {
        if report.roles[idx] == ReplicaRole::Prefill {
            assert!(
                replica.records.is_empty(),
                "replica {idx} is prefill-only but recorded completions"
            );
        }
        for r in &replica.records {
            assert!(r.arrival.value() <= r.admitted.value());
            assert!(r.admitted.value() < r.first_token.value());
            assert!(r.first_token.value() <= r.finished.value());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation is a property of the migration machinery, not of
    /// any particular fleet split: across random seeds, fleet sizes,
    /// prefill/decode splits, and PIM-only or GPU prefill pools, no
    /// request is lost or double-counted while in flight over the
    /// fabric.
    #[test]
    fn migration_conserves_requests_and_tokens(
        seed in 0u64..1_000_000,
        dp in 2usize..5,
        prefill_share in 1usize..4,
        gpu_prefill in proptest::bool::ANY,
    ) {
        let prefill = prefill_share.min(dp - 1);
        let spec = split_fleet(dp, prefill);
        let spec = if gpu_prefill {
            spec.with_prefill_design(DesignKind::A100AttAcc)
        } else {
            spec
        };
        let workload =
            ServingWorkload::poisson(DatasetKind::GeneralQa, 12.0, 24).with_seed(seed);
        let report = engine(spec).run(&workload);
        assert_conserved(&report, 24);
        // Every request was admitted on a prefill-only replica, so
        // every request crossed the fabric exactly once.
        prop_assert_eq!(report.migration.migrations, 24);
        prop_assert!(report.migration.bytes > 0.0);
    }
}

/// The transfer is real latency: the same episode over a 4× slower
/// fabric (100 GbE instead of InfiniBand NDR) has worse TTFTs, by
/// about what its transfers take longer.
#[test]
fn priced_migration_shows_up_in_ttft() {
    let workload = ServingWorkload::poisson(DatasetKind::LongContext, 3.0, 24).with_seed(11);
    let fast = engine(split_fleet(2, 1)).run(&workload);
    let slow = engine(ClusterSpec {
        inter_node: LinkSpec::ethernet_100g(),
        ..split_fleet(2, 1)
    })
    .run(&workload);
    assert_conserved(&fast, 24);
    assert_conserved(&slow, 24);
    assert_eq!(fast.migration.pricing, "fabric");
    assert_eq!(fast.migration.bytes, slow.migration.bytes);
    let fast_ttft = fast.ttft_summary().unwrap();
    let slow_ttft = slow.ttft_summary().unwrap();
    assert!(
        slow_ttft.mean.value() > fast_ttft.mean.value(),
        "a slower fabric must cost TTFT: {} vs {}",
        slow_ttft.mean,
        fast_ttft.mean
    );
    // The gap is at least half the median transfer-time difference —
    // sanity, not precision: queueing overlap can hide some of it.
    let transfer_gap =
        slow.migration.latency.unwrap().p50.value() - fast.migration.latency.unwrap().p50.value();
    assert!(transfer_gap > 0.0);
    assert!(
        slow_ttft.mean.value() - fast_ttft.mean.value() >= 0.5 * transfer_gap,
        "TTFT gap {} should reflect the {}s longer median transfer",
        slow_ttft.mean.value() - fast_ttft.mean.value(),
        transfer_gap
    );
}

/// A custom migration policy drives the same seam the built-ins use,
/// and its label lands in the report.
#[test]
fn custom_migration_policy_drives_the_fleet() {
    use papi::workload::{MigrationContext, MigrationPolicy, Router};

    /// Always the highest-indexed decode-capable replica.
    #[derive(Debug)]
    struct LastDecode;

    impl MigrationPolicy for LastDecode {
        fn place(&mut self, ctx: &MigrationContext<'_>) -> usize {
            *ctx.decode_targets().last().expect("fleet is non-empty")
        }

        fn label(&self) -> String {
            "last-decode".to_owned()
        }
    }

    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 8.0, 16).with_seed(3);
    let mut router = Router::new(PolicySpec::JoinShortestQueue);
    let mut policy = LastDecode;
    let report = engine(split_fleet(3, 1)).run_with_policies(&workload, &mut router, &mut policy);
    assert_conserved(&report, 16);
    assert_eq!(report.migration.policy, "last-decode");
    // Everything landed on replica 2, the policy's only pick.
    assert_eq!(report.replicas[2].records.len(), 16);
    assert!(report.replicas[1].records.is_empty());
}
