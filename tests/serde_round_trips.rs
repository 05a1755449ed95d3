//! Every declarative spec survives `to_string → from_str → to_string`
//! byte for byte and parses back equal to the original, on its default
//! (or canonical constructor) and on a non-default builder chain. A
//! fleet report with a shared tier and migrations does too. Spellings
//! of removed variants parse to an error.

use papi::core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterReport, ClusterSpec, DesignKind,
    KvTierSpec, SessionTuning, SharedTierSpec, SloSpec,
};
use papi::interconnect::LinkSpec;
use papi::llm::ModelPreset;
use papi::workload::{
    ConversationDataset, DatasetKind, PolicySpec, ReplicaRole, ServingWorkload, SpeculativeConfig,
    WorkloadSpec,
};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// Asserts `value` round-trips, and returns its JSON.
#[track_caller]
fn round_trips<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) -> String {
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("parses back");
    assert_eq!(&back, value, "{json}");
    assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    json
}

#[test]
fn enum_specs_round_trip() {
    for spec in [
        PolicySpec::JoinShortestQueue,
        PolicySpec::prefix_affinity(),
        PolicySpec::shared_tier_affinity(),
    ] {
        round_trips(&spec);
    }
    // The deleted routing arms and thresholds do not parse.
    for removed in [
        r#""RoundRobin""#,
        r#"{"AdaptiveAffinity":{"queue_pressure":2.0}}"#,
        r#"{"PrefixAffinity":{"spill_utilization":1.0}}"#,
    ] {
        assert!(
            serde_json::from_str::<PolicySpec>(removed).is_err(),
            "{removed} parsed"
        );
    }
    for spec in [
        AutoscalePolicySpec::queue_depth(),
        AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: 0.3,
            scale_down_depth: 0.02,
        },
    ] {
        round_trips(&spec);
    }
    // JSON naming an arm the enum does not have (the old KV-pressure
    // and SLO-burn policies) is an error, not a panic and not a silent
    // queue-depth policy.
    let slo = serde_json::to_string(&SloSpec::interactive(2_000.0, 100.0)).expect("serializes");
    for removed in [
        r#"{"KvPressureTarget":{"scale_up_utilization":0.85,"scale_down_utilization":0.4}}"#
            .to_owned(),
        format!(r#"{{"SloBurnBudget":{{"slo":{slo},"target_attainment":0.95,"headroom":0.04}}}}"#),
    ] {
        assert!(
            serde_json::from_str::<AutoscalePolicySpec>(&removed).is_err(),
            "{removed} parsed"
        );
    }
}

#[test]
fn struct_specs_round_trip() {
    round_trips(&LinkSpec::nvlink());
    let custom = LinkSpec {
        name: "rack \"B\"\tfabric".to_owned(),
        pj_per_byte: 0.1,
        ..LinkSpec::cxl()
    };
    assert!(round_trips(&custom).contains(r#""rack \"B\"\tfabric""#));

    round_trips(&SloSpec::interactive(500.0, 50.0));
    round_trips(&SloSpec::interactive(10_000.0, 0.125));

    round_trips(&SpeculativeConfig::fixed(1));
    round_trips(&SpeculativeConfig::adaptive(64, 8));

    round_trips(&KvTierSpec::new(60_000));

    round_trips(&SessionTuning::default());
    let tuning = SessionTuning::new()
        .with_max_batch(16)
        .with_kv_headroom(0.8)
        .with_kv_block_size(32)
        .with_prefix_sharing(true)
        .with_prefill_chunk(2048)
        .with_kv_tier(KvTierSpec::new(400_000));
    round_trips(&tuning);

    round_trips(&SharedTierSpec::default());
    round_trips(&SharedTierSpec::new().with_sync_interval(0.5));

    let slo = SloSpec::interactive(2_000.0, 100.0);
    round_trips(&AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo));
    round_trips(
        &AutoscaleSpec::new(
            AutoscalePolicySpec::QueueDepthTarget {
                scale_up_depth: 6.0,
                scale_down_depth: 0.5,
            },
            slo,
        )
        .with_min_replicas(2)
        .with_initial_replicas(4)
        .with_spin_up(12.5)
        .with_decide_interval(0.75),
    );

    round_trips(&WorkloadSpec::static_batching(DatasetKind::GeneralQa, 4, 1));
    round_trips(
        &WorkloadSpec::continuous_batching(DatasetKind::CreativeWriting, 32, 4, 64)
            .with_seed(9)
            .with_speculation(SpeculativeConfig::adaptive(128, 8)),
    );
}

/// A disaggregated fleet over a shared tier: the report carries
/// migrations, a `GlobalTierReport` and every per-replica series.
/// `ClusterReport` has no `PartialEq`, so equality of the parsed value
/// is checked through its `Debug` form, which prints every field.
#[test]
fn fleet_report_round_trips() {
    let mut roles = vec![ReplicaRole::Prefill; 2];
    roles.extend([ReplicaRole::Decode; 2]);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
        1,
        4,
    )
    .with_roles(roles)
    .with_routing(PolicySpec::shared_tier_affinity())
    .with_tuning(
        SessionTuning::default()
            .with_kv_block_size(16)
            .with_prefix_sharing(true)
            .with_max_batch(16)
            .with_kv_tier(KvTierSpec::new(60_000)),
    )
    .with_shared_tier(SharedTierSpec::new());
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
        4.0,
        96,
    )
    .with_seed(3);
    let report = ClusterEngine::new(spec)
        .expect("valid fleet")
        .run(&workload);
    assert!(report.migration.migrations > 0, "nothing migrated");
    let tier = report.global_tier.as_ref().expect("shared-tier report");
    assert!(tier.publishes > 0, "nothing published to the shared tier");

    let json = serde_json::to_string(&report).expect("serializes");
    let back: ClusterReport = serde_json::from_str(&json).expect("parses back");
    assert_eq!(format!("{back:?}"), format!("{report:?}"));
    assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
}
