//! Behavioral tests for the trait-based routing API: conservation under
//! arbitrary policies and prefix-affinity's conversation stickiness at
//! fleet scale — driven through the `papi` facade.

use papi::core::{ClusterEngine, ClusterSpec, DesignKind, SessionTuning};
use papi::llm::ModelPreset;
use papi::workload::{
    ConversationDataset, DatasetKind, MigrationSpec, PolicySpec, RouteContext, RoutePolicy,
    ServingWorkload,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// A deliberately structure-free policy: an LCG over the proptest seed
/// picks any in-range replica, ignoring every snapshot. If the cluster
/// engine conserves requests under this, it conserves them under any
/// well-typed policy.
#[derive(Debug)]
struct ArbitraryPolicy {
    state: u64,
}

impl RoutePolicy for ArbitraryPolicy {
    fn route(&mut self, ctx: &RouteContext<'_>) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.state >> 33) % ctx.replicas.len() as u64) as usize
    }

    fn label(&self) -> String {
        "arbitrary".to_owned()
    }
}

fn fleet(dp: usize) -> ClusterEngine {
    ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            dp,
        )
        .with_tuning(SessionTuning::default().with_max_batch(8)),
    )
    .expect("valid fleet")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fleet-wide conservation is a property of the engine, not of any
    /// particular policy: any `RoutePolicy` that returns in-range
    /// indices completes every request exactly once, with fleet totals
    /// equal to the per-replica sums.
    #[test]
    fn any_in_range_policy_conserves_requests_and_tokens(
        seed in 0u64..1_000_000,
        dp in 2usize..5,
    ) {
        let workload =
            ServingWorkload::poisson(DatasetKind::GeneralQa, 12.0, 24).with_seed(seed);
        let mut policy = ArbitraryPolicy { state: seed | 1 };
        let report =
            fleet(dp).run_with_policies(&workload, &mut policy, &mut MigrationSpec::default());
        prop_assert_eq!(report.routing.as_str(), "arbitrary");
        prop_assert_eq!(report.requests(), 24);
        prop_assert_eq!(report.routing_decisions, 24);
        let replica_requests: u64 =
            report.replicas.iter().map(|r| r.records.len() as u64).sum();
        prop_assert_eq!(report.requests(), replica_requests);
        let replica_tokens: u64 = report.replicas.iter().map(|r| r.tokens).sum();
        prop_assert_eq!(report.tokens(), replica_tokens);
        // No request is duplicated across replicas.
        let mut ids: Vec<u64> = report.records().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), 24);
    }
}

/// At fleet scale with roomy DRAM, prefix-affinity keeps every turn of
/// every conversation on a single replica (so each replica's private
/// prefix cache sees the whole chain), while still using several
/// replicas across conversations.
#[test]
fn prefix_affinity_pins_conversations_to_one_replica_each() {
    let turns = 4;
    let n = 64;
    let conversations = n / turns; // turn-major ids: conv = id % 16
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, turns),
        4.0,
        n,
    )
    .with_seed(23);
    let report = ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            4,
        )
        .with_routing(PolicySpec::prefix_affinity())
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true),
        ),
    )
    .expect("valid fleet")
    .run(&workload);
    assert_eq!(report.routing, "prefix-affinity");
    assert_eq!(report.requests(), n as u64);

    // Conversation id -> set of replicas that served its turns.
    let mut replicas_of: HashMap<u64, Vec<usize>> = HashMap::new();
    for (replica_idx, replica) in report.replicas.iter().enumerate() {
        for record in &replica.records {
            let conv = record.id % conversations as u64;
            let entry = replicas_of.entry(conv).or_default();
            if !entry.contains(&replica_idx) {
                entry.push(replica_idx);
            }
        }
    }
    assert_eq!(replicas_of.len(), conversations);
    for (conv, replicas) in &replicas_of {
        assert_eq!(
            replicas.len(),
            1,
            "conversation {conv} scattered across replicas {replicas:?}"
        );
    }
    // The hash spreads conversations over the fleet, so affinity is not
    // just funnelling everything into one node.
    let used: std::collections::BTreeSet<usize> = replicas_of.values().map(|r| r[0]).collect();
    assert!(
        used.len() >= 3,
        "16 conversations should span most of a 4-replica fleet, used {used:?}"
    );
}
