//! Integration tests for the cluster layer: fleet invariants that must
//! hold across the workload router, the steppable serving sessions, and
//! the cluster aggregation — driven through the `papi` facade.

mod common;

use papi::core::{
    ClusterEngine, ClusterReport, ClusterSpec, DesignKind, KvTierSpec, ServingEngine,
    SessionTuning, SloSpec, SystemConfig,
};
use papi::llm::ModelPreset;
use papi::workload::{
    ConversationDataset, DatasetKind, PolicySpec, ReplicaSnapshot, Request, Router, ServingRequest,
    ServingWorkload, SpeculativeConfig,
};

fn cluster(tp: usize, dp: usize, routing: PolicySpec, max_batch: u64) -> ClusterEngine {
    ClusterEngine::new(
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            tp,
            dp,
        )
        .with_routing(routing)
        .with_tuning(SessionTuning::default().with_max_batch(max_batch)),
    )
    .expect("valid fleet")
}

/// A 1×TP1 "fleet" is the single-node engine, bit for bit: the whole
/// serialized replica report (records, clock, energy, placement and RLP
/// series, KV counters) equals the engine's, across designs, the paged
/// prefix cache and the KV tier (equality-pinned like
/// `slo_latency_matches_engine_pricing`). Single-node sweeps rely on it.
#[test]
fn degenerate_cluster_reproduces_single_engine_exactly() {
    let qa = ServingWorkload::poisson(DatasetKind::GeneralQa, 6.0, 40).with_seed(29);
    let chat = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        4.0,
        48,
    )
    .with_seed(7);
    let thrash = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
        1.0,
        120,
    )
    .with_seed(23);
    use DesignKind::{A100AttAcc, Papi, PimOnlyPapi};
    use ModelPreset::{Gpt3_175B, Llama65B};
    let batch = SessionTuning::default().with_max_batch(16);
    let paged = batch
        .clone()
        .with_kv_block_size(16)
        .with_prefix_sharing(true);
    let tight = paged.clone().with_kv_headroom(0.05);
    let tiered = paged.with_kv_tier(KvTierSpec::new(60_000));
    let shapes = [
        (Papi, Llama65B, &batch, &qa),
        (A100AttAcc, Llama65B, &batch, &qa),
        (PimOnlyPapi, Llama65B, &batch, &qa),
        (PimOnlyPapi, Llama65B, &tight, &chat),
        (PimOnlyPapi, Gpt3_175B, &tiered, &thrash),
    ];
    for (design, model, tuning, workload) in shapes {
        let single = ServingEngine::new(SystemConfig::build(design, model.config()))
            .with_tuning(tuning.clone())
            .run(workload);
        for routing in [PolicySpec::JoinShortestQueue, PolicySpec::prefix_affinity()] {
            let fleet = ClusterEngine::new(
                ClusterSpec::new(design, model.config(), 1, 1)
                    .with_routing(routing)
                    .with_tuning(tuning.clone()),
            )
            .expect("valid fleet")
            .run(workload);
            common::assert_same(
                &format!("{design:?} {model:?} {routing}"),
                &single,
                &fleet.replicas[0],
            );
        }
    }
}

/// Fleet-level conservation: the cluster report's request count equals
/// the sum of replica counts and the workload size, for every routing
/// policy; tokens and records stay consistent.
#[test]
fn cluster_report_conserves_requests_and_tokens() {
    let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 24.0, 72).with_seed(5);
    for routing in [
        PolicySpec::JoinShortestQueue,
        PolicySpec::prefix_affinity(),
        PolicySpec::shared_tier_affinity(),
    ] {
        let report: ClusterReport = cluster(1, 3, routing, 8).run(&workload);
        let replica_sum: u64 = report.replicas.iter().map(|r| r.records.len() as u64).sum();
        assert_eq!(report.requests(), replica_sum, "{routing}");
        assert_eq!(report.requests(), 72, "{routing}: a request was lost");
        let token_sum: u64 = report.replicas.iter().map(|r| r.tokens).sum();
        assert_eq!(report.tokens(), token_sum, "{routing}");
        assert_eq!(report.records().count() as u64, report.requests());
        // Every record's lifecycle stays ordered after aggregation.
        for r in report.records() {
            assert!(r.arrival.value() <= r.admitted.value());
            assert!(r.ttft().value() <= r.e2e().value());
        }
    }
}

/// The example's headline, pinned: at saturating load, four
/// data-parallel replicas out-serve one TP4 group (more queues, more
/// batch slots, no collectives); at trickle load the TP4 group decodes
/// each token faster (4× pooled devices behind one batch).
#[test]
fn dp_wins_goodput_at_saturation_tp_wins_single_request_latency() {
    let slo = SloSpec::interactive(2_000.0, 60.0);
    let heavy = ServingWorkload::poisson(DatasetKind::GeneralQa, 48.0, 96).with_seed(42);
    let dp4_hot = cluster(1, 4, PolicySpec::JoinShortestQueue, 32).run(&heavy);
    let tp4_hot = cluster(4, 1, PolicySpec::JoinShortestQueue, 32).run(&heavy);
    assert!(
        dp4_hot.goodput(&slo) > tp4_hot.goodput(&slo),
        "at 48 req/s: 4x TP1 goodput {:.2} should beat 1x TP4 {:.2}",
        dp4_hot.goodput(&slo),
        tp4_hot.goodput(&slo)
    );

    let trickle = ServingWorkload::poisson(DatasetKind::GeneralQa, 0.5, 24).with_seed(42);
    let dp4_cold = cluster(1, 4, PolicySpec::JoinShortestQueue, 32).run(&trickle);
    let tp4_cold = cluster(4, 1, PolicySpec::JoinShortestQueue, 32).run(&trickle);
    let tp4_tpot = tp4_cold.tpot_summary().unwrap().p50.value();
    let dp4_tpot = dp4_cold.tpot_summary().unwrap().p50.value();
    assert!(
        tp4_tpot < dp4_tpot,
        "single-request p50 TPOT: TP4 {tp4_tpot} should beat DP4 {dp4_tpot}"
    );
    // TP collective time is really priced: the TP4 fleet's comm share
    // exceeds the single-node fleet's.
    let comm_share = |r: &ClusterReport| {
        let replica = r
            .replicas
            .iter()
            .find(|r| !r.records.is_empty())
            .expect("someone served");
        replica.phases.communication.value() / replica.phases.total().value()
    };
    assert!(comm_share(&tp4_cold) > comm_share(&dp4_cold));
}

/// The JSQ invariant, replayed over many randomized fleet states: the
/// router never admits to a KV-saturated replica while another still
/// has headroom for the incoming prompt.
#[test]
fn jsq_never_picks_a_saturated_replica_while_headroom_exists() {
    let mut router = Router::new(PolicySpec::JoinShortestQueue);
    // Deterministic pseudo-random fleet states (no RNG needed: a small
    // LCG keeps the test self-contained).
    let mut state = 0x2545_f491u64;
    let mut next = |modulus: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulus
    };
    for _ in 0..500 {
        let incoming = 64 + next(512);
        let fleet: Vec<ReplicaSnapshot> = (0..4)
            .map(|_| {
                // Mixed granularities: some replicas page at 16-token
                // blocks with a reclaimable prefix cache, others count
                // scalar tokens.
                let block = if next(2) == 0 { 1 } else { 16 };
                let in_use = next(10_000 / block);
                ReplicaSnapshot {
                    queued: next(12) as usize,
                    live: next(8) as usize,
                    kv_blocks_in_use: in_use,
                    kv_evictable_blocks: next(in_use + 1),
                    kv_budget_blocks: 8_000 / block,
                    kv_block_size: block,
                    ..ReplicaSnapshot::default()
                }
            })
            .collect();
        let request = ServingRequest::new(Request::new(0, incoming, 1), 0.0);
        let pick = router.route(&request, &fleet);
        let headroom_exists = fleet.iter().any(|s| !s.kv_saturated_for(incoming));
        if headroom_exists {
            assert!(
                !fleet[pick].kv_saturated_for(incoming),
                "JSQ admitted to a saturated replica while {fleet:?} had headroom"
            );
        }
    }
}

/// Engines price every session through one shape table that their
/// clones share, so a reused engine must reproduce a fresh one byte for
/// byte: one `ServingEngine` serves two workloads (TLP 1 and 2) in both
/// orders, and one `ClusterEngine` (whose replicas are clones of one
/// engine per design) runs twice.
#[test]
fn reused_engines_reproduce_fresh_reports() {
    let qa = ServingWorkload::poisson(DatasetKind::GeneralQa, 6.0, 40).with_seed(29);
    let chat = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        4.0,
        48,
    )
    .with_speculation(SpeculativeConfig::fixed(2))
    .with_seed(7);
    let engine = || {
        ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config())).with_tuning(
            SessionTuning::default()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true),
        )
    };
    let fresh = [&qa, &chat].map(|workload| engine().run(workload));
    for order in [[0, 1], [1, 0]] {
        let reused = engine();
        for index in order {
            let workload = [&qa, &chat][index];
            common::assert_same(
                &format!("order {order:?}"),
                &fresh[index],
                &reused.run(workload),
            );
        }
    }

    let fleet = || cluster(1, 3, PolicySpec::JoinShortestQueue, 8);
    let fresh = [&qa, &chat].map(|workload| fleet().run(workload));
    let reused = fleet();
    for (index, workload) in [&qa, &chat].into_iter().enumerate() {
        common::assert_same(
            &format!("fleet run {index}"),
            &fresh[index],
            &reused.run(workload),
        );
    }
}
