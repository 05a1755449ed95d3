//! Equivalence pin for the parallel fleet event loop:
//! [`StepMode::Parallel`] must reproduce the sequential reference
//! loop's `ClusterReport` bit for bit, across fleet shapes the
//! built-in policies can produce — colocated and disaggregated roles,
//! every migration pricing, prefix-affinity routing, paged KV.
//!
//! The parallel loop only ever reorders *wall-clock* execution: the
//! simulated event order (arrivals, migration deliveries, per-replica
//! iteration boundaries) is derived from the same horizon arithmetic
//! the sequential loop uses, so every report field — including RNG
//! consumption order — must come out identical. Any divergence is a
//! correctness bug in the windowing, not noise.

use papi::core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterReport, ClusterSpec, DesignKind,
    KvTierSpec, SessionTuning, SharedTierSpec, SloSpec, StepMode,
};
use papi::interconnect::{MigrationPricing, TierPricing};
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, PolicySpec, ReplicaRole, ServingWorkload,
    SpeculativeConfig,
};
use proptest::prelude::*;

/// FNV-1a over every replica's per-request records, placements, RLP
/// series, makespan, and energy (field order fixed; floats hashed by
/// bit pattern) — the same fingerprint `tests/routing_equality.rs`
/// pins goldens with.
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

/// Runs `spec` under both step modes and asserts the reports match —
/// first by fingerprint (the focused diagnostic), then byte for byte
/// over the serialized report (the exhaustive check).
fn assert_modes_agree(spec: ClusterSpec, workload: &ServingWorkload, label: &str) {
    let run = |mode: StepMode| {
        ClusterEngine::new(spec.clone().with_step_mode(mode))
            .expect("valid fleet")
            .run(workload)
    };
    let sequential = run(StepMode::Sequential);
    let parallel = run(StepMode::Parallel);
    assert_eq!(
        fingerprint(&sequential),
        fingerprint(&parallel),
        "{label}: parallel stepping diverged from the sequential reference"
    );
    assert_eq!(
        serde_json::to_string(&sequential).expect("report serializes"),
        serde_json::to_string(&parallel).expect("report serializes"),
        "{label}: reports fingerprint-equal but serialize differently"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fleets: replica counts 1–16, random prefill/decode/
    /// colocated role mixes, every migration pricing, both plain and
    /// bursty multi-turn traffic.
    #[test]
    fn parallel_matches_sequential(
        seed in 0u64..1_000_000,
        dp in 1usize..17,
        prefill_share in 0usize..3,
        pricing_pick in 0usize..2,
        bursty in proptest::bool::ANY,
    ) {
        // A fleet needs at least one decode-capable replica; cap the
        // prefill pool below the fleet size.
        let prefill = prefill_share.min(dp.saturating_sub(1));
        let roles: Vec<ReplicaRole> = (0..dp)
            .map(|i| {
                if i < prefill {
                    ReplicaRole::Prefill
                } else {
                    ReplicaRole::Decode
                }
            })
            .collect();
        let disaggregated = prefill > 0;
        let pricing = match pricing_pick {
            0 => MigrationPricing::Fabric,
            _ => MigrationPricing::Free,
        };
        let workload = if bursty {
            ServingWorkload::new(
                ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
                ArrivalProcess::Bursty { burst_size: 4, interval_sec: 1.0 },
                32,
            )
            .with_seed(seed)
        } else {
            ServingWorkload::poisson(DatasetKind::GeneralQa, 12.0, 32).with_seed(seed)
        };
        let mut spec =
            ClusterSpec::new(DesignKind::PimOnlyPapi, ModelPreset::Llama65B.config(), 1, dp)
                .with_tuning(SessionTuning::default().with_max_batch(8));
        if disaggregated {
            spec = spec.with_roles(roles).with_migration_pricing(pricing);
        }
        assert_modes_agree(
            spec,
            &workload,
            &format!("dp={dp} prefill={prefill} pricing={pricing_pick} bursty={bursty}"),
        );
    }
}

/// The paged, prefix-shared, affinity-routed shape the
/// `cluster_fleet_64` perf scenario uses (shrunk to a 16-replica fleet
/// so the suite stays fast): the configuration where decode leaps —
/// `run_until` running a steady batch to its next event in one call —
/// do nearly all of the parallel loop's stepping.
#[test]
fn parallel_matches_sequential_prefix_affinity_fleet() {
    let workload = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
        ArrivalProcess::Bursty {
            burst_size: 8,
            interval_sec: 1.0,
        },
        256,
    )
    .with_seed(42);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Llama65B.config(),
        1,
        16,
    )
    .with_routing(PolicySpec::prefix_affinity())
    .with_tuning(
        SessionTuning::default()
            .with_max_batch(8)
            .with_kv_block_size(16)
            .with_prefix_sharing(true),
    );
    assert_modes_agree(spec, &workload, "prefix-affinity fleet");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared-tier fleets: the global directory adds cross-replica
    /// fetch traffic and control-plane sync ticks to both loops, and
    /// the parallel loop must still reproduce the sequential reference
    /// bit for bit — including the `GlobalTierReport` — across replica
    /// counts, routing policies, fabric pricings, and sync intervals.
    /// The workload is the thrash-prone long-context scatter shape
    /// (odd conversation count, so turns change replicas), which makes
    /// remote fetches actually occur rather than testing a quiet
    /// directory.
    #[test]
    fn parallel_matches_sequential_shared_tier(
        seed in 0u64..1_000_000,
        dp in 2usize..5,
        policy_pick in 0usize..3,
        free_fabric in proptest::bool::ANY,
        sync_pick in 0usize..3,
    ) {
        let policy = match policy_pick {
            0 => PolicySpec::RoundRobin,
            1 => PolicySpec::shared_tier_affinity(),
            _ => PolicySpec::prefix_affinity(),
        };
        let sync_s = [0.01, 0.05, 0.5][sync_pick];
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
            4.0,
            51,
        )
        .with_seed(seed);
        let spec = ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            papi::llm::ModelPreset::Gpt3_175B.config(),
            1,
            dp,
        )
        .with_routing(policy)
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_kv_tier(KvTierSpec::new(60_000)),
        )
        .with_shared_tier({
            // Default pricing rides the cluster's inter-node fabric;
            // `Free` is the zero-cost ablation.
            let shared = SharedTierSpec::new().with_sync_interval(sync_s);
            if free_fabric {
                shared.with_pricing(TierPricing::Free)
            } else {
                shared
            }
        });
        assert_modes_agree(
            spec,
            &workload,
            &format!("shared-tier dp={dp} policy={policy_pick} free={free_fabric} sync={sync_s}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Autoscaled fleets: lifecycle transitions, decision ticks,
    /// warm-up promotions, and ring-affinity routing all ride the
    /// control-plane barrier machinery, and the parallel loop must
    /// still reproduce the sequential reference bit for bit —
    /// including the `FleetCostReport` (replica-hours, scale-event
    /// log, energy per good token) — across fleet sizes, built-in
    /// scaling policies, initial fleet fractions, decision intervals,
    /// and both elastic arrival shapes.
    #[test]
    fn parallel_matches_sequential_autoscaled(
        seed in 0u64..1_000_000,
        dp in 2usize..6,
        policy_pick in 0usize..3,
        initial in 1usize..4,
        decide_pick in 0usize..3,
        diurnal in proptest::bool::ANY,
    ) {
        let slo = SloSpec::interactive(2_000.0, 100.0);
        let policy = match policy_pick {
            0 => AutoscalePolicySpec::queue_depth(),
            1 => AutoscalePolicySpec::kv_pressure(),
            _ => AutoscalePolicySpec::slo_burn(slo),
        };
        let decide_s = [0.5, 2.0, 5.0][decide_pick];
        let initial = initial.min(dp);
        let arrivals = if diurnal {
            ArrivalProcess::Diurnal {
                base_rate_per_sec: 2.0,
                peak_rate_per_sec: 16.0,
                period_s: 20.0,
                noise: 0.2,
            }
        } else {
            ArrivalProcess::FlashCrowd {
                base_rate_per_sec: 2.0,
                spike_rate_per_sec: 24.0,
                spike_every_s: 8.0,
                spike_duration_s: 2.0,
            }
        };
        let workload = ServingWorkload::new(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
            arrivals,
            48,
        )
        .with_seed(seed);
        let spec = ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            dp,
        )
        .with_routing(PolicySpec::prefix_affinity())
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(8)
                .with_kv_block_size(16)
                .with_prefix_sharing(true),
        )
        .with_autoscale(
            AutoscaleSpec::new(policy, slo)
                .with_min_replicas(1)
                .with_initial_replicas(initial)
                .with_spin_up(3.0)
                .with_decide_interval(decide_s),
        );
        assert_modes_agree(
            spec,
            &workload,
            &format!(
                "autoscaled dp={dp} policy={policy_pick} initial={initial} \
                 decide={decide_s} diurnal={diurnal}"
            ),
        );
    }
}

/// A fleet whose replicas run out of KV pool mid-window: bursts of
/// 3k-token prompts fill a pool admission may plan into whole
/// (headroom 1.0), and their long outputs then outgrow it between
/// arrivals, so a leap's growth guard fails and the full round has to
/// preempt.
fn kv_tight_fleet(seed: u64, dp: usize) -> (ClusterSpec, ServingWorkload) {
    let workload = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::CreativeWriting, 3072, 2),
        ArrivalProcess::Bursty {
            burst_size: 32,
            interval_sec: 2.0,
        },
        64 * dp,
    )
    .with_seed(seed)
    .with_adaptive_tlp(64, 4);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
        1,
        dp,
    )
    .with_tuning(
        SessionTuning::default()
            .with_max_batch(64)
            .with_kv_headroom(1.0),
    );
    (spec, workload)
}

/// The KV-tight shape really does preempt, so the leap-boundary
/// proptest below exercises a guard that fails inside a window.
#[test]
fn kv_tight_fleet_preempts_identically_in_both_modes() {
    let (spec, workload) = kv_tight_fleet(3, 2);
    let report = ClusterEngine::new(spec.clone().with_step_mode(StepMode::Sequential))
        .expect("valid fleet")
        .run(&workload);
    assert!(
        report.replicas.iter().any(|r| r.preemptions > 0),
        "the KV-tight fleet never preempted"
    );
    assert_modes_agree(spec, &workload, "kv-tight fleet");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Decode-leap boundaries. The parallel loop advances replicas with
    /// `run_until`, which runs a steady batch through many iterations
    /// per call; the sequential loop steps one round at a time. Every
    /// place a leap can end must give the same reports:
    /// - geometric acceptance with adaptive TLP on PAPI, where each
    ///   iteration draws acceptance and the scheduler switches
    ///   placement as the batch drains;
    /// - a KV-tight pool, where the growth guard fails mid-window and
    ///   the full round preempts;
    /// - 16-token blocks with prefix sharing and a small private tier,
    ///   where finishes publish, evict and spill.
    #[test]
    fn parallel_matches_sequential_across_leap_boundaries(
        seed in 0u64..1_000_000,
        dp in 1usize..4,
        shape in 0usize..3,
    ) {
        let (spec, workload) = match shape {
            0 => (
                ClusterSpec::new(DesignKind::Papi, ModelPreset::Llama65B.config(), 1, dp)
                    .with_tuning(SessionTuning::default().with_max_batch(16)),
                ServingWorkload::poisson(DatasetKind::GeneralQa, 16.0, 48)
                    .with_seed(seed)
                    .with_speculation(SpeculativeConfig::geometric(4, 0.6))
                    .with_adaptive_tlp(32, 8),
            ),
            1 => kv_tight_fleet(seed, dp),
            _ => (
                ClusterSpec::new(DesignKind::PimOnlyPapi, ModelPreset::Llama65B.config(), 1, dp)
                    .with_routing(PolicySpec::prefix_affinity())
                    .with_tuning(
                        SessionTuning::default()
                            .with_max_batch(8)
                            .with_kv_block_size(16)
                            .with_prefix_sharing(true)
                            .with_kv_tier(KvTierSpec::new(2_000)),
                    ),
                ServingWorkload::poisson(
                    ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
                    8.0,
                    48,
                )
                .with_seed(seed),
            ),
        };
        assert_modes_agree(spec, &workload, &format!("leap shape={shape} dp={dp}"));
    }
}
