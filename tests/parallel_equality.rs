//! Step-mode pins for the fleet event loop. Both [`StepMode`]s drive
//! one loop and differ only in how replicas that cannot move a
//! window's bound reach it: `Sequential` steps the whole fleet one
//! `step()` round at a time, minimum clock first, and re-snapshots
//! every replica at every event; `Lazy` runs each replica inline
//! to the bound, leaping steady batches with `run_until`, and
//! re-snapshots only replicas that changed. Every `ClusterReport`
//! field, RNG consumption order included, must come out identical
//! across colocated and disaggregated roles, PIM-only and GPU prefill
//! pools, prefix-affinity routing, paged KV, the shared tier and
//! autoscaling. Any divergence is a bug in the windowing, the snapshot
//! cache or the decode leap, not noise.
//!
//! Both comparisons, mode against mode and mode against golden, flatten
//! the whole serialized report (`tests/common/mod.rs`) and fail with the
//! paths that moved. The golden files sit under `tests/golden/`; they
//! were captured at 0a0ce34 while the report hashes they replace still
//! passed. Most of those hashes were captured from the two-loop
//! engine, where the sequential mode was a separate loop. They pin
//! disaggregated, autoscaled and KV-tight fleets, which the colocated
//! routing goldens do not cover, against code the one loop does not
//! share. The shared-tier-affinity goldens were captured while each
//! affinity policy was still its own type, so they pin the one
//! `Router` rule against it. The join-shortest-queue shared-tier fleet
//! and the default-spill affinity fleet were captured on the last
//! engine whose router still carried per-spec thresholds.

mod common;

use papi::core::{
    AutoscalePolicySpec, AutoscaleSpec, ClusterEngine, ClusterReport, ClusterSpec, DesignKind,
    KvTierSpec, SessionTuning, SharedTierSpec, SloSpec, StepMode,
};
use papi::interconnect::LinkSpec;
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, MigrationSpec, PolicySpec, ReplicaRole,
    ReplicaState, RouteContext, RoutePolicy, Router, ServingWorkload, SpeculativeConfig,
};
use proptest::prelude::*;

/// Runs `spec` under both step modes and asserts the reports match,
/// naming the paths where the lazy one diverged.
fn assert_modes_agree(spec: ClusterSpec, workload: &ServingWorkload, label: &str) {
    let run = |mode: StepMode| {
        ClusterEngine::new(spec.clone().with_step_mode(mode))
            .expect("valid fleet")
            .run(workload)
    };
    common::assert_same(
        &format!("{label}: lazy against sequential"),
        &run(StepMode::Sequential),
        &run(StepMode::Lazy),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fleets: replica counts 1–16, random prefill/decode/
    /// colocated role mixes, PIM-only or GPU prefill pools, both plain
    /// and bursty multi-turn traffic.
    #[test]
    fn parallel_matches_sequential(
        seed in 0u64..1_000_000,
        dp in 1usize..17,
        prefill_share in 0usize..3,
        gpu_prefill in proptest::bool::ANY,
        bursty in proptest::bool::ANY,
    ) {
        // A fleet needs at least one decode-capable replica; cap the
        // prefill pool below the fleet size.
        let prefill = prefill_share.min(dp.saturating_sub(1));
        let (spec, workload) = disaggregated_fleet(seed, dp, prefill, bursty);
        let spec = if gpu_prefill {
            spec.with_prefill_design(DesignKind::A100AttAcc)
        } else {
            spec
        };
        assert_modes_agree(
            spec,
            &workload,
            &format!("dp={dp} prefill={prefill} gpu_prefill={gpu_prefill} bursty={bursty}"),
        );
    }
}

/// A PIM-only Llama-65B fleet of `dp` replicas: the first `prefill`
/// are prefill-role and the rest decode-role (`prefill == 0` leaves
/// every replica colocated), under Poisson or bursty multi-turn
/// traffic.
fn disaggregated_fleet(
    seed: u64,
    dp: usize,
    prefill: usize,
    bursty: bool,
) -> (ClusterSpec, ServingWorkload) {
    let workload = if bursty {
        ServingWorkload::new(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
            ArrivalProcess::Bursty {
                burst_size: 4,
                interval_sec: 1.0,
            },
            32,
        )
        .with_seed(seed)
    } else {
        ServingWorkload::poisson(DatasetKind::GeneralQa, 12.0, 32).with_seed(seed)
    };
    let mut spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Llama65B.config(),
        1,
        dp,
    )
    .with_tuning(SessionTuning::default().with_max_batch(8));
    if prefill > 0 {
        let roles = (0..dp)
            .map(|i| {
                if i < prefill {
                    ReplicaRole::Prefill
                } else {
                    ReplicaRole::Decode
                }
            })
            .collect();
        spec = spec.with_roles(roles);
    }
    (spec, workload)
}

/// The paged, prefix-shared, affinity-routed shape the
/// `cluster_fleet_64` perf scenario uses (shrunk to a 16-replica fleet
/// so the suite stays fast): the configuration where decode leaps —
/// `run_until` running a steady batch to its next event in one call —
/// do nearly all of `Lazy`'s stepping.
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
    /// fetch traffic and control-plane sync ticks, and `Lazy` must
    /// still reproduce `Sequential` bit for bit — including the
    /// `GlobalTierReport` — across replica counts, routing policies,
    /// fabrics, and sync intervals. The workload is the long-context
    /// scatter shape. The proptest runs 35 four-turn conversations
    /// behind a 10,240-token system prompt, so the pool spills and
    /// every case fetches across replicas: on a grid of seeds 0–39 ×
    /// dp 2–4 × the three policies × both fabrics at sync 0.05, all 720
    /// cases fetched.
    #[test]
    fn parallel_matches_sequential_shared_tier(
        seed in 0u64..1_000_000,
        dp in 2usize..5,
        policy_pick in 0usize..3,
        ethernet in proptest::bool::ANY,
        sync_pick in 0usize..3,
    ) {
        let policy = [
            PolicySpec::JoinShortestQueue,
            PolicySpec::shared_tier_affinity(),
            PolicySpec::prefix_affinity(),
        ][policy_pick];
        let sync_s = [0.01, 0.05, 0.5][sync_pick];
        let (mut spec, workload) = shared_tier_fleet(seed, FETCHING_CHATS, dp, policy, sync_s);
        if ethernet {
            spec.inter_node = LinkSpec::ethernet_100g();
        }
        assert_modes_agree(
            spec,
            &workload,
            &format!("shared-tier dp={dp} policy={policy} ethernet={ethernet} sync={sync_s}"),
        );
    }
}

/// The conversation shape a shared-tier fleet serves.
#[derive(Debug, Clone, Copy)]
struct ChatShape {
    requests: usize,
    system_prompt: u64,
    turns: usize,
}

/// The shape `shared_tier_fleet_matches_its_golden` pins.
const GOLDEN_CHATS: ChatShape = ChatShape {
    requests: 153,
    system_prompt: 4096,
    turns: 3,
};

/// The shape the step-mode proptest runs: long enough prompts that
/// remote fetches occur in nearly every case.
const FETCHING_CHATS: ChatShape = ChatShape {
    requests: 140,
    system_prompt: 10_240,
    turns: 4,
};

/// A PIM-only GPT-3 fleet with a fleet-shared tier over InfiniBand NDR,
/// serving the thrash-prone long-context scatter shape.
fn shared_tier_fleet(
    seed: u64,
    chats: ChatShape,
    dp: usize,
    policy: PolicySpec,
    sync_s: f64,
) -> (ClusterSpec, ServingWorkload) {
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, chats.system_prompt, chats.turns),
        4.0,
        chats.requests,
    )
    .with_seed(seed);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
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
    .with_shared_tier(SharedTierSpec::new().with_sync_interval(sync_s));
    (spec, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Autoscaled fleets: lifecycle transitions, decision ticks,
    /// warm-up promotions, and ring-affinity routing all ride the
    /// control-plane barrier machinery, and `Lazy` must still
    /// reproduce `Sequential` bit for bit —
    /// including the `FleetCostReport` (replica-hours, scale-event
    /// log, energy per good token) — across fleet sizes, queue-depth
    /// bands, initial fleet fractions, decision intervals, and both
    /// elastic arrival shapes.
    #[test]
    fn parallel_matches_sequential_autoscaled(
        seed in 0u64..1_000_000,
        dp in 2usize..6,
        band_pick in 0usize..3,
        initial in 1usize..4,
        decide_pick in 0usize..3,
        diurnal in proptest::bool::ANY,
    ) {
        // The default band, the benchmark's and the example's.
        let (up, down) = [(4.0, 1.0), (0.25, 0.05), (0.3, 0.02)][band_pick];
        let policy = AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: up,
            scale_down_depth: down,
        };
        let decide_s = [0.5, 2.0, 5.0][decide_pick];
        let initial = initial.min(dp);
        let (spec, workload) = autoscaled_fleet(seed, dp, policy, initial, decide_s, diurnal);
        assert_modes_agree(
            spec,
            &workload,
            &format!(
                "autoscaled dp={dp} band={band_pick} initial={initial} \
                 decide={decide_s} diurnal={diurnal}"
            ),
        );
    }
}

/// An elastic PIM-only Llama-65B fleet under diurnal or flash-crowd
/// multi-turn traffic, affinity-routed over 16-token shared blocks.
fn autoscaled_fleet(
    seed: u64,
    dp: usize,
    policy: AutoscalePolicySpec,
    initial: usize,
    decide_s: f64,
    diurnal: bool,
) -> (ClusterSpec, ServingWorkload) {
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
        AutoscaleSpec::new(policy, SloSpec::interactive(2_000.0, 100.0))
            .with_min_replicas(1)
            .with_initial_replicas(initial)
            .with_spin_up(3.0)
            .with_decide_interval(decide_s),
    );
    (spec, workload)
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
/// proptest below exercises a guard that fails inside a window; both
/// modes match its golden.
#[test]
fn kv_tight_fleet_preempts_identically_in_both_modes() {
    let (spec, workload) = kv_tight_fleet(3, 2);
    let report = run_pinned(spec, &workload, "fleet-kv-tight");
    assert!(
        report.replicas.iter().any(|r| r.preemptions > 0),
        "the KV-tight fleet never preempted"
    );
}

/// Runs `spec` under both step modes, asserts each report matches
/// `golden`, and returns the lazy report for shape checks.
fn run_pinned(spec: ClusterSpec, workload: &ServingWorkload, golden: &str) -> ClusterReport {
    let run = |mode: StepMode| {
        ClusterEngine::new(spec.clone().with_step_mode(mode))
            .expect("valid fleet")
            .run(workload)
    };
    common::assert_golden(golden, &run(StepMode::Sequential));
    let lazy = run(StepMode::Lazy);
    common::assert_golden(golden, &lazy);
    lazy
}

/// Token-granular blocks, and 256-token blocks. Every prompt of the
/// second fills one block, so the equal-size exports of one prefill
/// batch land at the same instant: it also pins the export-order
/// tie-break of the in-flight queue (reversing it moves the report).
#[test]
fn disaggregated_fleets_match_their_goldens() {
    for block in [1, 256] {
        let name = format!("fleet-disaggregated-{block}-token-blocks");
        let (spec, workload) = disaggregated_fleet(7, 6, 2, false);
        let tuning = spec.tuning.clone().with_kv_block_size(block);
        let report = run_pinned(spec.with_tuning(tuning), &workload, &name);
        assert!(report.migration.migrations > 0, "{name}: nothing migrated");
    }
}

/// Join-shortest-queue moves turns between the two replicas as their
/// queues shift, so spilled prefixes are fetched across the fabric.
#[test]
fn shared_tier_fleet_matches_its_golden() {
    let (spec, workload) =
        shared_tier_fleet(23, GOLDEN_CHATS, 2, PolicySpec::JoinShortestQueue, 0.05);
    let report = run_pinned(spec, &workload, "fleet-shared-tier-jsq");
    let tier = report.global_tier.expect("shared-tier report");
    assert!(tier.fetches > 0, "no cross-replica fetch");
}

#[test]
fn autoscaled_flash_crowd_matches_its_golden() {
    let (spec, workload) =
        autoscaled_fleet(5, 4, AutoscalePolicySpec::queue_depth(), 2, 2.0, false);
    let report = run_pinned(spec, &workload, "fleet-autoscaled-flash-crowd");
    let cost = report.fleet_cost.expect("elastic report");
    for to in [ReplicaState::Warming, ReplicaState::Draining] {
        assert!(
            cost.scale_events.iter().any(|e| e.to == to),
            "no replica went {to:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Decode-leap boundaries. `Lazy` advances replicas with
    /// `run_until`, which runs a steady batch through many iterations
    /// per call; `Sequential` steps one round at a time. Every
    /// place a leap can end must give the same reports:
    /// - speculation length 4 under adaptive TLP on PAPI, where the
    ///   speculation length follows the batch and the scheduler
    ///   switches placement as the batch drains;
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
                    .with_speculation(SpeculativeConfig::fixed(4))
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

/// A KV-tight long-context pair routed by prefix affinity: busy homes
/// saturate, so some turns read the whole fleet instead of their home
/// and spill, and pools still preempt.
fn spilling_affinity_fleet() -> (ClusterSpec, ServingWorkload) {
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
        8.0,
        96,
    )
    .with_seed(5);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
        1,
        2,
    )
    .with_routing(PolicySpec::prefix_affinity())
    .with_tuning(
        SessionTuning::default()
            .with_max_batch(64)
            .with_kv_headroom(1.0),
    );
    (spec, workload)
}

/// Affinity reads only its home until the home would spill, then the
/// whole fleet. Here homes do spill, and both modes match the golden
/// recorded from the eager loop.
#[test]
fn spilling_affinity_fleet_matches_its_golden() {
    let (spec, workload) = spilling_affinity_fleet();
    let mut spills = Vec::new();
    for mode in [StepMode::Sequential, StepMode::Lazy] {
        let mut policy = Router::new(spec.routing);
        let report = ClusterEngine::new(spec.clone().with_step_mode(mode))
            .expect("valid fleet")
            .run_with_policies(&workload, &mut policy, &mut MigrationSpec::default());
        common::assert_golden("fleet-spilling-affinity", &report);
        assert!(report.preemptions() > 0, "the fleet never ran out of KV");
        spills.push(policy.spills());
    }
    assert!(spills[0] > 0, "no home ever spilled");
    assert_eq!(spills[0], spills[1]);
}

/// A policy behind a wrapper that keeps the default `reads` makes
/// every arrival read the whole fleet, as the eager loop does. The
/// report must not change.
#[test]
fn wrapped_policies_keep_their_reports() {
    #[derive(Debug)]
    struct Wrapped(Router);
    impl RoutePolicy for Wrapped {
        fn route(&mut self, ctx: &RouteContext<'_>) -> usize {
            RoutePolicy::route(&mut self.0, ctx)
        }
        fn label(&self) -> String {
            self.0.label()
        }
    }
    let fleets = [
        spilling_affinity_fleet(),
        global_prefix_fleet(PolicySpec::shared_tier_affinity(), false),
        autoscaled_fleet(5, 4, AutoscalePolicySpec::queue_depth(), 2, 2.0, false),
        autoscaled_fleet(9, 4, AutoscalePolicySpec::queue_depth(), 1, 0.5, true),
    ];
    for (spec, workload) in fleets {
        let engine = ClusterEngine::new(spec.clone()).expect("valid fleet");
        let direct = engine.run(&workload);
        let wrapped = engine.run_with_policies(
            &workload,
            &mut Wrapped(Router::new(spec.routing)),
            &mut MigrationSpec::default(),
        );
        common::assert_same(
            &format!("{}: wrapped against direct", spec.routing),
            &direct,
            &wrapped,
        );
    }
}

/// The `global_prefix` example's fleet at 0.1 req/s.
fn global_prefix_fleet(policy: PolicySpec, shared: bool) -> (ClusterSpec, ServingWorkload) {
    let workload = ServingWorkload::poisson(
        ConversationDataset::multi_turn(DatasetKind::LongContext, 8192, 12),
        0.1,
        120,
    )
    .with_seed(23);
    let spec = ClusterSpec::new(
        DesignKind::PimOnlyPapi,
        ModelPreset::Gpt3_175B.config(),
        1,
        2,
    )
    .with_routing(policy)
    .with_tuning(
        SessionTuning::default()
            .with_max_batch(16)
            .with_kv_block_size(16)
            .with_prefix_sharing(true)
            .with_kv_tier(KvTierSpec::new(60_000)),
    );
    let spec = if shared {
        spec.with_shared_tier(SharedTierSpec::new())
    } else {
        spec
    };
    (spec, workload)
}

/// The affinity that relaxes, pinned on the `global_prefix` fleet with
/// and without the shared tier. With it, shared-tier affinity relaxes
/// for resident prefixes; without it, it routes like prefix affinity
/// and reads only the home.
#[test]
fn relaxing_affinity_fleets_match_their_goldens() {
    let policy = PolicySpec::shared_tier_affinity();
    for (shared, golden) in [
        (true, "fleet-relaxing-affinity-shared-tier"),
        (false, "fleet-relaxing-affinity-private-tiers"),
    ] {
        let label = format!("{policy} fleet, shared tier {shared}");
        let (spec, workload) = global_prefix_fleet(policy, shared);
        let mut counts = Vec::new();
        for mode in [StepMode::Sequential, StepMode::Lazy] {
            let mut router = Router::new(policy);
            let report = ClusterEngine::new(spec.clone().with_step_mode(mode))
                .expect("valid fleet")
                .run_with_policies(&workload, &mut router, &mut MigrationSpec::default());
            common::assert_golden(golden, &report);
            counts.push((router.spills(), router.relaxed()));
        }
        assert_eq!(counts[0], counts[1], "{label}: step modes routed apart");
        let (spills, relaxed) = counts[0];
        assert!(spills > 0, "{label}: no home ever spilled");
        // Without a directory no prefix is resident, so shared-tier
        // affinity never relaxes.
        assert_eq!(relaxed > 0, shared, "{label}: relaxed {relaxed} times");
    }
}
