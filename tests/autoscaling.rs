//! Elastic-autoscaling invariants, driven through the public fleet
//! API:
//!
//! - **Conservation under arbitrary scale schedules**: a scripted
//!   autoscaler activating and draining replicas at random must never
//!   lose or duplicate a request — every workload request completes
//!   exactly once, whatever the lifecycle churn. The engine's own
//!   asserts additionally guarantee no arrival is ever routed to a
//!   `Warming`, `Draining`, or `Retired` replica.
//! - **Lifecycle legality**: every logged transition follows the
//!   `Warming → Active → Draining → Retired` state machine (plus the
//!   warm drain-cancel edge `Draining → Active`), and replica-hours
//!   never exceed the fixed fleet's rental.
//! - **Consistent-hash remap bounds**: adding or removing one member
//!   of a [`HashRing`] re-homes only a bounded fraction of the key
//!   space — the property that keeps prefix caches warm across scale
//!   events — and rings over fixed membership are deterministic. A
//!   ring filtered from the fleet's presorted [`RingPoints`] equals a
//!   fresh one.

use papi::core::{
    AutoscalePolicy, AutoscalePolicySpec, AutoscaleSpec, AutoscaleView, ClusterEngine, ClusterSpec,
    DesignKind, ScaleAction, SessionTuning, SloSpec, StepMode,
};
use papi::llm::ModelPreset;
use papi::workload::{
    ArrivalProcess, ConversationDataset, DatasetKind, HashRing, PolicySpec, ReplicaState,
    RingPoints, ServingWorkload,
};
use proptest::prelude::*;

/// A deterministic adversary: decides from a splitmix64 stream, so an
/// arbitrary (but reproducible) mix of activations and drains hits the
/// engine — including no-ops on already-active replicas, drains the
/// `min_replicas` floor must refuse, and drain-cancels.
#[derive(Debug)]
struct ScriptedPolicy {
    state: u64,
}

impl ScriptedPolicy {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl AutoscalePolicy for ScriptedPolicy {
    fn decide(&mut self, view: &AutoscaleView<'_>) -> Vec<ScaleAction> {
        let n = view.replicas.len() as u64;
        let pick = |z: u64| (z % n) as usize;
        match self.next() % 4 {
            0 => vec![ScaleAction::Activate(pick(self.next()))],
            1 => vec![ScaleAction::Drain(pick(self.next()))],
            2 => vec![
                ScaleAction::Activate(pick(self.next())),
                ScaleAction::Drain(pick(self.next())),
            ],
            _ => Vec::new(),
        }
    }

    fn label(&self) -> String {
        "scripted".into()
    }
}

/// The allowed lifecycle edges (drain-cancel included).
fn legal_transition(from: ReplicaState, to: ReplicaState) -> bool {
    matches!(
        (from, to),
        (ReplicaState::Retired, ReplicaState::Warming)
            | (ReplicaState::Warming, ReplicaState::Active)
            | (ReplicaState::Active, ReplicaState::Draining)
            | (ReplicaState::Draining, ReplicaState::Retired)
            | (ReplicaState::Draining, ReplicaState::Active)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Requests and tokens are conserved across arbitrary scale
    /// schedules, in both step modes, and every logged transition is
    /// legal.
    #[test]
    fn scripted_scaling_conserves_requests(
        seed in 0u64..1_000_000,
        dp in 2usize..6,
        initial in 1usize..4,
        sequential in proptest::bool::ANY,
    ) {
        let initial = initial.min(dp);
        let n = 40usize;
        let workload = ServingWorkload::poisson(DatasetKind::GeneralQa, 8.0, n).with_seed(seed);
        let slo = SloSpec::interactive(2_000.0, 100.0);
        let engine = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, ModelPreset::Llama65B.config(), 1, dp)
                .with_tuning(SessionTuning::default().with_max_batch(8))
                .with_step_mode(if sequential {
                    StepMode::Sequential
                } else {
                    StepMode::Lazy
                })
                .with_autoscale(
                    AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo)
                        .with_min_replicas(1)
                        .with_initial_replicas(initial)
                        .with_spin_up(1.5)
                        .with_decide_interval(0.5),
                ),
        )
        .expect("valid elastic fleet");
        let report = engine.run_elastic(&workload, &mut ScriptedPolicy { state: seed });

        // Every request completes exactly once, wherever the churn
        // moved the active set.
        prop_assert_eq!(report.requests(), n as u64);
        let mut ids: Vec<u64> = report.records().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());

        let cost = report.fleet_cost.expect("elastic fleets report cost");
        prop_assert_eq!(cost.policy.as_str(), "scripted");
        // Per-replica transition logs must follow the state machine
        // from each replica's initial state.
        let mut state: Vec<ReplicaState> = (0..dp)
            .map(|idx| {
                if idx < initial {
                    ReplicaState::Active
                } else {
                    ReplicaState::Retired
                }
            })
            .collect();
        let mut last_at = 0.0f64;
        for event in &cost.scale_events {
            prop_assert!(event.at_s >= last_at, "events out of order");
            last_at = event.at_s;
            prop_assert_eq!(state[event.replica], event.from);
            prop_assert!(
                legal_transition(event.from, event.to),
                "illegal transition {:?} -> {:?}",
                event.from,
                event.to
            );
            state[event.replica] = event.to;
        }
        // An elastic fleet can never rent more than the fixed fleet.
        prop_assert!(cost.provisioned_hours <= cost.fixed_fleet_hours + 1e-9);
        prop_assert!(cost.peak_active <= dp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fixed membership is deterministic: two rings over the same
    /// members agree on every key.
    #[test]
    fn ring_is_deterministic(members in 1usize..12, probe in 0u64..50_000) {
        let set: Vec<usize> = (0..members).collect();
        let a = HashRing::new(&set);
        let b = HashRing::new(&set);
        for key in probe..probe + 64 {
            prop_assert_eq!(a.home(key), b.home(key));
            prop_assert!(set.contains(&a.home(key).unwrap()));
        }
    }

    /// Filtering the fleet's presorted points builds exactly the ring
    /// `HashRing::new` builds over the kept members.
    #[test]
    fn filtered_ring_points_match_a_fresh_ring(fleet in 1usize..65, mask in 0u64..u64::MAX) {
        let candidates: Vec<usize> = (0..fleet).collect();
        let members: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&m| mask >> m & 1 == 1)
            .collect();
        let filtered = RingPoints::new(&candidates).ring(|m| mask >> m & 1 == 1);
        prop_assert_eq!(filtered, HashRing::new(&members));
    }

    /// Scale events re-home only a bounded fraction of the key space:
    /// adding one member moves keys only *onto* the newcomer, and the
    /// moved fraction stays near 1/(N+1) — far below the full reshuffle
    /// a mod-N hash would suffer. Removal is the mirror image.
    #[test]
    fn ring_remap_is_bounded(members in 2usize..10, salt in 0u64..1_000) {
        let before: Vec<usize> = (0..members).collect();
        let after: Vec<usize> = (0..=members).collect();
        let small = HashRing::new(&before);
        let big = HashRing::new(&after);
        let keys = 4_000u64;
        let mut moved = 0usize;
        for key in (0..keys).map(|k| k.wrapping_mul(0x9E37_79B9).wrapping_add(salt)) {
            let from = small.home(key).unwrap();
            let to = big.home(key).unwrap();
            if from != to {
                // Accretion: a key only ever moves to the new member.
                prop_assert_eq!(to, members);
                moved += 1;
            }
        }
        let fraction = moved as f64 / keys as f64;
        let expected = 1.0 / (members + 1) as f64;
        prop_assert!(
            fraction < (3.0 * expected).min(0.5),
            "adding 1 of {} members moved {:.1}% of keys (expected ~{:.1}%)",
            members + 1,
            fraction * 100.0,
            expected * 100.0
        );
    }
}

/// Cold spin-up is visible end to end: a flash crowd hitting a
/// scaled-down fleet pays warm-up lag (scale events show `Warming`
/// phases with positive warming-hours), yet still completes every
/// request.
#[test]
fn flash_crowd_pays_a_visible_warm_up_lag() {
    let n = 64usize;
    let workload = ServingWorkload::new(
        ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 2),
        ArrivalProcess::FlashCrowd {
            base_rate_per_sec: 1.0,
            spike_rate_per_sec: 24.0,
            spike_every_s: 10.0,
            spike_duration_s: 4.0,
        },
        n,
    )
    .with_seed(7);
    let slo = SloSpec::interactive(2_000.0, 100.0);
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
                .with_max_batch(8)
                .with_kv_block_size(16)
                .with_prefix_sharing(true),
        )
        .with_autoscale(
            AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo)
                .with_min_replicas(1)
                .with_initial_replicas(1)
                .with_spin_up(5.0)
                .with_decide_interval(1.0),
        ),
    )
    .expect("valid elastic fleet")
    .run(&workload);
    assert_eq!(report.requests(), n as u64);
    let cost = report.fleet_cost.expect("cost report");
    let activations = cost
        .scale_events
        .iter()
        .filter(|e| e.to == ReplicaState::Warming)
        .count();
    assert!(
        activations > 0,
        "the spike should force at least one cold activation"
    );
    assert!(
        cost.warming_hours > 0.0,
        "cold activations must accrue warming hours"
    );
    // Warm-up is real lag: a replica activated at time t serves
    // nothing before t + spin_up.
    for event in &cost.scale_events {
        if event.to == ReplicaState::Warming {
            let promoted = cost.scale_events.iter().find(|e| {
                e.replica == event.replica
                    && e.from == ReplicaState::Warming
                    && e.at_s >= event.at_s
            });
            if let Some(promoted) = promoted {
                assert!(
                    promoted.at_s - event.at_s >= 5.0 - 1e-9,
                    "replica {} warmed in {}s, below the 5s spin-up",
                    event.replica,
                    promoted.at_s - event.at_s
                );
            }
        }
    }
}
