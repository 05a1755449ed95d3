//! Elastic fleet autoscaling: replica lifecycle, scaling policies, and
//! cost-per-good-token accounting.
//!
//! A production fleet sized for the diurnal peak idles most of the day;
//! one sized for the trough melts at noon. This module lets a
//! [`ClusterEngine`](crate::cluster::ClusterEngine) resize itself
//! mid-episode: each replica carries a
//! [`ReplicaState`] lifecycle
//! (`Warming → Active → Draining → Retired`), and an
//! [`AutoscalePolicy`] — the sixth trait seam — is consulted at
//! control-plane barriers every
//! [`decide_interval_s`](AutoscaleSpec::decide_interval_s) simulated
//! seconds with an [`AutoscaleView`] of the fleet, answering with
//! [`ScaleAction`]s:
//!
//! - **Activate** a `Retired` replica: it flushes its prefix cache and
//!   capacity tier (a re-provisioned replica's DRAM is cold), spends
//!   [`spin_up_s`](AutoscaleSpec::spin_up_s) seconds `Warming` — during
//!   which it admits nothing — and then joins the `Active` set.
//!   Activating a `Draining` replica cancels the drain instantly (it is
//!   still warm).
//! - **Drain** an `Active` replica: it stops receiving arrivals and
//!   consistent-hash homes but finishes every request already pushed to
//!   it, then retires at a later barrier once idle. The engine never
//!   drains below [`min_replicas`](AutoscaleSpec::min_replicas).
//!
//! Provisioning cost is reported honestly in a [`FleetCostReport`]:
//! replica-hours by state (the rental-cost currency — an idle
//! provisioned replica still costs money even though the simulator
//! only accrues *energy* for work performed), energy per SLO-good
//! token, and the full scale-event log.
//!
//! Decisions run at decide-tick barriers of the one fleet event loop,
//! latched like the shared tier's gossip ticks, so both
//! [`StepMode`](crate::cluster::StepMode)s decide on the same schedule
//! and stay bit-for-bit equal with autoscaling on.

use crate::cluster::{min_pending_clock, next_sync_tick, stamped_snapshot, ClusterReport};
use crate::serving::ServingSession;
use crate::slo::SloSpec;
use papi_workload::{HashRing, ReplicaRole, ReplicaSnapshot, ReplicaState, RingPoints};
use serde::{Deserialize, Serialize};

/// The fleet state an [`AutoscalePolicy`] decides over: one
/// lifecycle-stamped [`ReplicaSnapshot`] per replica (provisioned or
/// not).
#[derive(Debug)]
pub struct AutoscaleView<'a> {
    /// Every replica's snapshot, lifecycle- and role-stamped, indexed
    /// by replica.
    pub replicas: &'a [ReplicaSnapshot],
    /// The floor the engine enforces on the `Active` count.
    pub min_replicas: usize,
}

impl AutoscaleView<'_> {
    /// Replicas currently serving traffic.
    pub fn active_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|s| s.lifecycle.serves_traffic())
            .count()
    }

    /// Whether capacity is already on the way (any `Warming` replica) —
    /// the standard guard against scale-up thrash while a previous
    /// decision is still spinning up.
    pub fn warming_in_flight(&self) -> bool {
        self.replicas
            .iter()
            .any(|s| s.lifecycle == ReplicaState::Warming)
    }

    /// Mean queue depth per `Active` replica, summed in replica order
    /// (0 with none active).
    pub fn mean_active_queue(&self) -> f64 {
        let (sum, n) = self
            .replicas
            .iter()
            .filter(|s| s.lifecycle.serves_traffic())
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.queued as f64, n + 1));
        sum / n.max(1) as f64
    }
}

/// One scaling decision over a replica index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleAction {
    /// Provision the replica: `Retired → Warming` (cold caches, admits
    /// nothing until warm), or cancel a drain (`Draining → Active`,
    /// still warm). A no-op on `Warming`/`Active` replicas.
    Activate(usize),
    /// Stop routing to the replica and let it finish in-flight work:
    /// `Active → Draining`. Ignored when it would leave fewer than
    /// `min_replicas` active. A no-op on non-`Active` replicas.
    Drain(usize),
}

/// The autoscaling seam: consulted at control-plane barriers every
/// `decide_interval_s`, sees the whole fleet, answers with scale
/// actions. Implementations must be deterministic — both step modes
/// replay the same decision schedule.
pub trait AutoscalePolicy: std::fmt::Debug + Send {
    /// The actions to apply at this decision barrier (empty = hold).
    fn decide(&mut self, view: &AutoscaleView<'_>) -> Vec<ScaleAction>;

    /// Display label for reports and sweeps.
    fn label(&self) -> String;
}

/// Picks the cheapest replica to bring up: a `Draining` one (still
/// warm — cancelling a drain is free capacity) before a `Retired` one
/// (pays the full spin-up).
fn activation_candidate(view: &AutoscaleView<'_>) -> Option<usize> {
    view.replicas
        .iter()
        .position(|s| s.lifecycle == ReplicaState::Draining)
        .or_else(|| {
            view.replicas
                .iter()
                .position(|s| s.lifecycle == ReplicaState::Retired)
        })
}

/// Picks the replica to drain: the `Active` one with the fewest queued
/// requests (ties to the highest index, so fleets shrink from the top
/// and replica 0 — the workload-seeded one — drains last).
fn drain_candidate(view: &AutoscaleView<'_>) -> Option<usize> {
    view.replicas
        .iter()
        .enumerate()
        .filter(|(_, s)| s.lifecycle.serves_traffic())
        .min_by(|(ia, a), (ib, b)| a.queued.cmp(&b.queued).then(ib.cmp(ia)))
        .map(|(i, _)| i)
}

/// The built-in autoscaling policy: compare the mean `Active` queue
/// depth against a band. Above the grow threshold it activates a
/// replica (unless one is already warming), below the shrink threshold
/// it drains one (never below the floor). The gap between the two
/// thresholds is the hysteresis band that prevents flapping.
///
/// The spec is itself the policy — it implements [`AutoscalePolicy`]
/// — and is the serializable form sweeps and configs carry (custom
/// policies drive the fleet through
/// [`ClusterEngine::run_elastic`](crate::cluster::ClusterEngine::run_elastic)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AutoscalePolicySpec {
    /// Scale on queue depth: activate a replica when the mean `Active`
    /// queue exceeds `scale_up_depth`, drain one when it falls below
    /// `scale_down_depth`.
    QueueDepthTarget {
        /// Mean queued-per-active-replica above which capacity is added.
        scale_up_depth: f64,
        /// Mean queued-per-active-replica below which capacity is removed.
        scale_down_depth: f64,
    },
}

impl AutoscalePolicySpec {
    /// Queue-depth scaling with the conventional 4-high / 1-low band.
    pub fn queue_depth() -> Self {
        AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: 4.0,
            scale_down_depth: 1.0,
        }
    }

    /// The spec as a boxed policy.
    pub fn build(&self) -> Box<dyn AutoscalePolicy> {
        Box::new(*self)
    }

    /// Checks the thresholds: each finite and non-negative, and the
    /// band not inverted (a scale-up threshold below the scale-down
    /// one; equal is allowed).
    pub fn validate(&self) -> Result<(), String> {
        let check = |name: &str, value: f64| {
            if !value.is_finite() || value < 0.0 {
                Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ))
            } else {
                Ok(())
            }
        };
        let AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: up,
            scale_down_depth: down,
        } = *self;
        check("scale-up threshold", up)?;
        check("scale-down threshold", down)?;
        if up < down {
            return Err(format!(
                "inverted band: scale-up threshold {up} is below scale-down threshold {down}"
            ));
        }
        Ok(())
    }
}

impl AutoscalePolicy for AutoscalePolicySpec {
    fn decide(&mut self, view: &AutoscaleView<'_>) -> Vec<ScaleAction> {
        let AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth,
            scale_down_depth,
        } = *self;
        let depth = view.mean_active_queue();
        let action = if depth > scale_up_depth && !view.warming_in_flight() {
            activation_candidate(view).map(ScaleAction::Activate)
        } else if depth < scale_down_depth && view.active_count() > view.min_replicas {
            drain_candidate(view).map(ScaleAction::Drain)
        } else {
            None
        };
        action.into_iter().collect()
    }

    fn label(&self) -> String {
        let AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth,
            scale_down_depth,
        } = *self;
        format!("queue-depth[up>{scale_up_depth},down<{scale_down_depth}]")
    }
}

/// Declarative autoscaling configuration, attached to a fleet with
/// [`ClusterSpec::with_autoscale`](crate::cluster::ClusterSpec::with_autoscale).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleSpec {
    /// Which built-in policy decides.
    pub policy: AutoscalePolicySpec,
    /// The objective defining a "good" token for the cost report's
    /// energy-per-SLO-good-token axis.
    pub slo: SloSpec,
    /// The engine never drains the `Active` count below this floor.
    pub min_replicas: usize,
    /// Replicas `0..initial` start `Active`, the rest `Retired`
    /// (provisioned on demand). `None` starts the whole fleet active.
    pub initial_replicas: Option<usize>,
    /// Seconds a newly provisioned replica spends `Warming` — cold
    /// caches, no admissions — before joining the active set.
    pub spin_up_s: f64,
    /// Seconds of simulated time between policy evaluations (the
    /// control-plane decision tick, latched like the shared tier's
    /// gossip tick so both step modes agree).
    pub decide_interval_s: f64,
}

impl AutoscaleSpec {
    /// Default replica spin-up delay: 30 s of simulated time — model
    /// load plus cache warm-up on real fleets.
    pub const DEFAULT_SPIN_UP_S: f64 = 30.0;

    /// Default decision interval: 10 s of simulated time.
    pub const DEFAULT_DECIDE_INTERVAL_S: f64 = 10.0;

    /// An autoscaler with the default knobs: floor of 1, whole fleet
    /// initially active, 30 s spin-up, 10 s decisions.
    pub fn new(policy: AutoscalePolicySpec, slo: SloSpec) -> Self {
        Self {
            policy,
            slo,
            min_replicas: 1,
            initial_replicas: None,
            spin_up_s: Self::DEFAULT_SPIN_UP_S,
            decide_interval_s: Self::DEFAULT_DECIDE_INTERVAL_S,
        }
    }

    /// Overrides the active-count floor.
    pub fn with_min_replicas(mut self, min_replicas: usize) -> Self {
        self.min_replicas = min_replicas;
        self
    }

    /// Starts only replicas `0..initial` active (the rest retired,
    /// provisioned on demand).
    pub fn with_initial_replicas(mut self, initial: usize) -> Self {
        self.initial_replicas = Some(initial);
        self
    }

    /// Overrides the spin-up delay (seconds).
    pub fn with_spin_up(mut self, spin_up_s: f64) -> Self {
        self.spin_up_s = spin_up_s;
        self
    }

    /// Overrides the decision interval (seconds).
    pub fn with_decide_interval(mut self, decide_interval_s: f64) -> Self {
        self.decide_interval_s = decide_interval_s;
        self
    }
}

/// One lifecycle transition, stamped with when it happened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulated time of the transition, seconds.
    pub at_s: f64,
    /// The replica that transitioned.
    pub replica: usize,
    /// Its previous lifecycle state.
    pub from: ReplicaState,
    /// Its new lifecycle state.
    pub to: ReplicaState,
}

/// Provisioning-cost accounting for one autoscaled episode — the
/// honest currency for comparing scaling policies. Replica-hours are
/// *rental* cost (a provisioned replica costs money whether or not it
/// iterates); energy is *work* cost (accrued per iteration, as
/// everywhere else in the simulator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCostReport {
    /// Label of the deciding policy.
    pub policy: String,
    /// Seconds between policy evaluations.
    pub decide_interval_s: f64,
    /// Seconds a cold replica spends warming.
    pub spin_up_s: f64,
    /// Policy evaluations over the episode.
    pub decisions: u64,
    /// Most replicas simultaneously `Active` at any decision barrier.
    pub peak_active: usize,
    /// Replica-hours spent `Warming` (provisioned, admitting nothing).
    pub warming_hours: f64,
    /// Replica-hours spent `Active`.
    pub active_hours: f64,
    /// Replica-hours spent `Draining` (finishing in-flight work).
    pub draining_hours: f64,
    /// Total provisioned replica-hours (warming + active + draining) —
    /// what the fleet *rents*.
    pub provisioned_hours: f64,
    /// What a fixed fleet of `dp_replicas` would have rented over the
    /// same episode — the savings denominator.
    pub fixed_fleet_hours: f64,
    /// Every lifecycle transition, in time order.
    pub scale_events: Vec<ScaleEvent>,
    /// Requests completing within the spec's SLO.
    pub slo_good_requests: u64,
    /// Output tokens of those requests.
    pub slo_good_tokens: u64,
    /// Fleet energy divided by SLO-good output tokens, joules per
    /// token (0 when no token met the SLO).
    pub energy_per_good_token_j: f64,
}

impl FleetCostReport {
    /// Fraction of the fixed-peak rental the autoscaled fleet spent.
    pub fn provisioned_fraction(&self) -> f64 {
        if self.fixed_fleet_hours == 0.0 {
            return 0.0;
        }
        self.provisioned_hours / self.fixed_fleet_hours
    }
}

/// The engine-side autoscale runtime: lifecycle vector, warm-up
/// timers, per-state hour accumulators, the consistent-hash ring over
/// the active membership, and the decision-tick latch. The fleet event
/// loop drives one of these through the same call sequence in either
/// step mode, so decisions — and reports — are bit-for-bit identical.
#[derive(Debug)]
pub(crate) struct AutoscaleControl<'a> {
    policy: &'a mut dyn AutoscalePolicy,
    slo: SloSpec,
    min_replicas: usize,
    spin_up_s: f64,
    decide_interval_s: f64,
    lifecycle: Vec<ReplicaState>,
    /// When each `Warming` replica becomes `Active`.
    warm_at: Vec<f64>,
    /// When each replica entered its current state.
    state_since: Vec<f64>,
    /// Accumulated seconds per replica in [warming, active, draining].
    state_seconds: Vec<[f64; 3]>,
    /// Every replica's ring points, filtered into `ring` on each
    /// membership change.
    points: RingPoints,
    ring: HashRing,
    events: Vec<ScaleEvent>,
    decisions: u64,
    peak_active: usize,
    next_decide: f64,
}

fn seconds_bucket(state: ReplicaState) -> Option<usize> {
    match state {
        ReplicaState::Warming => Some(0),
        ReplicaState::Active => Some(1),
        ReplicaState::Draining => Some(2),
        ReplicaState::Retired => None,
    }
}

impl<'a> AutoscaleControl<'a> {
    /// Sets up the runtime for a `dp`-replica fleet under `spec`'s
    /// bounds and timings, with `policy` deciding.
    pub(crate) fn new(
        spec: &AutoscaleSpec,
        dp: usize,
        policy: &'a mut dyn AutoscalePolicy,
    ) -> Self {
        let initial = spec.initial_replicas.unwrap_or(dp);
        let lifecycle: Vec<ReplicaState> = (0..dp)
            .map(|idx| {
                if idx < initial {
                    ReplicaState::Active
                } else {
                    ReplicaState::Retired
                }
            })
            .collect();
        let all: Vec<usize> = (0..dp).collect();
        let points = RingPoints::new(&all);
        Self {
            policy,
            slo: spec.slo,
            min_replicas: spec.min_replicas,
            spin_up_s: spec.spin_up_s,
            decide_interval_s: spec.decide_interval_s,
            lifecycle,
            warm_at: vec![f64::INFINITY; dp],
            state_since: vec![0.0; dp],
            state_seconds: vec![[0.0; 3]; dp],
            ring: points.ring(|idx| idx < initial),
            points,
            events: Vec::new(),
            decisions: 0,
            peak_active: initial,
            next_decide: spec.decide_interval_s,
        }
    }

    pub(crate) fn lifecycle(&self) -> &[ReplicaState] {
        &self.lifecycle
    }

    pub(crate) fn ring(&self) -> &HashRing {
        &self.ring
    }

    pub(crate) fn next_decide(&self) -> f64 {
        self.next_decide
    }

    fn active_count(&self) -> usize {
        self.lifecycle.iter().filter(|s| s.serves_traffic()).count()
    }

    /// Transitions `idx` to `to` at time `at`, accruing the seconds
    /// spent in the outgoing state and logging the event.
    fn set_state(&mut self, idx: usize, to: ReplicaState, at: f64) {
        let from = self.lifecycle[idx];
        if from == to {
            return;
        }
        if let Some(bucket) = seconds_bucket(from) {
            self.state_seconds[idx][bucket] += (at - self.state_since[idx]).max(0.0);
        }
        self.events.push(ScaleEvent {
            at_s: at,
            replica: idx,
            from,
            to,
        });
        self.lifecycle[idx] = to;
        self.state_since[idx] = at;
        if to != ReplicaState::Warming {
            self.warm_at[idx] = f64::INFINITY;
        }
    }

    fn rebuild_ring(&mut self) {
        let lifecycle = &self.lifecycle;
        self.ring = self.points.ring(|idx| lifecycle[idx].serves_traffic());
        self.peak_active = self.peak_active.max(self.active_count());
    }

    /// Promotes every `Warming` replica whose spin-up has elapsed by
    /// `now` (each transition stamped at its own `warm_at`). Returns
    /// whether the active membership changed — the caller invalidates
    /// snapshot caches on `true`.
    pub(crate) fn promote_due(&mut self, now: f64) -> bool {
        let mut changed = false;
        for idx in 0..self.lifecycle.len() {
            if self.lifecycle[idx] == ReplicaState::Warming && self.warm_at[idx] <= now {
                let at = self.warm_at[idx];
                self.set_state(idx, ReplicaState::Active, at);
                changed = true;
            }
        }
        if changed {
            self.rebuild_ring();
        }
        changed
    }

    /// The decision barrier, reached when every pending session has
    /// stepped to the decide tick: promote due warm-ups, retire idle
    /// drainers, evaluate the policy over a fresh lifecycle-stamped
    /// view, apply its actions, and latch the next tick past the
    /// slowest pending session.
    pub(crate) fn barrier(&mut self, sessions: &mut [ServingSession<'_>], roles: &[ReplicaRole]) {
        let now = self.next_decide;
        self.decisions += 1;
        self.promote_due(now);
        let mut membership_changed = false;
        let retired: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(idx, session)| {
                self.lifecycle[*idx] == ReplicaState::Draining && !session.has_pending_work()
            })
            .map(|(idx, _)| idx)
            .collect();
        for idx in retired {
            self.set_state(idx, ReplicaState::Retired, now);
        }
        let snapshots: Vec<ReplicaSnapshot> = sessions
            .iter()
            .enumerate()
            .map(|(idx, s)| stamped_snapshot(s, roles[idx], self.lifecycle[idx]))
            .collect();
        let view = AutoscaleView {
            replicas: &snapshots,
            min_replicas: self.min_replicas,
        };
        let actions = self.policy.decide(&view);
        for action in actions {
            match action {
                ScaleAction::Activate(idx) => {
                    assert!(
                        idx < sessions.len(),
                        "autoscale policy {} activated replica {idx} in a {}-replica fleet",
                        self.policy.label(),
                        sessions.len()
                    );
                    match self.lifecycle[idx] {
                        ReplicaState::Retired => {
                            // Re-provisioned hardware comes up cold.
                            sessions[idx].flush_caches();
                            self.set_state(idx, ReplicaState::Warming, now);
                            self.warm_at[idx] = now + self.spin_up_s;
                        }
                        ReplicaState::Draining => {
                            // Cancelling a drain is free: still warm.
                            self.set_state(idx, ReplicaState::Active, now);
                            membership_changed = true;
                        }
                        ReplicaState::Warming | ReplicaState::Active => {}
                    }
                }
                ScaleAction::Drain(idx) => {
                    assert!(
                        idx < sessions.len(),
                        "autoscale policy {} drained replica {idx} in a {}-replica fleet",
                        self.policy.label(),
                        sessions.len()
                    );
                    if self.lifecycle[idx] == ReplicaState::Active
                        && self.active_count() > self.min_replicas
                    {
                        self.set_state(idx, ReplicaState::Draining, now);
                        membership_changed = true;
                    }
                }
            }
        }
        if membership_changed {
            self.rebuild_ring();
        }
        let min_clock = min_pending_clock(sessions);
        self.next_decide = if min_clock.is_finite() {
            next_sync_tick(min_clock.max(now), self.decide_interval_s)
        } else {
            f64::INFINITY
        };
    }

    /// Closes out the episode at `end_s` (the latest session clock) and
    /// builds the cost report from the finished fleet `report`:
    /// remaining state-seconds accrue to every still-provisioned
    /// replica, and fleet energy is divided over the SLO-good tokens.
    pub(crate) fn into_report(mut self, report: &ClusterReport, end_s: f64) -> FleetCostReport {
        for idx in 0..self.lifecycle.len() {
            if let Some(bucket) = seconds_bucket(self.lifecycle[idx]) {
                self.state_seconds[idx][bucket] += (end_s - self.state_since[idx]).max(0.0);
            }
        }
        let sum_bucket = |bucket: usize| -> f64 {
            self.state_seconds.iter().map(|s| s[bucket]).sum::<f64>() / 3600.0
        };
        let warming_hours = sum_bucket(0);
        let active_hours = sum_bucket(1);
        let draining_hours = sum_bucket(2);
        let (slo_good_requests, slo_good_tokens) = report.slo_good(&self.slo);
        let energy_per_good_token_j = if slo_good_tokens > 0 {
            report.energy().value() / slo_good_tokens as f64
        } else {
            0.0
        };
        FleetCostReport {
            policy: self.policy.label(),
            decide_interval_s: self.decide_interval_s,
            spin_up_s: self.spin_up_s,
            decisions: self.decisions,
            peak_active: self.peak_active,
            warming_hours,
            active_hours,
            draining_hours,
            provisioned_hours: warming_hours + active_hours + draining_hours,
            fixed_fleet_hours: self.lifecycle.len() as f64 * end_s / 3600.0,
            scale_events: self.events,
            slo_good_requests,
            slo_good_tokens,
            energy_per_good_token_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(lifecycle: ReplicaState, queued: usize, kv_used: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            role: ReplicaRole::Colocated,
            lifecycle,
            queued,
            live: 0,
            kv_blocks_in_use: kv_used,
            kv_evictable_blocks: 0,
            kv_budget_blocks: 1_000,
            kv_block_size: 16,
            kv_tier_blocks_in_use: 0,
            kv_tier_budget_blocks: 0,
        }
    }

    fn view(replicas: &[ReplicaSnapshot]) -> AutoscaleView<'_> {
        AutoscaleView {
            replicas,
            min_replicas: 1,
        }
    }

    #[test]
    fn queue_depth_scales_up_on_pressure_and_down_when_idle() {
        let mut policy = AutoscalePolicySpec::queue_depth();
        // Pressured: two active replicas averaging 6 queued, one
        // retired spare → activate the spare.
        let fleet = vec![
            snap(ReplicaState::Active, 6, 0),
            snap(ReplicaState::Active, 6, 0),
            snap(ReplicaState::Retired, 0, 0),
        ];
        assert_eq!(policy.decide(&view(&fleet)), vec![ScaleAction::Activate(2)]);
        // A draining replica is preferred over a retired one (warm).
        let fleet = vec![
            snap(ReplicaState::Active, 6, 0),
            snap(ReplicaState::Retired, 0, 0),
            snap(ReplicaState::Draining, 0, 0),
        ];
        assert_eq!(policy.decide(&view(&fleet)), vec![ScaleAction::Activate(2)]);
        // Capacity already warming → hold.
        let fleet = vec![
            snap(ReplicaState::Active, 6, 0),
            snap(ReplicaState::Warming, 0, 0),
            snap(ReplicaState::Retired, 0, 0),
        ];
        assert_eq!(policy.decide(&view(&fleet)), vec![]);
        // Idle: drain the emptiest active replica (ties to highest
        // index).
        let fleet = vec![
            snap(ReplicaState::Active, 0, 0),
            snap(ReplicaState::Active, 0, 0),
        ];
        assert_eq!(policy.decide(&view(&fleet)), vec![ScaleAction::Drain(1)]);
        // At the floor: hold.
        let fleet = vec![snap(ReplicaState::Active, 0, 0)];
        assert_eq!(policy.decide(&view(&fleet)), vec![]);
    }

    /// The example's band, beside the default.
    const EXAMPLE_QUEUE_DEPTH: AutoscalePolicySpec = AutoscalePolicySpec::QueueDepthTarget {
        scale_up_depth: 0.3,
        scale_down_depth: 0.02,
    };

    #[test]
    fn policy_specs_build_and_round_trip() {
        let slo = SloSpec::interactive(1_000.0, 50.0);
        // Labels are serialized into every autoscaled report, so they
        // are pinned byte for byte.
        for (spec, label) in [
            (
                AutoscalePolicySpec::queue_depth(),
                "queue-depth[up>4,down<1]",
            ),
            (EXAMPLE_QUEUE_DEPTH, "queue-depth[up>0.3,down<0.02]"),
        ] {
            assert_eq!(spec.label(), label);
            assert_eq!(spec.build().label(), label);
            let json = serde_json::to_string(&spec).unwrap();
            let back: AutoscalePolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        let spec = AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo)
            .with_min_replicas(2)
            .with_initial_replicas(3)
            .with_spin_up(15.0)
            .with_decide_interval(5.0);
        let json = serde_json::to_string(&spec).unwrap();
        let back: AutoscaleSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validate_rejects_malformed_bands() {
        let queue = |up, down| AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: up,
            scale_down_depth: down,
        };
        for (spec, message) in [
            (
                queue(f64::NAN, 1.0),
                "scale-up threshold must be finite and non-negative, got NaN",
            ),
            (
                queue(f64::INFINITY, 1.0),
                "scale-up threshold must be finite and non-negative, got inf",
            ),
            (
                queue(4.0, -1.0),
                "scale-down threshold must be finite and non-negative, got -1",
            ),
            (
                queue(1.0, 4.0),
                "inverted band: scale-up threshold 1 is below scale-down threshold 4",
            ),
        ] {
            assert_eq!(spec.validate(), Err(message.to_owned()), "{spec:?}");
        }
        // The default, the example's band, the benchmark's, and the
        // edges: an empty band and a zero one.
        for spec in [
            AutoscalePolicySpec::queue_depth(),
            EXAMPLE_QUEUE_DEPTH,
            queue(0.25, 0.05),
            queue(2.0, 2.0),
            queue(0.0, 0.0),
        ] {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn cost_report_provisioned_fraction() {
        let report = FleetCostReport {
            policy: "queue-depth".into(),
            decide_interval_s: 10.0,
            spin_up_s: 30.0,
            decisions: 100,
            peak_active: 4,
            warming_hours: 0.1,
            active_hours: 2.0,
            draining_hours: 0.4,
            provisioned_hours: 2.5,
            fixed_fleet_hours: 8.0,
            scale_events: vec![],
            slo_good_requests: 10,
            slo_good_tokens: 500,
            energy_per_good_token_j: 1.5,
        };
        assert!((report.provisioned_fraction() - 0.3125).abs() < 1e-12);
    }
}
