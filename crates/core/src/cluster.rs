//! Cluster-scale serving: tensor-parallel groups of PAPI nodes,
//! replicated data-parallel behind a request router.
//!
//! The paper evaluates one node. The ROADMAP's production fleet needs
//! *many*: a [`ClusterEngine`] owns `dp_replicas` serving engines —
//! each a TP group of `tp_degree` nodes built by
//! `SystemConfig::with_tensor_parallel` — and co-simulates them on a
//! shared clock. Requests arrive once, globally; at each arrival the
//! router (a [`RoutePolicy`] from `papi-workload`) inspects every
//! replica's [`ReplicaSnapshot`] *as of
//! that simulated instant* and picks the admission target. Per-replica
//! [`ServingReport`]s aggregate into a [`ClusterReport`] with
//! fleet-wide TTFT/TPOT percentiles and SLO goodput.
//!
//! The TP/DP trade this layer exposes (and
//! `examples/cluster_serving.rs` demonstrates): TP multiplies every
//! device pool behind one batch, so each iteration is faster — lower
//! TPOT — but the fleet still runs *one* queue per group and pays
//! per-layer all-reduces; DP multiplies queues and batch slots, so at
//! high offered load it sustains more goodput.
//!
//! Beyond identical replicas, the fleet can be **disaggregated**: each
//! replica carries a [`ReplicaRole`] (`Colocated` / `Prefill` /
//! `Decode`), and the prefill role may run a different hardware
//! design — a GPU-heavy pool for compute-bound prefill beside the
//! fleet's (typically PIM-heavy) design for memory-bound decode, the
//! cluster-scale mirror of PAPI's intra-node phase-affinity argument.
//! New arrivals route only to prefill-capable replicas; when a
//! prefill-role replica finishes a prompt, the sequence's KV blocks
//! are exported and *migrated* over the inter-node fabric (priced as
//! one [`TransferCost`]) to a decode-capable replica picked by a
//! pluggable [`MigrationPolicy`] — JSQ over the decode pool by
//! default. In-flight sequences occupy *neither* pool.
//! An all-`Colocated` fleet never migrates and reproduces the
//! pre-disaggregation engine bit for bit
//! (`tests/routing_equality.rs`).

use crate::autoscale::{AutoscaleControl, AutoscalePolicy, AutoscaleSpec, FleetCostReport};
use crate::config::{DesignKind, SystemConfig};
use crate::metrics::{LatencySummary, RequestRecord, ServingReport};
use crate::serving::{PrefillHandoff, ServingEngine, ServingSession, SessionTuning};
use crate::slo::SloSpec;
use papi_interconnect::{LinkSpec, TopologyError, TransferCost};
use papi_kv::GlobalKvTier;
use papi_llm::ModelConfig;
use papi_types::{Energy, Time};
use papi_workload::{
    HashRing, MigrationContext, MigrationPolicy, MigrationSpec, PolicySpec, Reads, ReplicaRole,
    ReplicaSnapshot, ReplicaState, RouteContext, RoutePolicy, Router, ServingRequest,
    ServingWorkload,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// How [`ClusterEngine::run_with_policies`] advances replicas between
/// control-plane events.
///
/// Both modes drive the same event loop and produce **bit-for-bit
/// identical** [`ClusterReport`]s. They differ only in how the replicas
/// that cannot move a window's bound (every replica but the
/// prefill-role exporters) reach it, and in which of them an arrival
/// advances. `tests/parallel_equality.rs` pins the modes against each
/// other and against goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StepMode {
    /// Like the exporters: one [`ServingSession::step`] round at a
    /// time, always the minimum-clock replica in the fleet, and every
    /// replica up to every event. This is the discrete-event reference
    /// schedule, with no threads, no decode leaps, no lagging replicas
    /// and no windowing argument to trust.
    Sequential,
    /// Each replica runs to the bound with
    /// `ServingSession::run_until`, which leaps a steady batch through
    /// many decode iterations per call. The replicas run inline, in
    /// replica order: no window on the benchmarked fleets carries
    /// enough work to repay spawning threads. An arrival in a
    /// private-tier fleet runs only the replicas its router
    /// [reads](RoutePolicy::reads); the rest lag until an event reads
    /// them.
    #[default]
    Parallel,
}

/// The shape of a PAPI fleet: one design sharded `tp_degree`-way per
/// group, `dp_replicas` groups behind the router.
///
/// Replica knobs live in one shared [`SessionTuning`] — the same struct
/// [`ServingEngine`] consumes — so the fleet and single-node layers can
/// never drift apart on what is tunable. Routing is declarative: a
/// [`PolicySpec`] names a built-in [`RoutePolicy`]; custom policies
/// drive the fleet through [`ClusterEngine::run_with_policies`].
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The per-node design replicated across the fleet.
    pub design: DesignKind,
    /// The model served (sharded across each TP group).
    pub model: ModelConfig,
    /// Nodes per tensor-parallel group.
    pub tp_degree: usize,
    /// Data-parallel replicas (TP groups).
    pub dp_replicas: usize,
    /// The inter-node fabric TP collectives, KV migrations and
    /// shared-tier fetches cross.
    pub inter_node: LinkSpec,
    /// How the router picks a replica per arriving request.
    pub routing: PolicySpec,
    /// The session knobs of every replica engine.
    pub tuning: SessionTuning,
    /// Per-replica lifecycle roles, parallel to the replica indices.
    /// Empty (the default) means every replica is [`ReplicaRole::Colocated`]
    /// — the classic, non-disaggregated fleet.
    pub roles: Vec<ReplicaRole>,
    /// Design override for [`ReplicaRole::Prefill`] replicas (`None`
    /// replicates `design`) — typically a GPU-heavy system, since
    /// prefill is compute-bound.
    pub prefill_design: Option<DesignKind>,
    /// How migrated prefill→decode handoffs pick their decode replica.
    pub migration: MigrationSpec,
    /// How replicas advance between control-plane events. Both modes
    /// produce identical reports; `Parallel` is the default.
    pub step_mode: StepMode,
    /// The fleet-shared prefix tier: one directory registering every
    /// replica's spilled records, so a conversation that re-lands on
    /// the *wrong* replica re-materializes its context from the owning
    /// replica over the fabric instead of re-prefilling from scratch.
    /// `None` (the default) keeps each replica's capacity tier
    /// private. Requires `tuning.kv_tier` — the directory registers
    /// *spilled* records.
    pub shared_tier: Option<SharedTierSpec>,
    /// Elastic autoscaling: replica lifecycle
    /// (`Warming → Active → Draining → Retired`) driven by an
    /// [`AutoscalePolicy`] evaluated at control-plane barriers every
    /// `decide_interval_s`, with consistent-hash affinity routing over
    /// the active membership and replica-hour cost accounting in the
    /// report's [`FleetCostReport`]. `None` (the default) keeps every
    /// replica `Active` forever — the fleet behaves bit-for-bit as
    /// before elasticity existed.
    pub autoscale: Option<AutoscaleSpec>,
}

impl ClusterSpec {
    /// A fleet of `design` nodes: `tp_degree`-way sharding, `dp_replicas`
    /// replicas, InfiniBand NDR between nodes, join-shortest-queue
    /// routing, and default session tuning.
    pub fn new(
        design: DesignKind,
        model: ModelConfig,
        tp_degree: usize,
        dp_replicas: usize,
    ) -> Self {
        Self {
            design,
            model,
            tp_degree,
            dp_replicas,
            inter_node: LinkSpec::infiniband_ndr(),
            routing: PolicySpec::JoinShortestQueue,
            tuning: SessionTuning::default(),
            roles: Vec::new(),
            prefill_design: None,
            migration: MigrationSpec::default(),
            step_mode: StepMode::default(),
            shared_tier: None,
            autoscale: None,
        }
    }

    /// Enables the fleet-shared prefix tier.
    pub fn with_shared_tier(mut self, shared_tier: SharedTierSpec) -> Self {
        self.shared_tier = Some(shared_tier);
        self
    }

    /// Enables elastic autoscaling ([`ClusterEngine::new`] validates
    /// the spec's bounds against the fleet shape).
    pub fn with_autoscale(mut self, autoscale: AutoscaleSpec) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Assigns per-replica roles (the disaggregation axis). The vector
    /// must be one role per replica; [`ClusterEngine::new`] validates
    /// the shape.
    pub fn with_roles(mut self, roles: Vec<ReplicaRole>) -> Self {
        self.roles = roles;
        self
    }

    /// Overrides the hardware design of `Prefill`-role replicas.
    pub fn with_prefill_design(mut self, design: DesignKind) -> Self {
        self.prefill_design = Some(design);
        self
    }

    /// Selects how replicas advance between control-plane events
    /// ([`StepMode::Parallel`] by default).
    pub fn with_step_mode(mut self, step_mode: StepMode) -> Self {
        self.step_mode = step_mode;
        self
    }

    /// The role of replica `idx` (`Colocated` when no roles were set).
    pub(crate) fn role_of(&self, idx: usize) -> ReplicaRole {
        self.roles.get(idx).copied().unwrap_or_default()
    }

    /// The hardware design serving `role` in this fleet.
    pub(crate) fn design_for(&self, role: ReplicaRole) -> DesignKind {
        match role {
            ReplicaRole::Prefill => self.prefill_design.unwrap_or(self.design),
            ReplicaRole::Colocated | ReplicaRole::Decode => self.design,
        }
    }

    /// Overrides the routing policy.
    pub fn with_routing(mut self, routing: PolicySpec) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces every replica's session tuning.
    pub fn with_tuning(mut self, tuning: SessionTuning) -> Self {
        self.tuning = tuning;
        self
    }
}

/// Declarative configuration of the fleet-shared prefix tier: one
/// directory over the inter-node fabric registering every replica's
/// spilled records ([`GlobalKvTier`]), consulted on fork-misses that
/// also miss the local capacity tier.
///
/// Coherence is free because records are immutable logical token
/// counts (first-writer-wins, extend-only, never invalidated); what
/// the fleet pays is the *fabric*: each cross-replica
/// re-materialization is priced as a fabric transfer — transfer
/// time lands in the fetching request's TTFT, wire energy in the
/// replica's energy, and both are attributed fleet-wide in the
/// report's [`GlobalTierReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedTierSpec {
    /// Control-plane gossip period (seconds of simulated time): the
    /// fleet merges spill registrations and refreshes every replica's
    /// directory view at each tick, in addition to every arrival and
    /// migration-delivery barrier. The one fleet event loop latches
    /// ticks the same way in both [`StepMode`]s, so they stay
    /// bit-identical.
    pub sync_s: f64,
}

impl SharedTierSpec {
    /// Default control-plane gossip period: 50 ms of simulated time —
    /// far below the eviction→reuse gaps that make sharing pay, far
    /// above per-iteration granularity.
    pub(crate) const DEFAULT_SYNC_S: f64 = 0.05;

    /// The default shared tier: priced over the cluster's inter-node
    /// fabric, gossiping every `DEFAULT_SYNC_S`
    /// simulated seconds.
    pub fn new() -> Self {
        Self {
            sync_s: Self::DEFAULT_SYNC_S,
        }
    }

    /// Overrides the control-plane gossip period (seconds).
    pub fn with_sync_interval(mut self, sync_s: f64) -> Self {
        self.sync_s = sync_s;
        self
    }
}

impl Default for SharedTierSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared tier's control-plane state during one episode: the
/// authoritative fleet directory — one [`Arc`] that sessions read,
/// frozen, between barriers — and the fleet-level fetch accounting.
#[derive(Debug)]
struct SharedTierControl {
    directory: Arc<GlobalKvTier>,
    pricing: String,
    sync_s: f64,
    /// The next gossip tick.
    next_sync: f64,
    fetches: u64,
    fetched_tokens: u64,
    bytes: f64,
    energy: Energy,
    latencies: Vec<Time>,
}

impl SharedTierControl {
    /// The control-plane barrier: drains every session's publish and
    /// fetch egress in replica-index order (the same deterministic
    /// discipline as handoff harvesting — each barrier sees identical
    /// per-session egress in either step mode, so merging in a fixed
    /// order keeps them bit-for-bit equal), and merges
    /// registrations into the fleet directory — in place: sessions drop
    /// their views first and get the same `Arc` re-installed. A barrier
    /// with nothing to register leaves the directory and the views
    /// alone.
    fn harvest(&mut self, sessions: &mut [ServingSession<'_>]) {
        if sessions.iter().any(ServingSession::has_global_publishes) {
            for session in sessions.iter_mut() {
                session.release_global_view();
            }
            debug_assert_eq!(Arc::strong_count(&self.directory), 1, "a view was kept");
            let directory = Arc::make_mut(&mut self.directory);
            for (idx, session) in sessions.iter_mut().enumerate() {
                for (key, tokens) in session.drain_global_publishes() {
                    directory.publish(key, idx, tokens);
                }
            }
            for session in sessions.iter_mut() {
                session.install_global_view(Arc::clone(&self.directory));
            }
        }
        for session in sessions.iter_mut() {
            for fetch in session.drain_global_fetches() {
                self.fetches += 1;
                self.fetched_tokens += fetch.tokens;
                self.bytes += fetch.cost.bytes.value();
                self.energy += fetch.cost.energy;
                self.latencies.push(fetch.cost.time);
            }
        }
    }

    fn into_report(self) -> GlobalTierReport {
        let stats = self.directory.stats();
        GlobalTierReport {
            pricing: self.pricing,
            entries: stats.entries,
            resident_tokens: stats.tokens,
            resident_blocks: stats.blocks,
            publishes: self.directory.publishes(),
            extensions: self.directory.extensions(),
            fetches: self.fetches,
            fetched_tokens: self.fetched_tokens,
            bytes: self.bytes,
            energy: self.energy,
            latency: LatencySummary::from_times(&self.latencies),
        }
    }
}

/// The cluster simulator: N replica engines (one per replica — roles
/// may give them heterogeneous hardware) plus the router and the
/// migration machinery.
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    spec: ClusterSpec,
    replicas: Vec<ServingEngine>,
}

impl ClusterEngine {
    /// Builds the fleet `spec` describes.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the fleet shape is degenerate,
    /// exceeds the inter-node fabric's fan-out, carries a role vector
    /// whose length disagrees with `dp_replicas`, disaggregates
    /// without at least one prefill-capable *and* one decode-capable
    /// replica (arrivals or migrations would have nowhere to go),
    /// enables a shared tier without a private `tuning.kv_tier` (the
    /// directory registers spilled records — nothing would ever be
    /// published), carries a tuning that fails
    /// [`SessionTuning::validate`], or configures autoscaling on a
    /// disaggregated or shared-tier fleet, with degenerate bounds
    /// (`1 <= min <= initial <= dp_replicas`, non-negative spin-up,
    /// positive decision interval), or with a policy that fails
    /// `AutoscalePolicySpec::validate`.
    pub fn new(spec: ClusterSpec) -> Result<Self, TopologyError> {
        spec.tuning.validate().map_err(TopologyError::new)?;
        if let Some(autoscale) = &spec.autoscale {
            autoscale.policy.validate().map_err(TopologyError::new)?;
        }
        if !spec.roles.is_empty() && spec.roles.len() != spec.dp_replicas {
            return Err(TopologyError::new(format!(
                "{} roles assigned to a {}-replica fleet",
                spec.roles.len(),
                spec.dp_replicas
            )));
        }
        if !spec.roles.is_empty() {
            if !spec.roles.iter().any(ReplicaRole::accepts_arrivals) {
                return Err(TopologyError::new(
                    "no prefill-capable replica: every arrival would be unroutable",
                ));
            }
            if !spec.roles.iter().any(ReplicaRole::can_decode) {
                return Err(TopologyError::new(
                    "no decode-capable replica: every migration would be unplaceable",
                ));
            }
        }
        if let Some(shared) = &spec.shared_tier {
            if spec.tuning.kv_tier.is_none() {
                return Err(TopologyError::new(
                    "a fleet-shared tier registers spilled records: configure tuning.kv_tier first",
                ));
            }
            if !shared.sync_s.is_finite() || shared.sync_s <= 0.0 {
                return Err(TopologyError::new(
                    "the shared tier's control-plane sync interval must be positive and finite",
                ));
            }
        }
        if let Some(autoscale) = &spec.autoscale {
            if !spec.roles.is_empty() {
                return Err(TopologyError::new(
                    "autoscaling requires an all-Colocated fleet: draining a prefill or \
                     decode pool can strand the other role's traffic",
                ));
            }
            if spec.shared_tier.is_some() {
                return Err(TopologyError::new(
                    "autoscaling does not yet compose with the fleet-shared tier: a retired \
                     replica's flushed records would go stale in the fleet directory",
                ));
            }
            let initial = autoscale.initial_replicas.unwrap_or(spec.dp_replicas);
            if autoscale.min_replicas == 0
                || autoscale.min_replicas > initial
                || initial > spec.dp_replicas
            {
                return Err(TopologyError::new(format!(
                    "autoscale bounds must satisfy 1 <= min ({}) <= initial ({initial}) <= \
                     dp_replicas ({})",
                    autoscale.min_replicas, spec.dp_replicas
                )));
            }
            if !autoscale.spin_up_s.is_finite() || autoscale.spin_up_s < 0.0 {
                return Err(TopologyError::new(
                    "the autoscale spin-up delay must be non-negative and finite",
                ));
            }
            if !autoscale.decide_interval_s.is_finite() || autoscale.decide_interval_s <= 0.0 {
                return Err(TopologyError::new(
                    "the autoscale decision interval must be positive and finite",
                ));
            }
        }
        if spec.tp_degree == 0 || spec.dp_replicas == 0 {
            return Err(TopologyError::new(
                "a cluster needs at least one node per group and one replica",
            ));
        }
        let nodes = spec.tp_degree * spec.dp_replicas;
        if !spec.inter_node.supports_devices(nodes) {
            return Err(TopologyError::new(format!(
                "{nodes} nodes exceed {}'s fan-out of {}",
                spec.inter_node.name, spec.inter_node.max_devices
            )));
        }
        let base = SystemConfig::build(spec.design, spec.model.clone());
        // One engine per replica; distinct designs built (and, for
        // PAPI, α-calibrated) exactly once each and cloned across the
        // fleet — the base design reuses the config built above, so a
        // homogeneous fleet pays one build, like before roles existed.
        let mut by_design: HashMap<DesignKind, ServingEngine> = HashMap::new();
        by_design.insert(
            spec.design,
            ServingEngine::new(base.with_tensor_parallel(spec.tp_degree, spec.inter_node.clone()))
                .with_tuning(spec.tuning.clone()),
        );
        let replicas = (0..spec.dp_replicas)
            .map(|idx| {
                let design = spec.design_for(spec.role_of(idx));
                by_design
                    .entry(design)
                    .or_insert_with(|| {
                        let config = SystemConfig::build(design, spec.model.clone())
                            .with_tensor_parallel(spec.tp_degree, spec.inter_node.clone());
                        ServingEngine::new(config).with_tuning(spec.tuning.clone())
                    })
                    .clone()
            })
            .collect();
        Ok(Self { spec, replicas })
    }

    /// The fleet shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Every replica's engine configuration, in replica order.
    pub fn replica_configs(&self) -> impl Iterator<Item = &SystemConfig> {
        self.replicas.iter().map(ServingEngine::config)
    }

    /// The resolved role of every replica.
    pub(crate) fn roles(&self) -> Vec<ReplicaRole> {
        (0..self.spec.dp_replicas)
            .map(|idx| self.spec.role_of(idx))
            .collect()
    }

    /// Prices one handoff's KV transfer: the source replica's block
    /// footprint × its block bytes, over the inter-node fabric.
    fn price_migration(&self, source: usize, handoff: &PrefillHandoff) -> TransferCost {
        let block_size = self.replicas[source].tuning().kv_block_size;
        let block_bytes = self.spec.model.kv_bytes_per_token() * block_size as f64;
        TransferCost::over(&self.spec.inter_node, handoff.kv.blocks, block_bytes)
    }

    /// Serves one episode across the fleet with the spec's built-in
    /// routing and migration policies (driven through the same trait
    /// seams as custom policies).
    ///
    /// Replicas advance on a shared simulated clock: before each
    /// global event — an arrival being routed, or a migrated sequence
    /// landing on its decode replica — every replica the event reads is
    /// stepped up to the event instant, so policies see the fleet as it
    /// would exist right then — not a stale or clairvoyant view.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ServingEngine::run`].
    pub fn run(&self, workload: &ServingWorkload) -> ClusterReport {
        let mut router = Router::new(self.spec.routing);
        let mut migration = self.spec.migration.build();
        self.run_with_policies(workload, &mut router, migration.as_mut())
    }

    /// Serves one episode with caller-supplied routing *and*
    /// decode-placement policies — the fully open control plane. The
    /// routing policy is consulted once per global arrival, in arrival
    /// order (and must pick a prefill-capable replica); the migration
    /// policy once per completed KV transfer, in delivery order (and
    /// must pick a decode-capable replica). Their labels become the
    /// report's `routing` and `migration.policy` fields.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`ServingEngine::run`], or if
    /// either policy returns an out-of-range or role-incompatible
    /// replica index.
    pub fn run_with_policies(
        &self,
        workload: &ServingWorkload,
        policy: &mut dyn RoutePolicy,
        migration: &mut dyn MigrationPolicy,
    ) -> ClusterReport {
        // The spec's policy, copied so the control can borrow it.
        let mut builtin = self.spec.autoscale.as_ref().map(|spec| (spec, spec.policy));
        let autoscale = builtin
            .as_mut()
            .map(|(spec, policy)| AutoscaleControl::new(spec, self.spec.dp_replicas, policy));
        self.run_fleet(workload, policy, migration, autoscale)
    }

    /// Serves one episode with a caller-supplied [`AutoscalePolicy`]
    /// deciding the fleet's scale — the open seam for scaling
    /// strategies the built-in [`AutoscalePolicySpec`] names don't
    /// cover (routing and migration use the spec's built-ins). The
    /// spec must carry an [`AutoscaleSpec`] — its bounds, spin-up
    /// delay, and decision interval still govern; only the decision
    /// logic is replaced.
    ///
    /// [`AutoscalePolicySpec`]: crate::autoscale::AutoscalePolicySpec
    ///
    /// # Panics
    ///
    /// Panics if the spec has no autoscale configuration, or on the
    /// same conditions as [`run_with_policies`](Self::run_with_policies)
    /// (including the autoscaler returning an out-of-range replica
    /// index).
    pub fn run_elastic(
        &self,
        workload: &ServingWorkload,
        autoscaler: &mut dyn AutoscalePolicy,
    ) -> ClusterReport {
        let spec = self
            .spec
            .autoscale
            .as_ref()
            .expect("run_elastic requires ClusterSpec::with_autoscale");
        let control = AutoscaleControl::new(spec, self.spec.dp_replicas, autoscaler);
        let mut router = Router::new(self.spec.routing);
        let mut migration = self.spec.migration.build();
        self.run_fleet(workload, &mut router, migration.as_mut(), Some(control))
    }

    /// Opens one session per replica: replica 0 keeps the workload's
    /// acceptance stream (a 1-replica cluster is bit-identical to the
    /// single engine), later replicas decorrelate by index, and
    /// prefill-role replicas export their completed prompts.
    fn open_sessions(
        &self,
        workload: &ServingWorkload,
        roles: &[ReplicaRole],
    ) -> Vec<ServingSession<'_>> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(idx, engine)| {
                let mut session = engine.open_session(workload);
                if idx > 0 {
                    session
                        .reseed(workload.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                if roles[idx] == ReplicaRole::Prefill {
                    session.enable_prefill_export();
                }
                session
            })
            .collect()
    }

    /// Enables the fleet-shared tier on every session (when the spec
    /// asks for one) and returns its control-plane state. Remote
    /// fetches are priced over the cluster's inter-node fabric.
    fn open_shared_tier(&self, sessions: &mut [ServingSession<'_>]) -> Option<SharedTierControl> {
        let spec = self.spec.shared_tier.as_ref()?;
        let fabric = &self.spec.inter_node;
        let directory = Arc::new(GlobalKvTier::new(self.spec.tuning.kv_block_size));
        for (idx, session) in sessions.iter_mut().enumerate() {
            session.enable_global_tier(idx, fabric.clone(), Arc::clone(&directory));
        }
        Some(SharedTierControl {
            directory,
            pricing: fabric.name.clone(),
            sync_s: spec.sync_s,
            next_sync: spec.sync_s,
            fetches: 0,
            fetched_tokens: 0,
            bytes: 0.0,
            energy: Energy::ZERO,
            latencies: Vec::new(),
        })
    }

    /// The fleet event loop, shared by both [`StepMode`]s.
    ///
    /// Replicas interact only *at* control-plane events (a routed
    /// arrival, a delivered migration, a gossip or decide tick); between
    /// events each session's trajectory is a function of its own state
    /// alone. Each window advances replicas with pending work to the
    /// next event, then handles the event. A global minimum-clock scan
    /// would run a round with pre-round clock `c` exactly when `c` is
    /// below both the event and every delivery exported by an earlier
    /// round. Only prefill-role replicas export, and a delivery lands
    /// strictly after the round that exported it, so exporters advance
    /// first, one round at a time, minimum clock first, under a bound
    /// that tightens with every export. The bound is then final, and
    /// every other replica runs freely up to it: any interleaving gives
    /// the same per-replica result, which is why the step modes may
    /// differ in that phase alone. `Sequential` folds it into the
    /// exporters' scan, which then covers the whole fleet. Exports queue
    /// in export order, which breaks delivery ties.
    ///
    /// Under `Parallel`, an arrival in a private-tier fleet goes
    /// further: it advances only the replicas the router
    /// [reads](RoutePolicy::reads), and the rest lag behind. This stays
    /// exact because [`ServingSession::run_until`] is a step loop, so
    /// skipping a replica's runs to some arrivals and running it to a
    /// later instant takes the same rounds. A push onto a lagging
    /// replica leaves those rounds alone too: below its arrival the
    /// request is invisible, and a replica that would have drained
    /// first jumps to the arrival instead, as the eager loop does on its
    /// next run. The rules:
    /// - a lagging replica never passes the current event, and a
    ///   snapshot shows only its stamps until something reads it;
    /// - a route's target takes its push wherever its clock stands;
    /// - every other event reads the whole fleet, and its window runs
    ///   the laggards to it with everyone else.
    ///
    /// A laggard can show pending work the eager loop would already have
    /// finished, so a tick may bound a window the eager loop would skip.
    /// That tick is never below the last event handled: a tick below it
    /// means that event found no pending work, and then nothing lags.
    /// So the window runs the laggard past its last round, nothing else
    /// moves, and the loop re-derives the event as the eager loop would.
    fn run_fleet(
        &self,
        workload: &ServingWorkload,
        policy: &mut dyn RoutePolicy,
        migration: &mut dyn MigrationPolicy,
        mut autoscale: Option<AutoscaleControl<'_>>,
    ) -> ClusterReport {
        let roles = self.roles();
        let mut sessions = self.open_sessions(workload, &roles);
        let mut shared = self.open_shared_tier(&mut sessions);
        // Replicas stepped one round at a time, minimum clock first.
        let scanned: Vec<usize> = (0..roles.len())
            .filter(|&idx| {
                self.spec.step_mode == StepMode::Sequential || roles[idx] == ReplicaRole::Prefill
            })
            .collect();
        // Whether arrivals may leave unread replicas behind. A shared
        // tier's barriers merge every replica's publishes, so its fleet
        // reads everything at every event.
        let lazy_reads = self.spec.step_mode == StepMode::Parallel && shared.is_none();
        let arrivals = workload.requests();
        let mut next_arrival = 0usize;
        let mut in_flight: Vec<InFlightMigration> = Vec::new();
        let mut decisions = 0u64;
        let mut stats = MigrationReport {
            policy: migration.label(),
            pricing: "fabric".to_owned(),
            ..MigrationReport::default()
        };
        let mut transfer_times: Vec<Time> = Vec::new();
        let mut cache =
            SnapshotCache::new(&roles, autoscale.as_ref().map(AutoscaleControl::lifecycle));

        loop {
            let delivery = first_delivery(&in_flight);
            let (event, at) = next_event(
                arrivals.get(next_arrival).map(|r| r.arrival_s),
                delivery.map(|(_, deliver_s)| deliver_s),
                shared.as_ref().map_or(f64::INFINITY, |c| c.next_sync),
                autoscale
                    .as_ref()
                    .map_or(f64::INFINITY, AutoscaleControl::next_decide),
                sessions.iter().any(ServingSession::has_pending_work),
            );
            let lazy = lazy_reads && event == FleetEvent::Arrive;
            // Scanned replicas advance one round at a time under a
            // bound that tightens with every export: an export can
            // schedule a delivery earlier than the window's event.
            let mut advanced = false;
            let mut bound = at;
            while let Some(idx) = scanned
                .iter()
                .copied()
                .filter(|&i| behind(&sessions[i], bound))
                .min_by(|&a, &b| sessions[a].clock().total_cmp(&sessions[b].clock()))
            {
                sessions[idx].step();
                cache.dirty[idx] = true;
                advanced = true;
                for handoff in sessions[idx].drain_egress() {
                    let cost = self.price_migration(idx, &handoff);
                    let deliver_s = handoff.ready_s + cost.time.value();
                    bound = bound.min(deliver_s);
                    in_flight.push(InFlightMigration {
                        deliver_s,
                        source: idx,
                        handoff,
                        cost,
                    });
                }
            }
            // The bound is now final: every replica still below it
            // (none under `Sequential`) runs to it, unless this is an
            // arrival that advances only what the router reads.
            if !lazy {
                advanced |= advance(&mut sessions, &mut cache.dirty, bound, Reads::Fleet);
            }
            if advanced {
                // Fresh exports may have scheduled an earlier event —
                // re-derive it before handling one.
                continue;
            }

            // Control-plane barrier: no session the event reads can
            // advance below it. Every barrier merges the fleet directory.
            if let Some(control) = shared.as_mut() {
                control.harvest(&mut sessions);
            }
            // A routed or placed sequence sees every warm-up due by now.
            // `Sequential` re-snapshots the whole fleet at every event,
            // so the mode pins check the cache too.
            if matches!(event, FleetEvent::Deliver | FleetEvent::Arrive)
                && (autoscale
                    .as_mut()
                    .is_some_and(|control| control.promote_due(at))
                    || self.spec.step_mode == StepMode::Sequential)
            {
                cache.invalidate(&roles, autoscale.as_ref().map(AutoscaleControl::lifecycle));
            }
            match event {
                FleetEvent::GossipTick => {
                    // Latch the next tick past the slowest running replica.
                    let control = shared.as_mut().expect("gossip tick without a shared tier");
                    let min_clock = min_pending_clock(&sessions);
                    if min_clock.is_finite() {
                        control.next_sync = next_sync_tick(min_clock, control.sync_s);
                    }
                }
                FleetEvent::DecideTick => {
                    // Lifecycles may change: every cached snapshot is stale.
                    let control = autoscale.as_mut().expect("decide tick without autoscale");
                    control.barrier(&mut sessions, &roles);
                    cache.invalidate(&roles, Some(control.lifecycle()));
                }
                FleetEvent::Deliver => {
                    let (pos, _) = delivery.expect("a delivery is in flight");
                    let migrated = in_flight.remove(pos);
                    let snapshots = cache.observe(&sessions, Some(Reads::Fleet));
                    let target = {
                        papi_perf::phase!("migrate");
                        migration.place(&MigrationContext {
                            request: &migrated.handoff.request,
                            kv_tokens: migrated.handoff.kv.tokens,
                            source: migrated.source,
                            replicas: snapshots,
                        })
                    };
                    assert!(
                        target < sessions.len(),
                        "migration policy {} picked replica {target} in a {}-replica fleet",
                        migration.label(),
                        sessions.len()
                    );
                    assert!(
                        roles[target].can_decode(),
                        "migration policy {} placed a sequence on prefill-only replica {target}",
                        migration.label()
                    );
                    stats.migrations += 1;
                    stats.bytes += migrated.cost.bytes.value();
                    stats.energy += migrated.cost.energy;
                    transfer_times.push(migrated.cost.time);
                    sessions[target].push_migrated(migrated.handoff, migrated.deliver_s);
                    cache.dirty[target] = true;
                }
                FleetEvent::Arrive => {
                    let request = arrivals[next_arrival].clone();
                    next_arrival += 1;
                    let directory = shared.as_ref().map(|control| &*control.directory);
                    let ring = autoscale.as_ref().map(AutoscaleControl::ring);
                    // A lazy arrival asks the router what it reads, brings
                    // that up to the arrival, and asks again. A second
                    // answer that names anything new widens to the whole
                    // fleet. `None` is the starting state: only the stamps
                    // are current.
                    let mut read = if lazy { None } else { Some(Reads::Fleet) };
                    while read != Some(Reads::Fleet) {
                        let snapshots = cache.observe(&sessions, read);
                        let next =
                            policy.reads(&route_context(&request, snapshots, directory, ring));
                        assert!(
                            !matches!(next, Reads::One(idx) if idx >= sessions.len()),
                            "routing policy {} read {next:?} in a {}-replica fleet",
                            policy.label(),
                            sessions.len()
                        );
                        if read == Some(next) {
                            break;
                        }
                        let widened = if read.is_none() { next } else { Reads::Fleet };
                        advance(&mut sessions, &mut cache.dirty, at, widened);
                        read = Some(widened);
                    }
                    let target = {
                        let snapshots = cache.observe(&sessions, read);
                        papi_perf::phase!("route");
                        policy.route(&route_context(&request, snapshots, directory, ring))
                    };
                    assert!(
                        target < sessions.len(),
                        "routing policy {} picked replica {target} in a {}-replica fleet",
                        policy.label(),
                        sessions.len()
                    );
                    assert!(
                        roles[target].accepts_arrivals(),
                        "routing policy {} sent an arrival to decode-only replica {target}",
                        policy.label()
                    );
                    if let Some(control) = autoscale.as_ref() {
                        let state = control.lifecycle()[target];
                        assert!(
                            state.serves_traffic(),
                            "routing policy {} sent an arrival to {} replica {target}",
                            policy.label(),
                            state.label()
                        );
                    }
                    // The target may still lag: the push waits in its
                    // queue until its clock reaches the arrival.
                    decisions += 1;
                    sessions[target].push(request);
                    cache.dirty[target] = true;
                }
                FleetEvent::Done => break,
            }
        }
        debug_assert!(in_flight.is_empty(), "a migration was never delivered");
        stats.latency = LatencySummary::from_times(&transfer_times);
        // The episode's end instant — the latest replica clock — must
        // be captured before the sessions are consumed: still-
        // provisioned replicas accrue replica-hours up to it.
        let end_s = sessions.iter().map(|s| s.clock()).fold(0.0, f64::max);
        let replicas: Vec<ServingReport> = sessions.into_iter().map(|s| s.into_report()).collect();
        let mut report = ClusterReport {
            design: self.replicas[0].config().design.label().to_owned(),
            model: self.spec.model.name.clone(),
            tp_degree: self.spec.tp_degree,
            routing: policy.label(),
            routing_decisions: decisions,
            roles,
            migration: stats,
            global_tier: shared.map(SharedTierControl::into_report),
            fleet_cost: None,
            replicas,
        };
        report.fleet_cost = autoscale.map(|control| control.into_report(&report, end_s));
        report
    }
}

/// A control-plane event: what the fleet loop handles once every
/// replica has reached its instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetEvent {
    /// The earliest in-flight migration lands on its decode replica.
    Deliver,
    /// The next request arrives and is routed.
    Arrive,
    /// A shared-tier gossip tick: the barrier merges the directory.
    GossipTick,
    /// An autoscale decision tick.
    DecideTick,
    /// No arrival or delivery is left: replicas drain, then the
    /// episode ends.
    Done,
}

/// The next event and its instant, given the next arrival, the
/// earliest delivery, the next gossip and decide ticks (`INFINITY`
/// when the fleet has no shared tier or no autoscaler) and whether
/// any replica has pending work. A delivery wins an exact tie with an
/// arrival, so the router sees the landed sequence. Ticks bound the
/// window only while some replica has work, and only when strictly
/// earlier: gossip against the event, then decide against both (a
/// preempted gossip tick comes back on the next call).
fn next_event(
    arrival: Option<f64>,
    delivery: Option<f64>,
    gossip: f64,
    decide: f64,
    pending: bool,
) -> (FleetEvent, f64) {
    let (mut event, mut at) = match (delivery, arrival) {
        (Some(d), Some(a)) if a < d => (FleetEvent::Arrive, a),
        (Some(d), _) => (FleetEvent::Deliver, d),
        (None, Some(a)) => (FleetEvent::Arrive, a),
        (None, None) => (FleetEvent::Done, f64::INFINITY),
    };
    if pending && gossip < at {
        (event, at) = (FleetEvent::GossipTick, gossip);
    }
    if pending && decide < at {
        (event, at) = (FleetEvent::DecideTick, decide);
    }
    (event, at)
}

/// The in-flight migration that lands first and its instant: the
/// earliest `deliver_s`, export order (index order, as `Vec::remove`
/// keeps it) breaking ties.
fn first_delivery(in_flight: &[InFlightMigration]) -> Option<(usize, f64)> {
    in_flight
        .iter()
        .enumerate()
        .min_by(|(ia, a), (ib, b)| a.deliver_s.total_cmp(&b.deliver_s).then(ia.cmp(ib)))
        .map(|(idx, m)| (idx, m.deliver_s))
}

/// The first control-plane tick strictly after `clock` on the
/// `sync`-second grid (with a strict-progress guard against the grid
/// point rounding down onto `clock` itself). Shared by the gossip and
/// autoscale-decision schedules, so both latch identically.
pub(crate) fn next_sync_tick(clock: f64, sync: f64) -> f64 {
    let tick = (clock / sync).floor() * sync + sync;
    if tick > clock {
        tick
    } else {
        clock + sync
    }
}

/// The slowest clock among sessions with pending work (`INFINITY` when
/// none has any): the point past which gossip and decide ticks relatch.
pub(crate) fn min_pending_clock(sessions: &[ServingSession<'_>]) -> f64 {
    sessions
        .iter()
        .filter(|s| s.has_pending_work())
        .map(ServingSession::clock)
        .fold(f64::INFINITY, f64::min)
}

/// `session`'s snapshot stamped with its replica's configured role and
/// lifecycle, so policies can honor the disaggregation and lifecycle
/// contracts.
pub(crate) fn stamped_snapshot(
    session: &ServingSession<'_>,
    role: ReplicaRole,
    lifecycle: ReplicaState,
) -> ReplicaSnapshot {
    ReplicaSnapshot {
        role,
        lifecycle,
        ..session.snapshot()
    }
}

/// What the router sees of an arrival: the request, the snapshots, and
/// the shared-tier directory and membership ring when the fleet has
/// them.
fn route_context<'a>(
    request: &'a ServingRequest,
    snapshots: &'a [ReplicaSnapshot],
    directory: Option<&'a GlobalKvTier>,
    ring: Option<&'a HashRing>,
) -> RouteContext<'a> {
    let mut ctx = RouteContext::new(request, snapshots);
    if let Some(directory) = directory {
        ctx = ctx.with_shared_prefixes(directory);
    }
    if let Some(ring) = ring {
        ctx = ctx.with_ring(ring);
    }
    ctx
}

/// Whether `session` has work left below `bound`: the replicas a
/// window running to `bound` advances.
fn behind(session: &ServingSession<'_>, bound: f64) -> bool {
    session.has_pending_work() && session.clock() < bound
}

/// The replicas `read` names, as a range of replica indices.
fn named(read: Reads, replicas: usize) -> Range<usize> {
    match read {
        Reads::Fleet => 0..replicas,
        Reads::One(idx) => idx..idx + 1,
    }
}

/// Runs every session `read` names that is [`behind`] `bound` up to
/// it, in replica order, marking each one's snapshot dirty. Returns
/// whether any ran.
fn advance(
    sessions: &mut [ServingSession<'_>],
    dirty: &mut [bool],
    bound: f64,
    read: Reads,
) -> bool {
    let range = named(read, sessions.len());
    let mut advanced = false;
    for (session, dirty) in sessions[range.clone()].iter_mut().zip(&mut dirty[range]) {
        if behind(session, bound) {
            *dirty = true;
            session.run_until(bound);
            advanced = true;
        }
    }
    advanced
}

/// The fleet's snapshot cache: an event re-snapshots only the replicas
/// that stepped or were pushed to since the last one, and a lazy
/// arrival only those its router reads. A clean entry is exact, because
/// a session that neither stepped nor received a push snapshots
/// identically. Every entry's role and lifecycle stamps are exact, dirty
/// or not: the loop re-stamps the whole cache whenever a lifecycle
/// changes.
#[derive(Debug)]
struct SnapshotCache {
    snapshots: Vec<ReplicaSnapshot>,
    dirty: Vec<bool>,
}

impl SnapshotCache {
    /// A cache with every entry dirty and stamped.
    fn new(roles: &[ReplicaRole], lifecycles: Option<&[ReplicaState]>) -> Self {
        let mut cache = Self {
            snapshots: vec![ReplicaSnapshot::default(); roles.len()],
            dirty: vec![true; roles.len()],
        };
        cache.invalidate(roles, lifecycles);
        cache
    }

    /// Marks every entry dirty and stamps it with its replica's role
    /// and lifecycle (`None` for a fixed fleet, which keeps every
    /// replica `Active`).
    fn invalidate(&mut self, roles: &[ReplicaRole], lifecycles: Option<&[ReplicaState]>) {
        self.dirty.fill(true);
        for (idx, snapshot) in self.snapshots.iter_mut().enumerate() {
            snapshot.role = roles[idx];
            snapshot.lifecycle = lifecycles.map_or(ReplicaState::Active, |l| l[idx]);
        }
    }

    /// The fleet as a policy sees it: re-snapshots every dirty replica
    /// `read` names, each of which must have reached the event (`None`
    /// names no replica: only the stamps are read).
    fn observe(
        &mut self,
        sessions: &[ServingSession<'_>],
        read: Option<Reads>,
    ) -> &[ReplicaSnapshot] {
        papi_perf::phase!("snapshot");
        for idx in read.map_or(0..0, |read| named(read, sessions.len())) {
            if std::mem::take(&mut self.dirty[idx]) {
                let ReplicaSnapshot {
                    role, lifecycle, ..
                } = self.snapshots[idx];
                self.snapshots[idx] = stamped_snapshot(&sessions[idx], role, lifecycle);
            }
        }
        &self.snapshots
    }
}

/// A KV sequence on the wire between its prefill and decode replicas.
#[derive(Debug, Clone)]
struct InFlightMigration {
    /// When the transfer completes and the sequence may be placed.
    deliver_s: f64,
    /// The prefill-role replica it departed from.
    source: usize,
    /// The sequence itself.
    handoff: PrefillHandoff,
    /// The priced transfer (recorded into the report at delivery).
    cost: TransferCost,
}

/// Fleet-wide accounting of prefill→decode KV migrations — all zeros
/// (and `latency: None`) for a fleet that never migrated.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Label of the decode-placement policy.
    pub policy: String,
    /// Label of the link migrations were priced over: `"fabric"`, the
    /// inter-node fabric (`"none"` in a one-replica wrapper report).
    pub pricing: String,
    /// Sequences migrated (each counted at delivery).
    pub migrations: u64,
    /// Total KV payload moved over the fabric, in bytes.
    pub bytes: f64,
    /// Total wire energy of the transfers.
    pub energy: Energy,
    /// Percentiles of the per-migration transfer latency; `None` when
    /// nothing migrated.
    pub latency: Option<LatencySummary>,
}

/// Fleet-wide accounting of the shared prefix tier: directory
/// occupancy at episode end plus cross-replica fetch traffic. The
/// fetch time and energy are *already inside* the fetching replicas'
/// reports (TTFT and session energy) — this report attributes the
/// fabric traffic; it is not an extra charge, and
/// [`ClusterReport::energy`] must not add `energy` again.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GlobalTierReport {
    /// Name of the inter-node fabric remote fetches crossed.
    pub pricing: String,
    /// Prefixes registered in the directory at episode end.
    pub entries: u64,
    /// Logical tokens those entries cover.
    pub resident_tokens: u64,
    /// Blocks those tokens occupy (hot-pool block size).
    pub resident_blocks: u64,
    /// First-time registrations over the episode.
    pub publishes: u64,
    /// Records grown by a longer re-spill.
    pub extensions: u64,
    /// Cross-replica re-materializations.
    pub fetches: u64,
    /// Logical tokens restored across the fabric.
    pub fetched_tokens: u64,
    /// Total fetched payload in bytes.
    pub bytes: f64,
    /// Total wire energy of the fetches (already counted in replica
    /// energy — attribution only).
    pub energy: Energy,
    /// Per-fetch transfer-latency percentiles; `None` when nothing
    /// was fetched.
    pub latency: Option<LatencySummary>,
}

/// The outcome of one episode across the fleet: per-replica
/// [`ServingReport`]s plus fleet-wide aggregation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Design label of the replicated node.
    pub design: String,
    /// Model name.
    pub model: String,
    /// Nodes per TP group.
    pub tp_degree: usize,
    /// Label of the routing policy that assigned requests.
    pub routing: String,
    /// Requests the router placed.
    pub routing_decisions: u64,
    /// The lifecycle role of each replica, parallel to `replicas`
    /// (all `Colocated` for a non-disaggregated fleet).
    pub roles: Vec<ReplicaRole>,
    /// KV-migration accounting (zeros for a fleet that never
    /// migrated).
    pub migration: MigrationReport,
    /// Shared-tier accounting; `None` for a private-tier fleet.
    pub global_tier: Option<GlobalTierReport>,
    /// Autoscale cost accounting (replica-hours by lifecycle state,
    /// energy per SLO-good token, the scale-event log); `None` for a
    /// fixed-size fleet.
    #[serde(default)]
    pub fleet_cost: Option<FleetCostReport>,
    /// One report per data-parallel replica (some may be empty if the
    /// router starved them, and prefill-role replicas record nothing —
    /// their requests complete on the decode side).
    pub replicas: Vec<ServingReport>,
}

impl ClusterReport {
    /// Total requests completed across the fleet.
    pub fn requests(&self) -> u64 {
        self.replicas.iter().map(|r| r.records.len() as u64).sum()
    }

    /// Total output tokens across the fleet.
    pub fn tokens(&self) -> u64 {
        self.replicas.iter().map(|r| r.tokens).sum()
    }

    /// Total energy across the fleet, migration wire energy included.
    /// Shared-tier fetch energy is *not* added here: each fetch
    /// already charged its fetching replica's session energy —
    /// [`GlobalTierReport::energy`] is attribution, not a separate
    /// pool.
    pub fn energy(&self) -> Energy {
        self.replicas
            .iter()
            .fold(self.migration.energy, |acc, r| acc + r.energy)
    }

    /// Every request record in the fleet, in replica order.
    pub fn records(&self) -> impl Iterator<Item = &RequestRecord> {
        self.replicas.iter().flat_map(|r| r.records.iter())
    }

    /// Fleet makespan: first arrival anywhere to last completion
    /// anywhere. Zero when nothing completed.
    pub fn makespan(&self) -> Time {
        let first = self
            .records()
            .map(|r| r.arrival.value())
            .fold(f64::INFINITY, f64::min);
        let last = self
            .records()
            .map(|r| r.finished.value())
            .fold(0.0, f64::max);
        if first.is_finite() && last > first {
            Time::new(last - first)
        } else {
            Time::ZERO
        }
    }

    /// Fleet-wide TTFT percentile summary; `None` if nothing completed.
    pub fn ttft_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records().map(RequestRecord::ttft).collect();
        LatencySummary::from_times(&times)
    }

    /// Fleet-wide TPOT percentile summary; `None` if nothing completed.
    pub fn tpot_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records().map(RequestRecord::tpot).collect();
        LatencySummary::from_times(&times)
    }

    /// Fleet-wide queueing-delay summary; `None` if nothing completed.
    pub fn queueing_summary(&self) -> Option<LatencySummary> {
        let times: Vec<Time> = self.records().map(RequestRecord::queueing_delay).collect();
        LatencySummary::from_times(&times)
    }

    /// Requests completed within `slo` fleet-wide, and their output
    /// tokens.
    pub(crate) fn slo_good(&self, slo: &SloSpec) -> (u64, u64) {
        self.records()
            .filter(|r| r.meets(slo))
            .fold((0, 0), |(requests, tokens), r| {
                (requests + 1, tokens + r.output_tokens)
            })
    }

    /// Fraction of completed requests meeting `slo`.
    pub fn slo_attainment(&self, slo: &SloSpec) -> f64 {
        let total = self.requests();
        if total == 0 {
            return 0.0;
        }
        self.slo_good(slo).0 as f64 / total as f64
    }

    /// Fleet SLO goodput: requests completed within `slo` per second of
    /// fleet makespan.
    pub fn goodput(&self, slo: &SloSpec) -> f64 {
        let secs = self.makespan().as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.slo_good(slo).0 as f64 / secs
    }

    /// Fleet output-token throughput over the makespan.
    pub(crate) fn tokens_per_second(&self) -> f64 {
        let secs = self.makespan().as_secs();
        if secs == 0.0 {
            return 0.0;
        }
        self.tokens() as f64 / secs
    }

    /// Fleet-wide prefix-cache hit rate: the fraction of prefill demand
    /// (cached + prefilled tokens, summed over every replica) served
    /// from the replicas' prefix caches. This is the number
    /// prefix-oblivious routing destroys — conversations scattered
    /// across replicas re-prefill contexts some other replica cached.
    pub fn cache_hit_rate(&self) -> f64 {
        let cached: u64 = self
            .replicas
            .iter()
            .map(|r| r.kv.cached_prompt_tokens)
            .sum();
        let prefilled: u64 = self.replicas.iter().map(|r| r.kv.prefilled_tokens).sum();
        if cached + prefilled == 0 {
            return 0.0;
        }
        cached as f64 / (cached + prefilled) as f64
    }

    /// Total KV-pressure preemptions across the fleet.
    pub fn preemptions(&self) -> u64 {
        self.replicas.iter().map(|r| r.preemptions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::{AutoscaleView, ScaleAction};
    use crate::serving::KvTierSpec;
    use papi_llm::ModelPreset;
    use papi_workload::{ConversationDataset, DatasetKind};

    fn workload(rate: f64, n: usize) -> ServingWorkload {
        ServingWorkload::poisson(DatasetKind::GeneralQa, rate, n).with_seed(17)
    }

    fn batch(max_batch: u64) -> SessionTuning {
        SessionTuning::default().with_max_batch(max_batch)
    }

    /// Conservation: every workload request completes somewhere, and
    /// the fleet total is exactly the sum over replicas.
    #[test]
    fn request_count_equals_sum_of_replica_counts() {
        let w = workload(16.0, 60);
        for routing in [
            PolicySpec::JoinShortestQueue,
            PolicySpec::prefix_affinity(),
            PolicySpec::shared_tier_affinity(),
        ] {
            let report = ClusterEngine::new(
                ClusterSpec::new(
                    DesignKind::PimOnlyPapi,
                    ModelPreset::Llama65B.config(),
                    1,
                    3,
                )
                .with_routing(routing)
                .with_tuning(batch(8)),
            )
            .unwrap()
            .run(&w);
            let per_replica: u64 = report.replicas.iter().map(|r| r.records.len() as u64).sum();
            assert_eq!(report.requests(), per_replica, "{routing}");
            assert_eq!(report.requests(), 60, "{routing}: requests lost");
            assert_eq!(report.routing_decisions, 60, "{routing}");
            let tokens: u64 = report.replicas.iter().map(|r| r.tokens).sum();
            assert_eq!(report.tokens(), tokens);
        }
    }

    /// Under sustained load, state-aware routing uses every replica.
    #[test]
    fn jsq_spreads_sustained_load_across_replicas() {
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                4,
            )
            .with_tuning(batch(4)),
        )
        .unwrap()
        .run(&workload(32.0, 64));
        for (i, replica) in report.replicas.iter().enumerate() {
            assert!(
                !replica.records.is_empty(),
                "replica {i} never served a request"
            );
        }
    }

    /// TP sharding buys per-iteration speed: a lone request on a TP-4
    /// group decodes faster than on a single node, even paying the
    /// all-reduce.
    #[test]
    fn tp4_lowers_single_request_tpot() {
        let model = ModelPreset::Llama65B.config();
        let w = workload(0.5, 8);
        let tp4 = ClusterEngine::new(ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            model.clone(),
            4,
            1,
        ))
        .unwrap()
        .run(&w);
        let tp1 = ClusterEngine::new(ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 1))
            .unwrap()
            .run(&w);
        let t4 = tp4.tpot_summary().unwrap().p50.value();
        let t1 = tp1.tpot_summary().unwrap().p50.value();
        assert!(t4 < t1, "TP4 p50 TPOT {t4} should beat TP1 {t1}");
    }

    /// A delivery wins an exact tie with an arrival, a tick takes the
    /// window only when strictly earlier (gossip against the event,
    /// then decide against both), and ticks bound the window only while
    /// some replica has work.
    #[test]
    fn next_event_keeps_the_tie_rules() {
        use FleetEvent::*;
        let inf = f64::INFINITY;
        // (arrival, delivery, gossip, decide, pending) → (event, at)
        let cases = [
            ((Some(1.0), Some(1.0), inf, inf, true), (Deliver, 1.0)),
            ((Some(1.0), Some(2.0), inf, inf, true), (Arrive, 1.0)),
            ((Some(2.0), None, 0.5, 0.4, true), (DecideTick, 0.4)),
            ((Some(2.0), None, 0.5, 0.5, true), (GossipTick, 0.5)),
            ((Some(2.0), None, 2.0, 2.0, true), (Arrive, 2.0)),
            ((Some(2.0), None, 0.5, 0.5, false), (Arrive, 2.0)),
            ((None, None, 0.5, inf, true), (GossipTick, 0.5)),
            ((None, None, inf, inf, true), (Done, inf)),
        ];
        for ((arrival, delivery, gossip, decide, pending), want) in cases {
            assert_eq!(next_event(arrival, delivery, gossip, decide, pending), want);
        }
    }

    /// A zero degree, or more nodes than the inter-node fabric has
    /// ports, fails with its message: 1024-port InfiniBand takes
    /// 4 × 256 nodes but neither 5 × 205 (one over) nor 4 × 257.
    #[test]
    fn degenerate_fleet_rejected() {
        let model = ModelPreset::Llama65B.config();
        let fleet = |tp, dp| {
            ClusterEngine::new(ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                model.clone(),
                tp,
                dp,
            ))
        };
        for (tp, dp) in [(0, 4), (4, 0)] {
            let err = fleet(tp, dp).expect_err("a zero degree must not build");
            assert_eq!(
                err.to_string(),
                "invalid topology: a cluster needs at least one node per group and one replica"
            );
        }
        assert!(fleet(4, 256).is_ok());
        for (tp, dp) in [(5, 205), (4, 257)] {
            let err = fleet(tp, dp).expect_err("more nodes than the fabric has ports");
            assert_eq!(
                err.to_string(),
                format!(
                    "invalid topology: {} nodes exceed InfiniBand-NDR's fan-out of 1024",
                    tp * dp
                )
            );
        }
    }

    /// An out-of-range tuning fails `SessionTuning::validate` however
    /// it was built — builders, struct literal or serde — and both
    /// boundaries report that one message: `ServingEngine::with_tuning`
    /// panics with it, `ClusterEngine::new` returns it.
    #[test]
    fn out_of_range_tunings_rejected() {
        let config = SystemConfig::build(DesignKind::PimOnlyPapi, ModelPreset::Llama65B.config());
        let fleet = ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            2,
        );
        let tier = |budget_blocks| KvTierSpec { budget_blocks };
        let paged = SessionTuning {
            kv_block_size: 16,
            prefix_sharing: true,
            ..SessionTuning::default()
        };
        let built_paged = SessionTuning::new()
            .with_kv_block_size(16)
            .with_prefix_sharing(true);
        let cases = [
            (
                SessionTuning {
                    max_batch: 0,
                    ..SessionTuning::default()
                },
                SessionTuning::new().with_max_batch(0),
            ),
            (
                SessionTuning {
                    kv_headroom: 1.5,
                    ..SessionTuning::default()
                },
                SessionTuning::new().with_kv_headroom(1.5),
            ),
            (
                SessionTuning {
                    kv_block_size: 0,
                    ..SessionTuning::default()
                },
                SessionTuning::new().with_kv_block_size(0),
            ),
            (
                SessionTuning {
                    prefill_chunk: Some(0),
                    ..SessionTuning::default()
                },
                SessionTuning::new().with_prefill_chunk(0),
            ),
            (
                SessionTuning {
                    kv_tier: Some(tier(100)),
                    ..SessionTuning::default()
                },
                SessionTuning::new().with_kv_tier(KvTierSpec::new(100)),
            ),
            (
                SessionTuning {
                    kv_tier: Some(tier(0)),
                    ..paged
                },
                built_paged.with_kv_tier(KvTierSpec::new(0)),
            ),
        ];
        for (literal, built) in cases {
            assert_eq!(built, literal, "the builders and the literal disagree");
            let json = serde_json::to_string(&literal).expect("tuning serializes");
            let deserialized: SessionTuning = serde_json::from_str(&json).expect("round trip");
            assert_eq!(deserialized, literal, "serde disagrees with the literal");
            let message = built.validate().expect_err("out of range");
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ServingEngine::new(config.clone()).with_tuning(built.clone())
            }))
            .expect_err("an out-of-range tuning must not configure an engine");
            assert_eq!(
                panic.downcast_ref::<String>(),
                Some(&message),
                "with_tuning must panic with the validate message"
            );
            let err = ClusterEngine::new(fleet.clone().with_tuning(built))
                .expect_err("an out-of-range tuning must not build");
            assert_eq!(err.to_string(), format!("invalid topology: {message}"));
        }
    }

    /// Empty-fleet aggregation stays well-defined.
    #[test]
    fn empty_report_aggregates_to_zero() {
        let report = ClusterReport {
            design: "PAPI".into(),
            model: "m".into(),
            tp_degree: 1,
            routing: PolicySpec::JoinShortestQueue.label(),
            routing_decisions: 0,
            roles: vec![],
            migration: MigrationReport::default(),
            global_tier: None,
            fleet_cost: None,
            replicas: vec![],
        };
        assert_eq!(report.requests(), 0);
        assert_eq!(report.makespan(), Time::ZERO);
        assert!(report.ttft_summary().is_none());
        assert_eq!(report.cache_hit_rate(), 0.0);
        let slo = SloSpec::interactive(1_000.0, 50.0);
        assert_eq!(report.goodput(&slo), 0.0);
        assert_eq!(report.slo_attainment(&slo), 0.0);
    }

    /// Autoscale validation: disaggregated fleets, shared tiers, and
    /// degenerate bounds are rejected up front.
    #[test]
    fn autoscale_validation_rejects_bad_specs() {
        use crate::autoscale::AutoscalePolicySpec;
        let model = ModelPreset::Llama65B.config();
        let slo = SloSpec::interactive(1_000.0, 50.0);
        let spec = AutoscaleSpec::new(AutoscalePolicySpec::queue_depth(), slo);
        let fleet = |dp: usize| ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, dp);
        // Role disaggregation and autoscaling don't compose (v1).
        assert!(ClusterEngine::new(
            fleet(2)
                .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode])
                .with_autoscale(spec.clone())
        )
        .is_err());
        // min above initial.
        assert!(ClusterEngine::new(
            fleet(3).with_autoscale(spec.clone().with_min_replicas(3).with_initial_replicas(2))
        )
        .is_err());
        // initial above the fleet size.
        assert!(
            ClusterEngine::new(fleet(3).with_autoscale(spec.clone().with_initial_replicas(5)))
                .is_err()
        );
        // Degenerate knobs.
        assert!(ClusterEngine::new(
            fleet(3).with_autoscale(spec.clone().with_decide_interval(0.0))
        )
        .is_err());
        assert!(
            ClusterEngine::new(fleet(3).with_autoscale(spec.clone().with_spin_up(f64::NAN)))
                .is_err()
        );
        // A malformed policy band is a config error, not a fleet that
        // flaps at every tick.
        let inverted = AutoscalePolicySpec::QueueDepthTarget {
            scale_up_depth: 1.0,
            scale_down_depth: 4.0,
        };
        assert_eq!(
            ClusterEngine::new(fleet(3).with_autoscale(AutoscaleSpec::new(inverted, slo))).err(),
            Some(TopologyError::new(
                "inverted band: scale-up threshold 1 is below scale-down threshold 4"
            ))
        );
        // A sane spec builds.
        assert!(ClusterEngine::new(
            fleet(3).with_autoscale(spec.with_min_replicas(1).with_initial_replicas(2))
        )
        .is_ok());
    }

    /// A policy that never scales leaves the episode identical to the
    /// same fleet without autoscaling — decision barriers are pure
    /// control-plane pauses — while still producing a cost report.
    #[test]
    fn hold_policy_is_bit_identical_to_a_fixed_fleet() {
        #[derive(Debug)]
        struct Hold;
        impl AutoscalePolicy for Hold {
            fn decide(&mut self, _: &AutoscaleView<'_>) -> Vec<ScaleAction> {
                Vec::new()
            }
            fn label(&self) -> String {
                "hold".into()
            }
        }
        let model = ModelPreset::Llama65B.config();
        let w = workload(8.0, 40);
        let slo = SloSpec::interactive(1_000.0, 50.0);
        let fixed = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, 3).with_tuning(batch(8)),
        )
        .unwrap()
        .run(&w);
        let elastic = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 3)
                .with_tuning(batch(8))
                .with_autoscale(
                    AutoscaleSpec::new(crate::autoscale::AutoscalePolicySpec::queue_depth(), slo)
                        .with_decide_interval(0.5),
                ),
        )
        .unwrap()
        .run_elastic(&w, &mut Hold);
        for (f, e) in fixed.replicas.iter().zip(&elastic.replicas) {
            assert_eq!(f.records, e.records);
            assert_eq!(f.energy, e.energy);
            assert_eq!(f.placements, e.placements);
        }
        let cost = elastic.fleet_cost.expect("elastic fleet reports cost");
        assert_eq!(cost.policy, "hold");
        assert!(cost.scale_events.is_empty());
        assert!(cost.decisions > 0);
        assert_eq!(cost.peak_active, 3);
        assert_eq!(cost.warming_hours, 0.0);
        assert!(cost.active_hours > 0.0);
    }

    /// Draining under light load frees replica-hours without losing a
    /// single request.
    #[test]
    fn scale_down_saves_replica_hours_and_conserves_requests() {
        let model = ModelPreset::Llama65B.config();
        let w = workload(2.0, 40);
        let slo = SloSpec::interactive(10_000.0, 1_000.0);
        let report = ClusterEngine::new(
            ClusterSpec::new(DesignKind::PimOnlyPapi, model, 1, 4)
                .with_tuning(batch(8))
                .with_autoscale(
                    AutoscaleSpec::new(crate::autoscale::AutoscalePolicySpec::queue_depth(), slo)
                        .with_min_replicas(1)
                        .with_decide_interval(1.0),
                ),
        )
        .unwrap()
        .run(&w);
        assert_eq!(report.requests(), 40);
        let cost = report.fleet_cost.expect("cost report");
        assert!(
            !cost.scale_events.is_empty(),
            "light load on 4 replicas should drain capacity"
        );
        assert!(
            cost.provisioned_hours < cost.fixed_fleet_hours,
            "provisioned {} should undercut fixed {}",
            cost.provisioned_hours,
            cost.fixed_fleet_hours
        );
    }

    /// A 1-prefill + 1-decode fleet completes every request exactly
    /// once: each request is admitted and prefilled on the prefill
    /// replica, migrated, and recorded by the decode replica with
    /// ordered timestamps that include the transfer.
    #[test]
    fn disaggregated_fleet_conserves_requests_through_migration() {
        let w = workload(4.0, 24);
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                2,
            )
            .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Decode])
            .with_tuning(batch(8)),
        )
        .unwrap()
        .run(&w);
        assert_eq!(
            report.roles,
            vec![ReplicaRole::Prefill, ReplicaRole::Decode]
        );
        assert_eq!(report.requests(), 24, "requests lost or duplicated");
        assert_eq!(report.routing_decisions, 24);
        assert_eq!(
            report.migration.migrations, 24,
            "every request migrates once"
        );
        assert!(report.migration.bytes > 0.0);
        assert!(report.migration.energy.value() > 0.0);
        let latency = report.migration.latency.expect("migrations were priced");
        assert!(latency.p50.value() > 0.0);
        // The prefill replica records nothing (its requests complete on
        // the decode side) but did all the prefill work; the decode
        // replica records everything and paid no prefill.
        let prefill = &report.replicas[0];
        let decode = &report.replicas[1];
        assert!(prefill.records.is_empty());
        assert!(prefill.prefill_time.value() > 0.0);
        assert_eq!(decode.records.len(), 24);
        assert_eq!(decode.prefill_time.value(), 0.0);
        assert!(decode.tokens > 0);
        for r in decode.records.iter() {
            assert!(r.arrival.value() <= r.admitted.value());
            assert!(r.admitted.value() < r.first_token.value());
            assert!(r.first_token.value() <= r.finished.value());
            assert!(r.output_tokens > 0);
        }
        // No request id appears twice anywhere in the fleet.
        let mut ids: Vec<u64> = report.records().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24);
    }

    /// Mixed fleets work too: a colocated replica both takes arrivals
    /// and absorbs migrations from the prefill replica.
    #[test]
    fn colocated_replica_absorbs_migrations_in_a_mixed_fleet() {
        let w = workload(8.0, 24);
        let report = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                2,
            )
            .with_roles(vec![ReplicaRole::Prefill, ReplicaRole::Colocated])
            .with_tuning(batch(8)),
        )
        .unwrap()
        .run(&w);
        assert_eq!(report.requests(), 24);
        // Everything the prefill replica admitted arrived by migration;
        // the colocated replica recorded the whole episode.
        assert_eq!(report.replicas[1].records.len(), 24);
        assert!(report.migration.migrations > 0);
    }

    /// Heterogeneous role designs: the prefill pool can run different
    /// hardware than the decode pool, visible per replica.
    #[test]
    fn role_designs_build_heterogeneous_replicas() {
        let engine = ClusterEngine::new(
            ClusterSpec::new(
                DesignKind::PimOnlyPapi,
                ModelPreset::Llama65B.config(),
                1,
                3,
            )
            .with_roles(vec![
                ReplicaRole::Prefill,
                ReplicaRole::Decode,
                ReplicaRole::Decode,
            ])
            .with_prefill_design(DesignKind::A100AttAcc),
        )
        .unwrap();
        let designs: Vec<_> = engine
            .replica_configs()
            .map(|config| config.design)
            .collect();
        assert_eq!(
            designs,
            vec![
                DesignKind::A100AttAcc,
                DesignKind::PimOnlyPapi,
                DesignKind::PimOnlyPapi,
            ]
        );
    }

    /// Malformed role vectors are rejected at construction.
    #[test]
    fn degenerate_role_fleets_rejected() {
        let model = ModelPreset::Llama65B.config();
        let base = |roles| {
            ClusterSpec::new(DesignKind::PimOnlyPapi, model.clone(), 1, 2).with_roles(roles)
        };
        // Length mismatch.
        assert!(ClusterEngine::new(base(vec![ReplicaRole::Prefill])).is_err());
        // Nowhere to decode.
        assert!(
            ClusterEngine::new(base(vec![ReplicaRole::Prefill, ReplicaRole::Prefill])).is_err()
        );
        // Nowhere to admit arrivals.
        assert!(ClusterEngine::new(base(vec![ReplicaRole::Decode, ReplicaRole::Decode])).is_err());
        // A valid split passes.
        assert!(ClusterEngine::new(base(vec![ReplicaRole::Prefill, ReplicaRole::Decode])).is_ok());
    }

    /// A multi-turn long-context workload that thrashes each replica's
    /// hot pool (the `tiered_kv.rs` scenario scaled to a 2-replica
    /// fleet: double the rate so each replica sees the single-engine
    /// pressure).
    fn shared_tier_workload() -> ServingWorkload {
        ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::LongContext, 4096, 3),
            4.0,
            153,
        )
        .with_seed(23)
    }

    fn shared_tier_spec() -> ClusterSpec {
        ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Gpt3_175B.config(),
            1,
            2,
        )
        .with_tuning(
            SessionTuning::default()
                .with_max_batch(16)
                .with_kv_block_size(16)
                .with_prefix_sharing(true)
                .with_kv_tier(crate::KvTierSpec::new(60_000)),
        )
        .with_shared_tier(SharedTierSpec::new())
    }

    /// The shared tier registers spilled records, so enabling it
    /// without a private capacity tier is a configuration error.
    #[test]
    fn shared_tier_requires_a_private_tier() {
        let spec = ClusterSpec::new(
            DesignKind::PimOnlyPapi,
            ModelPreset::Llama65B.config(),
            1,
            2,
        )
        .with_shared_tier(SharedTierSpec::new());
        let err = ClusterEngine::new(spec).unwrap_err();
        assert!(err.to_string().contains("kv_tier"), "{err}");
    }

    /// Join-shortest-queue moves a conversation's turns between
    /// replicas as their queues shift, so a pressured fleet publishes
    /// spilled prefixes into the directory and re-materializes them
    /// across the fabric — with the wire traffic priced and attributed.
    #[test]
    fn shared_tier_publishes_and_fetches_across_replicas() {
        let report = ClusterEngine::new(shared_tier_spec())
            .unwrap()
            .run(&shared_tier_workload());
        let tier = report.global_tier.as_ref().expect("shared tier was on");
        assert!(tier.publishes > 0, "no prefixes registered: {tier:?}");
        assert!(tier.entries > 0);
        assert!(tier.resident_tokens > 0);
        assert!(tier.fetches > 0, "no cross-replica fetches: {tier:?}");
        assert!(tier.fetched_tokens > 0);
        assert!(tier.bytes > 0.0, "fetches must move priced bytes");
        assert!(tier.energy.value() > 0.0);
        let latency = tier.latency.as_ref().expect("fetches were priced");
        assert!(latency.p50.value() > 0.0);
        assert_eq!(tier.pricing, "InfiniBand-NDR", "defaults to inter-node");
        // The per-replica reports carry the same traffic: fleet
        // attribution is a sum, not a second charge.
        let remote_fetches: u64 = report.replicas.iter().map(|r| r.kv.remote_fetches).sum();
        let remote_tokens: u64 = report
            .replicas
            .iter()
            .map(|r| r.kv.remote_fetched_tokens)
            .sum();
        assert_eq!(remote_fetches, tier.fetches);
        assert_eq!(remote_tokens, tier.fetched_tokens);
    }

    /// Remote fetches are priced over the cluster's inter-node fabric:
    /// the same fleet over 100 GbE instead of InfiniBand NDR pays
    /// slower transfers and more energy per byte, and its requests wait
    /// longer for their first token.
    #[test]
    fn shared_tier_fetches_are_priced_on_the_fabric() {
        let run = |spec| {
            ClusterEngine::new(spec)
                .unwrap()
                .run(&shared_tier_workload())
        };
        let fast = run(shared_tier_spec());
        let slow = run(ClusterSpec {
            inter_node: LinkSpec::ethernet_100g(),
            ..shared_tier_spec()
        });
        let tier = |report: &ClusterReport| report.global_tier.clone().expect("shared tier was on");
        let (fast_tier, slow_tier) = (tier(&fast), tier(&slow));
        assert_eq!(fast_tier.pricing, "InfiniBand-NDR");
        assert_eq!(slow_tier.pricing, "100GbE-RoCE");
        assert!(fast_tier.fetches > 0 && slow_tier.fetches > 0);
        let p50 = |tier: &GlobalTierReport| tier.latency.as_ref().expect("priced").p50.value();
        assert!(p50(&slow_tier) > p50(&fast_tier));
        let per_byte = |tier: &GlobalTierReport| tier.energy.value() / tier.bytes;
        assert!(per_byte(&slow_tier) > per_byte(&fast_tier));
        let ttft = |report: &ClusterReport| report.ttft_summary().expect("served").mean.value();
        assert!(ttft(&slow) > ttft(&fast));
    }
}
