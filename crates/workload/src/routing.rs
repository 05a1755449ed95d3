//! Cluster-level request routing: which replica admits an arriving
//! request.
//!
//! A data-parallel PAPI fleet replicates whole serving engines behind a
//! router. At each arrival the router sees a [`RouteContext`]: the
//! arriving request itself (lengths, prefix hint, arrival time) plus
//! one [`ReplicaSnapshot`] per replica — queue depth, live batch, KV
//! occupancy — *as of that simulated instant*, and a [`RoutePolicy`]
//! turns the context into a replica index.
//!
//! Routing is an open trait, not a closed enum: the built-in policies
//! (`join-shortest-queue`, `prefix-affinity`, `shared-tier-affinity`)
//! all run through one [`Router`], an ordinary `RoutePolicy`
//! implementation, and user code can plug its own. Declarative
//! surfaces (cluster specs, sweeps, JSON bins) name built-ins through
//! the serde-able [`PolicySpec`], which also parses from its labels
//! (`"prefix-affinity".parse()`). Policies are deliberately
//! simulator-agnostic: they consume snapshots, not engines, so they
//! unit-test without a cluster.
//!
//! # Writing a custom policy
//!
//! ```
//! use papi_workload::{ReplicaSnapshot, RouteContext, RoutePolicy};
//!
//! /// Sends long prompts to replica 0 (the "prefill node"), everything
//! /// else to the least-loaded remaining replica.
//! #[derive(Debug, Default)]
//! struct PrefillOffload {
//!     long_prompts: u64,
//! }
//!
//! impl RoutePolicy for PrefillOffload {
//!     fn route(&mut self, ctx: &RouteContext<'_>) -> usize {
//!         if ctx.request.request.input_len > 2048 && ctx.replicas.len() > 1 {
//!             self.long_prompts += 1;
//!             return 0;
//!         }
//!         ctx.replicas
//!             .iter()
//!             .enumerate()
//!             .skip(1)
//!             .min_by_key(|(i, s)| (s.queued + s.live, *i))
//!             .map_or(0, |(i, _)| i)
//!     }
//!
//!     fn label(&self) -> String {
//!         "prefill-offload".to_owned()
//!     }
//! }
//! ```

use crate::arrival::ServingRequest;
use papi_kv::{GlobalKvTier, PrefixHint};
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// What phase of the request lifecycle a replica serves — the
/// disaggregation axis of a fleet.
///
/// A `Colocated` replica runs the classic path: it admits arrivals,
/// prefills them, and decodes them to completion. A `Prefill` replica
/// only admits and prefills — the moment a request's prompt is
/// resident, its KV blocks are exported and migrated to a decode-side
/// replica. A `Decode` replica never takes raw arrivals; it receives
/// migrated decode-ready sequences (prefill already paid) and runs
/// them to `<|eos|>`. Roles let the fleet match each phase's hardware
/// affinity: prefill is compute-bound (GPU-heavy pool), decode
/// attention is memory-bound (PIM-heavy pool) — the cluster-scale
/// mirror of PAPI's intra-node FC placement argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaRole {
    /// Serves both phases (the classic, non-disaggregated replica).
    #[default]
    Colocated,
    /// Admits arrivals and prefills; hands decode off via KV migration.
    Prefill,
    /// Receives migrated sequences and decodes; takes no raw arrivals.
    Decode,
}

impl ReplicaRole {
    /// Whether a router may send *new arrivals* here (prefill happens
    /// on admission, so only prefill-capable replicas qualify).
    pub fn accepts_arrivals(&self) -> bool {
        !matches!(self, ReplicaRole::Decode)
    }

    /// Whether migrated decode-ready sequences may be placed here.
    pub fn can_decode(&self) -> bool {
        !matches!(self, ReplicaRole::Prefill)
    }

    /// Display label for reports and sweeps.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ReplicaRole::Colocated => "colocated",
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
        }
    }
}

impl core::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a replica sits in its provisioning lifecycle — the elasticity
/// axis of a fleet, orthogonal to its [`ReplicaRole`].
///
/// A fixed-size fleet (the default) keeps every replica `Active`
/// forever, and nothing below changes behavior. An autoscaled fleet
/// walks replicas through `Retired → Warming → Active → Draining →
/// Retired`: a `Warming` replica is spinning up (model loading, cache
/// cold) and admits nothing until its spin-up delay elapses; a
/// `Draining` replica finishes its in-flight requests but receives no
/// new work; a `Retired` replica is deprovisioned — it costs no
/// replica-hours and serves nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaState {
    /// Provisioned but still spinning up: admits nothing yet, and its
    /// prefix caches start cold when it activates.
    Warming,
    /// Serving traffic (the only state routers may target).
    #[default]
    Active,
    /// Finishing in-flight work; receives no new arrivals, migrations,
    /// or conversation homes.
    Draining,
    /// Deprovisioned: not running, not billed.
    Retired,
}

impl ReplicaState {
    /// Whether a router or migration policy may send *new* work here.
    /// Only `Active` replicas take traffic — warming replicas are not
    /// ready, draining replicas are on their way out, retired replicas
    /// do not exist.
    pub fn serves_traffic(&self) -> bool {
        matches!(self, ReplicaState::Active)
    }

    /// Display label for reports and sweeps.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaState::Warming => "warming",
            ReplicaState::Active => "active",
            ReplicaState::Draining => "draining",
            ReplicaState::Retired => "retired",
        }
    }
}

impl core::fmt::Display for ReplicaState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A replica's admission-relevant state at one instant.
///
/// KV occupancy is reported in *blocks* of the replica's paged cache,
/// not tokens: block granularity is what the replica's admission
/// planner actually allocates at, so the router sees internal
/// fragmentation (a replica serving many ragged tails fills its pool
/// faster than its token count suggests). Blocks the replica could
/// reclaim from its prefix cache are reported separately — they are
/// capacity, not commitment. With a block size of 1 (the scalar
/// configuration) all of this degenerates to exact token counting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// The lifecycle phase this replica serves. Routing policies must
    /// send new arrivals only to [`accepts_arrivals`](ReplicaRole)
    /// replicas; migration policies place decode-ready sequences only
    /// on [`can_decode`](ReplicaRole) ones.
    pub role: ReplicaRole,
    /// Where the replica sits in its provisioning lifecycle. Built-in
    /// policies route new work only to [`ReplicaState::Active`]
    /// replicas; a fixed-size fleet (the default) reports every
    /// replica `Active` and behaves exactly as before elasticity
    /// existed.
    pub lifecycle: ReplicaState,
    /// Requests waiting in the replica's arrival queue.
    pub queued: usize,
    /// Requests in the running batch (prefilling or decoding).
    pub live: usize,
    /// KV-cache blocks currently held (live sequences plus cached
    /// prefixes).
    pub kv_blocks_in_use: u64,
    /// Blocks only the replica's prefix cache holds — reclaimable by
    /// eviction the moment admission needs them.
    pub kv_evictable_blocks: u64,
    /// Blocks the replica's admission planner may use (the headroom
    /// budget, not the raw pool).
    pub kv_budget_blocks: u64,
    /// Tokens per block of the replica's pool.
    pub kv_block_size: u64,
    /// Blocks occupied in the replica's KV capacity tier (spilled cold
    /// prefixes). Zero when no tier is configured.
    pub kv_tier_blocks_in_use: u64,
    /// The capacity tier's block budget (zero: no tier).
    pub kv_tier_budget_blocks: u64,
}

impl ReplicaSnapshot {
    /// Whether the replica takes new arrivals: its role accepts them
    /// and its lifecycle serves traffic. Read from the stamps alone.
    pub(crate) fn takes_arrivals(&self) -> bool {
        self.role.accepts_arrivals() && self.lifecycle.serves_traffic()
    }

    /// Total requests the replica is responsible for right now.
    pub(crate) fn load(&self) -> usize {
        self.queued + self.live
    }

    /// Blocks irrevocably committed to live sequences (in use minus
    /// what prefix-cache eviction could hand back).
    pub(crate) fn kv_committed_blocks(&self) -> u64 {
        self.kv_blocks_in_use
            .saturating_sub(self.kv_evictable_blocks)
    }

    /// Blocks a request needing `tokens` KV tokens would allocate here.
    pub(crate) fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.kv_block_size.max(1))
    }

    /// Fraction of the admission budget committed (1 when the budget is
    /// zero — a degenerate replica is "full").
    pub(crate) fn kv_utilization(&self) -> f64 {
        if self.kv_budget_blocks == 0 {
            return 1.0;
        }
        self.kv_committed_blocks() as f64 / self.kv_budget_blocks as f64
    }

    /// Whether admitting `incoming_kv_tokens` more KV tokens would
    /// exceed the admission budget, at this replica's block
    /// granularity.
    pub fn kv_saturated_for(&self, incoming_kv_tokens: u64) -> bool {
        self.kv_committed_blocks() + self.blocks_for(incoming_kv_tokens) > self.kv_budget_blocks
    }

    /// Fraction of the capacity tier's block budget occupied (the
    /// `kv_tier_blocks_in_use` / `kv_tier_budget_blocks` ratio). Zero
    /// when no tier is configured: an absent tier exerts no pressure. A
    /// full tier (1.0) means the replica's next spill evicts a cold
    /// record outright — stickiness can no longer count on the local
    /// hierarchy retaining a conversation's context.
    pub(crate) fn tier_pressure(&self) -> f64 {
        if self.kv_tier_budget_blocks == 0 {
            return 0.0;
        }
        self.kv_tier_blocks_in_use as f64 / self.kv_tier_budget_blocks as f64
    }
}

/// Everything a routing decision may inspect: the arriving request
/// (identity, prompt/output lengths, prefix hint, arrival time), the
/// fleet's per-replica snapshots at the arrival instant, and — when the
/// cluster runs a fleet-shared KV tier — the global prefix directory.
///
/// Snapshots expose the full KV hierarchy: hot-pool occupancy
/// (`kv_blocks_in_use` / `kv_budget_blocks`) *and* the capacity tier
/// (`kv_tier_blocks_in_use` / `kv_tier_budget_blocks`), so policies can
/// react to a replica whose spill tier is churning, not just one whose
/// hot pool is full.
#[derive(Debug, Clone, Copy)]
pub struct RouteContext<'a> {
    /// The request being placed — `ctx.request.request` is the static
    /// [`Request`](crate::Request) (id, lengths, prefix hint), and
    /// `ctx.request.arrival_s` its arrival time.
    pub request: &'a ServingRequest,
    /// One snapshot per replica, indexed by replica id; the policy's
    /// return value indexes this slice.
    pub replicas: &'a [ReplicaSnapshot],
    /// The fleet-wide directory of spilled prefixes, when the cluster
    /// runs a shared tier (`None` otherwise). Entries record which
    /// replica owns each spilled prefix and how many tokens it holds;
    /// [`PolicySpec::SharedTierAffinity`] consults residency here to
    /// decide when stickiness is safe to relax.
    pub shared_prefixes: Option<&'a GlobalKvTier>,
    /// The consistent-hash ring over the currently-active membership,
    /// when the cluster is elastic (`None` for a fixed-size fleet).
    /// Affinity policies derive conversation homes from the ring when
    /// present, so a scale event re-homes only ~K/N conversations
    /// instead of reshuffling every modulo-N assignment; without a
    /// ring they fall back to the classic stateless modulo hash,
    /// keeping fixed fleets bit-for-bit on their goldens.
    pub ring: Option<&'a HashRing>,
}

impl<'a> RouteContext<'a> {
    /// A context without a fleet-shared prefix directory (the common
    /// private-tier fleet).
    pub fn new(request: &'a ServingRequest, replicas: &'a [ReplicaSnapshot]) -> Self {
        Self {
            request,
            replicas,
            shared_prefixes: None,
            ring: None,
        }
    }

    /// Attaches the fleet-wide spilled-prefix directory.
    pub fn with_shared_prefixes(mut self, directory: &'a GlobalKvTier) -> Self {
        self.shared_prefixes = Some(directory);
        self
    }

    /// Attaches the elastic fleet's consistent-hash membership ring.
    pub fn with_ring(mut self, ring: &'a HashRing) -> Self {
        self.ring = Some(ring);
        self
    }
}

impl RouteContext<'_> {
    /// KV tokens the chosen replica must cover at admission (the
    /// request's prompt, plus any regenerated context after a
    /// preemption).
    pub(crate) fn incoming_kv_tokens(&self) -> u64 {
        self.request.prefill_len()
    }

    /// The request's shareable-prefix hint, if it carries one (the
    /// conversation or shared-system-prompt key prefix-affinity
    /// policies steer by).
    pub(crate) fn prefix(&self) -> Option<PrefixHint> {
        self.request.request.prefix
    }

    /// Whether the arriving request's prefix is registered in the
    /// fleet-wide shared tier — i.e. *any* replica could re-materialize
    /// its context over the fabric. `false` without a directory or a
    /// prefix hint.
    pub(crate) fn shared_resident(&self) -> bool {
        match (self.shared_prefixes, self.prefix()) {
            (Some(directory), Some(hint)) => directory.resident(hint.key),
            _ => false,
        }
    }

    /// The replica indices a new arrival may legally land on: those
    /// that [take arrivals](ReplicaSnapshot::takes_arrivals), whose role
    /// accepts arrivals *and* whose lifecycle is
    /// [`ReplicaState::Active`] (warming, draining, and retired replicas
    /// take no new work).
    /// Falls back to the role-capable subset when nothing is active,
    /// then to *every* index — a policy must stay total even over a
    /// malformed fleet (the cluster engine validates shape
    /// separately).
    pub(crate) fn arrival_targets(&self) -> Vec<usize> {
        targets(self.replicas, ReplicaRole::accepts_arrivals)
    }
}

/// The indices of `replicas` whose role is `capable` and whose
/// lifecycle serves traffic. Falls back to the role-capable subset
/// when nothing is active, then to *every* index, so a policy stays
/// total even over a malformed fleet (the cluster engine validates
/// shape separately).
fn targets(replicas: &[ReplicaSnapshot], capable: impl Fn(&ReplicaRole) -> bool) -> Vec<usize> {
    let pick = |serving_only: bool| -> Vec<usize> {
        replicas
            .iter()
            .enumerate()
            .filter(|(_, s)| capable(&s.role) && (!serving_only || s.lifecycle.serves_traffic()))
            .map(|(i, _)| i)
            .collect()
    };
    let serving = pick(true);
    if !serving.is_empty() {
        return serving;
    }
    let capable = pick(false);
    if capable.is_empty() {
        (0..replicas.len()).collect()
    } else {
        capable
    }
}

/// Which replicas' snapshots a routing decision reads: its read set.
/// The cluster engine brings only these replicas up to the arrival
/// instant before it routes; the rest may lag behind until an event
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Reads {
    /// Any snapshot (the safe default).
    #[default]
    Fleet,
    /// The snapshot of the replica with this index, plus the role and
    /// lifecycle stamps of every replica.
    One(usize),
}

/// How a fleet router picks the replica that admits each arriving
/// request.
///
/// Implementations may keep state across decisions (a spill counter,
/// learned load estimates); the cluster engine drives one
/// policy instance per episode, in arrival order. The returned index
/// must be in range for `ctx.replicas` — the driver asserts it.
pub trait RoutePolicy: core::fmt::Debug {
    /// Picks the replica index that admits `ctx.request`.
    fn route(&mut self, ctx: &RouteContext<'_>) -> usize;

    /// The snapshots [`route`](Self::route) will read for this
    /// context. The default, [`Reads::Fleet`], is always correct; a
    /// narrower answer lets the cluster engine leave unread replicas
    /// behind the arrival instant.
    ///
    /// The contract: `reads` may look only at the role and lifecycle
    /// stamps of `ctx.replicas`, the ring, the request, and the
    /// snapshots of the replicas it names. `route`, called with the
    /// same context, must read no more than the answer names. The
    /// engine brings the named replicas up to date and asks again
    /// until every replica named is current, so an answer drawn from a
    /// stale snapshot is only ever provisional. Unnamed snapshots may
    /// be stale apart from their stamps.
    fn reads(&self, ctx: &RouteContext<'_>) -> Reads {
        let _ = ctx;
        Reads::Fleet
    }

    /// Display label for reports and sweeps.
    fn label(&self) -> String {
        "custom".to_owned()
    }
}

/// SplitMix64: the stateless hash the affinity policies map prefix
/// keys to home replicas with — deterministic across runs and
/// platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The classic modulo home for `key` in a fleet of `replicas`
/// replicas.
fn home_replica(key: u64, replicas: usize) -> usize {
    debug_assert!(replicas > 0);
    (splitmix64(key) % replicas as u64) as usize
}

/// A consistent-hash ring over an elastic fleet's active membership.
///
/// The classic `splitmix64(key) % N` home assignment reshuffles almost
/// *every* conversation whenever `N` changes — one scale event and the
/// whole fleet's prefix caches go cold at once. The ring fixes the
/// blast radius: each member replica owns
/// `VNODES` pseudo-random points on a `u64` circle,
/// and a key homes to the owner of the first point at or after its
/// hash (wrapping). Adding or removing one replica moves only the
/// arcs adjacent to that replica's points — ~K/N of the keys — while
/// every other conversation keeps its warm home.
///
/// Construction is a pure function of the member set, so both cluster
/// step modes (and any two runs) build identical rings. A fleet that
/// rebuilds its ring on every scale event filters one [`RingPoints`]
/// instead of calling [`new`](Self::new).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashRing {
    /// `(point, member)` pairs sorted by point; keys home to the first
    /// point at or after their hash, wrapping at the top.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Virtual nodes per member: enough that per-member load imbalance
    /// and single-event remap fractions concentrate near their ideal
    /// 1/N. [`RingPoints`] makes a rebuild one filtering pass over the
    /// fleet's points, with no hashing or sorting.
    pub(crate) const VNODES: usize = 64;

    /// The ring over `members` (replica indices; order is irrelevant,
    /// duplicates collapse). An empty member set builds an empty ring —
    /// [`home`](Self::home) then returns `None`.
    pub fn new(members: &[usize]) -> Self {
        RingPoints::new(members).ring(|_| true)
    }

    /// The home member for `key`: the owner of the first ring point at
    /// or after `splitmix64(key)`, wrapping. `None` on an empty ring.
    pub fn home(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hash = splitmix64(key);
        let idx = self.points.partition_point(|&(point, _)| point < hash);
        let (_, member) = self.points[if idx == self.points.len() { 0 } else { idx }];
        Some(member)
    }
}

/// The ring points of a whole fleet, hashed and sorted once, from which
/// [`ring`](Self::ring) builds the ring over any membership.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingPoints {
    /// Every candidate's points, sorted by point and then member, with
    /// colliding points kept: a point's lowest owner may leave the
    /// membership while the next one stays.
    points: Vec<(u64, usize)>,
}

impl RingPoints {
    /// The points of every replica in `candidates`.
    pub fn new(candidates: &[usize]) -> Self {
        let mut points: Vec<(u64, usize)> = candidates
            .iter()
            .flat_map(|&m| {
                (0..HashRing::VNODES).map(move |v| {
                    let point = splitmix64((m as u64) ^ ((v as u64) << 32) ^ 0xA076_1D64_78BD_642F);
                    (point, m)
                })
            })
            .collect();
        points.sort_unstable();
        Self { points }
    }

    /// The ring over the candidates `member` keeps. Filtering keeps the
    /// sort order, so the first point kept on a collision belongs to
    /// its lowest kept member — deterministic no matter the input
    /// order, and the same ring [`HashRing::new`] builds over them.
    pub fn ring(&self, member: impl Fn(usize) -> bool) -> HashRing {
        let mut points: Vec<(u64, usize)> = self
            .points
            .iter()
            .copied()
            .filter(|&(_, m)| member(m))
            .collect();
        points.dedup_by_key(|&mut (point, _)| point);
        HashRing { points }
    }
}

/// The affinity home for `key` over the legal
/// [`arrival_targets`](RouteContext::arrival_targets): the ring's
/// assignment when an elastic membership ring is attached (and names a
/// legal target), otherwise the classic stateless modulo hash over the
/// target subset. The modulo path is what every fixed-size fleet takes
/// — bit-for-bit the pre-elasticity behavior. A ring home whose stamps
/// take arrivals is a legal target, so it needs no target list.
fn affinity_home(ctx: &RouteContext<'_>, key: u64) -> usize {
    let ring_home = ctx.ring.and_then(|ring| ring.home(key));
    if let Some(home) = ring_home {
        if ctx
            .replicas
            .get(home)
            .is_some_and(ReplicaSnapshot::takes_arrivals)
        {
            return home;
        }
    }
    let targets = ctx.arrival_targets();
    match ring_home {
        Some(home) if targets.contains(&home) => home,
        _ => targets[home_replica(key, targets.len())],
    }
}

/// The least-loaded of `candidates` (fewest queued plus live requests,
/// ties to the lowest index), skipping replicas whose KV budget cannot
/// take `incoming` tokens while any candidate still has headroom:
/// join-shortest-queue.
fn least_loaded(candidates: &[usize], replicas: &[ReplicaSnapshot], incoming: u64) -> usize {
    let pick = |saturated_ok: bool| {
        candidates
            .iter()
            .copied()
            .filter(|&i| saturated_ok || !replicas[i].kv_saturated_for(incoming))
            .min_by_key(|&i| (replicas[i].load(), i))
    };
    pick(false)
        .or_else(|| pick(true))
        .expect("fleet is non-empty")
}

/// The least-pressured of `candidates`: lowest KV-budget utilization,
/// then load, then index, so the pick is deterministic. `None` when
/// there are no candidates.
fn least_pressured(
    candidates: impl IntoIterator<Item = usize>,
    replicas: &[ReplicaSnapshot],
) -> Option<usize> {
    candidates.into_iter().min_by(|&a, &b| {
        let (sa, sb) = (&replicas[a], &replicas[b]);
        sa.kv_utilization()
            .total_cmp(&sb.kv_utilization())
            .then_with(|| sa.load().cmp(&sb.load()))
            .then_with(|| a.cmp(&b))
    })
}

/// Declarative name of a built-in routing policy: what cluster specs,
/// sweeps, and JSON bins carry, and what a [`Router`] runs.
/// [`FromStr`] parses the same labels [`PolicySpec::label`] prints, so
/// command-line and config surfaces stay declarative.
///
/// The two affinity policies share one rule: hash the request's prefix
/// key (its conversation id, or the fleet-wide shared-system-prompt
/// key) to a *home* replica, so every turn of a conversation lands
/// where its private prefix cache holds the accumulated context. The
/// home keeps the request while it is not KV-saturated for the prompt;
/// otherwise the request spills to the least-pressured replica with
/// headroom. Prefix-free requests
/// balance like join-shortest-queue. The two differ only in when
/// stickiness *relaxes* to join-shortest-queue before the home is
/// consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Fewest responsible requests (queued + live), skipping replicas
    /// whose KV budget cannot take the request while any has headroom.
    JoinShortestQueue,
    /// Conversation-sticky routing with KV-pressure spill. Never
    /// relaxes.
    PrefixAffinity,
    /// Conversation-sticky, relaxing to join-shortest-queue only for
    /// prefixes resident in the fleet-shared KV tier whose home replica
    /// is pressured.
    ///
    /// Once a conversation's prefix is registered in the global
    /// directory, *any* replica can re-materialize it at one fabric
    /// hop, so waiting behind the home's queue no longer protects
    /// anything. The policy relaxes when the prefix is
    /// resident and the home is
    /// pressured: two or more requests queue there, or its private
    /// capacity tier is full (`kv_tier_blocks_in_use` has reached a
    /// nonzero `kv_tier_budget_blocks`). A
    /// pressured home whose conversation is *not* in the directory
    /// stays sticky (moving it would cold-start the prefix). Without a
    /// shared tier it routes exactly like `prefix-affinity`.
    SharedTierAffinity,
}

/// Home-replica queue depth at which shared-tier affinity relaxes for a
/// tier-resident prefix. Below saturation, queues hover near zero; a
/// backlog of a couple of requests means arrivals outpace service, and
/// a remote fetch (microseconds of fabric time) beats the wait.
const QUEUE_PRESSURE: f64 = 2.0;

impl PolicySpec {
    /// Prefix-affinity routing.
    pub fn prefix_affinity() -> Self {
        PolicySpec::PrefixAffinity
    }

    /// Shared-tier-aware affinity routing.
    pub fn shared_tier_affinity() -> Self {
        PolicySpec::SharedTierAffinity
    }

    /// Display label for reports and sweeps.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::JoinShortestQueue => "join-shortest-queue",
            PolicySpec::PrefixAffinity => "prefix-affinity",
            PolicySpec::SharedTierAffinity => "shared-tier-affinity",
        }
        .to_owned()
    }
}

impl core::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for PolicySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "join-shortest-queue" => Ok(PolicySpec::JoinShortestQueue),
            "prefix-affinity" => Ok(PolicySpec::PrefixAffinity),
            "shared-tier-affinity" => Ok(PolicySpec::SharedTierAffinity),
            _ => Err(format!(
                "unknown routing policy {s:?} (expected join-shortest-queue, prefix-affinity \
                 or shared-tier-affinity)"
            )),
        }
    }
}

/// The built-in router: the policy a [`PolicySpec`] names, with its
/// state — the spill, relax, and decision counters. Resumable by
/// construction: every routing-relevant bit round-trips through serde,
/// so a serialized mid-run router resumes exactly where it stopped.
///
/// `Router` implements [`RoutePolicy`], so the cluster engine drives
/// built-ins and custom policies through the same trait seam.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Router {
    spec: PolicySpec,
    spills: u64,
    relaxed: u64,
    decisions: u64,
}

impl Router {
    /// A fresh router running the policy `spec` names.
    pub fn new(spec: PolicySpec) -> Self {
        Self {
            spec,
            spills: 0,
            relaxed: 0,
            decisions: 0,
        }
    }

    /// Routing decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Affinity requests routed away from their home replica because
    /// it was saturated for the prompt. A request the all-saturated
    /// fallback lands back home is no spill.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Affinity decisions where stickiness relaxed to
    /// join-shortest-queue.
    pub fn relaxed(&self) -> u64 {
        self.relaxed
    }

    /// Picks the replica that admits `request`, given one snapshot per
    /// replica.
    ///
    /// Ties prefer the lowest replica index, so routing is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    #[track_caller]
    pub fn route(&mut self, request: &ServingRequest, replicas: &[ReplicaSnapshot]) -> usize {
        RoutePolicy::route(self, &RouteContext::new(request, replicas))
    }

    /// Whether shared-tier affinity relaxes to join-shortest-queue for
    /// this arrival, before its home is consulted.
    fn relaxes(&self, ctx: &RouteContext<'_>) -> bool {
        self.spec == PolicySpec::SharedTierAffinity
            && ctx.prefix().is_some_and(|hint| {
                ctx.shared_resident() && {
                    let home = &ctx.replicas[affinity_home(ctx, hint.key)];
                    home.queued as f64 >= QUEUE_PRESSURE || home.tier_pressure() >= 1.0
                }
            })
    }

    /// The affinity home of the request's prefix, and whether it keeps
    /// the request: it is not saturated for the prompt. `None` for a
    /// prefix-free request.
    fn home(&self, ctx: &RouteContext<'_>) -> Option<(usize, bool)> {
        let hint = ctx.prefix()?;
        let home = affinity_home(ctx, hint.key);
        let keeps = !ctx.replicas[home].kv_saturated_for(ctx.incoming_kv_tokens());
        Some((home, keeps))
    }

    /// The affinity rule. A relaxed decision, or a prefix-free request,
    /// balances like join-shortest-queue. Otherwise the request stays
    /// home while the home keeps it, and else spills to the
    /// least-pressured other replica with headroom; an all-saturated
    /// fleet falls back to the least-pressured replica overall.
    fn affinity(&mut self, ctx: &RouteContext<'_>) -> usize {
        let incoming = ctx.incoming_kv_tokens();
        if self.relaxes(ctx) {
            self.relaxed += 1;
            return least_loaded(&ctx.arrival_targets(), ctx.replicas, incoming);
        }
        let Some((home, keeps)) = self.home(ctx) else {
            return least_loaded(&ctx.arrival_targets(), ctx.replicas, incoming);
        };
        if keeps {
            return home;
        }
        let targets = ctx.arrival_targets();
        let headroom = |i: &usize| !ctx.replicas[*i].kv_saturated_for(incoming);
        let others = targets.iter().copied().filter(|&i| i != home);
        let pick = least_pressured(others.filter(headroom), ctx.replicas)
            .or_else(|| least_pressured(targets.iter().copied(), ctx.replicas))
            .expect("fleet is non-empty");
        if pick != home {
            self.spills += 1;
        }
        pick
    }
}

impl RoutePolicy for Router {
    // The trait impl is the real entry point: the positional
    // `Router::route` wraps its arguments in a directory-free context
    // and delegates here, so a caller-built context (e.g. one carrying
    // `shared_prefixes`) reaches the policy intact.
    fn route(&mut self, ctx: &RouteContext<'_>) -> usize {
        assert!(!ctx.replicas.is_empty(), "cannot route to an empty fleet");
        self.decisions += 1;
        match self.spec {
            PolicySpec::JoinShortestQueue => least_loaded(
                &ctx.arrival_targets(),
                ctx.replicas,
                ctx.incoming_kv_tokens(),
            ),
            PolicySpec::PrefixAffinity | PolicySpec::SharedTierAffinity => self.affinity(ctx),
        }
    }

    /// Prefix affinity, and shared-tier affinity while it does not
    /// relax, read the home alone while it keeps the request. Every
    /// other decision reads the whole fleet.
    fn reads(&self, ctx: &RouteContext<'_>) -> Reads {
        if self.spec == PolicySpec::JoinShortestQueue || self.relaxes(ctx) {
            return Reads::Fleet;
        }
        match self.home(ctx) {
            Some((home, true)) => Reads::One(home),
            _ => Reads::Fleet,
        }
    }

    fn label(&self) -> String {
        self.spec.label()
    }
}

// ---------------------------------------------------------------------
// Decode-side placement of migrated sequences
// ---------------------------------------------------------------------

/// Everything a decode-side placement decision may inspect: the
/// decode-ready request being handed off, its resident KV footprint,
/// where it prefilled, and the fleet's snapshots at the delivery
/// instant.
#[derive(Debug, Clone, Copy)]
pub struct MigrationContext<'a> {
    /// The request whose prefill just completed (prefill already paid;
    /// `generated` is still zero).
    pub request: &'a ServingRequest,
    /// KV tokens the destination must allocate on arrival.
    pub kv_tokens: u64,
    /// Index of the prefill-role replica the sequence departed from.
    pub source: usize,
    /// One snapshot per replica, indexed by replica id; the policy's
    /// return value indexes this slice and must name a
    /// [`can_decode`](ReplicaRole::can_decode) replica.
    pub replicas: &'a [ReplicaSnapshot],
}

impl MigrationContext<'_> {
    /// The replica indices a migrated sequence may legally land on:
    /// role can decode *and* lifecycle is [`ReplicaState::Active`]
    /// (the same uniform skip routing applies — a draining replica
    /// finishes what it has, it does not absorb new sequences). Falls
    /// back to the role-capable subset when nothing is active, then to
    /// every index, so policies stay total; the cluster engine
    /// validates fleet shape separately.
    pub fn decode_targets(&self) -> Vec<usize> {
        targets(self.replicas, ReplicaRole::can_decode)
    }
}

/// How a disaggregated fleet places a freshly prefilled sequence on
/// its decode pool — the decode-side twin of [`RoutePolicy`].
///
/// Consulted once per completed migration transfer, in delivery order.
/// The returned index must be in range and decode-capable — the
/// cluster engine asserts both.
pub trait MigrationPolicy: core::fmt::Debug {
    /// Picks the replica that admits the migrated sequence.
    fn place(&mut self, ctx: &MigrationContext<'_>) -> usize;

    /// Display label for reports and sweeps.
    fn label(&self) -> String {
        "custom".to_owned()
    }
}

/// Declarative name of the built-in [`MigrationPolicy`] — what cluster
/// specs carry, mirroring [`PolicySpec`] for routing. The built-in is
/// stateless, so the spec is itself the policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationSpec {
    /// Join the decode-capable replica with the fewest responsible
    /// requests, skipping replicas whose KV budget cannot take the
    /// sequence while any has headroom (the default).
    #[default]
    JoinShortestQueue,
}

impl MigrationSpec {
    /// Instantiates the policy this spec names, with fresh state.
    pub fn build(&self) -> Box<dyn MigrationPolicy> {
        Box::new(*self)
    }

    /// Display label for reports and sweeps.
    pub(crate) fn label(&self) -> String {
        match self {
            MigrationSpec::JoinShortestQueue => "decode-jsq".to_owned(),
        }
    }
}

impl core::fmt::Display for MigrationSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

impl MigrationPolicy for MigrationSpec {
    fn place(&mut self, ctx: &MigrationContext<'_>) -> usize {
        let targets = ctx.decode_targets();
        match self {
            MigrationSpec::JoinShortestQueue => least_loaded(&targets, ctx.replicas, ctx.kv_tokens),
        }
    }

    fn label(&self) -> String {
        MigrationSpec::label(self)
    }
}

impl FromStr for MigrationSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "decode-jsq" => Ok(MigrationSpec::JoinShortestQueue),
            _ => Err(format!(
                "unknown migration policy {s:?} (expected decode-jsq)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn snap(queued: usize, live: usize, kv: u64, budget: u64) -> ReplicaSnapshot {
        // Block size 1: blocks are tokens, the scalar configuration.
        ReplicaSnapshot {
            role: ReplicaRole::Colocated,
            lifecycle: ReplicaState::Active,
            queued,
            live,
            kv_blocks_in_use: kv,
            kv_evictable_blocks: 0,
            kv_budget_blocks: budget,
            kv_block_size: 1,
            kv_tier_blocks_in_use: 0,
            kv_tier_budget_blocks: 0,
        }
    }

    /// A prefix-free request whose admission needs `tokens` KV tokens.
    fn req(tokens: u64) -> ServingRequest {
        ServingRequest::new(Request::new(0, tokens, 1), 0.0)
    }

    /// A conversation turn: `tokens` KV tokens under prefix `key`.
    fn turn(key: u64, tokens: u64) -> ServingRequest {
        ServingRequest::new(
            Request::new(0, tokens, 1).with_prefix(PrefixHint {
                key,
                reuse_tokens: 0,
                publish_tokens: tokens,
            }),
            0.0,
        )
    }

    #[test]
    fn jsq_picks_least_loaded() {
        let mut r = Router::new(PolicySpec::JoinShortestQueue);
        let fleet = vec![
            snap(4, 8, 100, 10_000),
            snap(1, 3, 100, 10_000),
            snap(2, 8, 100, 10_000),
        ];
        assert_eq!(r.route(&req(50), &fleet), 1);
    }

    #[test]
    fn jsq_never_admits_to_a_saturated_replica_while_another_has_headroom() {
        let mut r = Router::new(PolicySpec::JoinShortestQueue);
        // Replica 0 is the least loaded but its KV budget cannot take
        // the 200-token prompt; replica 2 has headroom.
        let fleet = vec![
            snap(0, 1, 9_900, 10_000),
            snap(5, 8, 9_950, 10_000),
            snap(3, 6, 2_000, 10_000),
        ];
        assert_eq!(r.route(&req(200), &fleet), 2);
        // Once every replica is saturated, fall back to least loaded.
        let all_full = vec![
            snap(2, 2, 9_990, 10_000),
            snap(0, 1, 9_990, 10_000),
            snap(4, 4, 9_990, 10_000),
        ];
        assert_eq!(r.route(&req(200), &all_full), 1);
    }

    #[test]
    fn snapshot_accessors() {
        let s = snap(3, 5, 750, 1_000);
        assert_eq!(s.load(), 8);
        assert!((s.kv_utilization() - 0.75).abs() < 1e-12);
        assert!(!s.kv_saturated_for(250));
        assert!(s.kv_saturated_for(251));
        // A zero-budget replica reads as full, never as infinitely free.
        assert_eq!(snap(0, 0, 0, 0).kv_utilization(), 1.0);
    }

    #[test]
    fn block_granularity_exposes_fragmentation_to_the_router() {
        // Two replicas with the same *token* budget; the paged one
        // (16-token blocks) has burned more of its pool on ragged
        // tails, and saturation is judged in its own block units.
        let paged = ReplicaSnapshot {
            role: ReplicaRole::Colocated,
            lifecycle: ReplicaState::Active,
            queued: 0,
            live: 4,
            kv_blocks_in_use: 60,
            kv_evictable_blocks: 0,
            kv_budget_blocks: 62, // 992 tokens of budget
            kv_block_size: 16,
            kv_tier_blocks_in_use: 0,
            kv_tier_budget_blocks: 0,
        };
        assert_eq!(paged.blocks_for(1), 1);
        assert_eq!(paged.blocks_for(17), 2);
        // 33 tokens round up to 3 blocks: saturated despite 2 blocks
        // (32 token slots) of headroom for a token-counting view.
        assert!(paged.kv_saturated_for(33));
        assert!(!paged.kv_saturated_for(32));
    }

    #[test]
    fn evictable_prefix_blocks_read_as_headroom() {
        let mut s = snap(0, 2, 9_900, 10_000);
        assert!(s.kv_saturated_for(200));
        // The same occupancy, but mostly reclaimable prefix cache: the
        // router must treat it as available.
        s.kv_evictable_blocks = 5_000;
        assert!(!s.kv_saturated_for(200));
        assert!((s.kv_utilization() - 0.49).abs() < 1e-12);
        assert_eq!(s.kv_committed_blocks(), 4_900);
    }

    #[test]
    #[should_panic(expected = "empty fleet")]
    fn routing_to_nobody_is_a_bug() {
        Router::new(PolicySpec::JoinShortestQueue).route(&req(1), &[]);
    }

    /// Every label parses back to its spec; the spellings of deleted
    /// policies and thresholds are errors, not panics or fallbacks.
    #[test]
    fn labels_and_parsing_round_trip() {
        for (spec, label) in [
            (PolicySpec::JoinShortestQueue, "join-shortest-queue"),
            (PolicySpec::prefix_affinity(), "prefix-affinity"),
            (PolicySpec::shared_tier_affinity(), "shared-tier-affinity"),
        ] {
            assert_eq!(spec.to_string(), label);
            assert_eq!(label.parse::<PolicySpec>(), Ok(spec));
            assert_eq!(Router::new(spec).label(), label);
        }
        for removed in [
            "least-recently-fed",
            "round-robin",
            "kv-pressure-aware",
            "adaptive-affinity",
            "prefix-affinity:0.85",
            "shared-tier-affinity:3",
        ] {
            assert_eq!(
                removed.parse::<PolicySpec>(),
                Err(format!(
                    "unknown routing policy {removed:?} (expected join-shortest-queue, \
                     prefix-affinity or shared-tier-affinity)"
                ))
            );
        }
    }

    #[test]
    fn prefix_affinity_keeps_a_conversation_home_until_saturation() {
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        let roomy = vec![snap(0, 2, 1_000, 10_000); 4];
        let key = 42;
        let home = home_replica(key, roomy.len());
        // Every turn of the conversation lands on the home replica,
        // regardless of how busy the others are.
        for tokens in [100, 400, 900, 2_000] {
            assert_eq!(policy.route(&turn(key, tokens), &roomy), home);
        }
        assert_eq!(policy.spills(), 0);

        // Saturate the home replica: the next turn spills, and the
        // spill target has headroom.
        let mut strained = roomy.clone();
        strained[home] = snap(0, 8, 9_990, 10_000);
        let pick = policy.route(&turn(key, 200), &strained);
        assert_ne!(pick, home, "saturated home must spill");
        assert!(!strained[pick].kv_saturated_for(200));
        assert_eq!(policy.spills(), 1);
    }

    /// Affinity reads its home while the home keeps the turn, the whole
    /// fleet once it would spill or for a prefix-free request.
    /// Shared-tier affinity reads like prefix affinity until it relaxes;
    /// join-shortest-queue always reads the whole fleet.
    #[test]
    fn reads_name_what_route_looks_at() {
        let key = 42;
        let roomy = vec![snap(0, 2, 1_000, 10_000); 4];
        let home = home_replica(key, roomy.len());
        let mut saturated = roomy.clone();
        saturated[home] = snap(0, 8, 9_990, 10_000);
        let reads = |spec: PolicySpec, fleet: &[ReplicaSnapshot], request: &ServingRequest| {
            Router::new(spec).reads(&RouteContext::new(request, fleet))
        };
        for spec in [
            PolicySpec::prefix_affinity(),
            PolicySpec::shared_tier_affinity(),
        ] {
            assert_eq!(reads(spec, &roomy, &turn(key, 200)), Reads::One(home));
            assert_eq!(reads(spec, &saturated, &turn(key, 200)), Reads::Fleet);
            assert_eq!(reads(spec, &roomy, &req(200)), Reads::Fleet);
            // The answer matches what route does with the same context.
            assert_eq!(Router::new(spec).route(&turn(key, 200), &roomy), home);
        }
        let jsq = PolicySpec::JoinShortestQueue;
        assert_eq!(reads(jsq, &roomy, &turn(key, 200)), Reads::Fleet);
        assert_eq!(reads(jsq, &saturated, &turn(key, 200)), Reads::Fleet);

        // A resident prefix whose home is pressured relaxes shared-tier
        // affinity, which then reads the whole fleet; an idle home still
        // reads itself alone.
        let mut directory = GlobalKvTier::new(16);
        directory.publish(key, home, 256);
        let mut hot = roomy.clone();
        hot[home] = snap(3, 2, 1_000, 10_000);
        let request = turn(key, 200);
        let router = Router::new(PolicySpec::shared_tier_affinity());
        let shared = |fleet| RouteContext::new(&request, fleet).with_shared_prefixes(&directory);
        assert_eq!(router.reads(&shared(&roomy)), Reads::One(home));
        assert_eq!(router.reads(&shared(&hot)), Reads::Fleet);
    }

    /// On a colliding point the ring keeps the lowest member that is in
    /// the membership, so filtering must come before deduplication.
    #[test]
    fn ring_points_filter_before_deduplicating() {
        let points = RingPoints {
            points: vec![(5, 0), (5, 1), (9, 1)],
        };
        assert_eq!(points.ring(|_| true).points, vec![(5, 0), (9, 1)]);
        assert_eq!(points.ring(|m| m == 1).points, vec![(5, 1), (9, 1)]);
        assert!(points.ring(|_| false).points.is_empty());
    }

    #[test]
    fn prefix_affinity_spreads_distinct_conversations() {
        let fleet = vec![snap(0, 0, 0, 10_000); 8];
        let homes: std::collections::BTreeSet<usize> = (0..64)
            .map(|key| {
                let mut policy = Router::new(PolicySpec::prefix_affinity());
                policy.route(&turn(key, 100), &fleet)
            })
            .collect();
        assert!(
            homes.len() >= 6,
            "64 conversations should hash across most of 8 replicas, hit {homes:?}"
        );
    }

    #[test]
    fn spill_never_relands_home_silently() {
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        let key = 7;
        // Every replica is saturated for the turn, the home least: the
        // fallback keeps the request home and that is NOT a spill.
        let mut fleet = vec![snap(0, 0, 9_990, 10_000); 3];
        let home = home_replica(key, fleet.len());
        fleet[home] = snap(0, 1, 9_900, 10_000);
        let pick = policy.route(&turn(key, 200), &fleet);
        assert_eq!(pick, home, "the home is the least pressured");
        assert_eq!(policy.spills(), 0, "staying home is not a spill");
        // Give another replica headroom: now the same request spills,
        // and the counter moves.
        let other = (home + 1) % fleet.len();
        fleet[other] = snap(0, 0, 1_000, 10_000);
        let pick = policy.route(&turn(key, 200), &fleet);
        assert_eq!(pick, other);
        assert_eq!(policy.spills(), 1);
    }

    /// The home keeps a turn whose blocks fill its budget exactly and
    /// spills one that needs a block more.
    #[test]
    fn home_keeps_a_turn_that_exactly_fills_its_budget() {
        let key = 7;
        let mut fleet = vec![snap(0, 0, 0, 100); 3];
        for replica in &mut fleet {
            replica.kv_block_size = 16;
        }
        let home = home_replica(key, fleet.len());
        // 70 blocks in use, 10 of them evictable: 60 committed.
        fleet[home].kv_blocks_in_use = 70;
        fleet[home].kv_evictable_blocks = 10;
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        // 60 committed + 40 blocks of 640 tokens = the 100-block budget.
        assert_eq!(policy.route(&turn(key, 640), &fleet), home);
        assert_eq!(policy.spills(), 0);
        // 641 tokens need a 41st block: the turn spills to a replica
        // with room.
        let pick = policy.route(&turn(key, 641), &fleet);
        assert_ne!(pick, home);
        assert!(!fleet[pick].kv_saturated_for(641));
        assert_eq!(policy.spills(), 1);
    }

    #[test]
    fn prefix_free_requests_fall_back_to_jsq() {
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        let fleet = vec![
            snap(4, 8, 100, 10_000),
            snap(1, 3, 100, 10_000),
            snap(2, 8, 100, 10_000),
        ];
        let pick = policy.route(&req(50), &fleet);
        assert_eq!(pick, 1, "no hint: least-loaded replica");
    }

    /// A replica snapshot at `queued`/`kv` with an explicit role.
    fn role_snap(role: ReplicaRole, queued: usize, kv: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            role,
            ..snap(queued, 0, kv, 10_000)
        }
    }

    #[test]
    fn every_builtin_skips_decode_only_replicas() {
        // Replica 1 is decode-only and by every metric the most
        // attractive target — each built-in must still avoid it.
        let fleet = vec![
            role_snap(ReplicaRole::Prefill, 5, 8_000),
            role_snap(ReplicaRole::Decode, 0, 0),
            role_snap(ReplicaRole::Colocated, 3, 4_000),
        ];
        for spec in [
            PolicySpec::JoinShortestQueue,
            PolicySpec::prefix_affinity(),
            PolicySpec::shared_tier_affinity(),
        ] {
            let mut policy = Router::new(spec);
            for key in 0..16u64 {
                let request = turn(key, 100);
                let pick = policy.route(&request, &fleet);
                assert_ne!(pick, 1, "{spec:?} routed an arrival to a decode replica");
            }
        }
    }

    #[test]
    fn role_capabilities() {
        assert!(ReplicaRole::Colocated.accepts_arrivals());
        assert!(ReplicaRole::Colocated.can_decode());
        assert!(ReplicaRole::Prefill.accepts_arrivals());
        assert!(!ReplicaRole::Prefill.can_decode());
        assert!(!ReplicaRole::Decode.accepts_arrivals());
        assert!(ReplicaRole::Decode.can_decode());
        assert_eq!(ReplicaRole::default(), ReplicaRole::Colocated);
        assert_eq!(ReplicaRole::Prefill.to_string(), "prefill");
    }

    #[test]
    fn tier_pressure_reads_the_capacity_tier() {
        let mut s = snap(0, 0, 0, 1_000);
        assert_eq!(s.tier_pressure(), 0.0, "no tier, no pressure");
        s.kv_tier_budget_blocks = 200;
        s.kv_tier_blocks_in_use = 50;
        assert!((s.tier_pressure() - 0.25).abs() < 1e-12);
        s.kv_tier_blocks_in_use = 200;
        assert_eq!(s.tier_pressure(), 1.0);
    }

    #[test]
    fn shared_tier_affinity_relaxes_only_for_resident_prefixes() {
        let key = 42;
        let fleet_size = 4;
        let idle = vec![snap(0, 2, 1_000, 10_000); fleet_size];
        let home = home_replica(key, fleet_size);
        let mut directory = GlobalKvTier::new(16);
        directory.publish(key, home, 256);

        // No directory attached: identical to prefix-affinity.
        let mut policy = Router::new(PolicySpec::shared_tier_affinity());
        assert_eq!(policy.route(&turn(key, 100), &idle), home);
        assert_eq!(policy.relaxed(), 0);

        // Resident prefix, idle home: stickiness still wins.
        let request = turn(key, 100);
        let ctx = RouteContext::new(&request, &idle).with_shared_prefixes(&directory);
        assert_eq!(RoutePolicy::route(&mut policy, &ctx), home);
        assert_eq!(policy.relaxed(), 0);

        // Pressured home + resident prefix: relax to JSQ.
        let mut hot = idle.clone();
        hot[home] = snap(3, 8, 1_000, 10_000);
        let other = (home + 1) % fleet_size;
        hot[other] = snap(0, 0, 1_000, 10_000);
        let ctx = RouteContext::new(&request, &hot).with_shared_prefixes(&directory);
        assert_eq!(
            RoutePolicy::route(&mut policy, &ctx),
            other,
            "remote fetch beats the hot queue"
        );
        assert_eq!(policy.relaxed(), 1);

        // Pressured home, prefix NOT in the directory: stay sticky —
        // moving would cold-start the conversation.
        let absent = key + 1;
        let stranger_home = home_replica(absent, fleet_size);
        let mut hot = idle.clone();
        hot[stranger_home] = snap(3, 8, 1_000, 10_000);
        let stranger = turn(absent, 100);
        let ctx = RouteContext::new(&stranger, &hot).with_shared_prefixes(&directory);
        assert_eq!(RoutePolicy::route(&mut policy, &ctx), stranger_home);
        assert_eq!(policy.relaxed(), 1, "non-resident never relaxes");

        // A full private tier at the home also counts as pressure.
        let mut churning = idle.clone();
        churning[home].kv_tier_budget_blocks = 100;
        churning[home].kv_tier_blocks_in_use = 100;
        let ctx = RouteContext::new(&request, &churning).with_shared_prefixes(&directory);
        let pick = RoutePolicy::route(&mut policy, &ctx);
        assert_eq!(policy.relaxed(), 2, "full tier relaxes stickiness");
        assert!(pick < fleet_size);
    }

    #[test]
    fn migration_policies_place_only_on_decode_capable_replicas() {
        // Replica 0 (prefill) is empty and would win on load; the
        // migration built-in must skip it.
        let fleet = vec![
            role_snap(ReplicaRole::Prefill, 0, 0),
            role_snap(ReplicaRole::Decode, 2, 6_000),
            role_snap(ReplicaRole::Decode, 5, 2_000),
        ];
        let request = req(100);
        let ctx = MigrationContext {
            request: &request,
            kv_tokens: 100,
            source: 0,
            replicas: &fleet,
        };
        assert_eq!(
            MigrationSpec::JoinShortestQueue.place(&ctx),
            1,
            "fewest responsible requests"
        );
        // JSQ skips a KV-saturated decode replica while another has
        // headroom.
        let strained = vec![
            role_snap(ReplicaRole::Prefill, 0, 0),
            role_snap(ReplicaRole::Decode, 0, 9_950),
            role_snap(ReplicaRole::Decode, 5, 2_000),
        ];
        let ctx = MigrationContext {
            request: &request,
            kv_tokens: 100,
            source: 0,
            replicas: &strained,
        };
        assert_eq!(MigrationSpec::JoinShortestQueue.place(&ctx), 2);
    }

    /// A replica snapshot with an explicit lifecycle state.
    fn lifecycle_snap(lifecycle: ReplicaState, queued: usize, kv: u64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            lifecycle,
            ..snap(queued, 0, kv, 10_000)
        }
    }

    #[test]
    fn lifecycle_capabilities() {
        assert!(ReplicaState::Active.serves_traffic());
        assert!(!ReplicaState::Warming.serves_traffic());
        assert!(!ReplicaState::Draining.serves_traffic());
        assert!(!ReplicaState::Retired.serves_traffic());
        assert_eq!(ReplicaState::default(), ReplicaState::Active);
        assert_eq!(ReplicaState::Draining.to_string(), "draining");
    }

    #[test]
    fn every_builtin_skips_non_active_replicas() {
        // Replica 1 (warming) and replica 3 (draining) are by every
        // metric the most attractive targets — each built-in must
        // still avoid them.
        let fleet = vec![
            lifecycle_snap(ReplicaState::Active, 5, 8_000),
            lifecycle_snap(ReplicaState::Warming, 0, 0),
            lifecycle_snap(ReplicaState::Active, 3, 4_000),
            lifecycle_snap(ReplicaState::Draining, 0, 0),
            lifecycle_snap(ReplicaState::Retired, 0, 0),
        ];
        for spec in [
            PolicySpec::JoinShortestQueue,
            PolicySpec::prefix_affinity(),
            PolicySpec::shared_tier_affinity(),
        ] {
            let mut policy = Router::new(spec);
            for key in 0..16u64 {
                let request = turn(key, 100);
                let pick = policy.route(&request, &fleet);
                assert!(
                    matches!(pick, 0 | 2),
                    "{spec:?} routed an arrival to non-active replica {pick}"
                );
            }
        }
    }

    #[test]
    fn migration_builtins_skip_non_active_replicas() {
        let fleet = vec![
            lifecycle_snap(ReplicaState::Draining, 0, 0),
            lifecycle_snap(ReplicaState::Active, 2, 6_000),
            lifecycle_snap(ReplicaState::Warming, 0, 0),
        ];
        let request = req(100);
        let ctx = MigrationContext {
            request: &request,
            kv_tokens: 100,
            source: 0,
            replicas: &fleet,
        };
        assert_eq!(MigrationSpec::JoinShortestQueue.place(&ctx), 1);
    }

    #[test]
    fn ring_is_deterministic_and_covers_members() {
        let ring = HashRing::new(&[0, 1, 2, 3]);
        assert_eq!(ring, HashRing::new(&[3, 2, 1, 0]), "order-independent");
        // Every key homes to a member, identically across calls.
        for key in 0..256u64 {
            let home = ring.home(key).unwrap();
            assert!(home < 4);
            assert_eq!(ring.home(key), Some(home));
        }
        // All members receive a share of the keyspace.
        let homes: std::collections::BTreeSet<usize> =
            (0..512u64).map(|k| ring.home(k).unwrap()).collect();
        assert_eq!(homes.len(), 4, "512 keys must touch all 4 members");
        assert!(HashRing::new(&[]).points.is_empty());
        assert_eq!(HashRing::new(&[]).home(7), None);
    }

    #[test]
    fn ring_scale_event_remaps_a_bounded_fraction() {
        let before = HashRing::new(&[0, 1, 2, 3]);
        let after = HashRing::new(&[0, 1, 2, 3, 4]);
        let keys = 4_000u64;
        let moved = (0..keys)
            .filter(|&k| before.home(k) != after.home(k))
            .count();
        // Ideal remap on 4→5 members is 1/5 of keys; vnode variance
        // stays well under double that. Mod-N hashing would move ~4/5.
        assert!(
            (moved as f64) < keys as f64 * 0.4,
            "adding one member moved {moved}/{keys} homes"
        );
        assert!(moved > 0, "a scale event must move some homes");
        // Every moved key moved *to* the new member (pure accretion).
        for k in 0..keys {
            if before.home(k) != after.home(k) {
                assert_eq!(after.home(k), Some(4));
            }
        }
    }

    #[test]
    fn affinity_uses_the_ring_when_attached() {
        let fleet = vec![snap(0, 0, 1_000, 10_000); 4];
        let ring = HashRing::new(&[0, 1, 2, 3]);
        let key = 42;
        let request = turn(key, 100);
        let ctx = RouteContext::new(&request, &fleet).with_ring(&ring);
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        assert_eq!(
            RoutePolicy::route(&mut policy, &ctx),
            ring.home(key).unwrap()
        );
        // Without the ring: the classic modulo home.
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        assert_eq!(policy.route(&request, &fleet), home_replica(key, 4));
        // A ring over drained membership (member absent from the
        // active target set) falls back to the modulo home rather
        // than routing to a non-target.
        let stale = HashRing::new(&[17]);
        let ctx = RouteContext::new(&request, &fleet).with_ring(&stale);
        let mut policy = Router::new(PolicySpec::prefix_affinity());
        assert_eq!(RoutePolicy::route(&mut policy, &ctx), home_replica(key, 4));
    }

    #[test]
    fn migration_spec_round_trips_and_builds() {
        let spec = MigrationSpec::JoinShortestQueue;
        assert_eq!(spec.to_string().parse::<MigrationSpec>().unwrap(), spec);
        assert_eq!(spec.build().label(), spec.label());
        assert_eq!(MigrationSpec::default(), MigrationSpec::JoinShortestQueue);
        // Any other spelling, the old `decode-kv-pressure` included, is
        // an error, not a panic or a silent fallback to JSQ.
        for removed in ["teleport", "decode-kv-pressure"] {
            assert_eq!(
                removed.parse::<MigrationSpec>(),
                Err(format!(
                    "unknown migration policy {removed:?} (expected decode-jsq)"
                ))
            );
        }
    }

    #[test]
    fn router_serde_round_trip_resumes_mid_run() {
        // Route a prefix of the decisions, snapshot, restore, and check
        // the restored router continues exactly like the original —
        // spill counters and decision count both survive.
        for spec in [
            PolicySpec::JoinShortestQueue,
            PolicySpec::prefix_affinity(),
            PolicySpec::shared_tier_affinity(),
        ] {
            let fleet: Vec<ReplicaSnapshot> = (0..5)
                .map(|i| snap(i, i, 2_000 * i as u64, 10_000))
                .collect();
            let mut original = Router::new(spec);
            for k in 0..7u64 {
                original.route(&turn(k % 3, 100 + 700 * k), &fleet);
            }
            let snapshot = serde_json::to_string(&original).expect("router serializes");
            let mut restored: Router =
                serde_json::from_str(&snapshot).expect("router deserializes");
            assert_eq!(restored, original);
            for k in 0..11u64 {
                let request = turn(k % 4, 50 + 300 * k);
                assert_eq!(
                    restored.route(&request, &fleet),
                    original.route(&request, &fleet),
                    "{spec:?}: decision {k} diverged after restore"
                );
            }
            assert_eq!(restored.decisions(), original.decisions());
        }
    }
}
