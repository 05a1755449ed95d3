//! The online, event-driven serving engine.
//!
//! Where [`DecodingSimulator`](crate::engine::DecodingSimulator) prices
//! a pre-generated closed-batch trace, the [`ServingEngine`] runs the
//! regime the paper actually targets (§3.2, §5.2): requests arrive at
//! unknown times, join a queue, are admitted into the running batch by
//! continuous batching under KV-capacity pressure, prefill interleaves
//! with decode, and the online [`FcScheduler`] places the FC kernels
//! for every iteration from the parallelism it observes right then,
//! deciding anew whenever the batch shape changes. Simulated wall-clock
//! time advances by the priced cost of each step — through the same
//! [`IterationPricer`] the batch path uses, so the two paths can never
//! drift apart on hardware math.
//!
//! KV capacity is managed by the paged subsystem in `papi-kv`: every
//! live request holds a [`KvSeq`] of refcounted blocks in a
//! [`KvBlockPool`], admission and preemption are block-granular, and
//! three opt-in extensions ride on the paging:
//!
//! - **prefix sharing** ([`SessionTuning::prefix_sharing`]):
//!   requests carrying a [`PrefixHint`] fork
//!   cached full blocks of earlier contexts (shared system prompts,
//!   conversation history) instead of re-prefilling them — saving both
//!   prefill work and physical capacity;
//! - **chunked prefill** ([`SessionTuning::prefill_chunk`]):
//!   prompts are prefilled in bounded-token chunks interleaved with
//!   decode iterations (shortest-remaining-first), so one giant prompt
//!   can no longer stall the whole batch for a monolithic wave;
//! - **block sizing** ([`SessionTuning::kv_block_size`]): the
//!   paging granularity. Block size 1 with sharing and chunking off is
//!   the scalar configuration — it reproduces the pre-paging engine's
//!   `ServingReport` bit for bit (pinned by `tests/paged_equality.rs`).
//!
//! A session is configured only through [`SessionTuning`]:
//! [`ServingEngine::new`] takes the scalar default and
//! [`ServingEngine::with_tuning`] replaces it.
//!
//! The output is a [`ServingReport`]: per-request lifecycle records
//! (queueing delay, TTFT, TPOT, end-to-end) with percentile summaries,
//! SLO goodput, and the cache counters in [`KvCacheStats`].

use crate::config::SystemConfig;
use crate::interconnect::{LinkSpec, TransferCost};
use crate::metrics::{PhaseBreakdown, RequestRecord, RunLength, ServingReport};
use crate::prefill::{prefill_cost_for, PromptStats};
use crate::pricer::{IterationPricer, ShapeTable};
use papi_kv::{
    GlobalKvTier, KvBlockPool, KvCacheStats, KvSeq, KvSeqExport, KvTier, PrefixHint, PrefixTree,
};
use papi_sched::{FcScheduler, Placement};
use papi_types::{Bytes, Energy, Time};
use papi_workload::{
    ReplicaSnapshot, RequestState, ServingRequest, ServingWorkload, SpeculativeConfig, TlpPolicy,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default cap on the running batch (the scheduler window).
pub(crate) const DEFAULT_MAX_BATCH: u64 = 64;
/// Default fraction of the Attn-PIM pool admission may plan into; the
/// remainder absorbs KV growth between admission and completion.
pub(crate) const DEFAULT_KV_HEADROOM: f64 = 0.85;
/// Safety valve against runaway episodes: a session panics past this
/// many decode iterations.
const MAX_ITERATIONS: u64 = 10_000_000;

/// The session knobs every serving surface shares — one struct consumed
/// by [`ServingEngine`] directly and by
/// [`ClusterSpec`](crate::cluster::ClusterSpec) for each replica, so
/// the knob set can never drift between the single-node and fleet
/// layers. The default is the scalar configuration: block size 1, no
/// prefix sharing, monolithic prefill, block-granular admission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTuning {
    /// Cap on the running batch (RLP never exceeds this).
    pub max_batch: u64,
    /// Fraction of the Attn-PIM pool admission may plan into.
    pub kv_headroom: f64,
    /// KV paging granularity in tokens per block (1 = exact scalar
    /// token accounting).
    pub kv_block_size: u64,
    /// Whether copy-on-write prefix sharing is on.
    pub prefix_sharing: bool,
    /// Per-step chunked-prefill token budget (`None` prices each
    /// admission wave monolithically).
    pub prefill_chunk: Option<u64>,
    /// KV capacity tier below the attention pool (`None` — the default
    /// — keeps plain eviction). Requires `prefix_sharing`.
    pub kv_tier: Option<KvTierSpec>,
}

impl Default for SessionTuning {
    fn default() -> Self {
        Self {
            max_batch: DEFAULT_MAX_BATCH,
            kv_headroom: DEFAULT_KV_HEADROOM,
            kv_block_size: 1,
            prefix_sharing: false,
            prefill_chunk: None,
            kv_tier: None,
        }
    }
}

/// Declarative configuration of the KV capacity tier: the host-DRAM /
/// DIMM-PIM pool cold prefixes spill into instead of being evicted
/// outright (L3's DIMM tier, PIM-AI's DIMM devices), and are fetched
/// back from — at a priced transfer — when a request re-lands on them.
///
/// The tier shares the hot pool's block size so budgets compare
/// directly. The session spills every evicted non-empty prefix into
/// it and fetches back every re-landed one the hot pool can make room
/// for. Only fetches are priced, each as one transfer over a DDR5
/// DIMM channel (`LinkSpec::ddr5_dimm`): a spill replaces an
/// eviction and writes back off the critical path, while a fetch's
/// latency lands in the admitted request's TTFT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvTierSpec {
    /// The tier's block budget (same block size as the hot pool).
    pub budget_blocks: u64,
}

impl KvTierSpec {
    /// A tier of `budget_blocks` blocks. `validate`
    /// rejects a zero budget.
    pub fn new(budget_blocks: u64) -> Self {
        Self { budget_blocks }
    }

    /// Range-checks the spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the knob if `budget_blocks` is zero.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.budget_blocks == 0 {
            return Err("tier budget must be positive".to_owned());
        }
        Ok(())
    }
}

impl SessionTuning {
    /// The default scalar configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the running batch.
    pub fn with_max_batch(mut self, max_batch: u64) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the admission-planning fraction of the KV pool.
    pub fn with_kv_headroom(mut self, headroom: f64) -> Self {
        self.kv_headroom = headroom;
        self
    }

    /// Sets the KV paging granularity in tokens per block (1 is exact
    /// scalar token accounting).
    pub fn with_kv_block_size(mut self, block_size: u64) -> Self {
        self.kv_block_size = block_size;
        self
    }

    /// Enables copy-on-write prefix sharing: requests whose
    /// [`PrefixHint`]s name a cached context fork its full blocks
    /// instead of re-prefilling them, and completed contexts are
    /// published back into the cache.
    pub fn with_prefix_sharing(mut self, enabled: bool) -> Self {
        self.prefix_sharing = enabled;
        self
    }

    /// Enables chunked prefill: each step prefills at most
    /// `chunk_tokens` prompt tokens (shortest-remaining-first across
    /// the admitted-but-unprefilled requests), interleaved with decode
    /// iterations.
    pub fn with_prefill_chunk(mut self, chunk_tokens: u64) -> Self {
        self.prefill_chunk = Some(chunk_tokens);
        self
    }

    /// Configures the KV capacity tier: under pool pressure cold
    /// prefixes spill into a host-DRAM/DIMM-PIM pool instead of being
    /// evicted, and are fetched back — at a DIMM-channel transfer
    /// whose latency lands in TTFT — when a later request
    /// re-lands on them. The tier rides the prefix cache, so
    /// `prefix_sharing` must also be on by the time the tuning is
    /// validated.
    pub fn with_kv_tier(mut self, tier: KvTierSpec) -> Self {
        self.kv_tier = Some(tier);
        self
    }

    /// Checks every range invariant — the one guard, whether the tuning
    /// came from the `with_*` builders, a struct literal or serde.
    /// [`ServingEngine::with_tuning`] panics with this message and
    /// [`ClusterEngine::new`](crate::cluster::ClusterEngine::new)
    /// returns it as a `FleetSpecError`, so an out-of-range config fails
    /// immediately instead of wedging an episode later.
    ///
    /// # Errors
    ///
    /// Returns a message naming the knob if `max_batch`,
    /// `kv_block_size`, or `prefill_chunk` is zero, `kv_headroom` is
    /// outside `(0, 1]`, or a KV tier fails `KvTierSpec::validate` or
    /// rides without prefix sharing.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be positive".to_owned());
        }
        if !(self.kv_headroom > 0.0 && self.kv_headroom <= 1.0) {
            return Err(format!(
                "kv headroom must be in (0, 1], got {}",
                self.kv_headroom
            ));
        }
        if self.kv_block_size == 0 {
            return Err("kv block size must be positive".to_owned());
        }
        if self.prefill_chunk == Some(0) {
            return Err("prefill chunk must be positive".to_owned());
        }
        if let Some(tier) = &self.kv_tier {
            tier.validate()?;
            if !self.prefix_sharing {
                return Err(
                    "the KV capacity tier rides the prefix cache: enable prefix_sharing".to_owned(),
                );
            }
        }
        Ok(())
    }
}

/// Online continuous-batching simulator over one [`SystemConfig`].
/// Every session it opens prices through one shape table, shared by
/// its clones.
#[derive(Debug, Clone)]
pub struct ServingEngine {
    config: SystemConfig,
    rows: Arc<ShapeTable>,
    tuning: SessionTuning,
}

impl ServingEngine {
    /// Wraps a system configuration with the default [`SessionTuning`]
    /// (scalar KV accounting: block size 1, no prefix sharing,
    /// monolithic prefill, block-granular admission).
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            rows: Arc::default(),
            tuning: SessionTuning::default(),
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The session knobs this engine runs with.
    pub(crate) fn tuning(&self) -> &SessionTuning {
        &self.tuning
    }

    /// Replaces the whole knob set — the one way to configure the
    /// sessions this engine opens.
    ///
    /// # Panics
    ///
    /// Panics with the [`SessionTuning::validate`] message if the
    /// tuning is out of range.
    #[track_caller]
    pub fn with_tuning(mut self, tuning: SessionTuning) -> Self {
        if let Err(msg) = tuning.validate() {
            panic!("{msg}");
        }
        self.tuning = tuning;
        self
    }

    /// Serves one episode to completion.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the design's weight pool, if a
    /// single request's KV cache cannot fit the attention pool, or if
    /// the episode exceeds the iteration safety valve.
    pub fn run(&self, workload: &ServingWorkload) -> ServingReport {
        let mut session = self.open_session(workload);
        for request in workload.requests() {
            session.push(request);
        }
        while session.step() == SessionStatus::Advanced {}
        session.into_report()
    }

    /// Opens an incremental session: the engine's state machine without
    /// any requests ingested. The caller pushes [`ServingRequest`]s (in
    /// arrival order) and drives [`ServingSession::step`] — this is the
    /// seam the cluster layer co-simulates replicas through.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the design's weight pool, or if
    /// the attention pool cannot hold even one KV block.
    pub fn open_session(&self, workload: &ServingWorkload) -> ServingSession<'_> {
        if let Err(msg) = self.config.validate_capacity(0.0) {
            panic!("{msg}");
        }
        let kv_bytes_per_token = self.config.model.kv_bytes_per_token().value();
        let pool_bytes = self.config.attn_pool_bytes();
        let admit_budget_tokens =
            (pool_bytes * self.tuning.kv_headroom / kv_bytes_per_token) as u64;
        let hard_budget_tokens = (pool_bytes / kv_bytes_per_token) as u64;
        let total_blocks = hard_budget_tokens / self.tuning.kv_block_size;
        assert!(
            total_blocks > 0,
            "{}: the attention pool cannot hold a single {}-token KV block",
            self.config.design,
            self.tuning.kv_block_size
        );
        let pool = KvBlockPool::new(self.tuning.kv_block_size, total_blocks);
        let tier = self.tuning.kv_tier.as_ref().map(|spec| TierState {
            tier: KvTier::new(self.tuning.kv_block_size, spec.budget_blocks),
            link: LinkSpec::ddr5_dimm(),
            block_bytes: self.config.model.kv_bytes_per_token() * self.tuning.kv_block_size as f64,
        });
        ServingSession {
            engine: self,
            speculation: workload.speculation,
            tlp_policy: workload.tlp_policy,
            admit_budget_blocks: admit_budget_tokens / self.tuning.kv_block_size,
            prefix_tree: self.tuning.prefix_sharing.then(PrefixTree::new),
            kv_stats: KvCacheStats {
                block_size: self.tuning.kv_block_size,
                total_blocks,
                tier_budget_blocks: tier.as_ref().map_or(0, |t| t.tier.budget_blocks()),
                ..Default::default()
            },
            tier,
            global: None,
            pool,
            scheduler: self.config.scheduler.build(),
            pricer: IterationPricer::with_rows(&self.config, Arc::clone(&self.rows)),
            requests: Vec::new(),
            seqs: Vec::new(),
            prefilled: Vec::new(),
            available_s: Vec::new(),
            premigrated: Vec::new(),
            admitted_s: Vec::new(),
            first_token_s: Vec::new(),
            export_prefills: false,
            egress: Vec::new(),
            exported: 0,
            kv_tokens: 0,
            prefilling_kv_tokens: 0,
            clock: 0.0,
            next_arrival: 0,
            queue: VecDeque::new(),
            live: Vec::new(),
            scratch_idx: Vec::new(),
            scratch_lanes: Vec::new(),
            phases: PhaseBreakdown::default(),
            energy: Energy::ZERO,
            prefill_time: Time::ZERO,
            placements: RunLength::default(),
            rlp_series: RunLength::default(),
            records: Vec::new(),
            iterations: 0,
            tokens: 0,
            preemptions: 0,
            peak_rlp: 0,
            peak_kv_tokens: 0,
        }
    }
}

/// One decode-ready sequence leaving a prefill-role session: the
/// request (prefill complete, nothing generated), the KV export its
/// destination re-materializes, and the timestamps the fleet needs to
/// price and account the handoff.
///
/// Produced by sessions in [prefill-export
/// mode](ServingSession::enable_prefill_export), delivered to a
/// decode-side session via [`ServingSession::push_migrated`]. While in
/// flight the sequence occupies *neither* pool — the source released
/// its blocks at export, and the destination allocates at admission.
#[derive(Debug, Clone)]
pub(crate) struct PrefillHandoff {
    /// The request, with its prompt fully prefilled and `generated`
    /// still zero.
    pub request: ServingRequest,
    /// When the source session first admitted it (the queueing-delay
    /// endpoint carried into the final record).
    pub admitted_s: f64,
    /// The detached KV sequence: logical tokens plus the source pool's
    /// block footprint (the priced payload size).
    pub kv: KvSeqExport,
    /// Source-session clock when the export happened (the transfer
    /// departs here).
    pub ready_s: f64,
}

/// What one [`ServingSession::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Ran one admission + decode round (the clock advanced).
    Advanced,
    /// Nothing to do: every pushed request has finished (or none were
    /// pushed). More pushes can wake the session up again.
    Idle,
}

/// One cross-replica prefix re-materialization, for the cluster
/// engine's fleet-level accounting: which record was fetched from which
/// owning replica, how many tokens crossed the fabric, and what the
/// wire charged. The time and energy are *already* applied to the
/// fetching session (TTFT and session energy); the event exists so the
/// fleet report can attribute the traffic without double-charging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RemoteFetchEvent {
    /// The conversation-prefix key that was re-materialized.
    pub key: u64,
    /// Replica index the fleet-wide directory names as the record's
    /// owner (the copy-out source).
    pub owner: usize,
    /// Logical tokens restored across the fabric.
    pub tokens: u64,
    /// What the transfer cost on the wire.
    pub cost: TransferCost,
}

/// The fleet-shared tier's per-session runtime state: a frozen view of
/// the fleet-wide directory (re-installed only at control-plane
/// barriers, so parallel and sequential fleet stepping observe the
/// same snapshots), the fabric remote re-materializations cross, and the two egress queues the cluster engine
/// drains at barriers in deterministic replica order.
#[derive(Debug)]
struct GlobalTierState {
    /// This replica's index in the fleet (its identity in the
    /// directory; a record it owns is never remote-fetched).
    replica: usize,
    /// Frozen directory snapshot (handed back during barriers).
    view: Option<Arc<GlobalKvTier>>,
    /// The inter-node fabric a remote fetch is priced over.
    link: LinkSpec,
    /// Accepted local spills awaiting registration: `(key, tokens)`.
    publish_egress: Vec<(u64, u64)>,
    /// Remote fetches performed since the last drain.
    fetch_egress: Vec<RemoteFetchEvent>,
}

/// The capacity tier's runtime state: the tier itself and the DIMM
/// channel its fetches cross (with the per-block payload size
/// precomputed from the model's KV geometry).
#[derive(Debug)]
struct TierState {
    tier: KvTier,
    /// The DIMM channel ([`LinkSpec::ddr5_dimm`]), built once.
    link: LinkSpec,
    /// Bytes one KV block carries across the tier boundary — or the
    /// fleet fabric, since the shared tier always rides this one:
    /// `kv_bytes_per_token × block_size`.
    block_bytes: Bytes,
}

/// One decoding request's state during a decode leap, whose pool
/// appends wait for the leap's end.
#[derive(Debug, Clone, Copy)]
struct DecodeLane {
    /// Tokens banked during the leap, not yet appended.
    banked: u64,
    /// Unwritten slots left in the tail block, counting the banked
    /// tokens as written.
    slack: u64,
    /// Whether the first append copies a shared tail block on write.
    copy_on_write: bool,
}

/// One serving engine's in-flight state, steppable round by round.
///
/// [`ServingEngine::run`] is `open_session` + push everything + step to
/// completion. A [`ClusterEngine`](crate::cluster::ClusterEngine)
/// instead interleaves `step()` across replicas on a shared simulated
/// clock, pushing each request to the replica its router picks *at the
/// request's arrival time*.
pub struct ServingSession<'a> {
    engine: &'a ServingEngine,
    speculation: SpeculativeConfig,
    tlp_policy: TlpPolicy,
    admit_budget_blocks: u64,
    pool: KvBlockPool,
    prefix_tree: Option<PrefixTree>,
    /// The KV capacity tier, `Some` when the tuning configures one:
    /// prefix-cache eviction spills here, admission fork-misses probe
    /// here before re-prefilling.
    tier: Option<TierState>,
    /// The fleet-shared prefix tier, `Some` once the cluster engine
    /// calls [`enable_global_tier`](Self::enable_global_tier): local
    /// tier misses consult the fleet-wide directory and re-materialize
    /// remote records at inter-node fabric cost.
    global: Option<GlobalTierState>,
    kv_stats: KvCacheStats,
    scheduler: FcScheduler,
    pricer: IterationPricer<'a>,
    requests: Vec<ServingRequest>,
    /// One KV sequence per request index, `Some` while admitted.
    seqs: Vec<Option<KvSeq>>,
    /// Prefill progress per request index, in tokens (cached prefix
    /// tokens count as progress).
    prefilled: Vec<u64>,
    /// When this session may first see each request: the arrival time
    /// for ordinary pushes, the migration delivery time for
    /// [`push_migrated`](Self::push_migrated) entries (whose *record*
    /// keeps the original arrival for honest TTFT accounting).
    available_s: Vec<f64>,
    /// `Some` while the request's prefill is already paid: the KV
    /// export that arrived with a migrated sequence, consumed (via
    /// [`KvBlockPool::import_seq`]) at admission and cleared on
    /// preemption — recompute rebuilds the context locally.
    premigrated: Vec<Option<KvSeqExport>>,
    admitted_s: Vec<Option<f64>>,
    first_token_s: Vec<Option<f64>>,
    /// Prefill-export mode: requests leave at prefill completion as
    /// [`PrefillHandoff`]s instead of decoding here.
    export_prefills: bool,
    /// Handoffs exported since the last [`drain_egress`](Self::drain_egress).
    egress: Vec<PrefillHandoff>,
    /// Requests that left via export (they will never produce a record
    /// here; the decode-side session records them).
    exported: u64,
    /// Maintained invariant: logical KV tokens resident across live
    /// requests (the counter the scalar engine recomputed three times
    /// per step).
    kv_tokens: u64,
    /// Maintained invariant: the subset of `kv_tokens` belonging to
    /// requests still prefilling (zero unless chunked prefill is on).
    prefilling_kv_tokens: u64,
    clock: f64,
    next_arrival: usize, // index into arrival-sorted `requests`
    queue: VecDeque<usize>,
    live: Vec<usize>,
    /// Reused index scratch for the per-step decode batch: stepping is
    /// the fleet simulator's hot loop, and a fresh heap allocation per
    /// iteration is measurable at 64-replica scale.
    scratch_idx: Vec<usize>,
    /// Reused per-request state of a decode leap, parallel to the
    /// decode batch.
    scratch_lanes: Vec<DecodeLane>,
    phases: PhaseBreakdown,
    energy: Energy,
    prefill_time: Time,
    placements: RunLength<Placement>,
    rlp_series: RunLength<u64>,
    records: Vec<RequestRecord>,
    iterations: u64,
    tokens: u64,
    preemptions: u64,
    peak_rlp: u64,
    peak_kv_tokens: u64,
}

impl core::fmt::Debug for ServingSession<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServingSession")
            .field("design", &self.engine.config.design)
            .field("clock", &self.clock)
            .field("queued", &self.queue.len())
            .field("live", &self.live.len())
            .field("finished", &self.records.len())
            .field("kv", &self.pool.stats())
            .finish_non_exhaustive()
    }
}

impl ServingSession<'_> {
    /// Hands a request to this session. Requests must arrive in
    /// non-decreasing arrival order (the router processes global
    /// arrivals chronologically, so this holds by construction).
    ///
    /// # Panics
    ///
    /// Panics if `request` arrives before the previously pushed one.
    #[track_caller]
    pub fn push(&mut self, request: ServingRequest) {
        let available_s = request.arrival_s;
        self.push_at(request, available_s, None, None);
    }

    /// Admits a migrated decode-ready sequence: a request whose prompt
    /// was prefilled on another (prefill-role) session, delivered here
    /// at `delivered_s` after its KV transfer. The request joins the
    /// queue like any arrival, but its admission allocates the whole
    /// KV footprint with *no* prefill work or cost — prefill was
    /// already paid at the source — and it starts decoding the step it
    /// is admitted. Its eventual [`RequestRecord`] keeps the original
    /// arrival and the source-side admission time, so TTFT honestly
    /// spans queueing + prefill + migration + first decode.
    ///
    /// If the request is later preempted under KV pressure, the paid
    /// prefill is forfeited: recompute-style re-admission prefills the
    /// whole context locally (this session can — roles are scheduling
    /// policy, not missing hardware).
    ///
    /// # Panics
    ///
    /// Panics if the handoff was delivered out of order relative to
    /// earlier pushes, or if it has already generated tokens.
    #[track_caller]
    pub(crate) fn push_migrated(&mut self, handoff: PrefillHandoff, delivered_s: f64) {
        let PrefillHandoff {
            mut request,
            admitted_s,
            kv,
            ready_s,
        } = handoff;
        assert_eq!(
            request.generated, 0,
            "a migrated sequence must be decode-ready, not mid-decode"
        );
        assert_eq!(
            kv.tokens,
            request.kv_len(),
            "handoff KV export disagrees with the request's footprint"
        );
        assert!(
            delivered_s >= ready_s,
            "migration delivered before it departed ({delivered_s} < {ready_s})"
        );
        request.state = RequestState::Queued;
        self.push_at(request, delivered_s, Some(kv), Some(admitted_s));
    }

    #[track_caller]
    fn push_at(
        &mut self,
        request: ServingRequest,
        available_s: f64,
        premigrated: Option<KvSeqExport>,
        admitted_s: Option<f64>,
    ) {
        if let Some(&last) = self.available_s.last() {
            assert!(
                available_s >= last,
                "requests must be pushed in arrival order ({available_s} after {last})",
            );
        }
        self.requests.push(request);
        self.seqs.push(None);
        self.prefilled.push(0);
        self.available_s.push(available_s);
        self.premigrated.push(premigrated);
        self.admitted_s.push(admitted_s);
        self.first_token_s.push(None);
    }

    /// Switches this session into prefill-export mode (a prefill-role
    /// replica): the moment a request's prompt is fully resident, its
    /// KV blocks are exported from the pool and the request leaves as
    /// a [`PrefillHandoff`] (collect with
    /// [`drain_egress`](Self::drain_egress)) instead of decoding here.
    pub(crate) fn enable_prefill_export(&mut self) {
        self.export_prefills = true;
    }

    /// Takes the handoffs exported since the last drain, in export
    /// order. Empty unless
    /// [`enable_prefill_export`](Self::enable_prefill_export) was
    /// called.
    pub(crate) fn drain_egress(&mut self) -> Vec<PrefillHandoff> {
        std::mem::take(&mut self.egress)
    }

    /// The session's simulated wall-clock, seconds since episode start.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Whether any pushed request has not yet finished here or left
    /// via prefill export.
    pub(crate) fn has_pending_work(&self) -> bool {
        (self.records.len() as u64 + self.exported) < self.requests.len() as u64
    }

    /// Logical KV tokens resident across live requests right now (the
    /// maintained counter; equals the sum of live `kv_len`s).
    pub fn kv_resident_tokens(&self) -> u64 {
        self.kv_tokens
    }

    /// The admission-relevant state the cluster router consumes. The
    /// role is reported as `Colocated`; a disaggregated cluster engine
    /// stamps each snapshot with the replica's configured role before
    /// handing it to a policy.
    pub fn snapshot(&self) -> ReplicaSnapshot {
        ReplicaSnapshot {
            role: papi_workload::ReplicaRole::Colocated,
            lifecycle: papi_workload::ReplicaState::Active,
            queued: self.queue.len() + (self.requests.len() - self.next_arrival),
            live: self.live.len(),
            kv_blocks_in_use: self.pool.blocks_in_use(),
            kv_evictable_blocks: self.evictable_blocks(),
            kv_budget_blocks: self.admit_budget_blocks,
            kv_block_size: self.pool.block_size(),
            kv_tier_blocks_in_use: self.tier.as_ref().map_or(0, |t| t.tier.blocks_in_use()),
            kv_tier_budget_blocks: self.tier.as_ref().map_or(0, |t| t.tier.budget_blocks()),
        }
    }

    /// Per-request records completed so far (in completion order),
    /// readable mid-run without waiting for the episode report.
    pub fn completed_records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Cold-starts this replica's caches: clears the prefix tree (and
    /// releases its block references) and drops every capacity-tier
    /// record. A retired replica's DRAM does not survive
    /// re-provisioning — the autoscaler calls this when a `Retired`
    /// replica spins back up, so its first requests re-prefill from
    /// scratch.
    pub(crate) fn flush_caches(&mut self) {
        if let Some(tree) = self.prefix_tree.as_mut() {
            tree.clear(&mut self.pool);
        }
        if let Some(tier) = self.tier.as_mut() {
            tier.tier.clear();
        }
    }

    /// Joins this session to a fleet-shared prefix tier as replica
    /// `replica`: accepted local spills queue for registration in the
    /// fleet-wide directory, and admission fork-misses that also miss
    /// the private tier consult `view` and re-materialize remote
    /// records at the cost of a transfer over `link` (the fabric). The caller — the
    /// cluster engine — re-installs a fresh frozen view at every
    /// control-plane barrier via
    /// [`install_global_view`](Self::install_global_view) and drains
    /// the egress queues in deterministic replica order.
    ///
    /// # Panics
    ///
    /// Panics if no private capacity tier is configured — the shared
    /// directory registers *spilled* records, so it rides
    /// [`KvTierSpec`] the same way the tier rides the prefix cache.
    #[track_caller]
    pub(crate) fn enable_global_tier(
        &mut self,
        replica: usize,
        link: LinkSpec,
        view: Arc<GlobalKvTier>,
    ) {
        assert!(
            self.tier.is_some(),
            "the fleet-shared tier registers spilled records: configure kv_tier first"
        );
        self.global = Some(GlobalTierState {
            replica,
            view: Some(view),
            link,
            publish_egress: Vec::new(),
            fetch_egress: Vec::new(),
        });
    }

    /// Replaces the frozen fleet-directory snapshot this session reads.
    /// No-op unless [`enable_global_tier`](Self::enable_global_tier)
    /// was called. The cluster engine calls this at control-plane
    /// barriers only — between barriers every replica reads the same
    /// frozen view, which is what keeps parallel and sequential fleet
    /// stepping bit-for-bit equal.
    pub(crate) fn install_global_view(&mut self, view: Arc<GlobalKvTier>) {
        if let Some(state) = self.global.as_mut() {
            state.view = Some(view);
        }
    }

    /// Drops this session's reference to the frozen fleet-directory
    /// snapshot, so a barrier can merge into it in place; re-install a
    /// view before stepping again.
    pub(crate) fn release_global_view(&mut self) {
        if let Some(state) = self.global.as_mut() {
            state.view = None;
        }
    }

    /// Whether accepted spills are waiting for fleet-wide registration
    /// (what [`drain_global_publishes`](Self::drain_global_publishes)
    /// would return is non-empty).
    pub(crate) fn has_global_publishes(&self) -> bool {
        self.global
            .as_ref()
            .is_some_and(|s| !s.publish_egress.is_empty())
    }

    /// Takes the `(key, tokens)` records this session's accepted spills
    /// queued for fleet-wide registration since the last drain. Empty
    /// unless the shared tier is enabled.
    pub(crate) fn drain_global_publishes(&mut self) -> Vec<(u64, u64)> {
        self.global
            .as_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.publish_egress))
    }

    /// Takes the cross-replica fetches this session performed since the
    /// last drain (their time and energy are already charged here; the
    /// events are for fleet-level attribution). Empty unless the shared
    /// tier is enabled.
    pub(crate) fn drain_global_fetches(&mut self) -> Vec<RemoteFetchEvent> {
        self.global
            .as_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.fetch_egress))
    }

    fn evictable_blocks(&self) -> u64 {
        self.prefix_tree
            .as_ref()
            .map_or(0, |tree| tree.evictable_blocks(&self.pool))
    }

    /// Evicts the coldest cached prefix — spilling it into the
    /// capacity tier (when one is configured and the prefix holds
    /// tokens) instead of forgetting it. Returns the blocks that became
    /// free, or `None` when there is no cache or nothing left to evict.
    fn relieve_prefix_cache(&mut self) -> Option<u64> {
        let tree = self.prefix_tree.as_mut()?;
        let evicted = tree.evict_lru_entry(&mut self.pool)?;
        self.kv_stats.prefix_evictions += 1;
        if let Some(state) = self.tier.as_mut().filter(|_| evicted.tokens > 0) {
            let outcome = state.tier.spill(evicted.key, evicted.tokens);
            if outcome.accepted {
                self.kv_stats.tier_spills += 1;
                self.kv_stats.tier_spilled_tokens += evicted.tokens;
                // Fleet-shared tier: an accepted spill queues for
                // registration in the fleet-wide directory at the
                // next control-plane barrier.
                if let Some(global) = self.global.as_mut() {
                    global.publish_egress.push((evicted.key, evicted.tokens));
                }
            }
            self.kv_stats.tier_evictions += outcome.evicted_entries;
            self.kv_stats.tier_peak_blocks = self
                .kv_stats
                .tier_peak_blocks
                .max(state.tier.blocks_in_use());
        }
        Some(evicted.freed)
    }

    /// Evicts (and spills) cold prefixes until `blocks` are free;
    /// returns whether they are.
    fn make_room(&mut self, blocks: u64) -> bool {
        while self.pool.free_blocks() < blocks {
            if self.relieve_prefix_cache().is_none() {
                return false;
            }
        }
        true
    }

    /// The block-aligned overlap of `stored` fetchable tokens with
    /// `hint`'s reusable prefix — when it is non-empty and the hot pool
    /// can make room for it. `None` sends the caller back to
    /// re-prefilling.
    fn plan_fetch(&mut self, hint: PrefixHint, stored: u64) -> Option<u64> {
        let block_size = self.pool.block_size();
        let usable = stored.min(hint.reuse_tokens / block_size * block_size);
        if usable == 0 {
            return None;
        }
        // If the hot pool stays too tight, skip the fetch and re-prefill.
        self.make_room(self.pool.blocks_for(usable))
            .then_some(usable)
    }

    /// Re-materializes `tokens` fetched tokens under `key` in the hot
    /// pool, republishes them into the prefix cache so successor turns
    /// fork them for free (the transfer happens once, not per turn),
    /// and prices the transfer over the source's link *on the serving
    /// critical path*: its latency lands in the admitted request's TTFT
    /// (via the session clock and prefill time), its energy in the
    /// report.
    fn land_fetch(&mut self, key: u64, tokens: u64, fleet: bool) -> (KvSeq, TransferCost) {
        let mut seq = self.pool.new_seq();
        assert!(
            self.pool.append(&mut seq, tokens),
            "prefix fetch allocation failed despite the room check"
        );
        if let Some(tree) = self.prefix_tree.as_mut() {
            if tree.publish(key, &seq, tokens, &mut self.pool) {
                self.kv_stats.prefix_insertions += 1;
            }
        }
        let tier = self
            .tier
            .as_ref()
            .expect("every fetch rides the private tier");
        let link = match &self.global {
            Some(global) if fleet => &global.link,
            _ => &tier.link,
        };
        let cost = TransferCost::over(link, self.pool.blocks_for(tokens), tier.block_bytes);
        self.clock += cost.time.value();
        self.prefill_time += cost.time;
        self.energy += cost.energy;
        (seq, cost)
    }

    /// On a prefix-cache fork miss, tries to restore the key's spilled
    /// context from the capacity tier. Returns `None` when there is no
    /// tier or no entry, or [`plan_fetch`](Self::plan_fetch) declines.
    fn try_tier_fetch(&mut self, hint: PrefixHint) -> Option<KvSeq> {
        let stored = self.tier.as_ref()?.tier.peek(hint.key)?;
        let usable = self.plan_fetch(hint, stored)?;
        // Making room may itself have spilled into the tier and
        // LRU-dropped the very entry being fetched — re-check.
        let fetched = self.tier.as_mut()?.tier.fetch(hint.key)?;
        let tokens = usable.min(fetched);
        let (seq, cost) = self.land_fetch(hint.key, tokens, false);
        self.kv_stats.tier_fetches += 1;
        self.kv_stats.tier_fetched_tokens += tokens;
        self.kv_stats.tier_fetch_time_s += cost.time.value();
        self.kv_stats.tier_fetch_energy_j += cost.energy.value();
        Some(seq)
    }

    /// On a miss in both the prefix cache and the private capacity
    /// tier, consults the fleet-wide directory: if *another* replica
    /// owns a spilled record under the key, copies the usable overlap
    /// out at inter-node fabric cost (the directory entry survives
    /// untouched) and queues a [`RemoteFetchEvent`] for the cluster
    /// engine's fleet-level attribution. Returns `None` when no shared
    /// tier is enabled, the key is unregistered, this replica owns the
    /// record (the local tier already ruled — it may have LRU-dropped
    /// it, and no one else holds a copy), or
    /// [`plan_fetch`](Self::plan_fetch) declines.
    fn try_global_fetch(&mut self, hint: PrefixHint) -> Option<KvSeq> {
        let state = self.global.as_ref()?;
        let entry = state.view.as_deref()?.lookup(hint.key)?;
        if entry.owner == state.replica {
            return None;
        }
        let tokens = self.plan_fetch(hint, entry.tokens)?;
        let (seq, cost) = self.land_fetch(hint.key, tokens, true);
        self.global
            .as_mut()
            .expect("shared tier checked above")
            .fetch_egress
            .push(RemoteFetchEvent {
                key: hint.key,
                owner: entry.owner,
                tokens,
                cost,
            });
        self.kv_stats.remote_fetches += 1;
        self.kv_stats.remote_fetched_tokens += tokens;
        self.kv_stats.remote_fetch_time_s += cost.time.value();
        self.kv_stats.remote_fetch_energy_j += cost.energy.value();
        Some(seq)
    }

    /// Whether a request reserving `prefill_tokens` KV tokens (its
    /// prompt, plus any regenerated context after a preemption) fits
    /// the headroom budget: the blocks committed to live work (in use
    /// minus what prefix-cache eviction could reclaim on demand) plus
    /// the whole prompt's blocks.
    fn fits_admission_budget(&self, prefill_tokens: u64) -> bool {
        let committed = self.pool.blocks_in_use() - self.evictable_blocks();
        committed + self.pool.blocks_for(prefill_tokens) <= self.admit_budget_blocks
    }

    /// Publishes request `idx`'s context (its shareable leading tokens,
    /// per its [`PrefixHint`]) into the prefix
    /// cache before the session lets go of `seq` — at completion, or at
    /// prefill export, so successor turns fork it either way.
    fn publish_context(&mut self, idx: usize, seq: &KvSeq) {
        if let (Some(tree), Some(hint)) =
            (self.prefix_tree.as_mut(), self.requests[idx].request.prefix)
        {
            if hint.publish_tokens > 0 {
                let publish = hint.publish_tokens.min(self.requests[idx].kv_len());
                if tree.publish(hint.key, seq, publish, &mut self.pool) {
                    self.kv_stats.prefix_insertions += 1;
                }
            }
        }
    }

    /// Takes live request `idx`'s sequence as it leaves the batch — by
    /// export, preemption or completion — and drops its tokens from the
    /// maintained resident counters. The caller hands the sequence back
    /// to the pool.
    fn detach_seq(&mut self, idx: usize) -> KvSeq {
        let request = &self.requests[idx];
        self.kv_tokens -= request.kv_len();
        if request.state == RequestState::Prefilling {
            self.prefilling_kv_tokens -= request.prefill_len();
        }
        self.seqs[idx]
            .take()
            .expect("live request holds a sequence")
    }

    /// Allocated-but-unwritten token slots across the live sequences,
    /// when they could still raise the peak fragmentation with `in_use`
    /// blocks in use or more: `None` at block size 1 (no slot is ever
    /// unwritten), with an empty pool, or when even the largest possible
    /// slack — `block_size - 1` per sequence — cannot beat the recorded
    /// peak.
    fn fragmentation_slack(&self, in_use: u64) -> Option<u64> {
        let block_size = self.pool.block_size();
        if block_size == 1 || in_use == 0 {
            return None;
        }
        let bound =
            (self.live.len() as u64 * (block_size - 1)) as f64 / (in_use * block_size) as f64;
        if bound <= self.kv_stats.peak_fragmentation {
            return None;
        }
        Some(
            self.live
                .iter()
                .filter_map(|&i| self.seqs[i].as_ref())
                .map(|seq| seq.slack(block_size))
                .sum(),
        )
    }

    /// Folds the current footprint into the peak statistics: `in_use`
    /// pool blocks and, from
    /// [`fragmentation_slack`](Self::fragmentation_slack), the unwritten
    /// slots across the live sequences. A decode leap passes its running
    /// counts, since its appends reach the pool only when it ends.
    fn track_kv_peaks(&mut self, in_use: u64, slack: Option<u64>) {
        // Resident logical tokens: every decoded context plus what
        // mid-prefill requests have actually written so far (their
        // cached prefix counts — those blocks are resident). With
        // monolithic prefill nothing is ever mid-prefill here, so this
        // reduces to the scalar engine's `total_kv_len + new_tokens`.
        let resident = if self.prefilling_kv_tokens == 0 {
            // Nothing mid-prefill (always true between monolithic
            // steps): every resident token is a decoded context's.
            self.kv_tokens
        } else {
            let written_prefilling: u64 = self
                .live
                .iter()
                .filter(|&&i| self.requests[i].state == RequestState::Prefilling)
                .map(|&i| self.prefilled[i])
                .sum();
            self.kv_tokens - self.prefilling_kv_tokens + written_prefilling
        };
        self.peak_kv_tokens = self.peak_kv_tokens.max(resident);
        self.kv_stats.peak_blocks_in_use = self.kv_stats.peak_blocks_in_use.max(in_use);
        if let Some(slack) = slack {
            let fraction = slack as f64 / (in_use * self.pool.block_size()) as f64;
            if fraction > self.kv_stats.peak_fragmentation {
                self.kv_stats.peak_fragmentation = fraction;
            }
        }
    }

    /// Runs one admission + prefill + decode round, advancing the clock
    /// by its priced cost. Returns [`SessionStatus::Idle`] when every
    /// pushed request has finished.
    ///
    /// A steady batch — every live request decoding, nothing queued,
    /// mid-prefill or due to arrive yet, no export duty — has no
    /// admission, prefill or export work to do, so its round is a
    /// one-iteration decode leap; the leap's pool-growth guard hands
    /// back to the full round when KV growth would need eviction or
    /// preemption.
    ///
    /// # Panics
    ///
    /// Panics if a single request's KV cache cannot fit the attention
    /// pool, or if the episode exceeds the engine's iteration safety
    /// valve.
    pub fn step(&mut self) -> SessionStatus {
        if !self.has_pending_work() {
            return SessionStatus::Idle;
        }
        self.advance(1, f64::INFINITY);
        SessionStatus::Advanced
    }

    /// Runs this session forward until its clock reaches `bound` or it
    /// runs out of work. Exactly equivalent to calling
    /// [`step`](Self::step) in a loop while
    /// [`has_pending_work`](Self::has_pending_work) holds and the clock
    /// is below `bound`, but a steady batch leaps: it decodes iteration
    /// after iteration in one call until a request finishes, the clock
    /// reaches `bound` or the next arrival, or KV growth needs the full
    /// round's eviction and preemption. The parallel cluster loop uses
    /// this to burst replicas between control-plane events.
    pub(crate) fn run_until(&mut self, bound: f64) {
        while self.has_pending_work() && self.clock < bound {
            self.advance(u64::MAX, bound);
        }
    }

    /// Advances like one [`step`](Self::step), or — with `limit` above
    /// one — like that many steady steps while the clock stays below
    /// `bound`: a decode leap when the batch is steady, else one full
    /// round.
    fn advance(&mut self, limit: u64, bound: f64) {
        papi_perf::phase!("step");
        // The next un-ingested arrival (for a migrated entry, its
        // delivery instant); the round ingests it once the clock
        // reaches it.
        let upcoming = self
            .available_s
            .get(self.next_arrival)
            .copied()
            .unwrap_or(f64::INFINITY);
        let steady = !self.live.is_empty()
            && upcoming > self.clock
            && self.queue.is_empty()
            && self.prefilling_kv_tokens == 0
            && !self.export_prefills;
        if steady {
            let mut decoding = std::mem::take(&mut self.scratch_idx);
            decoding.clear();
            decoding.extend_from_slice(&self.live);
            if self.decode(decoding, limit, bound.min(upcoming), true) > 0 {
                return;
            }
        }
        self.round();
    }

    /// The full round, stage by stage: ingest arrivals, admit from the
    /// queue, run the prefill wave, export completed prefills, relieve
    /// KV pressure, then decode one iteration over the ready batch.
    fn round(&mut self) {
        self.ingest();
        self.admit();
        let prefilled = self.prefill_wave();
        let exported = self.export_prefilled();
        self.relieve_pressure();
        self.decode_ready(prefilled || exported);
    }

    /// Queues every request available by the clock. An idle session
    /// first jumps its clock to the next arrival (for a migrated entry,
    /// its delivery instant — the original arrival is in the past).
    fn ingest(&mut self) {
        if self.live.is_empty() && self.queue.is_empty() {
            self.clock = self.clock.max(self.available_s[self.next_arrival]);
        }
        while self.next_arrival < self.requests.len()
            && self.available_s[self.next_arrival] <= self.clock
        {
            self.queue.push_back(self.next_arrival);
            self.next_arrival += 1;
        }
    }

    /// Continuous-batching admission under KV pressure: while the batch
    /// has room, the queue front joins if its whole prompt fits the
    /// block-granular headroom budget, cached prefixes counting as
    /// reclaimable. An empty batch always admits, so the budget can
    /// never stall the episode.
    fn admit(&mut self) {
        while (self.live.len() as u64) < self.engine.tuning.max_batch {
            let Some(&candidate) = self.queue.front() else {
                break;
            };
            let prefill_len = self.requests[candidate].prefill_len();
            let total_need = prefill_len + self.requests[candidate].remaining();
            assert!(
                self.pool.blocks_for(total_need) <= self.pool.total_blocks(),
                "{}: request {} alone ({} KV tokens) exceeds the attention pool",
                self.engine.config.design,
                self.requests[candidate].request.id,
                total_need,
            );
            // Plan against the full prompt (ignoring the cache discount)
            // so the allocation in `place` can never fail even if the
            // cached prefix turns out to be pinned.
            if !self.live.is_empty() && !self.fits_admission_budget(prefill_len) {
                break;
            }
            self.queue.pop_front();
            self.place(candidate);
        }
    }

    /// Gives admitted request `idx` its KV sequence and joins it to the
    /// batch: a forked or fetched cached prefix plus fresh blocks for
    /// the rest of the prompt, or — for a migrated (prefill-paid)
    /// sequence, whose context arrives whole over the fabric — its
    /// imported blocks.
    fn place(&mut self, idx: usize) {
        let prefill_len = self.requests[idx].prefill_len();
        let premigrated = self.premigrated[idx];
        let fork = if premigrated.is_none() {
            self.fork_prefix(idx)
        } else {
            None
        };
        let mut seq = fork.unwrap_or_else(|| self.pool.new_seq());
        // Reserve capacity for the whole (uncached) prompt now, evicting
        // cold prefixes if the pool runs short; the prefill *work* is
        // metered by the wave.
        let suffix = prefill_len - seq.tokens();
        self.make_room(self.pool.growth_blocks(seq.tokens(), suffix));
        match premigrated {
            Some(export) => {
                // Prefill was paid at the source: re-materialize the
                // exported sequence at this pool's granularity; the
                // whole context is resident the moment its blocks land
                // and the request is decode-ready without a wave.
                debug_assert_eq!(seq.tokens(), 0, "a migrated sequence forks no prefix");
                let imported = self.pool.import_seq(export).unwrap_or_else(|| {
                    panic!(
                        "{}: migration import failed despite the budget check",
                        self.engine.config.design
                    )
                });
                self.seqs[idx] = Some(imported);
                self.prefilled[idx] = prefill_len;
                self.requests[idx].state = RequestState::Decoding;
            }
            None => {
                assert!(
                    self.pool.append(&mut seq, suffix),
                    "{}: admission allocation failed despite the budget check",
                    self.engine.config.design,
                );
                self.seqs[idx] = Some(seq);
                self.prefilled[idx] = prefill_len - suffix;
                self.prefilling_kv_tokens += prefill_len;
                self.requests[idx].state = RequestState::Prefilling;
            }
        }
        self.kv_tokens += prefill_len;
        self.admitted_s[idx].get_or_insert(self.clock);
        self.live.push(idx);
    }

    /// Forks request `idx`'s cached prefix when sharing is on and its
    /// hint has one to reuse — falling back on a miss to a (priced)
    /// capacity-tier fetch, then to a fleet-shared one.
    fn fork_prefix(&mut self, idx: usize) -> Option<KvSeq> {
        let hint = self.requests[idx]
            .request
            .prefix
            .filter(|h| h.reuse_tokens > 0)?;
        let tree = self.prefix_tree.as_mut()?;
        self.kv_stats.prefix_lookups += 1;
        let fork = tree
            .fork(hint.key, hint.reuse_tokens, &mut self.pool)
            .or_else(|| self.try_tier_fetch(hint))
            .or_else(|| self.try_global_fetch(hint))?;
        self.kv_stats.prefix_hits += 1;
        self.kv_stats.cached_prompt_tokens += fork.tokens();
        Some(fork)
    }

    /// Prefills the admitted prompts: monolithic (every one at once) or
    /// chunked (a bounded token budget per step, shortest remaining
    /// first, interleaved with decode). Returns whether a wave ran.
    fn prefill_wave(&mut self) -> bool {
        // Decode-only rounds have nothing mid-prefill, and collecting
        // nothing allocates nothing.
        let mut pending: Vec<usize> = self
            .live
            .iter()
            .copied()
            .filter(|&i| self.requests[i].state == RequestState::Prefilling)
            .collect();
        if pending.is_empty() {
            return false;
        }
        if self.engine.tuning.prefill_chunk.is_some() {
            pending.sort_by_key(|&i| (self.requests[i].prefill_len() - self.prefilled[i], i));
        }
        let mut wave = PromptStats::default();
        let mut budget = self.engine.tuning.prefill_chunk.unwrap_or(u64::MAX);
        for i in pending {
            let remaining = self.requests[i].prefill_len() - self.prefilled[i];
            let grant = remaining.min(budget);
            if grant > 0 {
                wave.add_chunk(self.prefilled[i], grant);
                self.prefilled[i] += grant;
                budget -= grant;
            }
            if self.prefilled[i] == self.requests[i].prefill_len() {
                self.requests[i].state = RequestState::Decoding;
                self.prefilling_kv_tokens -= self.requests[i].prefill_len();
            }
            if budget == 0 {
                break;
            }
        }
        if wave.tokens == 0 {
            return false;
        }
        let cost = prefill_cost_for(&self.engine.config, wave);
        self.clock += cost.time.value();
        self.prefill_time += cost.time;
        self.energy += cost.energy;
        self.kv_stats.prefilled_tokens += wave.tokens;
        self.kv_stats.prefill_chunks += 1;
        true
    }

    /// Prefill export (prefill-role sessions only): every request whose
    /// prompt is now fully resident leaves as a handoff — its context
    /// is published into the local prefix cache (so later turns of the
    /// same conversation still fork it at admission), its blocks are
    /// exported from the pool, and the transfer departs at the
    /// post-wave clock. Returns whether any request left.
    fn export_prefilled(&mut self) -> bool {
        if !self.export_prefills {
            return false;
        }
        let before = self.exported;
        let mut pos = 0;
        while pos < self.live.len() {
            let idx = self.live[pos];
            if self.requests[idx].state != RequestState::Decoding {
                pos += 1;
                continue;
            }
            let seq = self.detach_seq(idx);
            self.publish_context(idx, &seq);
            let kv = self.pool.export_seq(seq);
            self.live.remove(pos);
            self.exported += 1;
            self.egress.push(PrefillHandoff {
                request: self.requests[idx].clone(),
                admitted_s: self.admitted_s[idx].expect("exported request was admitted"),
                kv,
                ready_s: self.clock,
            });
        }
        self.exported > before
    }

    /// KV-pressure relief: while this iteration's worst-case growth
    /// would overflow the physical pool, evict a cold cached prefix, or
    /// else push the newest request back to the queue (recompute-style)
    /// — never below a batch of one; the decode then proceeds and lets
    /// physical allocation assert. TLP is re-derived each pass: an
    /// adaptive policy *raises* speculation as the batch shrinks, so
    /// the growth bound must track the post-preemption batch.
    fn relieve_pressure(&mut self) {
        loop {
            let decoding = self
                .live
                .iter()
                .filter(|&&i| self.requests[i].state == RequestState::Decoding)
                .count() as u64;
            if decoding == 0 {
                break;
            }
            let tlp = self.tlp_policy.length_at(decoding, self.speculation.length);
            let growth: u64 = self
                .live
                .iter()
                .filter(|&&i| self.requests[i].state == RequestState::Decoding)
                .map(|&i| self.pool.growth_blocks(self.requests[i].kv_len(), tlp))
                .sum();
            if self.pool.blocks_in_use() + growth <= self.pool.total_blocks() {
                break;
            }
            if self.relieve_prefix_cache().is_some() {
                continue;
            }
            if self.live.len() <= 1 {
                break;
            }
            let victim = self.live.pop().expect("the batch holds two or more");
            let seq = self.detach_seq(victim);
            self.pool.release_seq(seq);
            self.prefilled[victim] = 0;
            // A preempted migrated sequence forfeits its paid prefill:
            // re-admission recomputes the context locally.
            self.premigrated[victim] = None;
            self.requests[victim].state = RequestState::Queued;
            self.requests[victim].preemptions += 1;
            self.preemptions += 1;
            self.queue.push_front(victim);
        }
    }

    /// One decoding iteration over the decode-ready batch. With nothing
    /// ready — chunked prefill still working through the admitted
    /// prompts, or a prefill-role step whose completions all just left
    /// as handoffs — the round only folds the footprint into the peak
    /// statistics: the wave advanced the clock, or an export shrank
    /// the pending set, so the episode still makes `progressed`.
    fn decode_ready(&mut self, progressed: bool) {
        let mut decoding = std::mem::take(&mut self.scratch_idx);
        decoding.clear();
        decoding.extend(
            self.live
                .iter()
                .copied()
                .filter(|&i| self.requests[i].state == RequestState::Decoding),
        );
        if decoding.is_empty() {
            debug_assert!(progressed, "a step must advance prefill, export, or decode");
            self.scratch_idx = decoding;
            let in_use = self.pool.blocks_in_use();
            self.track_kv_peaks(in_use, self.fragmentation_slack(in_use));
            return;
        }
        // Relief already cleared this iteration's growth guard.
        self.decode(decoding, 1, f64::INFINITY, false);
    }

    /// Runs decode iterations over `decoding` back to back — a decode
    /// leap — and returns how many ran. Each iteration banks `tlp`
    /// tokens per request (capped at what remains) in `decoding` order,
    /// prices the batch at that iteration's KV length and advances the
    /// clock, exactly as consecutive steps would; the leap ends after
    /// `limit` iterations, after the first iteration in which a request
    /// finishes, once the clock reaches `stop_s`, or before an
    /// iteration whose worst-case KV growth would overflow the pool
    /// (the full round owns eviction and preemption). With `guarded`
    /// off, the caller has already run that guard for the first
    /// iteration.
    ///
    /// A leap is one run of constant `(rlp, tlp)`, so what depends on
    /// the shape alone — placement, the report series, the KV length's
    /// division — is done once per leap. Pool appends are deferred to
    /// one per sequence at the end. Until then the guard and the peak
    /// statistics read running block counts that include the deferred
    /// tokens (and a copy-on-write tail's extra block), so every value
    /// matches what per-iteration appends would have produced.
    fn decode(&mut self, decoding: Vec<usize>, limit: u64, stop_s: f64, guarded: bool) -> u64 {
        let rlp = decoding.len() as u64;
        let tlp = self.tlp_policy.length_at(rlp, self.speculation.length);
        let block_size = self.pool.block_size();
        let total_blocks = self.pool.total_blocks();
        // Growing by `tlp` tokens takes a sequence at most
        // `ceil(tlp / block_size)` blocks, so while that much is free
        // the exact guard below cannot fail.
        let worst_growth = rlp * tlp.div_ceil(block_size);
        let mut in_use = self.pool.blocks_in_use();
        // Blocks in use only grow during a leap, so a slack that cannot
        // raise the peak fragmentation now never will before it ends.
        let mut slack = self.fragmentation_slack(in_use);
        // Iterations before the first finish: through them every lane
        // banks exactly `tlp`, so the per-request KV length is carried
        // forward, and the leap ends with the iteration after them.
        let mut quiet = u64::MAX;
        let mut lanes = std::mem::take(&mut self.scratch_lanes);
        lanes.clear();
        for &i in &decoding {
            debug_assert_eq!(self.requests[i].state, RequestState::Decoding);
            let seq = self.seqs[i]
                .as_ref()
                .expect("decoding request holds a sequence");
            lanes.push(DecodeLane {
                banked: 0,
                slack: seq.slack(block_size),
                copy_on_write: self.pool.tail_shared(seq),
            });
            quiet = quiet.min((self.requests[i].remaining() - 1) / tlp);
        }
        let placement = self.scheduler.placement(rlp, tlp);
        let mut kv_per_request = (self.kv_tokens - self.prefilling_kv_tokens).div_ceil(rlp);
        let mut iterations = 0;
        while iterations < limit && iterations <= quiet && self.clock < stop_s {
            if (guarded || iterations > 0) && in_use + worst_growth > total_blocks {
                let growth: u64 = decoding
                    .iter()
                    .map(|&i| self.pool.growth_blocks(self.requests[i].kv_len(), tlp))
                    .sum();
                if in_use + growth > total_blocks {
                    break;
                }
            }
            debug_assert_eq!(
                kv_per_request,
                (self.kv_tokens - self.prefilling_kv_tokens).div_ceil(rlp),
                "carried KV length drifted"
            );
            let mut new_tokens = 0u64;
            let mut first_timers: Vec<usize> = Vec::new();
            for (lane, &i) in lanes.iter_mut().zip(&decoding) {
                let request = &mut self.requests[i];
                // A decoding request still owes a token and `tlp >= 1`,
                // so every lane banks at least one.
                let banked = tlp.min(request.remaining());
                if request.generated == 0 {
                    first_timers.push(i);
                }
                request.generated += banked;
                // What `append` would allocate: the copied tail on the
                // first write, then blocks past the tail's slack.
                in_use += u64::from(std::mem::take(&mut lane.copy_on_write));
                let before = lane.slack;
                if banked <= lane.slack {
                    lane.slack -= banked;
                } else {
                    let over = banked - lane.slack;
                    let grown = over.div_ceil(block_size);
                    in_use += grown;
                    lane.slack = grown * block_size - over;
                }
                if let Some(total) = slack.as_mut() {
                    *total = *total + lane.slack - before;
                }
                lane.banked += banked;
                new_tokens += banked;
            }
            self.kv_tokens += new_tokens;

            let cost = {
                papi_perf::phase!("price");
                self.pricer
                    .price_run(placement, rlp, tlp, kv_per_request.max(1), 1)
            };
            kv_per_request += tlp;
            self.clock += cost.total_time().value();
            self.phases.fc += cost.fc_time;
            self.phases.attention += cost.attn_time;
            self.phases.communication += cost.comm_time;
            self.phases.other += cost.other_time;
            self.energy += cost.total_energy();
            self.tokens += new_tokens;
            if slack.is_some() {
                self.track_kv_peaks(in_use, slack);
            }
            // Tokens become visible when the iteration completes.
            for &i in &first_timers {
                self.first_token_s[i] = Some(self.clock);
            }
            iterations += 1;
            self.iterations += 1;
            assert!(
                self.iterations <= MAX_ITERATIONS,
                "serving episode exceeded {MAX_ITERATIONS} iterations — runaway workload?"
            );
        }
        if iterations > 0 {
            self.peak_rlp = self.peak_rlp.max(rlp);
            self.scheduler.record(placement, iterations);
            self.placements.push_n(placement, iterations);
            self.rlp_series.push_n(rlp, iterations);
            if slack.is_none() {
                // Resident tokens and blocks in use only grow during a
                // leap, so their peaks are the leap's end state.
                self.track_kv_peaks(in_use, None);
            }
        }

        // Land the leap's tokens: one append per sequence.
        for (lane, &i) in lanes.iter().zip(&decoding) {
            let seq = self.seqs[i]
                .as_mut()
                .expect("decoding request holds a sequence");
            assert!(
                self.pool.append(seq, lane.banked),
                "decode KV growth failed despite the preemption guard"
            );
        }
        debug_assert_eq!(
            self.pool.blocks_in_use(),
            in_use,
            "leap block count drifted"
        );
        if iterations > quiet {
            self.finish(&decoding);
        }
        self.scratch_lanes = lanes;
        self.scratch_idx = decoding;
        iterations
    }

    /// Retires every request in `decoding` that has generated its
    /// whole output: publishes its context into the prefix cache,
    /// releases its blocks and records its lifecycle at the clock.
    fn finish(&mut self, decoding: &[usize]) {
        for &i in decoding {
            if self.requests[i].remaining() > 0 {
                continue;
            }
            let seq = self.detach_seq(i);
            self.publish_context(i, &seq);
            self.pool.release_seq(seq);
            self.requests[i].state = RequestState::Finished;
            let request = &self.requests[i];
            self.records.push(RequestRecord {
                id: request.request.id,
                arrival: Time::new(request.arrival_s),
                admitted: Time::new(self.admitted_s[i].expect("finished request was admitted")),
                first_token: Time::new(
                    self.first_token_s[i].expect("finished request emitted tokens"),
                ),
                finished: Time::new(self.clock),
                prompt_tokens: request.request.input_len,
                output_tokens: request.generated,
                preemptions: request.preemptions,
            });
        }
        let requests = &self.requests;
        self.live
            .retain(|&i| requests[i].state != RequestState::Finished);
    }

    /// Closes the session into its report.
    ///
    /// Makespan runs from the first arrival to the last completion —
    /// leading idle before the episode's first request is not time the
    /// system spent serving.
    pub fn into_report(self) -> ServingReport {
        let episode_start = self.requests.first().map_or(0.0, |r| r.arrival_s);
        ServingReport {
            design: self.engine.config.design.label().to_owned(),
            model: self.engine.config.model.name.clone(),
            iterations: self.iterations,
            tokens: self.tokens,
            makespan: Time::new((self.clock - episode_start).max(0.0)),
            phases: self.phases,
            prefill_time: self.prefill_time,
            energy: self.energy,
            scheduler: self.scheduler.stats(),
            placements: self.placements,
            rlp_series: self.rlp_series,
            records: self.records,
            preemptions: self.preemptions,
            peak_rlp: self.peak_rlp,
            peak_kv_tokens: self.peak_kv_tokens,
            kv: self.kv_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_llm::ModelPreset;
    use papi_workload::{ArrivalProcess, ConversationDataset, DatasetKind, Request};

    fn small_workload(rate: f64, n: usize) -> ServingWorkload {
        ServingWorkload::poisson(DatasetKind::GeneralQa, rate, n).with_seed(11)
    }

    #[test]
    fn every_request_completes_with_ordered_timestamps() {
        let engine = ServingEngine::new(SystemConfig::a100_attacc(ModelPreset::Llama65B.config()))
            .with_tuning(SessionTuning::new().with_max_batch(16));
        let workload = small_workload(4.0, 48);
        let report = engine.run(&workload);
        assert_eq!(report.records.len(), 48);
        for r in &report.records {
            assert!(r.arrival.value() <= r.admitted.value());
            assert!(r.admitted.value() < r.first_token.value());
            assert!(r.first_token.value() <= r.finished.value());
            assert!(r.output_tokens > 0);
            assert!(r.ttft().value() <= r.e2e().value());
        }
        assert!(report.peak_rlp <= 16);
        assert_eq!(report.iterations, report.placements.len() as u64);
        assert_eq!(report.iterations, report.rlp_series.len() as u64);
    }

    #[test]
    fn serving_is_deterministic() {
        let engine =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Llama65B.config()))
                .with_tuning(SessionTuning::new().with_max_batch(8));
        let workload = small_workload(2.0, 24);
        let a = engine.run(&workload);
        let b = engine.run(&workload);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn light_load_has_short_queues_heavy_load_long() {
        let engine = ServingEngine::new(SystemConfig::a100_attacc(ModelPreset::Llama65B.config()))
            .with_tuning(SessionTuning::new().with_max_batch(8));
        let light = engine.run(&small_workload(0.2, 32));
        let heavy = engine.run(&small_workload(50.0, 32));
        let q_light = light.queueing_summary().unwrap().p99;
        let q_heavy = heavy.queueing_summary().unwrap().p99;
        assert!(
            q_heavy.value() > 5.0 * q_light.value().max(1e-9),
            "p99 queueing: light {q_light} vs heavy {q_heavy}"
        );
    }

    #[test]
    fn papi_reschedules_under_decaying_load() {
        // Arrivals stop while the batch is still above α; the live RLP
        // then decays like a closed batch and the online scheduler must
        // migrate FC from the PU to FC-PIM at least once.
        let engine = ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
            .with_tuning(SessionTuning::new().with_max_batch(64));
        let workload =
            ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 64)
                .with_seed(9);
        let report = engine.run(&workload);
        assert!(report.scheduler.switches >= 1, "no rescheduling happened");
        assert!(report.scheduler.pu_decisions > 0);
        assert!(report.scheduler.fc_pim_decisions > 0);
        assert_eq!(*report.rlp_series.first().unwrap(), 64);
        assert_eq!(*report.rlp_series.last().unwrap(), 1);
    }

    #[test]
    fn continuous_refill_holds_rlp_at_cap_while_queue_lasts() {
        let engine =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Llama65B.config()))
                .with_tuning(SessionTuning::new().with_max_batch(8));
        let workload = ServingWorkload::new(DatasetKind::GeneralQa, ArrivalProcess::Immediate, 40)
            .with_seed(5);
        let report = engine.run(&workload);
        let mut early = report.rlp_series.iter().take(report.rlp_series.len() / 4);
        assert!(early.all(|&r| r == 8), "early RLP should hold at 8");
        assert_eq!(report.peak_rlp, 8);
    }

    #[test]
    fn kv_pressure_limits_admission() {
        // A tiny KV headroom forces admission to stop well below the
        // batch cap; the engine must still finish every request.
        let engine =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Gpt3_175B.config()))
                .with_tuning(
                    SessionTuning::new()
                        .with_max_batch(64)
                        .with_kv_headroom(0.002),
                );
        let workload =
            ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 32)
                .with_seed(3);
        let report = engine.run(&workload);
        assert_eq!(report.records.len(), 32);
        assert!(
            report.peak_rlp < 64,
            "KV pressure should cap RLP below the batch cap, got {}",
            report.peak_rlp
        );
        // Admission plans within the headroom budget (in-flight growth
        // may exceed it, never the physical pool); a roomy headroom on
        // the same workload must therefore reach a much larger peak.
        let model = ModelPreset::Gpt3_175B.config();
        let pool_tokens = 60.0 * 16e9 / model.kv_bytes_per_token().value();
        assert!(
            (report.peak_kv_tokens as f64) <= pool_tokens,
            "peak KV {} tokens overflowed the {}-token pool",
            report.peak_kv_tokens,
            pool_tokens
        );
        let roomy =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Gpt3_175B.config()))
                .with_tuning(SessionTuning::new().with_max_batch(64))
                .run(&workload);
        assert!(
            report.peak_kv_tokens * 2 < roomy.peak_kv_tokens,
            "tight headroom peak {} should sit far below the roomy peak {}",
            report.peak_kv_tokens,
            roomy.peak_kv_tokens
        );
    }

    #[test]
    fn adaptive_tlp_growth_never_overflows_the_pool() {
        // The preemption guard must re-derive TLP as it evicts: an
        // adaptive policy raises speculation while the batch shrinks,
        // so a stale bound would let KV growth overshoot the pool.
        let engine =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Gpt3_175B.config()))
                .with_tuning(
                    SessionTuning::new()
                        .with_max_batch(32)
                        .with_kv_headroom(0.002),
                );
        let workload =
            ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 32)
                .with_seed(3)
                .with_adaptive_tlp(64, 8);
        let report = engine.run(&workload);
        assert_eq!(report.records.len(), 32);
        let model = ModelPreset::Gpt3_175B.config();
        let pool_tokens = 60.0 * 16e9 / model.kv_bytes_per_token().value();
        assert!((report.peak_kv_tokens as f64) <= pool_tokens);
    }

    #[test]
    fn makespan_excludes_leading_idle() {
        // Two identical single-request episodes, one arriving at t = 0
        // and one arriving well after it (a seeded low-rate Poisson
        // draw): the service time (and therefore the makespan) must
        // match — the idle lead-in doesn't count.
        let engine =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Llama65B.config()));
        let at_zero =
            ServingWorkload::new(DatasetKind::GeneralQa, ArrivalProcess::Immediate, 1).with_seed(2);
        let delayed = ServingWorkload::new(
            DatasetKind::GeneralQa,
            ArrivalProcess::Poisson { rate_per_sec: 0.01 },
            1,
        )
        .with_seed(2);
        let arrival = delayed.requests()[0].arrival_s;
        assert!(arrival > 10.0, "first arrival at {arrival} s");
        let a = engine.run(&at_zero);
        let b = engine.run(&delayed);
        assert!(
            (a.makespan.value() - b.makespan.value()).abs() < 1e-9,
            "makespan {} vs delayed {}",
            a.makespan,
            b.makespan
        );
        assert!(b.records[0].arrival.value() == arrival);
        assert!(b.tokens > 0);
    }

    /// The maintained KV counters (the satellite dedupe of the triple
    /// per-step recomputation) never drift from first-principles sums
    /// over the live set — stepped manually, across paging
    /// configurations, including one with sharing and chunking on.
    #[test]
    fn maintained_kv_counters_match_recomputation_every_step() {
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 3),
            8.0,
            36,
        )
        .with_seed(7);
        let scalar = ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
            .with_tuning(SessionTuning::new().with_max_batch(8));
        let paged = ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
            .with_tuning(
                SessionTuning::new()
                    .with_max_batch(8)
                    .with_kv_block_size(16)
                    .with_prefix_sharing(true)
                    .with_prefill_chunk(256),
            );
        for engine in [scalar, paged] {
            let mut session = engine.open_session(&workload);
            for request in workload.requests() {
                session.push(request);
            }
            while session.step() == SessionStatus::Advanced {
                let live_kv: u64 = session
                    .live
                    .iter()
                    .map(|&i| session.requests[i].kv_len())
                    .sum();
                assert_eq!(session.kv_resident_tokens(), live_kv, "kv_tokens drifted");
                let prefilling_kv: u64 = session
                    .live
                    .iter()
                    .filter(|&&i| session.requests[i].state == RequestState::Prefilling)
                    .map(|&i| session.requests[i].kv_len())
                    .sum();
                assert_eq!(
                    session.prefilling_kv_tokens, prefilling_kv,
                    "prefilling_kv_tokens drifted"
                );
                // Pool-side view: live sequences plus the prefix cache
                // account for every held block (shared counted once).
                let seq_blocks: std::collections::BTreeSet<_> = session
                    .live
                    .iter()
                    .filter_map(|&i| session.seqs[i].as_ref())
                    .flat_map(|s| s.block_ids())
                    .collect();
                assert!(session.pool.blocks_in_use() >= seq_blocks.len() as u64);
            }
            let report = session.into_report();
            assert_eq!(report.records.len(), 36);
        }
    }

    /// `run_until` leaps while `step` advances one round at a time:
    /// stopped at the same ladder of bounds, both must leave the session
    /// in the same state at every rung — clock, counters, KV peaks,
    /// pool occupancy and scheduler statistics — and close into the
    /// same report. The shapes cover leaps ending at arrivals, at
    /// finishes, at a failed growth guard (a pool small enough to
    /// preempt), at placement switches under adaptive TLP, and on
    /// 16-token blocks with sharing, chunked prefill and a tier.
    #[test]
    fn run_until_matches_a_step_loop_at_every_bound() {
        let conversations = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 3),
            6.0,
            36,
        )
        .with_seed(7);
        let adaptive = small_workload(6.0, 40)
            .with_speculation(SpeculativeConfig::fixed(4))
            .with_adaptive_tlp(32, 8);
        let mut tight = SystemConfig::pim_only_papi(ModelPreset::Gpt3_175B.config());
        tight.attn_pim.1 = 1;
        let shapes = [
            (
                ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
                    .with_tuning(SessionTuning::new().with_max_batch(16)),
                adaptive,
            ),
            (
                ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config())).with_tuning(
                    SessionTuning::new()
                        .with_max_batch(8)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true)
                        .with_prefill_chunk(256)
                        .with_kv_tier(KvTierSpec::new(64)),
                ),
                conversations,
            ),
            (
                ServingEngine::new(tight).with_tuning(
                    SessionTuning::new()
                        .with_max_batch(32)
                        .with_kv_headroom(1.0)
                        .with_kv_block_size(16),
                ),
                ServingWorkload::new(DatasetKind::CreativeWriting, ArrivalProcess::Immediate, 24)
                    .with_seed(3),
            ),
        ];
        for (shape, (engine, workload)) in shapes.iter().enumerate() {
            let mut leaping = engine.open_session(workload);
            let mut stepping = engine.open_session(workload);
            for request in workload.requests() {
                leaping.push(request.clone());
                stepping.push(request);
            }
            let mut bound = 0.0;
            while leaping.has_pending_work() || stepping.has_pending_work() {
                bound += 0.05;
                leaping.run_until(bound);
                while stepping.has_pending_work() && stepping.clock() < bound {
                    stepping.step();
                }
                let state = |s: &ServingSession<'_>| {
                    (
                        s.clock.to_bits(),
                        s.iterations,
                        s.tokens,
                        s.preemptions,
                        s.peak_rlp,
                        s.peak_kv_tokens,
                        s.kv_stats,
                        s.pool.stats(),
                        s.scheduler.stats(),
                        s.records.len(),
                        s.energy.value().to_bits(),
                    )
                };
                assert_eq!(
                    state(&leaping),
                    state(&stepping),
                    "shape {shape} at {bound}"
                );
            }
            let (leaped, stepped) = (leaping.into_report(), stepping.into_report());
            assert!(leaped.iterations > 0);
            if shape == 2 {
                assert!(leaped.preemptions > 0, "the tight pool never preempted");
            }
            assert_eq!(
                serde_json::to_string(&leaped).expect("report serializes"),
                serde_json::to_string(&stepped).expect("report serializes"),
                "shape {shape}"
            );
        }
    }

    /// Relief preempts newest first but never below a batch of one: a
    /// lone request sized to the whole pool, whose worst-case
    /// speculative growth overflows it near the end, keeps decoding —
    /// generation is clamped to what it still owes — instead of
    /// bouncing back to the queue.
    #[test]
    fn relief_spares_the_last_request() {
        let mut config = SystemConfig::pim_only_papi(ModelPreset::Gpt3_175B.config());
        config.attn_pim.1 = 1;
        let engine =
            ServingEngine::new(config).with_tuning(SessionTuning::new().with_kv_block_size(16));
        let workload = ServingWorkload::new(DatasetKind::GeneralQa, ArrivalProcess::Immediate, 1)
            .with_speculation(SpeculativeConfig::fixed(8));
        let mut session = engine.open_session(&workload);
        let capacity = session.pool.total_blocks() * 16;
        session.push(ServingRequest::new(Request::new(0, capacity - 61, 61), 0.0));
        while session.step() == SessionStatus::Advanced {
            assert_eq!(session.preemptions, 0, "the lone request was preempted");
        }
        let report = session.into_report();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].output_tokens, 61);
        assert_eq!(report.peak_kv_tokens, capacity);
    }

    /// Prefix sharing on a conversation workload: real hits, less
    /// prefill work, and every request still completes correctly.
    #[test]
    fn prefix_sharing_cuts_prefill_on_conversations() {
        let workload = ServingWorkload::poisson(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 4),
            2.0,
            48,
        )
        .with_seed(13);
        let scalar =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Llama65B.config()))
                .with_tuning(SessionTuning::new().with_max_batch(16))
                .run(&workload);
        let shared =
            ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Llama65B.config()))
                .with_tuning(
                    SessionTuning::new()
                        .with_max_batch(16)
                        .with_kv_block_size(16)
                        .with_prefix_sharing(true),
                )
                .run(&workload);
        assert_eq!(scalar.records.len(), 48);
        assert_eq!(shared.records.len(), 48);
        assert_eq!(scalar.kv.prefix_hits, 0);
        assert!(
            shared.kv.prefix_hits > 0,
            "conversation turns should hit the prefix cache"
        );
        assert!(
            shared.kv.hit_rate() > 0.2,
            "hit rate {}",
            shared.kv.hit_rate()
        );
        assert!(
            shared.kv.prefilled_tokens < scalar.kv.prefilled_tokens,
            "sharing should cut prefilled tokens: {} vs {}",
            shared.kv.prefilled_tokens,
            scalar.kv.prefilled_tokens
        );
        assert!(
            shared.prefill_time.value() < scalar.prefill_time.value(),
            "sharing should cut prefill time"
        );
    }

    /// Chunked prefill conserves the totals: on an uncontended engine a
    /// prompt far larger than the chunk still completes, with the same
    /// generated tokens and the same number of decode iterations as
    /// monolithic prefill — and the same total prefill time (the chunk
    /// costs telescope).
    #[test]
    fn chunked_prefill_conserves_tokens_and_iterations() {
        let workload = ServingWorkload::new(DatasetKind::LongContext, ArrivalProcess::Immediate, 1)
            .with_seed(21);
        let prompt = workload.requests()[0].request.input_len;
        let chunk = 64;
        assert!(prompt > 3 * chunk, "prompt {prompt} must dwarf the chunk");
        let engine =
            || ServingEngine::new(SystemConfig::pim_only_papi(ModelPreset::Llama65B.config()));
        let monolithic = engine().run(&workload);
        let chunked = engine()
            .with_tuning(SessionTuning::new().with_prefill_chunk(chunk))
            .run(&workload);
        assert_eq!(chunked.tokens, monolithic.tokens);
        assert_eq!(chunked.iterations, monolithic.iterations);
        assert_eq!(chunked.records.len(), 1);
        assert_eq!(
            chunked.records[0].output_tokens,
            monolithic.records[0].output_tokens
        );
        assert_eq!(chunked.kv.prefilled_tokens, monolithic.kv.prefilled_tokens);
        assert!(chunked.kv.prefill_chunks >= prompt / chunk);
        assert_eq!(monolithic.kv.prefill_chunks, 1);
        // Attention/FC prefill math telescopes exactly; only per-wave
        // fixed overheads may differ, so the totals stay within a
        // fraction of a percent.
        let drift = (chunked.prefill_time.value() - monolithic.prefill_time.value()).abs()
            / monolithic.prefill_time.value();
        assert!(drift < 0.05, "prefill time drifted {drift}");
    }

    #[test]
    fn block_granular_plans_in_blocks() {
        let engine = ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
            .with_tuning(SessionTuning::new().with_kv_block_size(16));
        let workload = small_workload(4.0, 1);
        let mut session = engine.open_session(&workload);
        session.admit_budget_blocks = 62;
        let mut seq = session.pool.new_seq();
        assert!(session.pool.append(&mut seq, 60 * 16));
        // 33 tokens = 3 blocks of 16; 60 committed + 3 > 62 budget,
        // though 60 × 16 + 33 tokens would fit the 992-token budget.
        assert!(!session.fits_admission_budget(33));
        // With two free blocks and a 32-token prompt, it admits.
        assert!(session.fits_admission_budget(32));
    }

    /// Block-granular admission really is coarser: at block size 16
    /// the pool fills in 16-token units (peak blocks × 16 ≥ peak
    /// tokens) and fragmentation becomes visible.
    #[test]
    fn paged_accounting_exposes_fragmentation() {
        let workload = small_workload(8.0, 32);
        let report = ServingEngine::new(SystemConfig::papi(ModelPreset::Llama65B.config()))
            .with_tuning(
                SessionTuning::new()
                    .with_max_batch(8)
                    .with_kv_block_size(16),
            )
            .run(&workload);
        assert_eq!(report.records.len(), 32);
        assert_eq!(report.kv.block_size, 16);
        assert!(report.kv.peak_blocks_in_use * 16 >= report.peak_kv_tokens);
        assert!(
            report.kv.peak_fragmentation > 0.0,
            "ragged tails must show up as internal fragmentation"
        );
        assert!(report.kv.peak_fragmentation < 0.5);
    }
}
