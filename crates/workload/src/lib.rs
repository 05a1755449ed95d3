//! `papi-workload` — LLM serving workloads.
//!
//! The dynamic behaviour that motivates PAPI comes from the *workload*:
//! requests with unpredictable output lengths finish at different times,
//! so request-level parallelism (RLP) decays over a batch's lifetime
//! (paper Fig. 3); operators batch and speculate differently per
//! deployment, so token-level parallelism (TLP) varies too. This crate
//! generates those dynamics:
//!
//! - [`dataset`] — seeded synthetic stand-ins for the Dolly dataset's
//!   creative-writing (long, heavy-tailed outputs) and general-qa
//!   (short outputs) categories, plus a long-context category for
//!   prefill-heavy load. *Substitution note*: the paper uses the
//!   real Dolly records; the figures depend only on the length
//!   distributions, which we match qualitatively (see DESIGN.md).
//! - [`conversation`] — prefix-structured populations: shared system
//!   prompts and multi-turn conversations, stamped with the
//!   [`PrefixHint`](papi_kv::PrefixHint)s the paged KV cache keys on.
//! - [`speculative`] — speculation length (TLP): fixed
//!   ([`SpeculativeConfig::fixed`]) or co-optimized with the live batch
//!   ([`SpeculativeConfig::adaptive`]). Every verified token is banked,
//!   so the only randomness is the generated workload: datasets,
//!   conversations and arrivals.
//! - [`batching`] — static and mixed continuous batching, set by one
//!   refill queue: [`WorkloadSpec::queue_depth`] `= 0` is static
//!   batching.
//! - [`arrival`] — open-loop arrival processes (Poisson, bursty,
//!   multi-hour diurnal, flash-crowd) and the online request lifecycle
//!   (`Queued → Prefilling → Decoding → Finished`).
//! - [`routing`] — cluster-level request routing: replica snapshots
//!   (now carrying a [`ReplicaRole`] for disaggregated fleets), the
//!   open [`RoutePolicy`] trait a fleet router picks admission targets
//!   through, the declarative [`PolicySpec`] naming the built-in
//!   policies (join-shortest-queue, prefix-affinity,
//!   shared-tier-affinity), the [`Router`] that runs them, and the
//!   decode-side
//!   [`MigrationPolicy`] seam that places migrated prefill→decode
//!   handoffs.
//! - [`trace`] — per-iteration decode traces: the RLP/TLP/KV state the
//!   system simulator executes against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod batching;
pub mod conversation;
pub mod dataset;
pub mod request;
pub mod routing;
pub mod speculative;
pub mod trace;

pub use arrival::{ArrivalProcess, RequestSource, RequestState, ServingRequest, ServingWorkload};
pub use batching::WorkloadSpec;
pub use conversation::ConversationDataset;
pub use dataset::DatasetKind;
pub use request::Request;
pub use routing::{
    HashRing, MigrationContext, MigrationPolicy, MigrationSpec, PolicySpec, Reads, ReplicaRole,
    ReplicaSnapshot, ReplicaState, RingPoints, RouteContext, RoutePolicy, Router,
};
pub use speculative::SpeculativeConfig;
pub use trace::{DecodeTrace, IterationRecord};
