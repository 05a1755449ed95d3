//! `papi-interconnect` — link and topology models for the PAPI system.
//!
//! The paper's system (§6.3) wires three classes of traffic differently:
//!
//! - **PU ↔ FC-PIM**: weight-volume traffic over NVLink (high bandwidth,
//!   on-package);
//! - **host/PU ↔ Attn-PIM**: small Q-vector/score traffic over PCIe or
//!   CXL (cheap, scales to many disaggregated devices — PCIe to 32 per
//!   bus, CXL to 4096);
//! - **host ↔ PU**: command/launch traffic over PCIe.
//!
//! This crate provides the latency/bandwidth/energy link model
//! ([`LinkSpec`]), and the [`SystemTopology`] that assigns a link to each
//! intra-node [`Route`] and validates device fan-out.
//!
//! Beyond the paper's single node, the same [`LinkSpec`] prices fleet
//! traffic directly: its inter-node presets (InfiniBand NDR, 100 GbE)
//! carry the tensor-parallel all-reduce and KV-shard collectives
//! ([`LinkSpec::all_reduce_time`], [`LinkSpec::scatter_time`]) and the
//! prefill→decode KV migrations of a disaggregated fleet
//! ([`MigrationPricing`]).
//!
//! Below the attention pool, [`TierPricing`] prices the node-local KV
//! *capacity tier* (host DIMMs per L3, CXL memory): what spilling a
//! cold prefix out of the pool — and fetching it back on reuse — costs
//! in latency, bandwidth, and energy. Both pricings return one
//! [`TransferCost`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod link;
mod migration;
mod tier;
mod topology;

pub use link::{LinkSpec, TransferCost};
pub use migration::MigrationPricing;
pub use tier::TierPricing;
pub use topology::{Route, SystemTopology, TopologyError};
