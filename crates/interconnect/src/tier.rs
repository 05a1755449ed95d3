//! Pricing for KV capacity-tier traffic: spilling cold prefix blocks
//! out of the attention pool and fetching them back on reuse.
//!
//! L3 (DIMM-PIM) and PIM-AI both put a *capacity tier* below the
//! attention pool's DRAM: host DIMMs that hold KV state the hot pool
//! cannot, reached over a memory-class link rather than an inter-node
//! fabric. [`TierPricing`] is the declarative knob for what crossing
//! that boundary costs. Unlike a prefill→decode migration it is
//! node-local: there is no fleet fabric to ride, so the default is a
//! DDR5 DIMM-class link and the alternatives are an explicit
//! [`LinkSpec`] (CXL-attached memory, a PCIe staging path) or `Free`
//! (the ablation knob equality pins build on).
//!
//! Only *fetches* are priced. A spill replaces an eviction that would
//! have discarded the blocks outright, and the write-back happens off
//! the serving critical path; a fetch sits squarely on it — its latency
//! lands in the admitted request's TTFT.

use crate::link::{LinkSpec, TransferCost};
use papi_types::Bytes;
use serde::{Deserialize, Serialize};

/// Which link KV tier traffic crosses.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum TierPricing {
    /// A host-DRAM DIMM channel ([`LinkSpec::ddr5_dimm`]) — the L3-style
    /// default: the capacity tier is ordinary (or DIMM-PIM) host memory
    /// on the processor's own DDR interface.
    #[default]
    HostDimm,
    /// An explicit link — e.g. [`LinkSpec::cxl`] for a CXL memory
    /// expander, or a PCIe staging path.
    Link(LinkSpec),
    /// Crossing the tier is free: zero latency, zero energy. The
    /// ablation knob for isolating capacity effects from transfer cost.
    Free,
}

impl TierPricing {
    /// Prices moving `kv_blocks` blocks of `block_bytes` each across
    /// the tier boundary (one direction — a fetch or a spill).
    pub fn cost(&self, kv_blocks: u64, block_bytes: Bytes) -> TransferCost {
        match self {
            TierPricing::HostDimm => {
                TransferCost::over(&LinkSpec::ddr5_dimm(), kv_blocks, block_bytes)
            }
            TierPricing::Link(link) => TransferCost::over(link, kv_blocks, block_bytes),
            TierPricing::Free => TransferCost::ZERO,
        }
    }

    /// Display label for reports and sweeps.
    pub fn label(&self) -> String {
        match self {
            TierPricing::HostDimm => "host-dimm".to_owned(),
            TierPricing::Link(link) => link.name.clone(),
            TierPricing::Free => "free".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_bytes() -> Bytes {
        // 16-token blocks at ~2.5 MiB/token of KV.
        Bytes::from_mib(40.0)
    }

    #[test]
    fn default_pricing_rides_the_dimm_channel() {
        let dimm = LinkSpec::ddr5_dimm();
        let cost = TierPricing::default().cost(8, block_bytes());
        let payload = block_bytes() * 8.0;
        assert_eq!(cost.bytes, payload);
        assert_eq!(cost.time, dimm.transfer_time(payload));
        assert_eq!(cost.energy, dimm.transfer_energy(payload));
    }

    #[test]
    fn explicit_link_overrides_the_dimm_default() {
        let cxl = LinkSpec::cxl();
        let over_cxl = TierPricing::Link(cxl.clone()).cost(4, block_bytes());
        assert_eq!(over_cxl.time, cxl.transfer_time(block_bytes() * 4.0));
        assert_ne!(
            over_cxl.time,
            TierPricing::HostDimm.cost(4, block_bytes()).time
        );
    }

    #[test]
    fn free_and_empty_crossings_cost_nothing() {
        assert_eq!(
            TierPricing::Free.cost(1_000, block_bytes()),
            TransferCost::ZERO
        );
        assert_eq!(
            TierPricing::HostDimm.cost(0, block_bytes()),
            TransferCost::ZERO
        );
    }

    #[test]
    fn fetch_is_cheaper_than_an_inter_node_migration_on_latency_and_energy() {
        // The point of a node-local tier: re-landing a prefix costs a
        // DIMM read — ~13× lower link latency and 7× less energy per
        // byte than riding the inter-node fabric. (Raw bandwidth is
        // comparable: one DDR5 channel vs one NDR direction.)
        let payload = block_bytes() * 64.0;
        let dimm = LinkSpec::ddr5_dimm();
        let fabric = LinkSpec::infiniband_ndr();
        assert!(dimm.latency.value() < fabric.latency.value());
        assert!(
            dimm.transfer_energy(payload).value() < fabric.transfer_energy(payload).value(),
            "a host-DIMM crossing must cost less energy than the fabric"
        );
    }

    #[test]
    fn labels() {
        assert_eq!(TierPricing::HostDimm.label(), "host-dimm");
        assert_eq!(TierPricing::Free.label(), "free");
        assert_eq!(TierPricing::Link(LinkSpec::cxl()).label(), "CXL");
    }
}
