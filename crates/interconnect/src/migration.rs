//! Pricing for KV migration traffic: the bulk KV handoff a
//! disaggregated fleet pays when a prefill-role replica hands a
//! decode-ready sequence to a decode-role replica.
//!
//! The payload is the sequence's whole paged KV cache —
//! `kv_blocks × block_bytes` — moved in one message over whichever link
//! the fleet assigns to migration traffic. [`MigrationPricing`] makes
//! that assignment declarative: ride the inter-node fabric (the
//! default), pin a dedicated link, or price migration as free (the
//! ablation knob equality pins are built on: an all-colocated fleet
//! with free migration must reproduce the non-disaggregated engine bit
//! for bit).

use crate::link::{LinkSpec, TransferCost};
use papi_types::Bytes;
use serde::{Deserialize, Serialize};

/// Which link KV migration traffic crosses.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum MigrationPricing {
    /// Ride the fleet's inter-node fabric (the link TP collectives
    /// already cross) — the default.
    #[default]
    Fabric,
    /// A dedicated migration link (e.g. a cheaper Ethernet plane kept
    /// off the collective-critical fabric).
    Link(LinkSpec),
    /// Migration is free: zero latency, zero energy. The ablation knob
    /// for isolating scheduling effects from transfer cost.
    Free,
}

impl MigrationPricing {
    /// Prices moving `kv_blocks` blocks of `block_bytes` each, where
    /// `fabric` is the fleet's inter-node link (used by
    /// [`MigrationPricing::Fabric`]).
    pub fn cost(&self, fabric: &LinkSpec, kv_blocks: u64, block_bytes: Bytes) -> TransferCost {
        match self {
            MigrationPricing::Fabric => TransferCost::over(fabric, kv_blocks, block_bytes),
            MigrationPricing::Link(link) => TransferCost::over(link, kv_blocks, block_bytes),
            MigrationPricing::Free => TransferCost::ZERO,
        }
    }

    /// Display label for reports and sweeps.
    pub fn label(&self) -> String {
        match self {
            MigrationPricing::Fabric => "fabric".to_owned(),
            MigrationPricing::Link(link) => link.name.clone(),
            MigrationPricing::Free => "free".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_bytes() -> Bytes {
        // 16-token blocks at ~2.5 MiB/token of KV — a realistic
        // LLaMA-65B-class figure.
        Bytes::from_mib(40.0)
    }

    #[test]
    fn fabric_pricing_matches_a_plain_transfer() {
        let fabric = LinkSpec::infiniband_ndr();
        let cost = MigrationPricing::Fabric.cost(&fabric, 8, block_bytes());
        let payload = block_bytes() * 8.0;
        assert_eq!(cost.bytes, payload);
        assert_eq!(cost.time, fabric.transfer_time(payload));
        assert_eq!(cost.energy, fabric.transfer_energy(payload));
    }

    #[test]
    fn dedicated_link_overrides_the_fabric() {
        let fabric = LinkSpec::infiniband_ndr();
        let eth = LinkSpec::ethernet_100g();
        let over_eth = MigrationPricing::Link(eth.clone()).cost(&fabric, 4, block_bytes());
        assert_eq!(over_eth.time, eth.transfer_time(block_bytes() * 4.0));
        assert!(
            over_eth.time.value()
                > MigrationPricing::Fabric
                    .cost(&fabric, 4, block_bytes())
                    .time
                    .value()
        );
    }

    #[test]
    fn free_and_empty_migrations_cost_nothing() {
        let fabric = LinkSpec::infiniband_ndr();
        assert_eq!(
            MigrationPricing::Free.cost(&fabric, 1_000, block_bytes()),
            TransferCost::ZERO
        );
        assert_eq!(
            MigrationPricing::Fabric.cost(&fabric, 0, block_bytes()),
            TransferCost::ZERO
        );
    }

    #[test]
    fn cost_scales_linearly_in_blocks_minus_the_latency_floor() {
        let fabric = LinkSpec::infiniband_ndr();
        let one = MigrationPricing::Fabric.cost(&fabric, 1, block_bytes());
        let ten = MigrationPricing::Fabric.cost(&fabric, 10, block_bytes());
        let wire = |c: TransferCost| c.time.value() - fabric.latency.value();
        assert!((wire(ten) - 10.0 * wire(one)).abs() < 1e-12);
        assert!((ten.energy.value() - 10.0 * one.energy.value()).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(MigrationPricing::Fabric.label(), "fabric");
        assert_eq!(MigrationPricing::Free.label(), "free");
        assert_eq!(
            MigrationPricing::Link(LinkSpec::ethernet_100g()).label(),
            "100GbE-RoCE"
        );
    }
}
