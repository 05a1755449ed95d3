//! Link models for the PAPI system and the fleets built from it.
//!
//! The paper's node (§6.3, Fig. 5(a)) prices two intra-node legs, each
//! a [`LinkSpec`] on [`SystemConfig`](crate::config::SystemConfig):
//!
//! - **PU ↔ FC-PIM**: FC activation traffic over NVLink
//!   ([`LinkSpec::nvlink`]), paid only when FC runs on FC-PIM;
//! - **PU ↔ Attn-PIM**: Q-vector/context traffic to the disaggregated
//!   attention pool over CXL ([`LinkSpec::cxl`]), which scales to
//!   thousands of devices.
//!
//! Host ↔ PU traffic (commands, batch assembly) is priced as host
//! dispatch time (`dispatch_per_layer`, `dispatch_per_iteration`), not
//! as a link.
//!
//! Beyond the single node, the same [`LinkSpec`] prices fleet traffic:
//! its inter-node presets (InfiniBand NDR, 100 GbE) carry the
//! tensor-parallel all-reduce and KV-shard collectives
//! (`LinkSpec::all_reduce_time`, `LinkSpec::scatter_time`) and the
//! prefill→decode KV migrations of a disaggregated fleet. Below the
//! attention pool, the node-local KV capacity tier sits behind one
//! DDR5 channel (`LinkSpec::ddr5_dimm`). A migration, a tier fetch
//! and a fleet-shared tier fetch are each priced as one
//! [`TransferCost`].

use papi_types::{Bandwidth, Bytes, Energy, Time};
use serde::{Deserialize, Serialize};

/// One interconnect link: latency + bandwidth + per-byte energy.
///
/// # Example
///
/// ```
/// use papi_core::interconnect::{LinkSpec, TransferCost};
/// use papi_types::Bytes;
///
/// let block = Bytes::from_mib(64.0);
/// let over_nvlink = TransferCost::over(&LinkSpec::nvlink(), 1, block);
/// let over_cxl = TransferCost::over(&LinkSpec::cxl(), 1, block);
/// assert!(over_nvlink.time.value() < over_cxl.time.value());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Link name.
    pub name: String,
    /// Per-direction sustained bandwidth.
    pub bandwidth: Bandwidth,
    /// One-way message latency (includes protocol/synchronization cost).
    pub latency: Time,
    /// Energy per byte moved, in picojoules.
    pub pj_per_byte: f64,
}

impl LinkSpec {
    /// NVLink (A100 generation): 300 GB/s per direction.
    pub fn nvlink() -> Self {
        Self {
            name: "NVLink".to_owned(),
            bandwidth: Bandwidth::from_gb_per_sec(300.0),
            latency: Time::from_micros(2.0),
            pj_per_byte: 10.0,
        }
    }

    /// CXL 2.0 over a PCIe Gen5 ×16 phy: 64 GB/s per direction, low
    /// protocol latency, scales to 4096 devices (paper §6.3).
    pub fn cxl() -> Self {
        Self {
            name: "CXL".to_owned(),
            bandwidth: Bandwidth::from_gb_per_sec(64.0),
            latency: Time::from_micros(1.5),
            pj_per_byte: 18.0,
        }
    }

    /// One DDR5-4800 DIMM channel — the memory-class link a host-DRAM
    /// KV capacity tier sits behind (L3's DIMM-PIM tier and PIM-AI's
    /// DIMM devices both live here): 38.4 GB/s per channel, sub-µs
    /// access, DRAM-cheap energy per byte, a socket's worth of DIMMs.
    pub(crate) fn ddr5_dimm() -> Self {
        Self {
            name: "DDR5-DIMM".to_owned(),
            bandwidth: Bandwidth::from_gb_per_sec(38.4),
            latency: Time::from_micros(0.15),
            pj_per_byte: 5.0,
        }
    }

    /// InfiniBand NDR (400 Gb/s) — the default *inter-node* fabric of a
    /// PAPI cluster: 50 GB/s per direction, ~2 µs end-to-end RDMA
    /// latency through one switch hop, switch-scale fan-out. The paper
    /// models a single node; this preset is how the cluster layer wires
    /// nodes together.
    pub(crate) fn infiniband_ndr() -> Self {
        Self {
            name: "InfiniBand-NDR".to_owned(),
            bandwidth: Bandwidth::from_gb_per_sec(50.0),
            latency: Time::from_micros(2.0),
            pj_per_byte: 35.0,
        }
    }

    /// 100 GbE RDMA (RoCE) — a cheaper, slower inter-node alternative:
    /// 12.5 GB/s per direction with higher message latency.
    pub fn ethernet_100g() -> Self {
        Self {
            name: "100GbE-RoCE".to_owned(),
            bandwidth: Bandwidth::from_gb_per_sec(12.5),
            latency: Time::from_micros(8.0),
            pj_per_byte: 50.0,
        }
    }

    /// Time to move `bytes` in one message.
    pub(crate) fn transfer_time(&self, bytes: Bytes) -> Time {
        self.latency + bytes / self.bandwidth
    }

    /// Energy to move `bytes`.
    pub(crate) fn transfer_energy(&self, bytes: Bytes) -> Energy {
        Energy::from_picojoules(bytes.value() * self.pj_per_byte)
    }

    /// Ring all-reduce time for `bytes` across `participants` endpoints
    /// of this fabric: each endpoint forwards `2 (p-1)/p × bytes`, with
    /// the message latency paid once (the ring pipelines its steps —
    /// the same model as `MultiGpu::allreduce_time` intra-node). Zero
    /// for a single participant or no payload.
    pub(crate) fn all_reduce_time(&self, bytes: Bytes, participants: usize) -> Time {
        if participants <= 1 || bytes.is_zero() {
            return Time::ZERO;
        }
        let p = participants as f64;
        let volume = 2.0 * (p - 1.0) / p * bytes.value();
        self.latency + Bytes::new(volume) / self.bandwidth
    }

    /// Total wire energy of a ring all-reduce: every endpoint forwards
    /// `2 (p-1)/p × bytes`, so the fleet moves `2 (p-1) × bytes`.
    pub(crate) fn all_reduce_energy(&self, bytes: Bytes, participants: usize) -> Energy {
        if participants <= 1 {
            return Energy::ZERO;
        }
        self.transfer_energy(bytes) * (2.0 * (participants as f64 - 1.0))
    }

    /// Time to scatter `bytes` evenly over `parts` endpoints where one
    /// part stays local: `(parts-1)/parts` of the payload crosses the
    /// wire. Zero for a single part.
    pub(crate) fn scatter_time(&self, bytes: Bytes, parts: usize) -> Time {
        if parts <= 1 || bytes.is_zero() {
            return Time::ZERO;
        }
        let remote = bytes.value() * (parts as f64 - 1.0) / parts as f64;
        self.transfer_time(Bytes::new(remote))
    }

    /// Wire energy of the [`scatter_time`](Self::scatter_time) transfer.
    pub(crate) fn scatter_energy(&self, bytes: Bytes, parts: usize) -> Energy {
        if parts <= 1 {
            return Energy::ZERO;
        }
        self.transfer_energy(Bytes::new(
            bytes.value() * (parts as f64 - 1.0) / parts as f64,
        ))
    }
}

/// The priced cost of one bulk KV transfer: a capacity-tier fetch over
/// the DIMM channel, or a fleet-shared tier fetch or prefill→decode
/// migration over the fleet's inter-node fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferCost {
    /// Payload moved: `kv_blocks × block_bytes`.
    pub bytes: Bytes,
    /// One-shot transfer latency.
    pub time: Time,
    /// Wire energy of the transfer.
    pub energy: Energy,
}

impl TransferCost {
    /// A zero-cost transfer (an empty payload).
    pub(crate) const ZERO: TransferCost = TransferCost {
        bytes: Bytes::ZERO,
        time: Time::ZERO,
        energy: Energy::ZERO,
    };

    /// Moving `kv_blocks` blocks of `block_bytes` each over `link` in
    /// one message.
    pub fn over(link: &LinkSpec, kv_blocks: u64, block_bytes: Bytes) -> Self {
        let bytes = block_bytes * kv_blocks as f64;
        if bytes.is_zero() {
            return Self::ZERO;
        }
        Self {
            bytes,
            time: link.transfer_time(bytes),
            energy: link.transfer_energy(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn presets_ordering() {
        let nv = LinkSpec::nvlink();
        let cxl = LinkSpec::cxl();
        let dimm = LinkSpec::ddr5_dimm();
        assert!(nv.bandwidth.value() > cxl.bandwidth.value());
        assert!(cxl.latency.value() < nv.latency.value());
        assert!(dimm.latency.value() < cxl.latency.value());
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let l = LinkSpec::cxl();
        let t = l.transfer_time(Bytes::new(1.0));
        assert!((t.value() - l.latency.value()).abs() < 1e-9);
    }

    #[test]
    fn inter_node_presets_are_slower_than_intra_node() {
        let ib = LinkSpec::infiniband_ndr();
        let eth = LinkSpec::ethernet_100g();
        let nv = LinkSpec::nvlink();
        assert!(ib.bandwidth.value() < nv.bandwidth.value());
        assert!(eth.bandwidth.value() < ib.bandwidth.value());
        assert!(eth.latency.value() > ib.latency.value());
    }

    #[test]
    fn all_reduce_degenerates_to_zero_for_one_participant() {
        let ib = LinkSpec::infiniband_ndr();
        assert_eq!(ib.all_reduce_time(Bytes::from_mib(8.0), 1), Time::ZERO);
        assert_eq!(ib.all_reduce_energy(Bytes::from_mib(8.0), 1).value(), 0.0);
        assert_eq!(ib.scatter_time(Bytes::from_mib(8.0), 1), Time::ZERO);
    }

    #[test]
    fn wider_tp_pays_more_collective_time() {
        let ib = LinkSpec::infiniband_ndr();
        let b = Bytes::from_mib(4.0);
        assert!(ib.all_reduce_time(b, 8).value() > ib.all_reduce_time(b, 2).value());
        assert!(ib.scatter_time(b, 8).value() > ib.scatter_time(b, 2).value());
    }

    #[test]
    fn all_reduce_cost_grows_with_participants_and_bytes() {
        let ib = LinkSpec::infiniband_ndr();
        let b = Bytes::from_mib(16.0);
        let t2 = ib.all_reduce_time(b, 2);
        let t4 = ib.all_reduce_time(b, 4);
        let t8 = ib.all_reduce_time(b, 8);
        assert!(t2.value() < t4.value() && t4.value() < t8.value());
        let small = ib.all_reduce_time(Bytes::from_kib(64.0), 4);
        assert!(small.value() < t4.value());
        // Fleet wire volume is 2 (p-1) × bytes.
        let e4 = ib.all_reduce_energy(b, 4);
        assert!((e4.value() - ib.transfer_energy(b).value() * 6.0).abs() < 1e-15);
    }

    #[test]
    fn scatter_moves_only_the_remote_share() {
        let ib = LinkSpec::infiniband_ndr();
        let b = Bytes::from_mib(4.0);
        let t4 = ib.scatter_time(b, 4);
        let expected = ib.transfer_time(Bytes::new(b.value() * 0.75));
        assert_eq!(t4, expected);
        assert!(ib.scatter_energy(b, 4).value() < ib.transfer_energy(b).value());
    }

    #[test]
    fn energy_linear_in_bytes() {
        let l = LinkSpec::nvlink();
        let e1 = l.transfer_energy(Bytes::from_mib(1.0));
        let e4 = l.transfer_energy(Bytes::from_mib(4.0));
        assert!((e4.value() - 4.0 * e1.value()).abs() < 1e-18);
    }

    #[test]
    fn a_transfer_is_one_message_over_the_link() {
        // 16-token blocks at ~2.5 MiB/token of KV — a realistic
        // LLaMA-65B-class figure.
        let block_bytes = Bytes::from_mib(40.0);
        let fabric = LinkSpec::infiniband_ndr();
        let cost = TransferCost::over(&fabric, 8, block_bytes);
        let payload = block_bytes * 8.0;
        assert_eq!(cost.bytes, payload);
        assert_eq!(cost.time, fabric.transfer_time(payload));
        assert_eq!(cost.energy, fabric.transfer_energy(payload));
        assert_eq!(
            TransferCost::over(&fabric, 0, block_bytes),
            TransferCost::ZERO
        );
        // Linear in blocks once the latency floor is paid.
        let one = TransferCost::over(&fabric, 1, block_bytes);
        let ten = TransferCost::over(&fabric, 10, block_bytes);
        let wire = |c: TransferCost| c.time.value() - fabric.latency.value();
        assert!((wire(ten) - 10.0 * wire(one)).abs() < 1e-12);
        assert!((ten.energy.value() - 10.0 * one.energy.value()).abs() < 1e-12);
    }

    #[test]
    fn a_dimm_fetch_is_cheaper_than_the_fabric_on_latency_and_energy() {
        // The point of a node-local tier: re-landing a prefix costs a
        // DIMM read — ~13× lower link latency and 7× less energy per
        // byte than riding the inter-node fabric. (Raw bandwidth is
        // comparable: one DDR5 channel vs one NDR direction.)
        let payload = Bytes::from_mib(40.0) * 64.0;
        let dimm = LinkSpec::ddr5_dimm();
        let fabric = LinkSpec::infiniband_ndr();
        assert!(dimm.latency.value() < fabric.latency.value());
        assert!(
            dimm.transfer_energy(payload).value() < fabric.transfer_energy(payload).value(),
            "a host-DIMM crossing must cost less energy than the fabric"
        );
    }

    proptest! {
        #[test]
        fn transfer_time_monotone(bytes_a in 0.0..1e12f64, bytes_b in 0.0..1e12f64) {
            let l = LinkSpec::cxl();
            let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
            prop_assert!(
                l.transfer_time(Bytes::new(lo)).value() <= l.transfer_time(Bytes::new(hi)).value()
            );
        }
    }
}
