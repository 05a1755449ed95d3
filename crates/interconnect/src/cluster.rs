//! Inter-node cluster topology: tensor-parallel groups of PAPI nodes,
//! replicated data-parallel.
//!
//! The paper's system is one node (Fig. 5(a)). A production fleet
//! shards the model across a **tensor-parallel (TP) group** of nodes —
//! each node holds `1/tp` of the FC weights and `1/tp` of the KV
//! capacity — and replicates whole groups **data-parallel (DP)** behind
//! a request router. Two new traffic classes appear on the inter-node
//! fabric:
//!
//! - [`Route::TpAllReduce`] — the per-layer activation all-reduce that
//!   stitches a TP group's partial FC outputs back together;
//! - [`Route::KvShard`] — KV-cache blocks scattered to the shard that
//!   owns them during prefill write-out.
//!
//! [`ClusterTopology`] wires both over an inter-node [`LinkSpec`]
//! (InfiniBand NDR by default) while delegating intra-node routes to
//! the per-node [`SystemTopology`].

use crate::link::LinkSpec;
use crate::topology::{Route, SystemTopology, TopologyError};
use papi_types::{Bytes, Energy, Time};
use serde::{Deserialize, Serialize};

/// A fleet of PAPI nodes: `tp_degree` nodes per tensor-parallel group,
/// `dp_replicas` groups behind the router, all joined by one inter-node
/// fabric.
///
/// # Example
///
/// ```
/// use papi_interconnect::{ClusterTopology, Route};
/// use papi_types::Bytes;
///
/// let cluster = ClusterTopology::papi_default(4, 2).unwrap();
/// assert_eq!(cluster.nodes(), 8);
/// let t = cluster.transfer_time(Route::TpAllReduce, Bytes::from_mib(1.0));
/// assert!(t.as_micros() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    node: SystemTopology,
    inter_node: LinkSpec,
    tp_degree: usize,
    dp_replicas: usize,
}

impl ClusterTopology {
    /// The default fleet wiring: paper-default nodes (30 FC-PIM + 60
    /// Attn-PIM devices each) joined by InfiniBand NDR.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if either degree is zero or the fleet
    /// exceeds the fabric's fan-out.
    pub fn papi_default(tp_degree: usize, dp_replicas: usize) -> Result<Self, TopologyError> {
        Self::new(
            SystemTopology::papi_default(30, 60)?,
            LinkSpec::infiniband_ndr(),
            tp_degree,
            dp_replicas,
        )
    }

    /// Builds a cluster over explicit node wiring and inter-node fabric.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if either degree is zero or
    /// `tp_degree × dp_replicas` exceeds the fabric's fan-out.
    pub fn new(
        node: SystemTopology,
        inter_node: LinkSpec,
        tp_degree: usize,
        dp_replicas: usize,
    ) -> Result<Self, TopologyError> {
        if tp_degree == 0 || dp_replicas == 0 {
            return Err(TopologyError::new(
                "a cluster needs at least one node per group and one replica".to_owned(),
            ));
        }
        let nodes = tp_degree * dp_replicas;
        if !inter_node.supports_devices(nodes) {
            return Err(TopologyError::new(format!(
                "{nodes} nodes exceed {}'s fan-out of {}",
                inter_node.name, inter_node.max_devices
            )));
        }
        Ok(Self {
            node,
            inter_node,
            tp_degree,
            dp_replicas,
        })
    }

    /// The per-node intra-node wiring.
    pub fn node(&self) -> &SystemTopology {
        &self.node
    }

    /// The inter-node fabric.
    pub fn inter_node(&self) -> &LinkSpec {
        &self.inter_node
    }

    /// Nodes per tensor-parallel group.
    pub fn tp_degree(&self) -> usize {
        self.tp_degree
    }

    /// Data-parallel replicas (TP groups) in the fleet.
    pub fn dp_replicas(&self) -> usize {
        self.dp_replicas
    }

    /// Total nodes in the fleet.
    pub fn nodes(&self) -> usize {
        self.tp_degree * self.dp_replicas
    }

    /// The link serving `route`: cluster-scope routes ride the
    /// inter-node fabric, node-scope routes delegate to the node wiring.
    pub fn link(&self, route: Route) -> &LinkSpec {
        if route.is_cluster_scope() {
            &self.inter_node
        } else {
            self.node.link(route)
        }
    }

    /// Time to move `bytes` over `route` in one message (cluster-scope
    /// collectives have dedicated methods; this is the point-to-point
    /// view).
    pub fn transfer_time(&self, route: Route, bytes: Bytes) -> Time {
        self.link(route).transfer_time(bytes)
    }

    /// Energy to move `bytes` over `route`.
    pub fn transfer_energy(&self, route: Route, bytes: Bytes) -> Energy {
        self.link(route).transfer_energy(bytes)
    }

    /// Ring all-reduce of `bytes` among the nodes of one TP group
    /// ([`Route::TpAllReduce`]). Zero when `tp_degree == 1`.
    pub fn all_reduce_time(&self, bytes: Bytes) -> Time {
        self.inter_node.all_reduce_time(bytes, self.tp_degree)
    }

    /// Wire energy of the TP-group all-reduce.
    pub fn all_reduce_energy(&self, bytes: Bytes) -> Energy {
        self.inter_node.all_reduce_energy(bytes, self.tp_degree)
    }

    /// Time to scatter `bytes` of KV blocks across the TP group's
    /// shards ([`Route::KvShard`]): `(tp-1)/tp` of the payload crosses
    /// the fabric. Zero when `tp_degree == 1`.
    pub fn kv_shard_time(&self, bytes: Bytes) -> Time {
        self.inter_node.scatter_time(bytes, self.tp_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_degrees_rejected() {
        assert!(ClusterTopology::papi_default(0, 4).is_err());
        assert!(ClusterTopology::papi_default(4, 0).is_err());
        assert!(ClusterTopology::papi_default(1, 1).is_ok());
    }

    #[test]
    fn fleet_fan_out_enforced() {
        // 1024-port InfiniBand: 256×4 fits, 512×4 does not.
        assert!(ClusterTopology::papi_default(4, 256).is_ok());
        let r = ClusterTopology::papi_default(4, 512);
        assert!(r.is_err());
        assert!(r.unwrap_err().to_string().contains("fan-out"));
    }

    #[test]
    fn cluster_routes_ride_the_inter_node_fabric() {
        let c = ClusterTopology::papi_default(4, 2).unwrap();
        assert_eq!(c.link(Route::TpAllReduce).name, "InfiniBand-NDR");
        assert_eq!(c.link(Route::KvShard).name, "InfiniBand-NDR");
        assert_eq!(c.link(Route::KvFetch).name, "InfiniBand-NDR");
        // Node-scope routes still resolve to the node's wiring.
        assert_eq!(c.link(Route::PuToFcPim).name, "NVLink");
        assert_eq!(c.link(Route::PuToAttnPim).name, "CXL");
    }

    #[test]
    fn tp1_collectives_are_free() {
        let c = ClusterTopology::papi_default(1, 8).unwrap();
        let b = Bytes::from_mib(4.0);
        assert_eq!(c.all_reduce_time(b), Time::ZERO);
        assert_eq!(c.kv_shard_time(b), Time::ZERO);
        assert_eq!(c.all_reduce_energy(b).value(), 0.0);
    }

    #[test]
    fn wider_tp_pays_more_collective_time() {
        let b = Bytes::from_mib(4.0);
        let tp2 = ClusterTopology::papi_default(2, 1).unwrap();
        let tp8 = ClusterTopology::papi_default(8, 1).unwrap();
        assert!(tp8.all_reduce_time(b).value() > tp2.all_reduce_time(b).value());
        assert!(tp8.kv_shard_time(b).value() > tp2.kv_shard_time(b).value());
    }
}
