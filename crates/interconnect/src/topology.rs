//! The PAPI system's interconnect topology (paper Fig. 5(a)).

use crate::link::LinkSpec;
use papi_types::{Bytes, Energy, Time};
use serde::{Deserialize, Serialize};

/// A class of intra-node traffic in the PAPI system (paper Fig. 5(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Route {
    /// Processing units ↔ FC-PIM devices (weight/activation volume).
    PuToFcPim,
    /// Host or PUs ↔ disaggregated Attn-PIM devices (Q vectors, scores).
    PuToAttnPim,
    /// Host CPU ↔ processing units (commands, scheduling).
    HostToPu,
}

/// Error returned when a topology cannot host the requested device
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    message: String,
}

impl TopologyError {
    /// An error describing why a topology (or fleet shape built on
    /// one) cannot be hosted.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid topology: {}", self.message)
    }
}

impl std::error::Error for TopologyError {}

/// Which link serves each route, plus attached device counts.
///
/// # Example
///
/// ```
/// use papi_interconnect::{Route, SystemTopology};
/// use papi_types::Bytes;
///
/// let topo = SystemTopology::papi_default(30, 60).unwrap();
/// let q = topo.transfer_time(Route::PuToAttnPim, Bytes::from_kib(256.0));
/// assert!(q.as_micros() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemTopology {
    fc_pim_link: LinkSpec,
    attn_pim_link: LinkSpec,
    host_link: LinkSpec,
    fc_pim_devices: usize,
    attn_pim_devices: usize,
}

impl SystemTopology {
    /// The paper's default wiring: NVLink to FC-PIM, CXL to the
    /// disaggregated Attn-PIM pool, PCIe to the host.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if a device pool exceeds its fabric's
    /// fan-out (e.g. more than 4096 CXL devices).
    pub fn papi_default(
        fc_pim_devices: usize,
        attn_pim_devices: usize,
    ) -> Result<Self, TopologyError> {
        Self::new(
            LinkSpec::nvlink(),
            LinkSpec::cxl(),
            LinkSpec::pcie_gen5_x16(),
            fc_pim_devices,
            attn_pim_devices,
        )
    }

    /// Builds a topology with explicit links.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if a device pool exceeds its fabric's
    /// fan-out. The FC-PIM pool is allowed to span multiple NVLink
    /// domains (one per GPU), so it is checked per 5-device group.
    pub(crate) fn new(
        fc_pim_link: LinkSpec,
        attn_pim_link: LinkSpec,
        host_link: LinkSpec,
        fc_pim_devices: usize,
        attn_pim_devices: usize,
    ) -> Result<Self, TopologyError> {
        if !attn_pim_link.supports_devices(attn_pim_devices) {
            return Err(TopologyError {
                message: format!(
                    "{} Attn-PIM devices exceed {}'s fan-out of {}",
                    attn_pim_devices, attn_pim_link.name, attn_pim_link.max_devices
                ),
            });
        }
        // FC-PIM stacks sit on GPU packages, 5 per GPU: per-domain count
        // is small; only reject absurd configurations.
        if fc_pim_devices > fc_pim_link.max_devices * 16 {
            return Err(TopologyError {
                message: format!(
                    "{fc_pim_devices} FC-PIM devices cannot be reached over {}",
                    fc_pim_link.name
                ),
            });
        }
        Ok(Self {
            fc_pim_link,
            attn_pim_link,
            host_link,
            fc_pim_devices,
            attn_pim_devices,
        })
    }

    /// The pooled view of `nodes` identical nodes driven as one logical
    /// system (a tensor-parallel group): every route's bandwidth scales
    /// by the node count — each node owns its own copy of the links, and
    /// the group's traffic splits across them — while per-message
    /// latency is unchanged. Device counts scale the same way.
    /// `nodes == 1` is the identity.
    pub fn aggregated(mut self, nodes: usize) -> Self {
        let factor = nodes as f64;
        for link in [
            &mut self.fc_pim_link,
            &mut self.attn_pim_link,
            &mut self.host_link,
        ] {
            link.bandwidth = link.bandwidth * factor;
        }
        self.fc_pim_devices *= nodes;
        self.attn_pim_devices *= nodes;
        self
    }

    /// The link serving `route`.
    pub(crate) fn link(&self, route: Route) -> &LinkSpec {
        match route {
            Route::PuToFcPim => &self.fc_pim_link,
            Route::PuToAttnPim => &self.attn_pim_link,
            Route::HostToPu => &self.host_link,
        }
    }

    /// Time to move `bytes` over `route` in one message.
    pub fn transfer_time(&self, route: Route, bytes: Bytes) -> Time {
        self.link(route).transfer_time(bytes)
    }

    /// Energy to move `bytes` over `route`.
    pub fn transfer_energy(&self, route: Route, bytes: Bytes) -> Energy {
        self.link(route).transfer_energy(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_is_valid() {
        let t = SystemTopology::papi_default(30, 60).unwrap();
        assert_eq!(t.fc_pim_devices, 30);
        assert_eq!(t.attn_pim_devices, 60);
        assert_eq!(t.link(Route::PuToFcPim).name, "NVLink");
        assert_eq!(t.link(Route::PuToAttnPim).name, "CXL");
    }

    #[test]
    fn pcie_attn_pool_fan_out_enforced() {
        let r = SystemTopology::new(
            LinkSpec::nvlink(),
            LinkSpec::pcie_gen5_x16(),
            LinkSpec::pcie_gen5_x16(),
            30,
            60, // over PCIe's 32-device limit
        );
        assert!(r.is_err());
        assert!(r.unwrap_err().to_string().contains("fan-out"));
    }

    #[test]
    fn cxl_scales_to_large_pools() {
        assert!(SystemTopology::papi_default(30, 4096).is_ok());
        assert!(SystemTopology::papi_default(30, 4097).is_err());
    }

    #[test]
    fn aggregation_scales_bandwidth_and_devices_not_latency() {
        let one = SystemTopology::papi_default(30, 60).unwrap();
        let four = one.clone().aggregated(4);
        assert_eq!(one.clone().aggregated(1), one);
        for route in [Route::PuToFcPim, Route::PuToAttnPim, Route::HostToPu] {
            assert_eq!(
                four.link(route).bandwidth.value(),
                4.0 * one.link(route).bandwidth.value()
            );
            assert_eq!(four.link(route).latency, one.link(route).latency);
        }
        assert_eq!(four.fc_pim_devices, 120);
        assert_eq!(four.attn_pim_devices, 240);
        // Bulk transfers speed up; tiny ones stay latency-floored.
        let bulk = Bytes::from_mib(256.0);
        assert!(
            four.transfer_time(Route::PuToFcPim, bulk).value()
                < one.transfer_time(Route::PuToFcPim, bulk).value()
        );
    }

    #[test]
    fn weight_route_is_fastest_for_bulk() {
        let t = SystemTopology::papi_default(30, 60).unwrap();
        let bulk = Bytes::from_mib(256.0);
        let over_nvlink = t.transfer_time(Route::PuToFcPim, bulk);
        let over_cxl = t.transfer_time(Route::PuToAttnPim, bulk);
        assert!(over_nvlink.value() < over_cxl.value());
    }
}
