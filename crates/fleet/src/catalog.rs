//! The fleet role catalog: production applications as placeable roles.
//!
//! Each [`RoleClass`] wraps a role the fleet must keep serving — the
//! five applications of `harmonia-apps` plus a stateless edge filter
//! that exercises the memory-less Device C — with the knobs the
//! placement scheduler needs: its demand share of user traffic, the
//! command fan-out per user request, a per-model service cost, and a
//! tenant weight that buys headroom.
//!
//! Per-model *fit* is not declared — it is computed by actually
//! tailoring the role's [`RoleSpec`] onto each catalog device, so the
//! same machinery that gates a real deployment gates fleet placement
//! (retrieval's HBM demand pins it to Device A; the DDR-backed network
//! roles skip the DRAM-less Device C).

use harmonia_apps::common::App;
use harmonia_apps::l4lb::Backend;
use harmonia_apps::{HostNetwork, Layer4Lb, RetrievalEngine, SecGateway, StorageOffload};
use harmonia_hw::device::{catalog as hw_catalog, DeviceId};
use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};
use harmonia_sim::Picos;

/// A placeable role class: what the placement scheduler schedules.
#[derive(Clone, Debug)]
pub struct RoleClass {
    /// Role name (stable identifier in reports and metrics labels).
    pub name: &'static str,
    /// Shell demands, used both for fit checks and migration costing.
    pub spec: RoleSpec,
    /// Share of user requests routed to this role, in parts-per-million.
    /// The standard catalog's shares sum to exactly 1 000 000.
    pub share_ppm: u64,
    /// Commands one user request fans out to on this role.
    pub cmds_per_req: u64,
    /// Service cost in ps × speed-units: a device of speed `s` serves one
    /// command in `unit_cost / s` picoseconds (see
    /// `inventory::device_speed`).
    pub unit_cost: u64,
    /// Tenant weight. Placement buys `weight`-scaled headroom: the target
    /// utilization for a role is `RoleClass::target_util_ppm`.
    pub weight: u64,
}

impl RoleClass {
    /// Service time of one command on a device of the given speed.
    pub(crate) fn service_ps(&self, speed: u64) -> Picos {
        (self.unit_cost / speed).max(1)
    }

    /// Commands per tick a device of the given speed can serve.
    pub(crate) fn capacity_per_tick(&self, speed: u64) -> u64 {
        crate::TICK_PS / self.service_ps(speed)
    }

    /// Target utilization for placement, in parts-per-million: weight
    /// buys headroom (`800 000 − 50 000 × weight`, floored at 500 000),
    /// so a weight-4 tenant's replicas run at ≤ 60 % where a weight-1
    /// tenant's run at ≤ 75 %.
    pub(crate) fn target_util_ppm(&self) -> u64 {
        800_000u64.saturating_sub(50_000 * self.weight).max(500_000)
    }

    /// Whether this role tailors onto the given catalog device — the
    /// real deployment gate, reused as the placement fit check.
    pub fn fits(&self, model: DeviceId) -> bool {
        let device = hw_catalog::device(model);
        let unified = UnifiedShell::for_device(&device);
        TailoredShell::tailor(&unified, &self.spec).is_ok()
    }
}

/// The standard fleet role catalog, in fixed declaration order.
///
/// Shares sum to exactly 1 000 000 ppm, so per-tick user requests are
/// conserved when split across roles (the remainder of each integer
/// split goes to the first role).
pub fn standard_catalog() -> Vec<RoleClass> {
    vec![
        RoleClass {
            name: "l4lb",
            spec: Layer4Lb::new(vec![Backend { id: 0, weight: 1 }], 16).role_spec(),
            share_ppm: 250_000,
            cmds_per_req: 1,
            unit_cost: 6_000_000_000_000,
            weight: 2,
        },
        RoleClass {
            name: "edge-filter",
            spec: edge_filter_spec(),
            share_ppm: 250_000,
            cmds_per_req: 1,
            unit_cost: 5_000_000_000_000,
            weight: 1,
        },
        RoleClass {
            name: "sec-gateway",
            spec: SecGateway.role_spec(),
            share_ppm: 200_000,
            cmds_per_req: 1,
            unit_cost: 7_000_000_000_000,
            weight: 1,
        },
        RoleClass {
            name: "host-network",
            spec: HostNetwork.role_spec(),
            share_ppm: 200_000,
            cmds_per_req: 1,
            unit_cost: 8_000_000_000_000,
            weight: 1,
        },
        RoleClass {
            name: "retrieval",
            spec: RetrievalEngine::synthetic(42, 1, 1).role_spec(),
            share_ppm: 50_000,
            cmds_per_req: 2,
            unit_cost: 24_000_000_000_000,
            weight: 4,
        },
        RoleClass {
            name: "storage-offload",
            spec: StorageOffload.role_spec(),
            share_ppm: 50_000,
            cmds_per_req: 2,
            unit_cost: 10_000_000_000_000,
            weight: 1,
        },
    ]
}

/// A stateless 100G packet-filter role with no external-memory demand —
/// the only catalog role the DRAM-less Device C can host, and the role
/// that keeps C's 200G cages earning.
fn edge_filter_spec() -> RoleSpec {
    RoleSpec::builder("edge-filter")
        .network_gbps(100)
        .network_ports(2)
        .queues(64)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_exactly_one_million_ppm() {
        let total: u64 = standard_catalog().iter().map(|r| r.share_ppm).sum();
        assert_eq!(total, 1_000_000);
    }

    #[test]
    fn fit_matrix_matches_the_catalog_peripherals() {
        let roles = standard_catalog();
        let by_name = |n: &str| roles.iter().find(|r| r.name == n).unwrap();
        // Retrieval demands HBM: Device A only.
        assert!(by_name("retrieval").fits(DeviceId::A));
        for m in [DeviceId::B, DeviceId::C, DeviceId::D] {
            assert!(!by_name("retrieval").fits(m), "retrieval fit {m:?}");
        }
        // DDR-backed network roles fit everything but the DRAM-less C.
        for n in ["l4lb", "sec-gateway", "host-network", "storage-offload"] {
            assert!(by_name(n).fits(DeviceId::A), "{n} on A");
            assert!(by_name(n).fits(DeviceId::B), "{n} on B");
            assert!(!by_name(n).fits(DeviceId::C), "{n} on C");
            assert!(by_name(n).fits(DeviceId::D), "{n} on D");
        }
        // The stateless edge filter fits all four models.
        for m in DeviceId::ALL {
            assert!(by_name("edge-filter").fits(m), "edge-filter on {m:?}");
        }
    }

    #[test]
    fn weight_buys_headroom() {
        let roles = standard_catalog();
        let retrieval = roles.iter().find(|r| r.name == "retrieval").unwrap();
        let edge = roles.iter().find(|r| r.name == "edge-filter").unwrap();
        assert_eq!(retrieval.target_util_ppm(), 600_000);
        assert_eq!(edge.target_util_ppm(), 750_000);
        assert!(retrieval.target_util_ppm() < edge.target_util_ppm());
    }

    #[test]
    fn service_and_capacity_are_consistent() {
        let r = &standard_catalog()[0];
        let speed = 228;
        let s = r.service_ps(speed);
        assert_eq!(r.capacity_per_tick(speed), crate::TICK_PS / s);
        // Faster devices serve strictly faster.
        assert!(r.service_ps(456) < s);
    }
}
