//! Sec-Gateway: data-center-interconnect access control.
//!
//! Deployed bump-in-the-wire at the cloud network boundary to "prevent
//! cross-network malicious traffic"; the FPGA "filters out specific traffic
//! based on the deployed policies" (§5.1). The model is what the
//! evaluation reads: the role's shell demands, its role-side code size
//! (Figure 3a) and its BITW datapath behind a priority-ordered ACL
//! pipeline (Figure 17).

use crate::common::{App, BitwPath};
use harmonia_hw::ip::MacIp;
use harmonia_hw::Vendor;
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::Freq;

/// The security-gateway application.
#[derive(Copy, Clone, Debug)]
pub struct SecGateway;

impl SecGateway {
    /// The gateway's BITW datapath on a 100G port (ACL lookup pipelines in
    /// ~24 cycles).
    pub fn datapath(&self) -> BitwPath {
        BitwPath::new(MacIp::new(Vendor::Xilinx, 100), 24, Freq::mhz(322))
    }
}

impl App for SecGateway {
    fn name(&self) -> &'static str {
        "Sec-Gateway"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("sec-gateway")
            .network_gbps(100)
            .network_ports(2)
            .memory(MemoryDemand::Ddr { channels: 1 }) // policy tables
            .queues(64)
            .user_domain(Freq::mhz(322), 512)
            .build()
    }

    fn role_loc(&self) -> u64 {
        // Figure 3a: the shell is 87 % of the Sec-Gateway project.
        5_600
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_line_rate_datapath() {
        let p = SecGateway.datapath().perf(512);
        assert!(p.throughput > 90.0);
        assert!(p.latency_us() < 10.0);
    }

    #[test]
    fn role_spec_demands_two_ports() {
        assert_eq!(SecGateway.role_spec().network_ports(), 2);
        assert!(SecGateway.role_workload().handcraft_loc() > 0);
    }
}
