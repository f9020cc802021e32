//! Host Network: network-function offloading (checksum, OVS-style flow
//! cache).
//!
//! The FPGA sits bump-in-the-wire in front of the host NIC path and
//! offloads per-packet work: RFC 1071 checksums and an OVS megaflow cache
//! applying forwarding actions (§5.1). The model is what the evaluation
//! reads: the role's shell demands, its role-side code size (Figure 3a)
//! and its BITW datapath (Figure 17).

use crate::common::{App, BitwPath};
use harmonia_hw::ip::MacIp;
use harmonia_hw::Vendor;
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::Freq;

/// The host-network offload application.
#[derive(Copy, Clone, Debug)]
pub struct HostNetwork;

impl HostNetwork {
    /// The offload BITW datapath (parse + cache + checksum ≈ 26 cycles).
    pub fn datapath(&self) -> BitwPath {
        BitwPath::new(MacIp::new(Vendor::Intel, 100), 26, Freq::mhz(322))
    }
}

impl App for HostNetwork {
    fn name(&self) -> &'static str {
        "Host Network"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("host-network")
            .network_gbps(100)
            .network_ports(2)
            .memory(MemoryDemand::Ddr { channels: 1 }) // megaflow spill
            .queues(256)
            .multicast()
            .user_domain(Freq::mhz(322), 512)
            .build()
    }

    fn role_loc(&self) -> u64 {
        // Figure 3a: the shell is 66 % of the Host Network project — this
        // is the largest role of the five.
        18_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapath_line_rate() {
        let p = HostNetwork.datapath().perf(1024);
        assert!(p.throughput > 95.0);
    }
}
