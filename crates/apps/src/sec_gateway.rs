//! Sec-Gateway: data-center-interconnect access control.
//!
//! Deployed bump-in-the-wire at the cloud network boundary to "prevent
//! cross-network malicious traffic"; the FPGA "filters out specific traffic
//! based on the deployed policies" (§5.1). The role logic is a
//! priority-ordered ACL over 5-tuple prefixes.

use crate::common::{App, BitwPath};
use harmonia_hw::ip::MacIp;
use harmonia_shell::rbb::network::PacketMeta;
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::Freq;
use harmonia_hw::Vendor;

/// Rule verdicts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Let the packet through.
    Allow,
    /// Drop the packet.
    Deny,
}

/// One access-control rule: prefix matches on addresses plus optional
/// exact matches on port/protocol. Lower `priority` wins.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AclRule {
    /// Source prefix: (address, prefix length 0–32).
    pub src: (u32, u8),
    /// Destination prefix.
    pub dst: (u32, u8),
    /// Optional destination-port exact match.
    pub dst_port: Option<u16>,
    /// Optional protocol exact match.
    pub proto: Option<u8>,
    /// Priority (lower matches first).
    pub priority: u16,
    /// Verdict on match.
    pub action: Action,
}

impl AclRule {
    fn prefix_match(value: u32, (addr, len): (u32, u8)) -> bool {
        if len == 0 {
            return true;
        }
        let shift = 32 - u32::from(len.min(32));
        (value >> shift) == (addr >> shift)
    }

    /// Whether the rule matches a packet.
    pub fn matches(&self, pkt: &PacketMeta) -> bool {
        Self::prefix_match(pkt.src_ip, self.src)
            && Self::prefix_match(pkt.dst_ip, self.dst)
            && self.dst_port.is_none_or(|p| p == pkt.dst_port)
            && self.proto.is_none_or(|p| p == pkt.proto)
    }
}

/// Per-gateway counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Packets allowed through.
    pub allowed: u64,
    /// Packets denied by policy.
    pub denied: u64,
    /// Bytes allowed through.
    pub allowed_bytes: u64,
}

/// The security-gateway application.
#[derive(Clone, Debug)]
pub struct SecGateway {
    rules: Vec<AclRule>,
    default_action: Action,
    stats: GatewayStats,
}

impl SecGateway {
    /// Policy-table capacity (TCAM-backed in hardware).
    pub const RULE_CAPACITY: usize = 4096;

    /// Creates a gateway with a default verdict for unmatched traffic.
    pub fn new(default_action: Action) -> Self {
        SecGateway {
            rules: Vec::new(),
            default_action,
            stats: GatewayStats::default(),
        }
    }

    /// Installs a rule, keeping priority order.
    ///
    /// # Errors
    ///
    /// Returns the rule back when the table is full.
    pub fn install_rule(&mut self, rule: AclRule) -> Result<(), AclRule> {
        if self.rules.len() >= Self::RULE_CAPACITY {
            return Err(rule);
        }
        let pos = self
            .rules
            .partition_point(|r| r.priority <= rule.priority);
        self.rules.insert(pos, rule);
        Ok(())
    }

    /// Classifies one packet (first matching rule wins).
    pub fn classify(&self, pkt: &PacketMeta) -> Action {
        self.rules
            .iter()
            .find(|r| r.matches(pkt))
            .map_or(self.default_action, |r| r.action)
    }

    /// Processes one packet, updating counters.
    pub fn process(&mut self, pkt: &PacketMeta) -> Action {
        let action = self.classify(pkt);
        match action {
            Action::Allow => {
                self.stats.allowed += 1;
                self.stats.allowed_bytes += u64::from(pkt.bytes);
            }
            Action::Deny => self.stats.denied += 1,
        }
        action
    }

    /// Current counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

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

    fn pkt(src_ip: u32, dst_port: u16) -> PacketMeta {
        PacketMeta {
            dst_mac: 1,
            src_ip,
            dst_ip: 0x0A00_0001,
            src_port: 9999,
            dst_port,
            proto: 6,
            bytes: 256,
        }
    }

    fn deny_subnet_rule() -> AclRule {
        AclRule {
            src: (0xC0A8_0000, 16), // 192.168.0.0/16
            dst: (0, 0),
            dst_port: None,
            proto: None,
            priority: 10,
            action: Action::Deny,
        }
    }

    #[test]
    fn default_action_applies_without_rules() {
        let mut gw = SecGateway::new(Action::Allow);
        assert_eq!(gw.process(&pkt(1, 80)), Action::Allow);
        let mut strict = SecGateway::new(Action::Deny);
        assert_eq!(strict.process(&pkt(1, 80)), Action::Deny);
    }

    #[test]
    fn prefix_rules_match_subnets() {
        let mut gw = SecGateway::new(Action::Allow);
        gw.install_rule(deny_subnet_rule()).unwrap();
        assert_eq!(gw.classify(&pkt(0xC0A8_1234, 80)), Action::Deny);
        assert_eq!(gw.classify(&pkt(0xC0A9_0000, 80)), Action::Allow);
    }

    #[test]
    fn priority_order_wins() {
        let mut gw = SecGateway::new(Action::Deny);
        gw.install_rule(deny_subnet_rule()).unwrap();
        // Higher-priority (lower number) exception allows one port.
        gw.install_rule(AclRule {
            src: (0xC0A8_0000, 16),
            dst: (0, 0),
            dst_port: Some(443),
            proto: Some(6),
            priority: 1,
            action: Action::Allow,
        })
        .unwrap();
        assert_eq!(gw.classify(&pkt(0xC0A8_0001, 443)), Action::Allow);
        assert_eq!(gw.classify(&pkt(0xC0A8_0001, 80)), Action::Deny);
    }

    #[test]
    fn counters_track_verdicts() {
        let mut gw = SecGateway::new(Action::Allow);
        gw.install_rule(deny_subnet_rule()).unwrap();
        gw.process(&pkt(0xC0A8_0001, 80));
        gw.process(&pkt(1, 80));
        gw.process(&pkt(2, 80));
        let s = gw.stats();
        assert_eq!(s.denied, 1);
        assert_eq!(s.allowed, 2);
        assert_eq!(s.allowed_bytes, 512);
    }

    #[test]
    fn table_capacity_enforced() {
        let mut gw = SecGateway::new(Action::Allow);
        for i in 0..SecGateway::RULE_CAPACITY {
            gw.install_rule(AclRule {
                src: (i as u32, 32),
                dst: (0, 0),
                dst_port: None,
                proto: None,
                priority: 100,
                action: Action::Deny,
            })
            .unwrap();
        }
        assert!(gw.install_rule(deny_subnet_rule()).is_err());
    }

    #[test]
    fn zero_length_prefix_matches_everything() {
        let r = AclRule {
            src: (0xFFFF_FFFF, 0),
            dst: (0, 0),
            dst_port: None,
            proto: None,
            priority: 1,
            action: Action::Deny,
        };
        assert!(r.matches(&pkt(0, 80)));
        assert!(r.matches(&pkt(u32::MAX, 80)));
    }

    #[test]
    fn full_line_rate_datapath() {
        let gw = SecGateway::new(Action::Allow);
        let p = gw.datapath().perf(512);
        assert!(p.throughput > 90.0);
        assert!(p.latency_us() < 10.0);
    }

    #[test]
    fn role_spec_demands_two_ports() {
        let gw = SecGateway::new(Action::Allow);
        assert_eq!(gw.role_spec().network_ports(), 2);
        assert!(gw.role_workload().handcraft_loc() > 0);
    }
}
