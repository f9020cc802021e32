//! Role requirement descriptions.
//!
//! A role (the user-owned application logic) declares what it needs from
//! the shell — which RBBs, which instance performance points, how many
//! queues — and hierarchical tailoring (§3.3.2) turns that into a
//! role-specific shell. Roles written against the unified abstraction port
//! to any device whose hardware capabilities cover these demands.

use harmonia_hw::resource::ResourceUsage;
use harmonia_sim::Freq;
use std::fmt;

/// External-memory demand of a role.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MemoryDemand {
    /// DDR with at least this many channels.
    Ddr {
        /// Channels required.
        channels: u32,
    },
    /// An HBM stack (high-bandwidth workloads, e.g. embedding retrieval).
    Hbm,
}

/// A role's shell requirements plus its own logic footprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoleSpec {
    name: String,
    network_gbps: Option<u32>,
    network_ports: u32,
    memory: Option<MemoryDemand>,
    host_link: bool,
    desired_queues: u16,
    multicast: bool,
    user_clock: Freq,
    user_width_bits: u32,
    role_resources: ResourceUsage,
}

impl RoleSpec {
    /// Starts building a role spec.
    pub fn builder(name: impl Into<String>) -> RoleSpecBuilder {
        RoleSpecBuilder {
            spec: RoleSpec {
                name: name.into(),
                network_gbps: None,
                network_ports: 2,
                memory: None,
                host_link: true,
                desired_queues: 64,
                multicast: false,
                user_clock: Freq::mhz(250),
                user_width_bits: 512,
                role_resources: ResourceUsage::new(60_000, 90_000, 120, 8, 64),
            },
        }
    }

    /// Role name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Required network speed, if the role uses the Network RBB.
    pub fn network_gbps(&self) -> Option<u32> {
        self.network_gbps
    }

    /// Number of network ports required (BITW roles need two).
    pub fn network_ports(&self) -> u32 {
        self.network_ports
    }

    /// Memory demand, if any.
    pub fn memory(&self) -> Option<MemoryDemand> {
        self.memory
    }

    /// Whether the role needs the Host RBB (almost all do).
    pub fn host_link(&self) -> bool {
        self.host_link
    }

    /// DMA queues the role wants exposed.
    pub(crate) fn desired_queues(&self) -> u16 {
        self.desired_queues
    }

    /// Whether the packet filter must accept multicast.
    pub(crate) fn multicast(&self) -> bool {
        self.multicast
    }

    /// The role's clock (R in the CDC equation).
    #[cfg(test)]
    pub(crate) fn user_clock(&self) -> Freq {
        self.user_clock
    }

    /// The role's data width (U in the CDC equation).
    pub fn user_width_bits(&self) -> u32 {
        self.user_width_bits
    }

    /// The role logic's own resource footprint.
    pub fn role_resources(&self) -> &ResourceUsage {
        &self.role_resources
    }
}

impl fmt::Display for RoleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "role '{}'", self.name)?;
        if let Some(g) = self.network_gbps {
            write!(f, " net:{g}G×{}", self.network_ports)?;
        }
        match self.memory {
            Some(MemoryDemand::Ddr { channels }) => write!(f, " mem:DDR×{channels}")?,
            Some(MemoryDemand::Hbm) => write!(f, " mem:HBM")?,
            None => {}
        }
        if self.host_link {
            write!(f, " host:{}q", self.desired_queues)?;
        }
        Ok(())
    }
}

/// Builder for [`RoleSpec`].
#[derive(Clone, Debug)]
pub struct RoleSpecBuilder {
    spec: RoleSpec,
}

impl RoleSpecBuilder {
    /// Requires the Network RBB at the given speed.
    pub fn network_gbps(mut self, gbps: u32) -> Self {
        self.spec.network_gbps = Some(gbps);
        self
    }

    /// Sets the number of network ports (default 2 for bump-in-the-wire).
    pub fn network_ports(mut self, ports: u32) -> Self {
        self.spec.network_ports = ports;
        self
    }

    /// Requires the Memory RBB.
    pub fn memory(mut self, demand: MemoryDemand) -> Self {
        self.spec.memory = Some(demand);
        self
    }

    /// Opts out of the Host RBB (pure wire-speed roles).
    #[cfg(test)]
    fn no_host_link(mut self) -> Self {
        self.spec.host_link = false;
        self
    }

    /// Sets the desired DMA queue count.
    pub fn queues(mut self, queues: u16) -> Self {
        self.spec.desired_queues = queues;
        self
    }

    /// Requires multicast acceptance in the packet filter.
    pub fn multicast(mut self) -> Self {
        self.spec.multicast = true;
        self
    }

    /// Sets the role's clock and data width (the R × U side of the CDC).
    pub fn user_domain(mut self, clock: Freq, width_bits: u32) -> Self {
        self.spec.user_clock = clock;
        self.spec.user_width_bits = width_bits;
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    ///
    /// Panics if the role demands nothing at all — a role with no shell
    /// services cannot exist in the shell-role architecture.
    pub fn build(self) -> RoleSpec {
        let s = &self.spec;
        assert!(
            s.network_gbps.is_some() || s.memory.is_some() || s.host_link,
            "role '{}' demands no shell service",
            s.name
        );
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let r = RoleSpec::builder("x").network_gbps(100).build();
        assert_eq!(r.network_gbps(), Some(100));
        assert_eq!(r.network_ports(), 2);
        assert!(r.host_link());
        assert_eq!(r.desired_queues(), 64);
        assert!(!r.multicast());
    }

    #[test]
    fn full_configuration() {
        let r = RoleSpec::builder("retrieval")
            .memory(MemoryDemand::Hbm)
            .queues(256)
            .user_domain(Freq::mhz(322), 512)
            .multicast()
            .build();
        assert_eq!(r.memory(), Some(MemoryDemand::Hbm));
        assert_eq!(r.desired_queues(), 256);
        assert!(r.multicast());
        assert_eq!(r.user_clock(), Freq::mhz(322));
    }

    #[test]
    #[should_panic(expected = "demands no shell service")]
    fn empty_role_rejected() {
        let _ = RoleSpec::builder("void").no_host_link().build();
    }

    #[test]
    fn display_summarizes_demands() {
        let r = RoleSpec::builder("lb")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 2 })
            .build();
        let s = r.to_string();
        assert!(s.contains("net:100G"));
        assert!(s.contains("DDR×2"));
    }
}
