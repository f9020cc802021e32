//! Hierarchical shell tailoring (§3.3.2, Figure 7).
//!
//! Two levels:
//!
//! 1. **Module-level** — remove non-essential RBBs from the unified shell
//!    based on the role's resource and functional requirements, and for the
//!    remaining RBBs select instances that fulfill the role's performance
//!    demands (e.g. a 25G vs 100G MAC, DDR vs HBM);
//! 2. **Property-level** — split the retained instances' properties into a
//!    shell-oriented part the provider owns and a role-oriented part, and
//!    expose only the latter to the role.
//!
//! The result is the role-specific shell of Figures 11 (resource savings)
//! and 12 (configuration reduction).

use crate::health::HealthLedger;
use crate::rbb::{HostRbb, MemoryRbb, MigrationKind, NetworkRbb, Rbb, RbbKind};
use crate::role::{MemoryDemand, RoleSpec};
use crate::unified::{management_components, UnifiedShell};
use harmonia_hw::device::Peripheral;
use harmonia_hw::resource::{ResourceKind, ResourceUsage};
use harmonia_metrics::config::ConfigInventory;
use harmonia_metrics::workload::{ModuleWorkload, Origin};
use std::error::Error;
use std::fmt;

/// Reasons a role cannot be tailored onto a device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailorError {
    /// The role asks for zero queues.
    NoQueues,
    /// The role asks for more queues than a Host RBB has.
    TooManyQueues {
        /// Queues wanted.
        wanted: u16,
        /// Queues a Host RBB has ([`HostRbb::QUEUES`]).
        max: u16,
    },
    /// The role asks for DDR with zero channels.
    NoMemoryChannels,
    /// The device's network cages cannot reach the demanded speed.
    NetworkSpeedUnavailable {
        /// Speed the role wants, Gbps.
        wanted_gbps: u32,
        /// Fastest cage available, Gbps (0 = none).
        best_gbps: u32,
    },
    /// Fewer suitable network ports than the role demands.
    NotEnoughPorts {
        /// Ports wanted.
        wanted: u32,
        /// Suitable ports available.
        available: u32,
    },
    /// The demanded memory kind/channel count is absent.
    MemoryUnavailable {
        /// The unmet demand.
        demand: MemoryDemand,
    },
    /// The role needs a host link but the device has no PCIe endpoint.
    HostLinkUnavailable,
    /// Shell + role logic exceed the device's capacity.
    DoesNotFit {
        /// Combined requirement.
        required: ResourceUsage,
        /// Device capacity.
        capacity: ResourceUsage,
    },
}

impl fmt::Display for TailorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailorError::NoQueues => f.write_str("role asks for zero queues"),
            TailorError::TooManyQueues { wanted, max } => {
                write!(f, "role asks for {wanted} queues, a Host RBB has {max}")
            }
            TailorError::NoMemoryChannels => f.write_str("role asks for DDR with zero channels"),
            TailorError::NetworkSpeedUnavailable {
                wanted_gbps,
                best_gbps,
            } => write!(
                f,
                "role wants {wanted_gbps}G networking, device tops out at {best_gbps}G"
            ),
            TailorError::NotEnoughPorts { wanted, available } => {
                write!(
                    f,
                    "role wants {wanted} network ports, device has {available}"
                )
            }
            TailorError::MemoryUnavailable { demand } => {
                write!(f, "device lacks demanded memory {demand:?}")
            }
            TailorError::HostLinkUnavailable => f.write_str("device has no PCIe endpoint"),
            TailorError::DoesNotFit { .. } => f.write_str("shell + role exceed device capacity"),
        }
    }
}

impl Error for TailorError {}

/// A role-specific shell produced by hierarchical tailoring.
#[derive(Debug)]
pub struct TailoredShell {
    role_name: String,
    device_name: String,
    rbbs: Vec<Box<dyn Rbb>>,
    mgmt_resources: ResourceUsage,
    health: HealthLedger,
}

impl TailoredShell {
    /// Standard MAC instance speeds selectable at module level.
    const MAC_SPEEDS: [u32; 4] = [25, 100, 200, 400];

    /// Tailors the unified shell to a role.
    ///
    /// # Errors
    ///
    /// Returns a [`TailorError`] when the role's own demands are malformed
    /// (zero queues, more queues than [`HostRbb::QUEUES`], DDR with zero
    /// channels), or when the device lacks a demanded capability — the
    /// paper's portability caveat: roles migrate freely only "to FPGA
    /// platforms that have appropriate hardware capabilities".
    pub fn tailor(unified: &UnifiedShell, role: &RoleSpec) -> Result<TailoredShell, TailorError> {
        Self::validate(role)?;
        let device = unified.device();
        let die = device.die_vendor();
        let mut rbbs: Vec<Box<dyn Rbb>> = Vec::new();

        // Module level: Network RBBs at the selected instance speed.
        if let Some(wanted) = role.network_gbps() {
            let instance_speed = Self::MAC_SPEEDS
                .iter()
                .copied()
                .find(|&s| s >= wanted)
                .unwrap_or(400);
            let suitable = device
                .peripherals()
                .iter()
                .filter(|p| match p {
                    Peripheral::Qsfp { gbps } | Peripheral::Dsfp { gbps } => *gbps >= wanted,
                    _ => false,
                })
                .count() as u32;
            if suitable == 0 {
                return Err(TailorError::NetworkSpeedUnavailable {
                    wanted_gbps: wanted,
                    best_gbps: device
                        .peripherals()
                        .iter()
                        .filter_map(|p| match p {
                            Peripheral::Qsfp { gbps } | Peripheral::Dsfp { gbps } => Some(*gbps),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(0),
                });
            }
            if suitable < role.network_ports() {
                return Err(TailorError::NotEnoughPorts {
                    wanted: role.network_ports(),
                    available: suitable,
                });
            }
            for _ in 0..role.network_ports() {
                let mut net = NetworkRbb::with_speed(die, instance_speed, role.desired_queues());
                net.set_accept_multicast(role.multicast());
                rbbs.push(Box::new(net));
            }
        }

        if role.network_gbps().is_none() && device.peripherals().iter().any(Peripheral::is_network)
        {
            // Production shells retain a minimal 25G management port even
            // when the role itself does no packet processing (remote
            // update/telemetry path), which bounds how much module-level
            // tailoring can ever strip.
            rbbs.push(Box::new(NetworkRbb::with_speed(die, 25, 4)));
        }

        // Module level: Memory RBB instance selection (BDMA-vs-SGDMA-style
        // choice collapses to DDR-vs-HBM here).
        if let Some(demand) = role.memory() {
            match demand {
                MemoryDemand::Ddr { channels } => {
                    let gen = match crate::unified::usable_ddr(device) {
                        Some((available, gen)) if available >= channels => gen,
                        _ => return Err(TailorError::MemoryUnavailable { demand }),
                    };
                    rbbs.push(Box::new(MemoryRbb::ddr(die, gen, channels)));
                }
                MemoryDemand::Hbm => {
                    if !device.has_hbm() {
                        return Err(TailorError::MemoryUnavailable { demand });
                    }
                    rbbs.push(Box::new(MemoryRbb::hbm(die)));
                }
            }
        }

        // Module level: Host RBB.
        if role.host_link() {
            let (gen, lanes) = device.pcie().ok_or(TailorError::HostLinkUnavailable)?;
            rbbs.push(Box::new(HostRbb::with_advertised_queues(
                harmonia_hw::ip::PcieDmaIp::new(die, gen, lanes),
                role.desired_queues(),
            )));
        }

        let mgmt_resources: ResourceUsage =
            management_components().iter().map(|c| c.resources).sum();
        let shell = TailoredShell {
            role_name: role.name().to_string(),
            device_name: device.name().to_string(),
            rbbs,
            mgmt_resources,
            health: HealthLedger::new(),
        };

        let required =
            (shell.resources() + *role.role_resources()).retargeted_for(device.capacity());
        if !required.fits_in(device.capacity()) {
            return Err(TailorError::DoesNotFit {
                required,
                capacity: *device.capacity(),
            });
        }
        Ok(shell)
    }

    /// Rejects demands no device can meet, before any RBB is built (the
    /// RBB constructors panic on them).
    fn validate(role: &RoleSpec) -> Result<(), TailorError> {
        let wanted = role.desired_queues();
        if wanted == 0 {
            return Err(TailorError::NoQueues);
        }
        if wanted > HostRbb::QUEUES {
            return Err(TailorError::TooManyQueues {
                wanted,
                max: HostRbb::QUEUES,
            });
        }
        if role.memory() == Some(MemoryDemand::Ddr { channels: 0 }) {
            return Err(TailorError::NoMemoryChannels);
        }
        Ok(())
    }

    /// The retained RBBs.
    pub fn rbbs(&self) -> &[Box<dyn Rbb>] {
        &self.rbbs
    }

    /// `(rbb_id, instance)` of every RBB in attach order: the module
    /// addresses the control kernel registers and commands target.
    pub fn modules(&self) -> impl Iterator<Item = (u8, u8)> + '_ {
        crate::rbb::instances(self.rbbs.iter().map(|r| r.as_ref()))
            .map(|(rbb, instance)| (rbb.kind().id(), instance))
    }

    /// RBBs of one kind.
    pub fn rbbs_of(&self, kind: RbbKind) -> impl Iterator<Item = &dyn Rbb> + '_ {
        self.rbbs
            .iter()
            .filter(move |r| r.kind() == kind)
            .map(|r| r.as_ref())
    }

    /// The shell's module-health ledger (graceful degradation: a module
    /// the driver gave up on is out of service, the rest keep serving).
    pub fn health(&self) -> &HealthLedger {
        &self.health
    }

    /// Mutable health ledger, for the host driver's failure handling.
    pub fn health_mut(&mut self) -> &mut HealthLedger {
        &mut self.health
    }

    /// Total shell resources after tailoring.
    pub fn resources(&self) -> ResourceUsage {
        let rbb: ResourceUsage = self.rbbs.iter().map(|r| r.resources()).sum();
        rbb + self.mgmt_resources
    }

    /// Resource savings versus the unified shell, as a fraction per kind
    /// (Figure 11). Kinds the unified shell does not use report 0.
    pub(crate) fn savings_vs(&self, unified: &UnifiedShell, kind: ResourceKind) -> f64 {
        let u = unified.resources().get(kind);
        if u == 0 {
            return 0.0;
        }
        let t = self.resources().get(kind);
        1.0 - (t as f64 / u as f64)
    }

    /// Overall (LUT-weighted) saving fraction.
    pub fn overall_savings_vs(&self, unified: &UnifiedShell) -> f64 {
        self.savings_vs(unified, ResourceKind::Lut)
    }

    /// The property-level split: merged config inventory of retained RBBs.
    /// The role sees only the role-oriented items.
    pub fn config_inventory(&self) -> ConfigInventory {
        let mut inv = ConfigInventory::new(format!("{}-shell", self.role_name));
        for r in &self.rbbs {
            inv.merge(&r.config_inventory());
        }
        inv
    }

    /// Development-workload inventory under a migration (Figure 15's
    /// per-application view).
    pub fn workload(&self, migration: MigrationKind) -> ModuleWorkload {
        let mut w: ModuleWorkload = self.rbbs.iter().map(|r| r.workload(migration)).sum();
        for c in management_components() {
            let origin = if c.portability.reused_under(migration) {
                Origin::Reused
            } else {
                Origin::Handcraft
            };
            w.add(c.name, c.loc, origin);
        }
        w
    }
}

impl fmt::Display for TailoredShell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shell[{} on {}]: {} RBBs",
            self.role_name,
            self.device_name,
            self.rbbs.len()
        )?;
        if self.health.degraded_count() > 0 {
            write!(f, " ({} degraded)", self.health.degraded_count())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_sim::Freq;

    fn unified_a() -> UnifiedShell {
        UnifiedShell::for_device(&catalog::device_a())
    }

    fn netrole() -> RoleSpec {
        RoleSpec::builder("netrole").network_gbps(100).build()
    }

    #[test]
    fn tailoring_drops_unneeded_rbbs() {
        let u = unified_a();
        let t = TailoredShell::tailor(&u, &netrole()).unwrap();
        assert_eq!(t.rbbs_of(RbbKind::Network).count(), 2);
        assert_eq!(t.rbbs_of(RbbKind::Memory).count(), 0);
        assert_eq!(t.rbbs_of(RbbKind::Host).count(), 1);
    }

    #[test]
    fn savings_in_fig11_band() {
        let u = unified_a();
        // The four evaluation roles span the 3–25.1 % saving range.
        let roles = [
            RoleSpec::builder("sec-gateway")
                .network_gbps(100)
                .memory(MemoryDemand::Ddr { channels: 1 })
                .build(),
            RoleSpec::builder("layer4-lb")
                .network_gbps(100)
                .memory(MemoryDemand::Ddr { channels: 1 })
                .build(),
            RoleSpec::builder("retrieval")
                .network_ports(1)
                .network_gbps(100)
                .memory(MemoryDemand::Hbm)
                .build(),
            RoleSpec::builder("host-network")
                .network_gbps(100)
                .memory(MemoryDemand::Ddr { channels: 1 })
                .multicast()
                .build(),
        ];
        for role in &roles {
            let t = TailoredShell::tailor(&u, role).unwrap();
            let s = 100.0 * t.overall_savings_vs(&u);
            assert!(
                (2.0..=31.0).contains(&s),
                "{}: saving {s:.1}% outside the Figure 11 range",
                role.name()
            );
        }
    }

    #[test]
    fn instance_selection_picks_matching_speed() {
        let u = unified_a();
        let slow = RoleSpec::builder("slow").network_gbps(25).build();
        let t = TailoredShell::tailor(&u, &slow).unwrap();
        let net = t.rbbs_of(RbbKind::Network).next().unwrap();
        assert_eq!(net.instance().data_width_bits(), 128); // 25G instance
                                                           // The tailored 25G shell is cheaper than a 100G selection.
        let fast = TailoredShell::tailor(&u, &netrole()).unwrap();
        assert!(t.resources().lut < fast.resources().lut);
    }

    #[test]
    fn missing_memory_capability_rejected() {
        let uc = UnifiedShell::for_device(&catalog::device_c());
        let role = RoleSpec::builder("needs-hbm")
            .memory(MemoryDemand::Hbm)
            .build();
        assert_eq!(
            TailoredShell::tailor(&uc, &role).unwrap_err(),
            TailorError::MemoryUnavailable {
                demand: MemoryDemand::Hbm
            }
        );
    }

    #[test]
    fn network_speed_shortfall_rejected() {
        let ud = UnifiedShell::for_device(&catalog::device_d());
        let role = RoleSpec::builder("fast").network_gbps(400).build();
        assert_eq!(
            TailoredShell::tailor(&ud, &role).unwrap_err(),
            TailorError::NetworkSpeedUnavailable {
                wanted_gbps: 400,
                best_gbps: 100
            }
        );
    }

    #[test]
    fn port_shortage_rejected() {
        let u = unified_a();
        let role = RoleSpec::builder("many-ports")
            .network_gbps(100)
            .network_ports(4)
            .build();
        assert!(matches!(
            TailoredShell::tailor(&u, &role).unwrap_err(),
            TailorError::NotEnoughPorts { available: 2, .. }
        ));
    }

    #[test]
    fn oversized_role_rejected() {
        let u = unified_a();
        let role = RoleSpec::builder("huge")
            .network_gbps(100)
            .role_resources(ResourceUsage::new(10_000_000, 1, 0, 0, 0))
            .build();
        assert!(matches!(
            TailoredShell::tailor(&u, &role).unwrap_err(),
            TailorError::DoesNotFit { .. }
        ));
    }

    #[test]
    fn zero_queues_rejected() {
        let role = RoleSpec::builder("no-queues")
            .network_gbps(100)
            .queues(0)
            .build();
        let err = TailoredShell::tailor(&unified_a(), &role).unwrap_err();
        assert_eq!(err, TailorError::NoQueues);
        assert_eq!(err.to_string(), "role asks for zero queues");
    }

    #[test]
    fn more_queues_than_the_host_rbb_has_rejected() {
        let role = RoleSpec::builder("greedy")
            .queues(HostRbb::QUEUES + 1)
            .build();
        let err = TailoredShell::tailor(&unified_a(), &role).unwrap_err();
        assert_eq!(
            err,
            TailorError::TooManyQueues {
                wanted: 1025,
                max: 1024
            }
        );
        assert_eq!(
            err.to_string(),
            "role asks for 1025 queues, a Host RBB has 1024"
        );
        let all = RoleSpec::builder("all").queues(HostRbb::QUEUES).build();
        assert!(TailoredShell::tailor(&unified_a(), &all).is_ok());
    }

    #[test]
    fn zero_ddr_channels_rejected() {
        let role = RoleSpec::builder("no-channels")
            .memory(MemoryDemand::Ddr { channels: 0 })
            .build();
        let err = TailoredShell::tailor(&unified_a(), &role).unwrap_err();
        assert_eq!(err, TailorError::NoMemoryChannels);
        assert_eq!(err.to_string(), "role asks for DDR with zero channels");
    }

    #[test]
    fn config_reduction_in_fig12_band() {
        let u = unified_a();
        let role = RoleSpec::builder("lb")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        let t = TailoredShell::tailor(&u, &role).unwrap();
        let f = t.config_inventory().reduction_factor().unwrap();
        assert!((8.8..=19.8).contains(&f), "factor {f:.1}");
    }

    #[test]
    fn same_role_ports_across_devices() {
        // Portability: one spec tailors onto every device that has the
        // capabilities, with zero role-side changes.
        let role = RoleSpec::builder("portable").network_gbps(100).build();
        for dev in catalog::all() {
            let u = UnifiedShell::for_device(&dev);
            let t = TailoredShell::tailor(&u, &role);
            assert!(t.is_ok(), "{}: {:?}", dev.name(), t.err());
        }
    }

    #[test]
    fn role_clock_domains_join_via_cdc() {
        // A role at 250 MHz × 512 b against a 100G MAC RBB: check the CDC
        // losslessness precondition the tailored shell establishes.
        let role = RoleSpec::builder("r")
            .network_gbps(100)
            .user_domain(Freq::mhz(400), 512)
            .build();
        let u = unified_a();
        let t = TailoredShell::tailor(&u, &role).unwrap();
        let net = t.rbbs_of(RbbKind::Network).next().unwrap();
        let cdc = crate::cdc::ParamCdc::new(
            net.instance().core_clock(),
            net.instance().data_width_bits(),
            role.user_clock(),
            role.user_width_bits(),
            32,
        );
        assert!(cdc.is_lossless());
    }

    #[test]
    fn display_mentions_role_and_device() {
        let u = unified_a();
        let t = TailoredShell::tailor(&u, &netrole()).unwrap();
        let s = t.to_string();
        assert!(s.contains("netrole") && s.contains("Device A"));
    }

    #[test]
    fn degraded_module_leaves_the_rest_serving() {
        let u = unified_a();
        let mut t = TailoredShell::tailor(&u, &netrole()).unwrap();
        assert_eq!(t.health().degraded_count(), 0);
        assert!(!t.to_string().contains("degraded"));
        assert!(t
            .health_mut()
            .mark_degraded(RbbKind::Network.id(), 1, 7_000));
        assert_eq!(t.health().degraded_count(), 1);
        assert!(t.health().is_degraded(RbbKind::Network.id(), 1));
        assert!(!t.health().is_degraded(RbbKind::Network.id(), 0));
        assert!(t.to_string().contains("(1 degraded)"));
    }
}
