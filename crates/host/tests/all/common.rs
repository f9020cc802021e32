//! Fixtures the host suites share: device A's driver parts and the
//! campaigns' command mix.

use harmonia_cmd::{CommandCode, UnifiedControlKernel};
use harmonia_host::batch::CmdSpec;
use harmonia_host::DmaEngine;
use harmonia_hw::device::catalog;
use harmonia_hw::ip::PcieDmaIp;
use harmonia_hw::Vendor;
use harmonia_shell::rbb::RbbKind;
use harmonia_shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};

/// Device A's DMA engine and a 64-entry control kernel serving a 100G,
/// one-DDR-channel shell tailored onto device A, plus that shell.
pub fn parts() -> (DmaEngine, UnifiedControlKernel, TailoredShell) {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("campaign")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let (gen, lanes) = dev.pcie().unwrap();
    let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
    (engine, kernel, shell)
}

/// One command of the campaigns' mix: 0 = health read, 1 = network
/// stats, 2 = network status, otherwise a host-module init (idempotent,
/// so a lost completion replays it).
pub fn spec(c: u8) -> CmdSpec {
    match c {
        0 => (0, 0, CommandCode::HealthRead, Vec::new()),
        1 => (RbbKind::Network.id(), 0, CommandCode::StatsRead, Vec::new()),
        2 => (
            RbbKind::Network.id(),
            0,
            CommandCode::ModuleStatusRead,
            Vec::new(),
        ),
        _ => (RbbKind::Host.id(), 0, CommandCode::ModuleInit, Vec::new()),
    }
}
