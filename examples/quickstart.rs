//! Quickstart: deploy a role onto a heterogeneous FPGA and talk to it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use harmonia::cmd::CommandCode;
use harmonia::hw::device::catalog;
use harmonia::shell::rbb::RbbKind;
use harmonia::{Harmonia, MemoryDemand, RoleSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a device from the heterogeneous catalog (Table 2).
    let device = catalog::device_a();
    println!("deploying on {device}");

    // 2. Describe what the role needs — nothing about the platform.
    let role = RoleSpec::builder("quickstart")
        .network_gbps(100)
        .memory(MemoryDemand::Hbm)
        .queues(128)
        .build();
    println!("role demands: {role}");

    // 3. One call runs the whole §4 lifecycle: adapters, dependency
    //    inspection, shell tailoring, control-kernel attach, module init.
    let mut deployment = Harmonia::deploy(&device, &role)?;
    println!(
        "deployed: {} RBBs, shell uses {}",
        deployment.shell().rbbs().len(),
        deployment.shell_resources()
    );
    println!(
        "harmonia overhead: {:.2}% of the device (wrappers + control kernel)",
        deployment.overhead_percent()
    );

    // 4. Control the hardware through commands, not registers.
    let health = deployment
        .driver_mut()
        .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())?;
    println!(
        "board health: fpga {}°C, board {}°C, vccint {} mV",
        health.data[0], health.data[1], health.data[2]
    );

    let stats = deployment.driver_mut().cmd_resilient(
        RbbKind::Network,
        0,
        CommandCode::StatsRead,
        Vec::new(),
    )?;
    println!("network RBB exposes {} monitor counters", stats.data.len());

    // 5. Install a flow-director entry — one command, any platform.
    deployment.driver_mut().cmd_resilient(
        RbbKind::Network,
        0,
        CommandCode::TableWrite,
        vec![7, 0x0A00_0001, 0x0050_0006],
    )?;
    println!("flow-table entry installed; done.");
    Ok(())
}
