//! The Figure 13 / Table 4 story as an integration test: the same hardware
//! state reached through the register interface and the command interface,
//! with the op counts the paper compares.

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::host::cmd_driver::command_script;
use harmonia::host::reg_driver::RegisterDriver;
use harmonia::host::{CommandDriver, DmaEngine};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::regfile::RegOp;
use harmonia::metrics::lcs_diff;
use harmonia::shell::rbb::RbbKind;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};

fn shell_on(device: &harmonia::hw::device::FpgaDevice) -> TailoredShell {
    let unified = UnifiedShell::for_device(device);
    let role = RoleSpec::builder("cvr")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .queues(192)
        .build();
    TailoredShell::tailor(&unified, &role).expect("deploys")
}

/// Both interfaces reach the same initialized state: the kernel executes
/// the same vendor init program that the register script embeds.
#[test]
fn same_init_state_both_ways() {
    let device = catalog::device_a();
    let shell = shell_on(&device);

    // Register path: apply the script by hand against the IP registers.
    let net = shell.rbbs_of(RbbKind::Network).next().unwrap();
    let mut ip_regs = net.instance().register_map();
    for op in net.instance().init_sequence() {
        if let RegOp::WaitStatus { addr, mask, expect } = op {
            let cur = ip_regs.read(addr).unwrap();
            ip_regs.hw_set(addr, (cur & !mask) | expect).unwrap();
        }
        ip_regs.apply(&op).unwrap();
    }
    let reg_path_ctl_tx = ip_regs.read(ip_regs.addr_of("ctl_rx").unwrap()).unwrap();

    // Command path: one ModuleInit through the kernel.
    let mut kernel = UnifiedControlKernel::new(16);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let engine = DmaEngine::new(PcieDmaIp::new(harmonia::hw::Vendor::Xilinx, 4, 8));
    let mut driver = CommandDriver::new(engine, kernel);
    driver
        .cmd_resilient(RbbKind::Network, 0, CommandCode::ModuleInit, Vec::new())
        .unwrap();
    // The kernel performed at least the script's register ops.
    assert!(driver.kernel().reg_ops_executed() >= net.instance().init_sequence().len() as u64);
    assert_eq!(reg_path_ctl_tx, 0x1, "register path must initialize ctl_rx");
}

/// Table 4's three interaction classes, exact counts.
#[test]
fn table4_counts() {
    let shell = shell_on(&catalog::device_a());
    assert_eq!(RegisterDriver::monitoring_script(&shell).len(), 84);
    let net = shell.rbbs_of(RbbKind::Network).next().unwrap();
    assert_eq!(RegisterDriver::network_init_ops(net, 0x1000).len(), 115);
    let host = shell.rbbs_of(RbbKind::Host).next().unwrap();
    assert_eq!(RegisterDriver::host_config_ops(host, 0x2000).len(), 60);
    // Command side: 4 / 5 / 4 commands (one StatsRead per module +
    // HealthRead; the per-module command scripts).
    let script = command_script(&shell);
    assert_eq!(script.iter().filter(|c| c.rbb_id == 1).count(), 5);
    assert_eq!(script.iter().filter(|c| c.rbb_id == 3).count(), 4);
}

/// Migrating the register script between devices costs orders of magnitude
/// more modifications than migrating the command script.
#[test]
fn migration_costs_diverge() {
    let c = catalog::device_c();
    let d = catalog::device_d();
    let shell_c = {
        let unified = UnifiedShell::for_device(&c);
        let role = RoleSpec::builder("m").network_gbps(100).build();
        TailoredShell::tailor(&unified, &role).unwrap()
    };
    let shell_d = {
        let unified = UnifiedShell::for_device(&d);
        let role = RoleSpec::builder("m")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        TailoredShell::tailor(&unified, &role).unwrap()
    };
    let reg_diff = lcs_diff(
        &RegisterDriver::full_init_script(&c, &shell_c),
        &RegisterDriver::full_init_script(&d, &shell_d),
    );
    let cmd_diff = lcs_diff(&command_script(&shell_c), &command_script(&shell_d));
    assert!(reg_diff > 25 * cmd_diff.max(1), "reg {reg_diff} vs cmd {cmd_diff}");
}

/// Control-queue isolation keeps command latency flat under data load —
/// and the kernel's execution latency stays sub-microsecond.
#[test]
fn control_path_latency_isolated_from_data_path() {
    let shell = shell_on(&catalog::device_a());
    let mut kernel = UnifiedControlKernel::new(16);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let engine = DmaEngine::new(PcieDmaIp::new(harmonia::hw::Vendor::Xilinx, 4, 8));
    let mut driver = CommandDriver::new(engine, kernel);
    driver
        .cmd_resilient(RbbKind::Network, 0, CommandCode::StatsRead, Vec::new())
        .unwrap();
    let quiet = driver.total_latency_ps();
    driver.engine_mut().enqueue_data(500_000_000); // 500 MB in flight
    driver
        .cmd_resilient(RbbKind::Network, 0, CommandCode::StatsRead, Vec::new())
        .unwrap();
    let busy = driver.total_latency_ps() - quiet;
    let ratio = busy as f64 / quiet as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "isolated command latency moved {ratio}x under load"
    );
}
