//! Tables 1, 3 and 4 of the paper.

use harmonia::frameworks::{CapabilityMatrix, Framework};
use harmonia::host::reg_driver::RegisterDriver;
use harmonia::hw::device::catalog;
use harmonia::metrics::Table;
use harmonia::shell::rbb::RbbKind;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};

/// Table 1 — framework capability comparison.
pub(crate) fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 — framework capabilities",
        &[
            "framework",
            "heterogeneity",
            "unified shell",
            "portable role",
            "consistent host IF",
        ],
    );
    for f in Framework::ALL {
        let m = CapabilityMatrix::of(f);
        t.row([
            f.to_string(),
            m.heterogeneity.to_string(),
            m.unified_shell.to_string(),
            m.portable_role.to_string(),
            m.consistent_host_if.to_string(),
        ]);
    }
    t
}

/// Table 3 — devices supported by each framework.
pub(crate) fn table3() -> Table {
    let mut t = Table::new(
        "Table 3 — device support",
        &["device class", "Vitis", "oneAPI", "Coyote", "Harmonia"],
    );
    let rows = [
        ("Intel FPGAs (D)", catalog::device_d()),
        ("Xilinx FPGAs (A)", catalog::device_a()),
        ("In-house Xilinx-die (B)", catalog::device_b()),
        ("In-house Intel-die (C)", catalog::device_c()),
    ];
    for (label, device) in rows {
        let mut row = vec![label.to_string()];
        for f in Framework::ALL {
            row.push(if f.supports(&device) { "yes" } else { "no" }.to_string());
        }
        t.row(row);
    }
    t
}

/// The shell Table 4 measures against: one Network, one Memory, one Host
/// module on device A.
fn table4_shell() -> TailoredShell {
    let unified = UnifiedShell::for_device(&catalog::device_a());
    let role = RoleSpec::builder("table4")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .queues(192) // 3 queue contexts programmed -> the Table 4 host row
        .build();
    TailoredShell::tailor(&unified, &role).expect("table-4 shell deploys")
}

/// Table 4 — register operations vs commands per host-interaction class.
pub(crate) fn table4() -> Table {
    let shell = table4_shell();
    let mut t = Table::new(
        "Table 4 — host software configuration surface",
        &["interaction", "registers", "commands", "reduction"],
    );
    // Monitoring statistics: read every monitor register vs one StatsRead
    // per module + HealthRead.
    let mon_regs = RegisterDriver::monitoring_script(&shell).len();
    let mon_cmds = shell.rbbs().len() + 1;
    t.row([
        "Monitoring statistics".to_string(),
        mon_regs.to_string(),
        mon_cmds.to_string(),
        format!("{:.0}x", mon_regs as f64 / mon_cmds as f64),
    ]);
    // Network initialization.
    let net = shell
        .rbbs_of(RbbKind::Network)
        .next()
        .expect("shell has a network RBB");
    let net_regs = RegisterDriver::network_init_ops(net, 0x10000).len();
    let net_cmds = 5; // reset, init, status-write, table-write, status-read
    t.row([
        "Network initialization".to_string(),
        net_regs.to_string(),
        net_cmds.to_string(),
        format!("{:.0}x", net_regs as f64 / f64::from(net_cmds)),
    ]);
    // Host interaction configuration.
    let host = shell
        .rbbs_of(RbbKind::Host)
        .next()
        .expect("shell has a host RBB");
    let host_regs = RegisterDriver::host_config_ops(host, 0x30000).len();
    let host_cmds = 4; // reset, init, status-write, status-read
    t.row([
        "Host interaction config".to_string(),
        host_regs.to_string(),
        host_cmds.to_string(),
        format!("{:.0}x", host_regs as f64 / f64::from(host_cmds)),
    ]);
    t
}

/// The paper tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[table1, table3, table4];

/// All tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_only_harmonia_full_yes() {
        let text = table1().to_string();
        let harmonia_line = text.lines().find(|l| l.starts_with("Harmonia")).unwrap();
        assert_eq!(harmonia_line.matches("yes").count(), 4);
    }

    #[test]
    fn table3_matches_paper() {
        let text = table3().to_string();
        let intel = text.lines().find(|l| l.contains("Intel FPGAs")).unwrap();
        assert!(intel.contains("no")); // Vitis
        let inhouse = text
            .lines()
            .find(|l| l.contains("In-house Xilinx"))
            .unwrap();
        // Only Harmonia says yes on in-house boards.
        assert_eq!(inhouse.matches("yes").count(), 1);
    }

    #[test]
    fn table4_matches_paper_counts() {
        let text = table4().to_string();
        let mon = text.lines().find(|l| l.contains("Monitoring")).unwrap();
        assert!(mon.contains("84") && mon.contains("21x"), "'{mon}'");
        let net = text.lines().find(|l| l.contains("Network init")).unwrap();
        assert!(net.contains("115") && net.contains("23x"), "'{net}'");
        let host = text
            .lines()
            .find(|l| l.contains("Host interaction"))
            .unwrap();
        assert!(host.contains("60") && host.contains("15x"), "'{host}'");
    }
}
