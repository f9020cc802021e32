//! Figure 13 — the command-based interface reduces software modifications.
//!
//! Each application migrates from device C to device D. Device C has no
//! DRAM, so applications that can exploit device D's DDR channel pick it up
//! on migration — the realistic worst case for the register interface
//! (every module behind the new one rebases) and a two-command change for
//! the command interface.

use harmonia::host::migration_report;
use harmonia::hw::device::catalog;
use harmonia::metrics::report::fmt_x;
use harmonia::metrics::Table;
use harmonia::shell::{MemoryDemand, RoleSpec};

/// `(name, role on C, role on D)` per application.
pub(crate) fn migration_roles() -> Vec<(&'static str, RoleSpec, RoleSpec)> {
    let pair = |name: &'static str, ports: u32, queues: u16, multicast: bool| {
        let base = || {
            let mut b = RoleSpec::builder(name)
                .network_gbps(100)
                .network_ports(ports)
                .queues(queues);
            if multicast {
                b = b.multicast();
            }
            b
        };
        (
            name,
            base().build(),
            base().memory(MemoryDemand::Ddr { channels: 1 }).build(),
        )
    };
    vec![
        pair("Sec-Gateway", 2, 64, false),
        pair("Layer-4 LB", 2, 128, false),
        pair("Retrieval", 1, 256, false),
        pair("Board Test", 2, 16, false),
        pair("Host Network", 2, 256, true),
    ]
}

/// Register vs command modifications per application, device C → D.
pub(crate) fn fig13() -> Table {
    let c = catalog::device_c();
    let d = catalog::device_d();
    let mut t = Table::new(
        "Figure 13 — software modifications migrating C → D",
        &["application", "register mods", "command mods", "reduction"],
    );
    for (name, on_c, on_d) in migration_roles() {
        let r = migration_report(&c, &on_c, &d, &on_d).expect("roles deploy on C and D");
        t.row([
            name.to_string(),
            r.reg_modifications.to_string(),
            r.cmd_modifications.to_string(),
            fmt_x(r.reduction_factor()),
        ]);
    }
    t
}

/// The Figure 13 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig13];

/// All Figure 13 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_are_large() {
        let t = fig13();
        assert_eq!(t.len(), 5);
        for line in t.to_string().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let regs: usize = cells[cells.len() - 3].parse().unwrap();
            let cmds: usize = cells[cells.len() - 2].parse().unwrap();
            assert!(regs > 40, "register mods {regs} too small in '{line}'");
            assert!(cmds <= 8, "command mods {cmds} too large in '{line}'");
            let x: f64 = cells.last().unwrap().trim_end_matches('x').parse().unwrap();
            assert!((20.0..=250.0).contains(&x), "reduction {x} out of band");
        }
    }
}
