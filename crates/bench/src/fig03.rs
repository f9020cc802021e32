//! Figure 3 — the motivation measurements.
//!
//! (a) shells dominate handcraft development workloads; (b) vendor IPs
//! differ in tens-to-hundreds of properties; (c) the heterogeneous fleet
//! grows every year; (d) register init sequences differ across shells.

use harmonia::apps::App;
use harmonia::hw::device::catalog;
use harmonia::hw::ip::{DdrIp, IpKind, MacIp, PcieDmaIp, VendorIp};
use harmonia::hw::Vendor;
use harmonia::metrics::report::fmt_f64;
use harmonia::metrics::workload::shell_role_split;
use harmonia::metrics::{FleetModel, Table};
use harmonia::shell::rbb::MigrationKind;
use harmonia::shell::{TailoredShell, UnifiedShell};

/// Figure 3a: fraction of handcraft development workload in shell vs role
/// for the five applications.
pub(crate) fn fig3a() -> Table {
    let mut t = Table::new(
        "Figure 3a — development workload split (fraction of handcraft LoC)",
        &["application", "shell", "role"],
    );
    let device = catalog::device_a();
    let unified = UnifiedShell::for_device(&device);
    let apps: [(&str, Box<dyn App>); 5] = [
        ("Sec-Gateway", Box::new(harmonia::apps::SecGateway)),
        ("Layer-4 LB", Box::new(crate::roles::sample_lb())),
        (
            "Retrieval",
            Box::new(harmonia::apps::RetrievalEngine::synthetic(1, 16, 8)),
        ),
        ("Board Test", Box::new(harmonia::apps::BoardTest::new(1))),
        ("Host Network", Box::new(harmonia::apps::HostNetwork)),
    ];
    for (name, app) in apps {
        let shell = TailoredShell::tailor(&unified, &app.role_spec())
            .expect("evaluation roles deploy on device A");
        // Building the shell from scratch = all its countable code is
        // handcraft; that is the pre-Harmonia world Figure 3a describes.
        let shell_w = shell.workload(MigrationKind::CrossVendor);
        let mut full_shell = harmonia::metrics::ModuleWorkload::new("shell");
        full_shell.add(
            "shell-logic",
            shell_w.countable_loc(),
            harmonia::metrics::Origin::Handcraft,
        );
        let (s, r) = shell_role_split(&full_shell, &app.role_workload());
        t.row([name.to_string(), fmt_f64(s, 2), fmt_f64(r, 2)]);
    }
    t
}

/// Figure 3b: interface/configuration differences between Xilinx and Intel
/// flavours of each common IP.
pub(crate) fn fig3b() -> Table {
    let mut t = Table::new(
        "Figure 3b — vendor-specific module differences (Xilinx vs Intel)",
        &["module", "interface diffs", "config diffs", "total"],
    );
    for kind in IpKind::FIG3B {
        let (x, i): (Box<dyn VendorIp>, Box<dyn VendorIp>) = match kind {
            IpKind::Ddr => (
                Box::new(DdrIp::new(Vendor::Xilinx, 4)),
                Box::new(DdrIp::new(Vendor::Intel, 4)),
            ),
            IpKind::Mac => (
                Box::new(MacIp::new(Vendor::Xilinx, 100)),
                Box::new(MacIp::new(Vendor::Intel, 100)),
            ),
            IpKind::Dma => (
                Box::new(PcieDmaIp::new(Vendor::Xilinx, 4, 16)),
                Box::new(PcieDmaIp::new(Vendor::Intel, 4, 16)),
            ),
            // The PCIe hard IP and the TLP layer have their own interface
            // specs distinct from the DMA engine built on them.
            IpKind::Pcie | IpKind::Tlp | IpKind::Hbm => {
                let d = if kind == IpKind::Pcie {
                    harmonia::hw::ip::pcie::pcie_hard_ip_spec(Vendor::Xilinx, 4, 16).diff(
                        &harmonia::hw::ip::pcie::pcie_hard_ip_spec(Vendor::Intel, 4, 16),
                    )
                } else {
                    harmonia::hw::ip::pcie::tlp_layer_spec(Vendor::Xilinx)
                        .diff(&harmonia::hw::ip::pcie::tlp_layer_spec(Vendor::Intel))
                };
                t.row([
                    kind.to_string(),
                    d.interface.to_string(),
                    d.configuration.to_string(),
                    d.total().to_string(),
                ]);
                continue;
            }
        };
        let d = x.native_interface().diff(&i.native_interface());
        t.row([
            kind.to_string(),
            d.interface.to_string(),
            d.configuration.to_string(),
            d.total().to_string(),
        ]);
    }
    t
}

/// Figure 3c: heterogeneous fleet evolution 2020–2024.
pub(crate) fn fig3c() -> Table {
    let mut t = Table::new(
        "Figure 3c — fleet evolution",
        &[
            "year",
            "new models",
            "new units",
            "total units",
            "live models",
        ],
    );
    for y in FleetModel::douyin_like().run(2024) {
        if y.year >= 2020 {
            t.row([
                y.year.to_string(),
                y.new_models.to_string(),
                y.new_units.to_string(),
                y.total_units.to_string(),
                y.live_models.to_string(),
            ]);
        }
    }
    t
}

/// Figure 3d: the module-initialization sequences of two shells.
pub(crate) fn fig3d() -> Table {
    let mut t = Table::new(
        "Figure 3d — MAC init sequences across shells",
        &["step", "shell A (Xilinx-style)", "shell B (Intel-style)"],
    );
    let a = MacIp::new(Vendor::Xilinx, 100).init_sequence();
    let b = MacIp::new(Vendor::Intel, 100).init_sequence();
    for i in 0..a.len().max(b.len()) {
        t.row([
            (i + 1).to_string(),
            a.get(i).map(|o| o.to_string()).unwrap_or_default(),
            b.get(i).map(|o| o.to_string()).unwrap_or_default(),
        ]);
    }
    t
}

/// The Figure 3 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig3a, fig3b, fig3c, fig3d];

/// All Figure 3 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_shell_majority() {
        let t = fig3a();
        assert_eq!(t.len(), 5);
        // Every row: shell fraction within the paper's 0.66–0.87 band.
        let text = t.to_string();
        for line in text.lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let shell: f64 = cells[cells.len() - 2].parse().unwrap();
            assert!((0.60..=0.90).contains(&shell), "row '{line}'");
        }
    }

    #[test]
    fn fig3b_differences_are_tens_to_hundreds() {
        let t = fig3b();
        assert_eq!(t.len(), 5);
        let text = t.to_string();
        for line in text.lines().skip(3) {
            let total: usize = line.split_whitespace().last().unwrap().parse().unwrap();
            assert!((20..=300).contains(&total), "row '{line}'");
        }
    }

    #[test]
    fn fig3c_grows() {
        let t = fig3c();
        assert_eq!(t.len(), 5); // 2020..=2024
    }

    #[test]
    fn fig3d_sequences_differ_in_length() {
        let t = fig3d();
        assert!(t.len() >= 7);
    }
}
