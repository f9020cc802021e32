//! Figure 16 — resource overhead of wrappers and the unified control
//! kernel.

use harmonia::cmd::UnifiedControlKernel;
use harmonia::hw::device::catalog;
use harmonia::hw::ip::{DdrIp, MacIp, PcieDmaIp, VendorIp};
use harmonia::hw::Vendor;
use harmonia::metrics::report::fmt_pct;
use harmonia::metrics::Table;
use harmonia::platform::InterfaceWrapper;

/// Highest resource-consumption percentage of each wrapper and of the UCK
/// across the catalog devices.
pub(crate) fn fig16() -> Table {
    let mut t = Table::new(
        "Figure 16 — Harmonia hardware overhead (max % across devices)",
        &["module", "LUT %", "REG %", "BRAM %", "max %"],
    );
    let ips: Vec<(&str, Box<dyn VendorIp>)> = vec![
        ("MAC wrapper", Box::new(MacIp::new(Vendor::Xilinx, 100))),
        (
            "PCIe wrapper",
            Box::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8)),
        ),
        (
            "DMA wrapper",
            Box::new(PcieDmaIp::new(Vendor::Intel, 4, 16)),
        ),
        ("DDR wrapper", Box::new(DdrIp::new(Vendor::Xilinx, 4))),
    ];
    let devices = catalog::all();
    for (name, ip) in &ips {
        let w = InterfaceWrapper::wrap(ip.as_ref(), 512);
        let res = w.resources();
        let max_over =
            |f: &dyn Fn(&harmonia::hw::ResourceUsage, &harmonia::hw::ResourceUsage) -> f64| {
                devices
                    .iter()
                    .map(|d| f(&res, d.capacity()))
                    .fold(0.0, f64::max)
            };
        t.row([
            name.to_string(),
            fmt_pct(max_over(&|r, c| {
                r.percent_of(c, harmonia::hw::ResourceKind::Lut)
            })),
            fmt_pct(max_over(&|r, c| {
                r.percent_of(c, harmonia::hw::ResourceKind::Reg)
            })),
            fmt_pct(max_over(&|r, c| {
                r.percent_of(c, harmonia::hw::ResourceKind::Bram)
            })),
            fmt_pct(max_over(&|r, c| r.max_percent_of(c))),
        ]);
    }
    let uck = UnifiedControlKernel::resources();
    let max_uck = devices
        .iter()
        .map(|d| uck.max_percent_of(d.capacity()))
        .fold(0.0, f64::max);
    t.row([
        "Unified control kernel".to_string(),
        fmt_pct(
            devices
                .iter()
                .map(|d| uck.percent_of(d.capacity(), harmonia::hw::ResourceKind::Lut))
                .fold(0.0, f64::max),
        ),
        fmt_pct(
            devices
                .iter()
                .map(|d| uck.percent_of(d.capacity(), harmonia::hw::ResourceKind::Reg))
                .fold(0.0, f64::max),
        ),
        fmt_pct(
            devices
                .iter()
                .map(|d| uck.percent_of(d.capacity(), harmonia::hw::ResourceKind::Bram))
                .fold(0.0, f64::max),
        ),
        fmt_pct(max_uck),
    ]);
    t
}

/// The Figure 16 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig16];

/// All Figure 16 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_below_paper_bounds() {
        let t = fig16();
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().skip(3).collect();
        // Wrappers < 0.37 %.
        for line in &lines[..4] {
            let max: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(max < 0.37, "wrapper overhead {max}% in '{line}'");
        }
        // UCK < 0.67 %.
        let uck: f64 = lines[4]
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(uck < 0.67, "UCK overhead {uck}%");
    }
}
