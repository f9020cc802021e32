//! Figure 14 — RBB reuse across vendors and chips.

use harmonia::hw::Vendor;
use harmonia::metrics::report::fmt_f64;
use harmonia::metrics::Table;
use harmonia::shell::rbb::{HostRbb, MemoryRbb, MigrationKind, NetworkRbb, Rbb};

/// Reuse fractions per RBB for cross-vendor (A↔C) and cross-chip (A↔B)
/// migrations.
pub fn fig14() -> Table {
    let mut t = Table::new(
        "Figure 14 — RBB development-workload reuse",
        &[
            "RBB",
            "reuse (cross-vendor)",
            "redev (cross-vendor)",
            "reuse (cross-chip)",
            "redev (cross-chip)",
        ],
    );
    let rbbs: Vec<(&str, Box<dyn Rbb>)> = vec![
        (
            "Network",
            Box::new(NetworkRbb::with_speed(Vendor::Xilinx, 100, 64)),
        ),
        ("Host", Box::new(HostRbb::with_link(Vendor::Xilinx, 4, 8))),
        ("Memory", Box::new(MemoryRbb::ddr(Vendor::Xilinx, 4, 2))),
    ];
    for (name, rbb) in &rbbs {
        let xv = rbb.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = rbb.workload(MigrationKind::CrossChip).reuse_fraction();
        t.row([
            name.to_string(),
            fmt_f64(xv, 2),
            fmt_f64(1.0 - xv, 2),
            fmt_f64(xc, 2),
            fmt_f64(1.0 - xc, 2),
        ]);
    }
    t
}

/// The Figure 14 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig14];

/// All Figure 14 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_bands_match_paper() {
        let t = fig14();
        assert_eq!(t.len(), 3);
        for line in t.to_string().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let xv: f64 = cells[cells.len() - 4].parse().unwrap();
            let xc: f64 = cells[cells.len() - 2].parse().unwrap();
            assert!((0.64..=0.78).contains(&xv), "cross-vendor {xv} in '{line}'");
            assert!((0.80..=0.95).contains(&xc), "cross-chip {xc} in '{line}'");
            assert!(xc > xv, "cross-chip must reuse more than cross-vendor");
        }
    }
}
