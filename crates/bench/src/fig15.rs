//! Figure 15 — application shell reuse across FPGAs.

use harmonia::hw::device::catalog;
use harmonia::metrics::report::fmt_f64;
use harmonia::metrics::Table;
use harmonia::shell::rbb::MigrationKind;
use harmonia::shell::{TailoredShell, UnifiedShell};

/// Per-application shell reuse when the deployment fleet mixes chip
/// families and vendors; reported as the reuse fraction of the worst
/// (cross-vendor) and best (cross-chip) migrations.
pub(crate) fn fig15() -> Table {
    let device = catalog::device_a();
    let unified = UnifiedShell::for_device(&device);
    let mut t = Table::new(
        "Figure 15 — application shell reuse across FPGAs",
        &["application", "reuse (cross-vendor)", "reuse (cross-chip)"],
    );
    for (name, role) in crate::roles::all() {
        let shell = TailoredShell::tailor(&unified, &role).expect("roles deploy on device A");
        let xv = shell.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = shell.workload(MigrationKind::CrossChip).reuse_fraction();
        t.row([name.to_string(), fmt_f64(xv, 2), fmt_f64(xc, 2)]);
    }
    t
}

/// The Figure 15 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig15];

/// All Figure 15 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_shell_reuse_in_band() {
        let t = fig15();
        assert_eq!(t.len(), 5);
        for line in t.to_string().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let xv: f64 = cells[cells.len() - 2].parse().unwrap();
            // The paper reports 70–80 % across applications; cross-vendor
            // sits at the low end of that, cross-chip above it.
            assert!((0.64..=0.82).contains(&xv), "'{line}'");
        }
    }
}
