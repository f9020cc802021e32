//! Figure 12 — shell tailoring reduces module configurations for roles.

use harmonia::hw::device::catalog;
use harmonia::metrics::report::fmt_x;
use harmonia::metrics::Table;
use harmonia::shell::{TailoredShell, UnifiedShell};

/// Configuration items before (native modules) vs after (role-oriented)
/// property-level tailoring, per application.
pub fn fig12() -> Table {
    let device = catalog::device_a();
    let unified = UnifiedShell::for_device(&device);
    let mut t = Table::new(
        "Figure 12 — configuration items per role",
        &["application", "native items", "role-oriented", "reduction"],
    );
    for (name, role) in crate::roles::all() {
        let shell = TailoredShell::tailor(&unified, &role).expect("roles deploy on device A");
        let inv = shell.config_inventory();
        t.row([
            name.to_string(),
            inv.total().to_string(),
            inv.role_oriented().to_string(),
            fmt_x(inv.reduction_factor().expect("roles keep some config")),
        ]);
    }
    t
}

/// The Figure 12 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig12];

/// All Figure 12 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_in_paper_band() {
        let t = fig12();
        assert_eq!(t.len(), 5);
        for line in t.to_string().lines().skip(3) {
            let x: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!((8.0..=20.0).contains(&x), "reduction {x} out of band");
        }
    }
}
