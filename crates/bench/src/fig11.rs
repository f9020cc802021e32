//! Figure 11 — shell tailoring reduces resource consumption.

use harmonia::hw::device::catalog;
use harmonia::hw::{ResourceKind, ResourceUsage};
use harmonia::metrics::report::fmt_pct;
use harmonia::metrics::Table;
use harmonia::shell::{TailoredShell, UnifiedShell};

/// Resource occupancy (% of device A) for the unified shell and each
/// application's tailored shell, by resource kind.
pub(crate) fn fig11() -> Table {
    let device = catalog::device_a();
    let unified = UnifiedShell::for_device(&device);
    let mut t = Table::new(
        "Figure 11 — shell resource occupancy on Device A",
        &["shell", "LUT", "REG", "BRAM", "URAM", "saving (LUT)"],
    );
    let pct = |usage: &ResourceUsage, kind| fmt_pct(usage.percent_of(device.capacity(), kind));
    let u = unified.resources();
    t.row([
        "Unified".to_string(),
        pct(&u, ResourceKind::Lut),
        pct(&u, ResourceKind::Reg),
        pct(&u, ResourceKind::Bram),
        pct(&u, ResourceKind::Uram),
        "-".to_string(),
    ]);
    for (name, role) in crate::roles::all() {
        let shell = TailoredShell::tailor(&unified, &role).expect("roles deploy on device A");
        let r = shell.resources();
        t.row([
            format!("{name} shell"),
            pct(&r, ResourceKind::Lut),
            pct(&r, ResourceKind::Reg),
            pct(&r, ResourceKind::Bram),
            pct(&r, ResourceKind::Uram),
            fmt_pct(100.0 * shell.overall_savings_vs(&unified)),
        ]);
    }
    t
}

/// The Figure 11 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig11];

/// All Figure 11 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tailored_shells_save_resources() {
        let t = fig11();
        assert_eq!(t.len(), 6);
        let text = t.to_string();
        for line in text.lines().skip(4) {
            // skip unified row
            let saving: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(
                (2.0..=31.0).contains(&saving),
                "saving out of band in '{line}'"
            );
        }
    }
}
