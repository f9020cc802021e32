//! Development-workload accounting.
//!
//! The paper measures development workloads "by the ratio of hardware logic
//! codes" (§2.3, §5.3), distinguishing handcraft code from script-generated
//! portions and — under Harmonia — from code reused out of the RBB common
//! library. Modules in this workspace declare their component inventories
//! with [`ModuleWorkload`]; reuse rates (Figures 14/15) and shell-vs-role
//! splits (Figure 3a) are then *computed* from the inventories rather than
//! transcribed from the paper.

use std::fmt;
use std::iter::Sum;

/// Where a code component comes from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Written by hand for this module on this platform.
    Handcraft,
    /// Emitted by vendor tools / tcl / ruby scripts — excluded from
    /// workload ratios, as in the paper ("after excluding the
    /// script-generated portions").
    ScriptGenerated,
    /// Taken unchanged from the RBB common library or a previous platform.
    Reused,
}

/// One code component of a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeComponent {
    /// Component name (e.g. "flow-director", "instance-glue").
    pub name: String,
    /// Lines of hardware logic code.
    pub loc: u64,
    /// Provenance.
    pub origin: Origin,
}

/// The code inventory of one module (or one whole shell/role).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleWorkload {
    name: String,
    components: Vec<CodeComponent>,
}

impl ModuleWorkload {
    /// Creates an empty inventory.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleWorkload {
            name: name.into(),
            components: Vec::new(),
        }
    }

    /// Adds a component.
    pub fn add(&mut self, name: impl Into<String>, loc: u64, origin: Origin) -> &mut Self {
        self.components.push(CodeComponent {
            name: name.into(),
            loc,
            origin,
        });
        self
    }

    /// The component list.
    pub fn components(&self) -> &[CodeComponent] {
        &self.components
    }

    /// Total LoC excluding script-generated portions (the paper's basis).
    pub fn countable_loc(&self) -> u64 {
        self.components
            .iter()
            .filter(|c| c.origin != Origin::ScriptGenerated)
            .map(|c| c.loc)
            .sum()
    }

    /// LoC written by hand.
    pub fn handcraft_loc(&self) -> u64 {
        self.loc_of(Origin::Handcraft)
    }

    /// LoC reused from the common library.
    pub fn reused_loc(&self) -> u64 {
        self.loc_of(Origin::Reused)
    }

    /// LoC emitted by scripts.
    pub fn generated_loc(&self) -> u64 {
        self.loc_of(Origin::ScriptGenerated)
    }

    fn loc_of(&self, origin: Origin) -> u64 {
        self.components
            .iter()
            .filter(|c| c.origin == origin)
            .map(|c| c.loc)
            .sum()
    }

    /// Fraction of countable code that is reused — the Figure 14/15 metric.
    /// Returns 0 for an empty inventory.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.countable_loc();
        if total == 0 {
            0.0
        } else {
            self.reused_loc() as f64 / total as f64
        }
    }

    /// Merges another inventory into this one (e.g. summing a shell's
    /// modules).
    pub fn merge(&mut self, other: &ModuleWorkload) {
        self.components.extend(other.components.iter().cloned());
    }
}

impl Sum for ModuleWorkload {
    fn sum<I: Iterator<Item = ModuleWorkload>>(iter: I) -> ModuleWorkload {
        let mut acc = ModuleWorkload::new("sum");
        for m in iter {
            acc.merge(&m);
        }
        acc
    }
}

impl fmt::Display for ModuleWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LoC countable ({:.0}% reused)",
            self.name,
            self.countable_loc(),
            100.0 * self.reuse_fraction()
        )
    }
}

/// Splits a project into shell-vs-role workload fractions — Figure 3a.
/// Returns `(shell_fraction, role_fraction)` of the combined handcraft
/// workload.
pub fn shell_role_split(shell: &ModuleWorkload, role: &ModuleWorkload) -> (f64, f64) {
    let s = shell.countable_loc() as f64;
    let r = role.countable_loc() as f64;
    let total = s + r;
    if total == 0.0 {
        return (0.0, 0.0);
    }
    (s / total, r / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModuleWorkload {
        let mut m = ModuleWorkload::new("m");
        m.add("reused-logic", 3000, Origin::Reused);
        m.add("glue", 1000, Origin::Handcraft);
        m.add("constraints", 5000, Origin::ScriptGenerated);
        m
    }

    #[test]
    fn generated_code_excluded_from_ratio() {
        let m = sample();
        assert_eq!(m.countable_loc(), 4000);
        assert!((m.reuse_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(m.generated_loc(), 5000);
    }

    #[test]
    fn empty_inventory_is_zero_not_nan() {
        let m = ModuleWorkload::new("empty");
        assert_eq!(m.reuse_fraction(), 0.0);
    }

    #[test]
    fn merge_and_sum() {
        let a = sample();
        let mut b = ModuleWorkload::new("b");
        b.add("x", 4000, Origin::Handcraft);
        let total: ModuleWorkload = [a.clone(), b].into_iter().sum();
        assert_eq!(total.countable_loc(), 8000);
        assert!((total.reuse_fraction() - 3000.0 / 8000.0).abs() < 1e-9);
    }

    #[test]
    fn shell_role_split_matches_fig3a_shape() {
        let mut shell = ModuleWorkload::new("shell");
        shell.add("all", 8700, Origin::Handcraft);
        let mut role = ModuleWorkload::new("role");
        role.add("app", 1300, Origin::Handcraft);
        let (s, r) = shell_role_split(&shell, &role);
        assert!((s - 0.87).abs() < 1e-9);
        assert!((r - 0.13).abs() < 1e-9);
    }

    #[test]
    fn split_of_empty_project_is_zero() {
        let e = ModuleWorkload::new("e");
        assert_eq!(shell_role_split(&e, &e), (0.0, 0.0));
    }

    #[test]
    fn display_mentions_reuse() {
        assert!(sample().to_string().contains("75% reused"));
    }
}
