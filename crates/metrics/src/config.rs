//! Configuration-item inventories.
//!
//! Property-level tailoring (§3.3.2) splits a vendor instance's properties
//! into a shell-oriented part the provider handles and a role-oriented part
//! exposed to the application. Figure 12 compares the item counts before
//! and after: vendors "provide various configurations to cover all
//! scenarios, while applications only need to focus on a subset".

use std::fmt;

/// Who a configuration item concerns after property-level tailoring.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConfigClass {
    /// Handled inside the shell by the platform provider (clocking,
    /// calibration, physical constraints, …).
    ShellOriented,
    /// Exposed to the role (occupied channels, desired queues, …).
    RoleOriented,
}

/// A named inventory of configuration items with their tailoring class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfigInventory {
    name: String,
    items: Vec<(String, ConfigClass)>,
}

impl ConfigInventory {
    /// Creates an empty inventory.
    pub fn new(name: impl Into<String>) -> Self {
        ConfigInventory {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// Adds one item.
    pub fn add(&mut self, item: impl Into<String>, class: ConfigClass) -> &mut Self {
        self.items.push((item.into(), class));
        self
    }

    /// Adds many items of one class.
    pub fn add_all<I, S>(&mut self, items: I, class: ConfigClass) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for i in items {
            self.add(i, class);
        }
        self
    }

    /// Total item count — what a role faces *without* tailoring.
    pub fn total(&self) -> usize {
        self.items.len()
    }

    /// Items the role still sees after property-level tailoring.
    pub fn role_oriented(&self) -> usize {
        self.items
            .iter()
            .filter(|(_, c)| *c == ConfigClass::RoleOriented)
            .count()
    }

    /// Configuration-reduction factor (Figure 12's 8.8–19.8×).
    ///
    /// Returns `None` when no role-oriented items exist (a fully absorbed
    /// module has no meaningful ratio).
    pub fn reduction_factor(&self) -> Option<f64> {
        let r = self.role_oriented();
        if r == 0 {
            None
        } else {
            Some(self.total() as f64 / r as f64)
        }
    }

    /// Iterates the items.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ConfigClass)> + '_ {
        self.items.iter().map(|(n, c)| (n.as_str(), *c))
    }

    /// Merges another inventory into this one.
    pub fn merge(&mut self, other: &ConfigInventory) {
        self.items.extend(other.items.iter().cloned());
    }
}

impl fmt::Display for ConfigInventory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} items ({} role-oriented)",
            self.name,
            self.total(),
            self.role_oriented()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfigInventory {
        let mut inv = ConfigInventory::new("pcie");
        inv.add_all(
            ["lane_polarity", "eq_preset", "refclk_src"],
            ConfigClass::ShellOriented,
        );
        inv.add("num_queues", ConfigClass::RoleOriented);
        inv
    }

    #[test]
    fn counts() {
        let inv = sample();
        assert_eq!(inv.total(), 4);
        assert_eq!(inv.role_oriented(), 1);
    }

    #[test]
    fn reduction_factor() {
        assert!((sample().reduction_factor().unwrap() - 4.0).abs() < 1e-9);
        let mut all_shell = ConfigInventory::new("x");
        all_shell.add("a", ConfigClass::ShellOriented);
        assert_eq!(all_shell.reduction_factor(), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.total(), 8);
        assert_eq!(a.role_oriented(), 2);
    }

    #[test]
    fn iter_preserves_order() {
        let inv = sample();
        let first = inv.iter().next().unwrap();
        assert_eq!(first, ("lane_polarity", ConfigClass::ShellOriented));
    }

    #[test]
    fn display_mentions_counts() {
        assert!(sample().to_string().contains("4 items"));
    }
}
