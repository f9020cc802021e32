//! RBB health tracking for graceful degradation.
//!
//! A production shell must keep serving its remaining roles when one
//! module stops responding — a MAC whose link dropped mid-init, a memory
//! controller that never finishes calibration. The host driver detects
//! the failure (deadline exceeded, retries exhausted) and marks the RBB
//! *degraded* here; the shell continues operating the healthy modules and
//! the transition stays visible through the normal stats path.
//!
//! The ledger only keeps state. The driver that marks a module degraded
//! records the transition on its own trace and publishes the
//! `harmonia_shell_*` gauges.

use harmonia_sim::Picos;
use std::collections::BTreeMap;
use std::fmt;

/// Health of one RBB instance.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RbbHealth {
    /// Operating normally.
    Healthy,
    /// Taken out of service after a command deadline/retry budget was
    /// exhausted; the rest of the shell keeps serving.
    Degraded {
        /// Simulation time at which the driver gave up on the module.
        since_ps: Picos,
    },
}

impl RbbHealth {
    /// Whether this state is out of service.
    pub(crate) fn is_degraded(&self) -> bool {
        matches!(self, RbbHealth::Degraded { .. })
    }
}

impl fmt::Display for RbbHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbbHealth::Healthy => f.write_str("healthy"),
            RbbHealth::Degraded { since_ps } => write!(f, "degraded since {since_ps} ps"),
        }
    }
}

/// Per-module health ledger, keyed by `(rbb_id, instance_id)` — the same
/// addressing the unified control kernel uses, so driver-side failures
/// map one-to-one onto shell modules.
#[derive(Clone, Debug, Default)]
pub struct HealthLedger {
    entries: BTreeMap<(u8, u8), RbbHealth>,
}

impl HealthLedger {
    /// Creates an empty ledger (every module implicitly healthy).
    pub fn new() -> Self {
        HealthLedger::default()
    }

    /// Marks a module degraded. Returns `false` if it already was (the
    /// first failure timestamp is kept).
    pub fn mark_degraded(&mut self, rbb_id: u8, instance_id: u8, now: Picos) -> bool {
        match self.entries.entry((rbb_id, instance_id)) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(RbbHealth::Degraded { since_ps: now });
                true
            }
        }
    }

    /// Health of one module; modules never marked are healthy.
    pub(crate) fn health_of(&self, rbb_id: u8, instance_id: u8) -> RbbHealth {
        self.entries
            .get(&(rbb_id, instance_id))
            .copied()
            .unwrap_or(RbbHealth::Healthy)
    }

    /// Whether a module is out of service.
    pub fn is_degraded(&self, rbb_id: u8, instance_id: u8) -> bool {
        self.health_of(rbb_id, instance_id).is_degraded()
    }

    /// All degraded modules with their failure times, in address order.
    pub(crate) fn degraded(&self) -> impl Iterator<Item = ((u8, u8), Picos)> + '_ {
        self.entries.iter().filter_map(|(&k, &h)| match h {
            RbbHealth::Degraded { since_ps } => Some((k, since_ps)),
            RbbHealth::Healthy => None,
        })
    }

    /// Number of degraded modules.
    pub fn degraded_count(&self) -> usize {
        self.degraded().count()
    }
}

impl fmt::Display for HealthLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.degraded_count() == 0 {
            return f.write_str("all modules healthy");
        }
        write!(f, "{} degraded:", self.degraded_count())?;
        for ((rbb, inst), since) in self.degraded() {
            write!(f, " rbb{rbb}#{inst}@{since}ps")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmarked_modules_are_healthy() {
        let l = HealthLedger::new();
        assert_eq!(l.health_of(1, 0), RbbHealth::Healthy);
        assert!(!l.is_degraded(1, 0));
        assert_eq!(l.degraded_count(), 0);
        assert_eq!(l.to_string(), "all modules healthy");
    }

    #[test]
    fn first_failure_timestamp_sticks() {
        let mut l = HealthLedger::new();
        assert!(l.mark_degraded(2, 0, 500));
        assert!(!l.mark_degraded(2, 0, 900));
        assert_eq!(l.health_of(2, 0), RbbHealth::Degraded { since_ps: 500 });
        assert!(l.to_string().contains("rbb2#0@500ps"));
    }
}
