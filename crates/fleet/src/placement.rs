//! The placement scheduler: bin-packing roles onto the heterogeneous
//! inventory by resource fit and tenant weight.
//!
//! Fit and migration cost both come from one per-catalog
//! [`MigrationMatrix`]: each `(model, role)` pair is tailored exactly
//! once per process, through the same `TailoredShell::tailor` gate a
//! real deployment uses, and every fit check (placement and spare
//! redeploy) and every migration stall reads that table.
//!
//! Two policies share one interface. **Best-fit** is the Harmonia
//! scheduler: it checks real shell-tailoring fit per model, claims the
//! fastest fitting devices first, and provisions until the claimed
//! capacity covers the role's peak demand at the tenant's
//! weight-scaled target utilization. **Random** is the ablation
//! baseline: spec-blind, it sizes replica counts as if every device
//! were the fastest fitting model and scatters them uniformly — on a
//! heterogeneous fleet that sustains >1 utilization on the slower
//! models through the diurnal peak, which is exactly the fleet-p99
//! blow-up `BENCH_fleet.json` quantifies.

use crate::catalog::RoleClass;
use crate::inventory::{device_speed, Inventory};
use crate::KnobError;
use harmonia_host::cmd_driver::{command_script, IssuedCommand};
use harmonia_host::migration::cmd_modifications;
use harmonia_hw::device::{catalog as hw_catalog, DeviceId};
use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};
use harmonia_sim::{Picos, SplitMix64};
use std::sync::{Arc, Mutex, PoisonError};

/// Placement policy selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Capacity-aware best-fit bin-packing (the Harmonia scheduler).
    BestFit,
    /// Spec-blind uniform scatter (the ablation baseline).
    Random,
}

impl PlacementPolicy {
    /// Stable lowercase name, used in reports and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::BestFit => "bestfit",
            PlacementPolicy::Random => "random",
        }
    }

    /// Reads [`crate::FLEET_POLICY_ENV`] (`bestfit`/`random`,
    /// case-insensitive); unset means best-fit.
    ///
    /// # Errors
    ///
    /// Any other value is a [`KnobError`].
    pub fn from_env() -> Result<PlacementPolicy, KnobError> {
        let Some(v) = crate::read_knob(crate::FLEET_POLICY_ENV) else {
            return Ok(PlacementPolicy::BestFit);
        };
        [PlacementPolicy::BestFit, PlacementPolicy::Random]
            .into_iter()
            .find(|p| v.eq_ignore_ascii_case(p.name()))
            .ok_or(KnobError {
                knob: crate::FLEET_POLICY_ENV,
                value: v,
                expected: "bestfit or random",
            })
    }
}

/// One role→device assignment decided by the scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Index into the role catalog.
    pub role: usize,
    /// Device index in the inventory.
    pub device: u32,
}

/// Placement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// A role's peak demand cannot be covered by the devices it fits.
    InsufficientCapacity {
        /// The role that could not be placed.
        role: &'static str,
        /// Peak per-tick command demand that needed covering.
        demand: u64,
        /// Per-tick capacity of every fitting device combined.
        available: u64,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::InsufficientCapacity { role, demand, available } => write!(
                f,
                "role {role}: peak demand {demand} cmds/tick exceeds fitting capacity {available}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Places every role onto the inventory, returning assignments in
/// deterministic `(role, device)` order.
///
/// `peaks[r]` is role `r`'s peak per-tick command demand (from
/// [`crate::DiurnalTraffic::peak_per_role`]). Both policies leave
/// unclaimed devices as spares for failure recovery.
pub fn place(
    policy: PlacementPolicy,
    inventory: &Inventory,
    roles: &[RoleClass],
    peaks: &[u64],
    seed: u64,
) -> Result<Vec<Assignment>, PlacementError> {
    let table = migration_matrix(roles);
    match policy {
        PlacementPolicy::BestFit => place_best_fit(&table, inventory, roles, peaks),
        PlacementPolicy::Random => place_random(&table, inventory, roles, peaks, seed),
    }
}

/// Best-fit: hardest roles first (largest peak demand, ties by name),
/// fastest fitting devices first, claim until the claimed capacity at
/// the tenant's target utilization covers the peak.
fn place_best_fit(
    table: &MigrationMatrix,
    inventory: &Inventory,
    roles: &[RoleClass],
    peaks: &[u64],
) -> Result<Vec<Assignment>, PlacementError> {
    let mut order: Vec<usize> = (0..roles.len()).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(peaks[r]), roles[r].name));
    let mut claimed = vec![false; inventory.devices.len()];
    let mut out = Vec::new();
    for r in order {
        let role = &roles[r];
        // Fitting, unclaimed devices, fastest model first (stable by
        // index within a model).
        let mut candidates: Vec<u32> = inventory
            .devices
            .iter()
            .filter(|d| !claimed[d.index as usize] && table.fits(d.model, r))
            .map(|d| d.index)
            .collect();
        candidates.sort_by_key(|&i| {
            let m = inventory.devices[i as usize].model;
            (std::cmp::Reverse(device_speed(m)), i)
        });
        // Claim until capacity × target_util covers the peak.
        let need = peaks[r].saturating_mul(1_000_000);
        let mut covered = 0u64; // capacity × util, in ppm-commands
        let mut available = 0u64;
        for &i in &candidates {
            available += role.capacity_per_tick(device_speed(inventory.devices[i as usize].model));
        }
        for &i in &candidates {
            if covered >= need && !out.is_empty() {
                // Every role claims at least one device even at zero
                // demand, so the role stays routable.
                if out.iter().any(|a: &Assignment| a.role == r) {
                    break;
                }
            }
            let cap = role.capacity_per_tick(device_speed(inventory.devices[i as usize].model));
            claimed[i as usize] = true;
            out.push(Assignment { role: r, device: i });
            covered = covered.saturating_add(cap.saturating_mul(role.target_util_ppm()));
        }
        if covered < need {
            return Err(PlacementError::InsufficientCapacity {
                role: role.name,
                demand: peaks[r],
                available,
            });
        }
    }
    out.sort_by_key(|a| (a.role, a.device));
    Ok(out)
}

/// Random: spec-blind. Replica counts are sized as if every claimed
/// device served at the fleet's nominal (fastest-model) rate — the
/// scheduler is blind to per-model speeds — and devices are drawn
/// uniformly from the unclaimed pool, fit-checked only at the last
/// moment because an unfittable assignment would not even deploy.
fn place_random(
    table: &MigrationMatrix,
    inventory: &Inventory,
    roles: &[RoleClass],
    peaks: &[u64],
    seed: u64,
) -> Result<Vec<Assignment>, PlacementError> {
    let mut rng = SplitMix64::new(seed ^ 0x524e_444f_4d); // "RNDOM"
    let mut order: Vec<usize> = (0..roles.len()).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(peaks[r]), roles[r].name));
    let mut claimed = vec![false; inventory.devices.len()];
    let mut out = Vec::new();
    for r in order {
        let role = &roles[r];
        // Spec-blind sizing: the baseline assumes every card serves at
        // the nominal "catalog speed" — the fastest model in the fleet —
        // with no idea the device it lands on may be far slower.
        let nominal_speed = DeviceId::ALL.iter().map(|&m| device_speed(m)).max().unwrap_or(1);
        let optimistic_cap = role.capacity_per_tick(nominal_speed);
        let want =
            (peaks[r].saturating_mul(1_000_000)).div_ceil(optimistic_cap * role.target_util_ppm());
        let want = want.max(1) as usize;
        let mut fitting: Vec<u32> = inventory
            .devices
            .iter()
            .filter(|d| !claimed[d.index as usize] && table.fits(d.model, r))
            .map(|d| d.index)
            .collect();
        if fitting.len() < want {
            let available: u64 = fitting
                .iter()
                .map(|&i| role.capacity_per_tick(device_speed(inventory.devices[i as usize].model)))
                .sum();
            return Err(PlacementError::InsufficientCapacity {
                role: role.name,
                demand: peaks[r],
                available,
            });
        }
        for _ in 0..want {
            let k = rng.next_below(fitting.len() as u64) as usize;
            let i = fitting.swap_remove(k);
            claimed[i as usize] = true;
            out.push(Assignment { role: r, device: i });
        }
    }
    out.sort_by_key(|a| (a.role, a.device));
    Ok(out)
}

/// Migration/redeploy stall cost: a fixed deploy base plus a per-command
/// modification charge from the real `migration.rs` diff.
pub const DEPLOY_BASE_PS: Picos = 50_000_000_000; // 50 ms
/// Per-`cmd_modification` stall charge.
pub const CMD_MOD_PS: Picos = 10_000_000_000; // 10 ms

/// The per-catalog deployment table over `(model, role)` pairs: whether
/// each role tailors onto each catalog model, and the migration stall
/// between any two pairs.
///
/// Built by tailoring each pair exactly once (one [`UnifiedShell`] per
/// model) and keeping only the fit bit and the tailored shell's
/// [`command_script`]; every cost is then
/// `DEPLOY_BASE_PS + CMD_MOD_PS ×` [`cmd_modifications`] between two
/// cached scripts — the same count `migration_report` reports. Pairs
/// where either side does not tailor cost `None`.
pub struct MigrationMatrix {
    /// The role specs the table was built from, catalog order.
    specs: Vec<RoleSpec>,
    /// Fit bit per `(model, role)` slot.
    fits: Vec<bool>,
    /// Cost per `(from slot, to slot)` pair.
    costs: Vec<Option<Picos>>,
}

impl MigrationMatrix {
    fn build(roles: &[RoleClass]) -> MigrationMatrix {
        let scripts: Vec<Option<Vec<IssuedCommand>>> = DeviceId::ALL
            .iter()
            .flat_map(|&model| {
                let unified = UnifiedShell::for_device(&hw_catalog::device(model));
                roles
                    .iter()
                    .map(|role| {
                        TailoredShell::tailor(&unified, &role.spec)
                            .ok()
                            .map(|shell| command_script(&shell))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let costs = scripts
            .iter()
            .flat_map(|from| {
                scripts.iter().map(move |to| {
                    let (from, to) = (from.as_deref()?, to.as_deref()?);
                    Some(DEPLOY_BASE_PS + cmd_modifications(from, to) as Picos * CMD_MOD_PS)
                })
            })
            .collect();
        MigrationMatrix {
            specs: roles.iter().map(|r| r.spec.clone()).collect(),
            fits: scripts.iter().map(Option::is_some).collect(),
            costs,
        }
    }

    fn built_from(&self, roles: &[RoleClass]) -> bool {
        self.specs.len() == roles.len() && self.specs.iter().zip(roles).all(|(s, r)| *s == r.spec)
    }

    fn slot(&self, model: DeviceId, role: usize) -> usize {
        model as usize * self.specs.len() + role
    }

    /// Whether catalog role `role` tailors onto `model` — the same answer
    /// as [`RoleClass::fits`], without re-tailoring.
    pub fn fits(&self, model: DeviceId, role: usize) -> bool {
        self.fits[self.slot(model, role)]
    }

    /// Stall cost of migrating a role between two placements, `None`
    /// when either end does not tailor.
    pub fn cost(
        &self,
        from_model: DeviceId,
        from_role: usize,
        to_model: DeviceId,
        to_role: usize,
    ) -> Option<Picos> {
        self.costs
            [self.slot(from_model, from_role) * self.fits.len() + self.slot(to_model, to_role)]
    }
}

/// The deployment table for `roles`, shared by every caller in the
/// process: 24 tailorings for the six-role standard catalog, on first
/// use. A call with a different catalog (compared by [`RoleSpec`])
/// builds and caches a fresh table, so the answer always matches
/// `roles`.
pub fn migration_matrix(roles: &[RoleClass]) -> Arc<MigrationMatrix> {
    static TABLE: Mutex<Option<Arc<MigrationMatrix>>> = Mutex::new(None);
    // A panic while building leaves the slot as it was, so a poisoned
    // lock still guards a valid table (or none).
    let mut cached = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    match cached.as_ref() {
        Some(table) if table.built_from(roles) => Arc::clone(table),
        _ => Arc::clone(cached.insert(Arc::new(MigrationMatrix::build(roles)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;
    use crate::traffic::DiurnalTraffic;
    use harmonia_host::migration::migration_report;

    fn demo(n: usize) -> (Inventory, Vec<RoleClass>, Vec<u64>) {
        let inv = Inventory::sample(n, 5);
        let roles = standard_catalog();
        let gen = DiurnalTraffic::new(n as u64 * crate::USERS_PER_DEVICE, 5);
        let schedule = gen.schedule(crate::TICKS_PER_DAY, &roles);
        let peaks = DiurnalTraffic::peak_per_role(&schedule, &roles);
        (inv, roles, peaks)
    }

    #[test]
    fn best_fit_respects_fit_and_is_deterministic() {
        let (inv, roles, peaks) = demo(256);
        let a = place(PlacementPolicy::BestFit, &inv, &roles, &peaks, 1).unwrap();
        let b = place(PlacementPolicy::BestFit, &inv, &roles, &peaks, 99).unwrap();
        assert_eq!(a, b, "best-fit ignores the seed");
        for asg in &a {
            assert!(roles[asg.role].fits(inv.devices[asg.device as usize].model));
        }
        // No device claimed twice.
        let mut seen = std::collections::HashSet::new();
        assert!(a.iter().all(|asg| seen.insert(asg.device)));
    }

    #[test]
    fn best_fit_leaves_spares() {
        let (inv, roles, peaks) = demo(256);
        let a = place(PlacementPolicy::BestFit, &inv, &roles, &peaks, 1).unwrap();
        assert!(a.len() < inv.devices.len(), "placement should not claim the whole fleet");
    }

    #[test]
    fn random_is_seeded_and_fit_checked() {
        let (inv, roles, peaks) = demo(256);
        let a = place(PlacementPolicy::Random, &inv, &roles, &peaks, 7).unwrap();
        let b = place(PlacementPolicy::Random, &inv, &roles, &peaks, 7).unwrap();
        assert_eq!(a, b, "same seed, same scatter");
        for asg in &a {
            assert!(roles[asg.role].fits(inv.devices[asg.device as usize].model));
        }
        let c = place(PlacementPolicy::Random, &inv, &roles, &peaks, 8).unwrap();
        assert_ne!(a, c, "different seed, different scatter");
    }

    #[test]
    fn policy_env_parses() {
        assert_eq!(PlacementPolicy::BestFit.name(), "bestfit");
        assert_eq!(PlacementPolicy::Random.name(), "random");
    }

    #[test]
    fn tiny_fleet_reports_insufficient_capacity() {
        let inv = Inventory::sample(4, 1);
        let roles = standard_catalog();
        // A demand far beyond what four devices can serve.
        let peaks = vec![u64::MAX / 2_000_000; roles.len()];
        let err = place(PlacementPolicy::BestFit, &inv, &roles, &peaks, 1).unwrap_err();
        let PlacementError::InsufficientCapacity { demand, .. } = err;
        assert!(demand > 0);
    }

    /// The cost the matrix must reproduce: the full `migration_report`
    /// (tailor both ends, diff register and command scripts).
    fn reference_cost(from: (DeviceId, &RoleClass), to: (DeviceId, &RoleClass)) -> Option<Picos> {
        let (from_dev, to_dev) = (hw_catalog::device(from.0), hw_catalog::device(to.0));
        migration_report(&from_dev, &from.1.spec, &to_dev, &to.1.spec)
            .ok()
            .map(|rep| DEPLOY_BASE_PS + rep.cmd_modifications as Picos * CMD_MOD_PS)
    }

    #[test]
    fn table_matches_tailoring_and_migration_report_on_every_pair() {
        let roles = standard_catalog();
        let table = migration_matrix(&roles);
        for fm in DeviceId::ALL {
            for (fr, from_role) in roles.iter().enumerate() {
                assert_eq!(
                    table.fits(fm, fr),
                    from_role.fits(fm),
                    "{} on {fm:?}",
                    from_role.name
                );
                for tm in DeviceId::ALL {
                    for (tr, to_role) in roles.iter().enumerate() {
                        assert_eq!(
                            table.cost(fm, fr, tm, tr),
                            reference_cost((fm, from_role), (tm, to_role)),
                            "{} on {fm:?} -> {} on {tm:?}",
                            from_role.name,
                            to_role.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn table_follows_the_catalog_it_is_asked_about() {
        let standard = standard_catalog();
        let _ = migration_matrix(&standard);
        let mut reordered = standard_catalog();
        reordered.reverse();
        let table = migration_matrix(&reordered);
        let retrieval = reordered
            .iter()
            .position(|r| r.name == "retrieval")
            .unwrap();
        assert_ne!(
            standard[retrieval].name, "retrieval",
            "the reorder must move retrieval"
        );
        let role = &reordered[retrieval];
        // Retrieval only tailors onto A: A -> B is infeasible, whatever
        // role held this index in the catalog built first.
        assert_eq!(
            table.cost(DeviceId::A, retrieval, DeviceId::B, retrieval),
            reference_cost((DeviceId::A, role), (DeviceId::B, role))
        );
        assert!(!table.fits(DeviceId::B, retrieval));
        // And back: the standard catalog gets its own answers again.
        let l4lb = standard.iter().position(|r| r.name == "l4lb").unwrap();
        let table = migration_matrix(&standard);
        assert_eq!(
            table.cost(DeviceId::A, l4lb, DeviceId::D, l4lb),
            reference_cost(
                (DeviceId::A, &standard[l4lb]),
                (DeviceId::D, &standard[l4lb])
            )
        );
    }

    #[test]
    fn migration_matrix_has_feasible_and_infeasible_pairs() {
        let roles = standard_catalog();
        let m = migration_matrix(&roles);
        let retrieval = roles.iter().position(|r| r.name == "retrieval").unwrap();
        let l4lb = roles.iter().position(|r| r.name == "l4lb").unwrap();
        // l4lb A→B is a real migration with a cost.
        let c = m.cost(DeviceId::A, l4lb, DeviceId::B, l4lb).unwrap();
        assert!(c >= DEPLOY_BASE_PS);
        // retrieval cannot land on C (no DRAM at all).
        assert!(m.cost(DeviceId::A, retrieval, DeviceId::C, retrieval).is_none());
    }
}
