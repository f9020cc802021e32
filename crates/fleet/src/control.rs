//! The [`FleetController`]: campaign loop, failure domains, rolling
//! upgrades, exact command accounting.
//!
//! A *campaign* runs a fleet for a simulated day (plus a drain phase):
//! each 5-minute tick routes the diurnal load across role replicas in
//! proportion to their real service capacity, consults each device's
//! PR 4 fault injector (`FaultKind::LinkDown` is the kill switch for a
//! card or a whole rack), drains and reschedules the work of dead or
//! upgrading devices through the migration cost matrix, and executes
//! queued commands against per-device service rates, recording every
//! command's latency.
//!
//! The accounting invariant is checked every tick: commands injected
//! equal commands executed plus commands still queued somewhere —
//! nothing is ever lost or double-executed, including across kills,
//! rack failures and upgrade waves.

use crate::catalog::{standard_catalog, RoleClass};
use crate::inventory::{device_speed, DeviceState, Inventory};
use crate::placement::{
    migration_matrix, place, Assignment, MigrationMatrix, PlacementError, PlacementPolicy,
};
use crate::traffic::{DiurnalTraffic, TickLoad};
use crate::KnobError;
use harmonia_sim::metrics::{MetricsRegistry, Slo, SloObjective};
use harmonia_sim::{FaultInjector, FaultKind, FaultPlan, LogHistogram, Picos};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Ticks a replacement spare spends deploying before it serves.
pub const DEPLOY_TICKS: u32 = 2;

/// Ticks one rolling-upgrade wave keeps its devices out of service.
pub const UPGRADE_TICKS: u32 = 2;

/// Upper bound on post-traffic drain ticks before the campaign gives
/// up and reports the residual backlog as `pending`.
pub const MAX_DRAIN_TICKS: u32 = 2_000;

/// Campaign parameters: the fleet is a pure function of this value
/// plus the scheduled kill/upgrade events.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Simulated device count.
    pub devices: usize,
    /// Campaign seed (inventory shuffle, traffic jitter, random placement).
    pub seed: u64,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Traffic ticks (default one day, [`crate::TICKS_PER_DAY`]).
    pub ticks: u32,
    /// Simulated users (default `devices ×` [`crate::USERS_PER_DEVICE`]).
    pub users: u64,
}

impl FleetSpec {
    /// A one-day campaign over `devices` cards with the derived
    /// default user population.
    pub fn new(devices: usize, seed: u64, policy: PlacementPolicy) -> FleetSpec {
        FleetSpec {
            devices,
            seed,
            policy,
            ticks: crate::TICKS_PER_DAY,
            users: devices as u64 * crate::USERS_PER_DEVICE,
        }
    }

    /// Builds a spec from the fleet knobs, each looked up by name through
    /// `get` (`None` when unset): device count from
    /// [`crate::FLEET_DEVICES_ENV`] (default
    /// [`crate::DEFAULT_FLEET_DEVICES`]), policy from
    /// [`crate::FLEET_POLICY_ENV`] (`bestfit`/`random`, case-insensitive,
    /// default best-fit), seed 42. `--bin fleet` passes the process
    /// environment; nothing in the library reads it.
    ///
    /// # Errors
    ///
    /// A set knob that does not parse — a device count that is not a
    /// positive integer, or an unknown policy — is a [`KnobError`].
    pub fn from_knobs(get: impl Fn(&str) -> Option<String>) -> Result<FleetSpec, KnobError> {
        let devices = match get(crate::FLEET_DEVICES_ENV) {
            None => crate::DEFAULT_FLEET_DEVICES,
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or(KnobError {
                    knob: crate::FLEET_DEVICES_ENV,
                    value: v,
                    expected: "a positive device count",
                })?,
        };
        let policy = match get(crate::FLEET_POLICY_ENV) {
            None => PlacementPolicy::BestFit,
            Some(v) => [PlacementPolicy::BestFit, PlacementPolicy::Random]
                .into_iter()
                .find(|p| v.eq_ignore_ascii_case(p.name()))
                .ok_or(KnobError {
                    knob: crate::FLEET_POLICY_ENV,
                    value: v,
                    expected: "bestfit or random",
                })?,
        };
        Ok(FleetSpec::new(devices, 42, policy))
    }
}

/// Fleet bring-up failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The placement scheduler could not cover a role's peak demand.
    Placement(PlacementError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Placement(e) => write!(f, "placement failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<PlacementError> for FleetError {
    fn from(e: PlacementError) -> FleetError {
        FleetError::Placement(e)
    }
}

/// Exact command accounting over a campaign.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Commands injected by the traffic generator.
    pub injected: u64,
    /// Commands executed by devices.
    pub executed: u64,
    /// Commands moved between devices (kill drains, upgrade drains,
    /// orphan re-dispatch).
    pub migrated: u64,
    /// Commands still queued when the campaign ended.
    pub pending: u64,
}

impl Accounting {
    /// Whether the books balance exactly: every injected command was
    /// executed once or is still queued — none lost, none doubled.
    pub fn exact(&self) -> bool {
        self.injected == self.executed + self.pending
    }
}

/// Outcome of a scheduled rolling upgrade.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UpgradeReport {
    /// Shell version the fleet was driven to.
    pub target_version: u32,
    /// Waves executed.
    pub waves: u32,
    /// Devices upgraded.
    pub devices_upgraded: u32,
    /// Tick the last wave completed, `None` if the campaign ended first.
    pub completed_tick: Option<u32>,
}

/// Per-role campaign outcome.
#[derive(Clone, Debug)]
pub struct RoleReport {
    /// Role name.
    pub name: &'static str,
    /// Replicas holding the role when the campaign ended.
    pub replicas: usize,
    /// Commands executed by those replicas.
    pub executed: u64,
    /// Role command-latency histogram (merged over replicas).
    pub latency: LogHistogram,
}

/// The campaign result: accounting, latency, faults, upgrade outcome.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Placement policy name.
    pub policy: &'static str,
    /// Device count.
    pub devices: usize,
    /// Rack count.
    pub racks: u32,
    /// Simulated users.
    pub users: u64,
    /// Traffic ticks.
    pub traffic_ticks: u32,
    /// Total ticks run, including the drain phase.
    pub total_ticks: u32,
    /// Replicas placed (fleet-wide).
    pub replicas: usize,
    /// Unassigned spares left after placement.
    pub spares: usize,
    /// The exact command accounting.
    pub accounting: Accounting,
    /// Fleet-wide command-latency histogram.
    pub fleet_latency: LogHistogram,
    /// Per-role outcomes, catalog order.
    pub roles: Vec<RoleReport>,
    /// Device kills injected (rack kills count each device).
    pub kills: u32,
    /// Tick of the first injected fault, if any.
    pub first_fault_tick: Option<u32>,
    /// Ticks at/after the first fault that ended with aged backlog —
    /// the rebalance latency after failure.
    pub rebalance_ticks: u32,
    /// All ticks that ended with aged backlog (work older than one tick).
    pub congested_ticks: u32,
    /// Rolling-upgrade outcome, if one was scheduled.
    pub upgrade: Option<UpgradeReport>,
}

impl CampaignReport {
    /// Renders the campaign as deterministic text: integer math end to
    /// end, byte-identical on every run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet campaign: policy={} devices={} racks={} users={} ticks={}+{}\n",
            self.policy,
            self.devices,
            self.racks,
            self.users,
            self.traffic_ticks,
            self.total_ticks - self.traffic_ticks,
        ));
        out.push_str(&format!(
            "placement: {} replicas over {} roles, {} spares\n",
            self.replicas,
            self.roles.len(),
            self.spares,
        ));
        out.push_str(&format!(
            "accounting: injected={} executed={} migrated={} pending={} exact={}\n",
            self.accounting.injected,
            self.accounting.executed,
            self.accounting.migrated,
            self.accounting.pending,
            if self.accounting.exact() { "yes" } else { "NO" },
        ));
        out.push_str(&format!(
            "latency: p50={} p99={} max={} ps\n",
            self.fleet_latency.p50(),
            self.fleet_latency.p99(),
            self.fleet_latency.max(),
        ));
        for r in &self.roles {
            out.push_str(&format!(
                "role {}: replicas={} executed={} p50={} p99={} ps\n",
                r.name,
                r.replicas,
                r.executed,
                r.latency.p50(),
                r.latency.p99(),
            ));
        }
        match self.first_fault_tick {
            Some(t) => out.push_str(&format!(
                "faults: {} kill(s), first at tick {}, rebalance_ticks={}\n",
                self.kills, t, self.rebalance_ticks
            )),
            None => out.push_str("faults: none\n"),
        }
        match &self.upgrade {
            Some(u) => out.push_str(&format!(
                "upgrade: v{} over {} wave(s), {} device(s), completed_tick={}\n",
                u.target_version,
                u.waves,
                u.devices_upgraded,
                u.completed_tick.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            )),
            None => out.push_str("upgrade: none\n"),
        }
        out.push_str(&format!("congested_ticks={}\n", self.congested_ticks));
        out
    }

    /// Publishes the campaign into a metrics registry as
    /// `harmonia_fleet_*` counters, gauges and histograms.
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        registry.gauge_set("harmonia_fleet_devices", &[], self.devices as u64);
        registry.gauge_set("harmonia_fleet_racks", &[], u64::from(self.racks));
        registry.gauge_set("harmonia_fleet_users", &[], self.users);
        registry.gauge_set("harmonia_fleet_replicas", &[], self.replicas as u64);
        registry.gauge_set("harmonia_fleet_spares", &[], self.spares as u64);
        registry.counter_add("harmonia_fleet_cmds_injected", &[], self.accounting.injected);
        registry.counter_add("harmonia_fleet_cmds_executed", &[], self.accounting.executed);
        registry.counter_add("harmonia_fleet_cmds_migrated", &[], self.accounting.migrated);
        registry.gauge_set("harmonia_fleet_cmds_pending", &[], self.accounting.pending);
        registry.counter_add("harmonia_fleet_kills", &[], u64::from(self.kills));
        registry.gauge_set(
            "harmonia_fleet_rebalance_ticks",
            &[],
            u64::from(self.rebalance_ticks),
        );
        registry.gauge_set(
            "harmonia_fleet_congested_ticks",
            &[],
            u64::from(self.congested_ticks),
        );
        registry.observe_histogram("harmonia_fleet_latency_ps", &[], &self.fleet_latency);
        for r in &self.roles {
            registry.gauge_set("harmonia_fleet_role_replicas", &[("role", r.name)], r.replicas as u64);
            registry.counter_add("harmonia_fleet_role_cmds", &[("role", r.name)], r.executed);
            registry.observe_histogram(
                "harmonia_fleet_role_latency_ps",
                &[("role", r.name)],
                &r.latency,
            );
        }
        if let Some(u) = &self.upgrade {
            registry.counter_add("harmonia_fleet_upgraded_devices", &[], u64::from(u.devices_upgraded));
        }
    }
}

/// The fleet-level service objectives the operator's handbook grades a
/// campaign against (see `OPERATIONS.md`): the fleet p99 must fit
/// inside one control tick, and no more than 5 % of commands may need
/// migration.
pub fn fleet_slos() -> Vec<Slo> {
    vec![
        Slo {
            name: "fleet-p99-within-tick",
            objective: SloObjective::PercentileMaxPs {
                histogram: "harmonia_fleet_latency_ps",
                percentile: 99.0,
                max_ps: crate::TICK_PS,
            },
        },
        Slo {
            name: "fleet-migration-ratio",
            objective: SloObjective::RatioMaxPpm {
                numerator: "harmonia_fleet_cmds_migrated",
                denominator: "harmonia_fleet_cmds_injected",
                max_ppm: 50_000,
            },
        },
    ]
}

#[derive(Clone, Debug)]
struct UpgradePlan {
    start_tick: u32,
    target_version: u32,
    wave_size: usize,
    waves: u32,
    upgraded: u32,
    completed_tick: Option<u32>,
}

/// The cluster control plane over one simulated fleet.
///
/// Construct with [`FleetController::new`], schedule faults and
/// upgrades, then [`FleetController::run`] the campaign to completion.
pub struct FleetController {
    spec: FleetSpec,
    roles: Vec<RoleClass>,
    table: Arc<MigrationMatrix>,
    inventory: Inventory,
    assignments: Vec<Assignment>,
    role_members: Vec<Vec<u32>>,
    schedule: Vec<TickLoad>,
    fault_events: BTreeMap<u32, Vec<(Picos, FaultKind)>>,
    injectors: Vec<FaultInjector>,
    upgrade: Option<UpgradePlan>,
    orphaned: Vec<(usize, u32, u64)>,
    acc: Accounting,
    kills: u32,
    first_fault_tick: Option<u32>,
    rebalance_ticks: u32,
    congested_ticks: u32,
}

impl FleetController {
    /// Builds the fleet: samples the inventory, generates the day's
    /// traffic schedule (through the ordered pool), and places every
    /// role under the spec's policy.
    pub fn new(spec: FleetSpec) -> Result<FleetController, FleetError> {
        let roles = standard_catalog();
        let inventory = Inventory::sample(spec.devices, spec.seed);
        let traffic = DiurnalTraffic::new(spec.users, spec.seed);
        let schedule = traffic.schedule(spec.ticks, &roles);
        let peaks = DiurnalTraffic::peak_per_role(&schedule, &roles);
        let assignments = place(spec.policy, &inventory, &roles, &peaks, spec.seed)?;
        let table = migration_matrix(&roles);
        let mut inventory = inventory;
        let mut role_members = vec![Vec::new(); roles.len()];
        for a in &assignments {
            inventory.devices[a.device as usize].role = Some(a.role);
            role_members[a.role].push(a.device);
        }
        let injectors = vec![FaultInjector::none(); spec.devices];
        Ok(FleetController {
            spec,
            roles,
            table,
            inventory,
            assignments,
            role_members,
            schedule,
            fault_events: BTreeMap::new(),
            injectors,
            upgrade: None,
            orphaned: Vec::new(),
            acc: Accounting::default(),
            kills: 0,
            first_fault_tick: None,
            rebalance_ticks: 0,
            congested_ticks: 0,
        })
    }

    /// The placement decided at bring-up, `(role, device)`-ordered.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The role catalog this fleet serves.
    pub fn roles(&self) -> &[RoleClass] {
        &self.roles
    }

    /// The inventory (for inspection; mutated by [`FleetController::run`]).
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// Schedules a link-down kill of one device at `tick` — the PR 4
    /// fault plane's `LinkDown` wired to this device's injector.
    pub fn kill_device(&mut self, device: u32, tick: u32) {
        self.push_fault(device, tick, FaultKind::LinkDown);
        self.kills += 1;
        self.first_fault_tick =
            Some(self.first_fault_tick.map_or(tick, |t| t.min(tick)));
    }

    /// Schedules a link restore of one device at `tick`.
    pub fn restore_device(&mut self, device: u32, tick: u32) {
        self.push_fault(device, tick, FaultKind::LinkUp);
    }

    /// Kills every device in a rack at `tick` — a whole failure domain
    /// going dark at once.
    pub fn kill_rack(&mut self, rack: u32, tick: u32) {
        let victims: Vec<u32> = self
            .inventory
            .devices
            .iter()
            .filter(|d| d.rack == rack)
            .map(|d| d.index)
            .collect();
        for v in victims {
            self.kill_device(v, tick);
        }
    }

    /// Schedules a rolling shell upgrade: from `start_tick`, waves of
    /// `wave_size` devices drain their work, go dark for
    /// [`UPGRADE_TICKS`], and come back on `target_version`.
    pub fn schedule_upgrade(&mut self, start_tick: u32, target_version: u32, wave_size: usize) {
        self.upgrade = Some(UpgradePlan {
            start_tick,
            target_version,
            wave_size: wave_size.max(1),
            waves: 0,
            upgraded: 0,
            completed_tick: None,
        });
    }

    fn push_fault(&mut self, device: u32, tick: u32, kind: FaultKind) {
        self.fault_events
            .entry(device)
            .or_default()
            .push((Picos::from(tick) * crate::TICK_PS, kind));
    }

    /// Runs the campaign: the traffic ticks, then a drain phase until
    /// every queue is empty (bounded by [`MAX_DRAIN_TICKS`]).
    pub fn run(&mut self) -> CampaignReport {
        // Arm the per-device injectors from the scheduled fault events.
        for (&device, events) in &self.fault_events {
            let mut sorted = events.clone();
            sorted.sort_by_key(|&(at, _)| at);
            let mut plan = FaultPlan::new();
            for (at, kind) in sorted {
                plan = plan.at(at, kind);
            }
            self.injectors[device as usize] = plan.injector();
        }
        let mut t: u32 = 0;
        loop {
            let draining = t >= self.spec.ticks;
            let upgrading = self
                .upgrade
                .as_ref()
                .map(|u| u.completed_tick.is_none())
                .unwrap_or(false);
            if draining && self.acc.pending == 0 && !upgrading {
                break;
            }
            if t >= self.spec.ticks + MAX_DRAIN_TICKS {
                break;
            }
            self.step(t, draining);
            t += 1;
        }
        self.report(t)
    }

    /// One control tick.
    fn step(&mut self, t: u32, draining: bool) {
        self.promote(t);
        if !draining {
            self.inject(t);
        }
        self.consult_faults(t);
        self.upgrade_wave(t);
        self.redispatch_orphans(t);
        self.execute(t);
        self.settle(t);
    }

    /// Promotes devices whose deploy/upgrade completes at `t`.
    fn promote(&mut self, t: u32) {
        let mut completed_upgrades = 0u32;
        for d in &mut self.inventory.devices {
            match d.state {
                DeviceState::Deploying { ready_tick } if ready_tick <= t => {
                    d.state = DeviceState::Live;
                }
                DeviceState::Upgrading { done_tick } if done_tick <= t => {
                    if let Some(u) = &self.upgrade {
                        d.shell_version = u.target_version;
                    }
                    d.state = DeviceState::Live;
                    d.stall_ps += crate::placement::DEPLOY_BASE_PS;
                    completed_upgrades += 1;
                }
                _ => {}
            }
        }
        if completed_upgrades > 0 {
            if let Some(u) = &mut self.upgrade {
                u.upgraded += completed_upgrades;
            }
        }
    }

    /// Routes this tick's load across role replicas in proportion to
    /// their real per-tick service capacity (largest-remainder split,
    /// so the command count is conserved exactly).
    fn inject(&mut self, t: u32) {
        for (r, &n) in self.schedule[t as usize].per_role.iter().enumerate() {
            if n == 0 {
                continue;
            }
            self.acc.injected += n;
            let eligible: Vec<(u32, u64)> = self.role_members[r]
                .iter()
                .filter(|&&i| {
                    !matches!(
                        self.inventory.devices[i as usize].state,
                        DeviceState::Down | DeviceState::Upgrading { .. }
                    )
                })
                .map(|&i| {
                    let role = &self.roles[r];
                    (i, role.capacity_per_tick(device_speed(self.inventory.devices[i as usize].model)))
                })
                .collect();
            if eligible.is_empty() {
                self.orphaned.push((r, t, n));
                continue;
            }
            for (i, share) in split_by_capacity(n, &eligible) {
                self.inventory.devices[i as usize].incoming += share;
            }
        }
    }

    /// Consults every armed injector: link-down drains and reschedules
    /// the device's work; link-up brings it back (with a redeploy stall).
    fn consult_faults(&mut self, t: u32) {
        let now = Picos::from(t) * crate::TICK_PS + 1;
        for i in 0..self.inventory.devices.len() {
            if !self.injectors[i].is_active() {
                continue;
            }
            let up = self.injectors[i].link_up(now);
            let state = self.inventory.devices[i].state;
            if !up && state != DeviceState::Down {
                self.drain_and_reschedule(i, t, true);
                self.inventory.devices[i].state = DeviceState::Down;
            } else if up && state == DeviceState::Down {
                self.inventory.devices[i].state = DeviceState::Live;
                self.inventory.devices[i].stall_ps += crate::placement::DEPLOY_BASE_PS;
            }
        }
    }

    /// Launches the next upgrade wave when none is in flight.
    fn upgrade_wave(&mut self, t: u32) {
        let Some(plan) = self.upgrade.clone() else { return };
        if plan.completed_tick.is_some() || t < plan.start_tick {
            return;
        }
        let in_flight = self
            .inventory
            .devices
            .iter()
            .any(|d| matches!(d.state, DeviceState::Upgrading { .. }));
        if in_flight {
            return;
        }
        let wave: Vec<usize> = self
            .inventory
            .devices
            .iter()
            .filter(|d| d.shell_version < plan.target_version && d.state == DeviceState::Live)
            .map(|d| d.index as usize)
            .take(plan.wave_size)
            .collect();
        if wave.is_empty() {
            if let Some(u) = &mut self.upgrade {
                u.completed_tick = Some(t);
            }
            return;
        }
        for i in wave {
            self.drain_and_reschedule(i, t, false);
            self.inventory.devices[i].state = DeviceState::Upgrading {
                done_tick: t + UPGRADE_TICKS,
            };
        }
        if let Some(u) = &mut self.upgrade {
            u.waves += 1;
        }
    }

    /// Moves a device's queued work off it: to a freshly-deployed spare
    /// (kills, when one fits) or spread onto the surviving replicas of
    /// the same role. Orphans the cohorts when nobody can take them —
    /// they re-dispatch the moment a replica is eligible again, so the
    /// accounting never loses a command.
    fn drain_and_reschedule(&mut self, victim: usize, t: u32, deploy_spare: bool) {
        let (role_idx, victim_model) = {
            let d = &mut self.inventory.devices[victim];
            let role = d.role;
            let model = d.model;
            (role, model)
        };
        let mut cohorts: Vec<(u32, u64)> = self.inventory.devices[victim].backlog.drain(..).collect();
        let incoming = std::mem::take(&mut self.inventory.devices[victim].incoming);
        if incoming > 0 {
            cohorts.push((t, incoming));
        }
        let moved: u64 = cohorts.iter().map(|&(_, n)| n).sum();
        let Some(r) = role_idx else { return };
        if moved == 0 && !deploy_spare {
            return;
        }
        // Preferred target for a kill: the fastest fitting spare, which
        // joins the role after a deploy delay and a migration stall from
        // the real migration cost matrix.
        let spare = if deploy_spare {
            let mut spares: Vec<u32> = self
                .inventory
                .devices
                .iter()
                .filter(|d| {
                    d.role.is_none() && d.state == DeviceState::Live && self.table.fits(d.model, r)
                })
                .map(|d| d.index)
                .collect();
            spares.sort_by_key(|&i| {
                (std::cmp::Reverse(device_speed(self.inventory.devices[i as usize].model)), i)
            });
            spares.first().copied()
        } else {
            None
        };
        if let Some(s) = spare {
            let cost = self
                .table
                .cost(victim_model, r, self.inventory.devices[s as usize].model, r)
                .expect("spare was fit-checked");
            let d = &mut self.inventory.devices[s as usize];
            d.role = Some(r);
            d.state = DeviceState::Deploying { ready_tick: t + DEPLOY_TICKS };
            d.stall_ps += cost;
            for &(at, n) in &cohorts {
                push_cohort(&mut d.backlog, at, n);
            }
            self.role_members[r].push(s);
            self.role_members[r].sort_unstable();
            self.acc.migrated += moved;
            return;
        }
        // No spare (or a planned upgrade): spread onto the surviving
        // replicas, least-loaded first.
        let survivors: Vec<u32> = self.role_members[r]
            .iter()
            .filter(|&&i| {
                i as usize != victim
                    && !matches!(
                        self.inventory.devices[i as usize].state,
                        DeviceState::Down | DeviceState::Upgrading { .. }
                    )
            })
            .copied()
            .collect();
        if survivors.is_empty() {
            for (at, n) in cohorts {
                self.orphaned.push((r, at, n));
            }
            // Parked, not lost: still part of `pending` until re-dispatch.
            return;
        }
        let target = survivors
            .iter()
            .min_by_key(|&&i| (self.inventory.devices[i as usize].queued(), i))
            .copied()
            .expect("nonempty survivors");
        let d = &mut self.inventory.devices[target as usize];
        for &(at, n) in &cohorts {
            push_cohort(&mut d.backlog, at, n);
        }
        self.acc.migrated += moved;
    }

    /// Re-dispatches orphaned cohorts once their role has an eligible
    /// replica again.
    fn redispatch_orphans(&mut self, _t: u32) {
        if self.orphaned.is_empty() {
            return;
        }
        let orphaned = std::mem::take(&mut self.orphaned);
        for (r, at, n) in orphaned {
            let target = self.role_members[r]
                .iter()
                .filter(|&&i| {
                    !matches!(
                        self.inventory.devices[i as usize].state,
                        DeviceState::Down | DeviceState::Upgrading { .. }
                    )
                })
                .min_by_key(|&&i| (self.inventory.devices[i as usize].queued(), i))
                .copied();
            match target {
                Some(i) => {
                    push_cohort(&mut self.inventory.devices[i as usize].backlog, at, n);
                    self.acc.migrated += n;
                }
                None => self.orphaned.push((r, at, n)),
            }
        }
    }

    /// Executes queued commands on every live replica: FIFO cohorts at
    /// the device's per-role service rate, after any pending stall.
    fn execute(&mut self, t: u32) {
        for i in 0..self.inventory.devices.len() {
            let incoming = std::mem::take(&mut self.inventory.devices[i].incoming);
            if incoming > 0 {
                push_cohort(&mut self.inventory.devices[i].backlog, t, incoming);
            }
            let d = &self.inventory.devices[i];
            let Some(r) = d.role else { continue };
            if d.state != DeviceState::Live {
                continue;
            }
            let service = self.roles[r].service_ps(device_speed(d.model));
            let d = &mut self.inventory.devices[i];
            let stall = d.stall_ps.min(crate::TICK_PS);
            d.stall_ps -= stall;
            let budget = crate::TICK_PS - stall;
            let mut capacity = budget / service;
            let mut pos = 0u64;
            while capacity > 0 {
                let Some(&(at, n)) = d.backlog.front() else { break };
                let k = n.min(capacity);
                let age = Picos::from(t - at) * crate::TICK_PS;
                d.latency
                    .record_progression(age + stall + service, service, pos, pos + k - 1);
                d.executed += k;
                self.acc.executed += k;
                pos += k;
                capacity -= k;
                if k == n {
                    d.backlog.pop_front();
                } else {
                    d.backlog.front_mut().expect("checked").1 -= k;
                }
            }
        }
    }

    /// End-of-tick bookkeeping: recompute pending from the actual
    /// queues, assert exact conservation, track congestion.
    fn settle(&mut self, t: u32) {
        let queued: u64 = self.inventory.devices.iter().map(|d| d.queued() + d.incoming).sum();
        let orphaned: u64 = self.orphaned.iter().map(|&(_, _, n)| n).sum();
        self.acc.pending = queued + orphaned;
        assert!(
            self.acc.exact(),
            "conservation violated at tick {t}: injected={} executed={} pending={}",
            self.acc.injected,
            self.acc.executed,
            self.acc.pending,
        );
        let aged = self
            .inventory
            .devices
            .iter()
            .any(|d| d.backlog.front().is_some_and(|&(at, _)| at < t))
            || self.orphaned.iter().any(|&(_, at, _)| at < t);
        if aged {
            self.congested_ticks += 1;
            if self.first_fault_tick.is_some_and(|f| t >= f) {
                self.rebalance_ticks += 1;
            }
        }
    }

    fn report(&self, total_ticks: u32) -> CampaignReport {
        let mut fleet_latency = LogHistogram::new();
        let mut roles: Vec<RoleReport> = self
            .roles
            .iter()
            .map(|r| RoleReport {
                name: r.name,
                replicas: 0,
                executed: 0,
                latency: LogHistogram::new(),
            })
            .collect();
        for d in &self.inventory.devices {
            fleet_latency.merge(&d.latency);
            if let Some(r) = d.role {
                roles[r].replicas += 1;
                roles[r].executed += d.executed;
                roles[r].latency.merge(&d.latency);
            }
        }
        let spares = self.inventory.devices.iter().filter(|d| d.role.is_none()).count();
        CampaignReport {
            policy: self.spec.policy.name(),
            devices: self.spec.devices,
            racks: self.inventory.racks,
            users: self.spec.users,
            traffic_ticks: self.spec.ticks,
            total_ticks,
            replicas: self.inventory.devices.len() - spares,
            spares,
            accounting: self.acc,
            fleet_latency,
            roles,
            kills: self.kills,
            first_fault_tick: self.first_fault_tick,
            rebalance_ticks: self.rebalance_ticks,
            congested_ticks: self.congested_ticks,
            upgrade: self.upgrade.as_ref().map(|u| UpgradeReport {
                target_version: u.target_version,
                waves: u.waves,
                devices_upgraded: u.upgraded,
                completed_tick: u.completed_tick,
            }),
        }
    }
}

/// Splits `n` commands across `(device, capacity)` pairs in proportion
/// to capacity, conserving `n` exactly (largest-remainder rounding).
fn split_by_capacity(n: u64, eligible: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let cap_sum: u64 = eligible.iter().map(|&(_, c)| c).sum();
    if cap_sum == 0 {
        // Degenerate: equal split, remainder to the first.
        let each = n / eligible.len() as u64;
        let mut out: Vec<(u32, u64)> = eligible.iter().map(|&(i, _)| (i, each)).collect();
        out[0].1 += n - each * eligible.len() as u64;
        return out;
    }
    let mut out: Vec<(u32, u64)> = Vec::with_capacity(eligible.len());
    let mut rema: Vec<(usize, u64)> = Vec::with_capacity(eligible.len());
    let mut assigned = 0u64;
    for (k, &(i, c)) in eligible.iter().enumerate() {
        // `n × c` fits a u64 at fleet scale; widen only when it does not.
        let (base, rem) = match n.checked_mul(c) {
            Some(exact) => (exact / cap_sum, exact % cap_sum),
            None => {
                let exact = n as u128 * c as u128;
                ((exact / cap_sum as u128) as u64, (exact % cap_sum as u128) as u64)
            }
        };
        out.push((i, base));
        rema.push((k, rem));
        assigned += base;
    }
    rema.sort_by_key(|&(k, rem)| (std::cmp::Reverse(rem), k));
    for &(k, _) in rema.iter().take((n - assigned) as usize) {
        out[k].1 += 1;
    }
    out
}

/// Appends a cohort keeping the backlog sorted by arrival tick (FIFO),
/// coalescing with an existing same-tick cohort.
fn push_cohort(backlog: &mut std::collections::VecDeque<(u32, u64)>, at: u32, n: u64) {
    if n == 0 {
        return;
    }
    // Common case: appending in arrival order.
    match backlog.back_mut() {
        Some(last) if last.0 == at => {
            last.1 += n;
            return;
        }
        Some(last) if last.0 < at => {
            backlog.push_back((at, n));
            return;
        }
        None => {
            backlog.push_back((at, n));
            return;
        }
        _ => {}
    }
    // Out-of-order insert (migrated cohorts older than the resident
    // queue): keep FIFO by arrival tick.
    let pos = backlog.iter().position(|&(a, _)| a > at).unwrap_or(backlog.len());
    if pos > 0 && backlog[pos - 1].0 == at {
        backlog[pos - 1].1 += n;
    } else {
        backlog.insert(pos, (at, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_testkit::prelude::*;

    fn small(policy: PlacementPolicy) -> FleetController {
        FleetController::new(FleetSpec::new(96, 7, policy)).expect("placement")
    }

    #[test]
    fn quiet_campaign_converges_exactly() {
        let mut fleet = small(PlacementPolicy::BestFit);
        let report = fleet.run();
        assert!(report.accounting.exact());
        assert_eq!(report.accounting.pending, 0, "drained");
        assert!(report.accounting.injected > 1_000_000, "a day of real load");
        assert_eq!(report.accounting.migrated, 0, "no faults, no moves");
        assert_eq!(report.kills, 0);
    }

    #[test]
    fn best_fit_p99_fits_inside_one_tick() {
        let mut fleet = small(PlacementPolicy::BestFit);
        let report = fleet.run();
        assert!(
            report.fleet_latency.p99() <= crate::TICK_PS,
            "p99 {} > tick {}",
            report.fleet_latency.p99(),
            crate::TICK_PS
        );
        assert_eq!(report.congested_ticks, 0, "no aged backlog at ≤75% util");
    }

    #[test]
    fn kill_mid_traffic_migrates_and_converges() {
        let mut fleet = small(PlacementPolicy::BestFit);
        let victim = fleet.assignments()[0].device;
        fleet.kill_device(victim, 150);
        let report = fleet.run();
        assert!(report.accounting.exact());
        assert_eq!(report.accounting.pending, 0);
        assert!(report.accounting.migrated > 0, "the victim's queue moved");
        assert_eq!(report.kills, 1);
        assert_eq!(report.first_fault_tick, Some(150));
    }

    #[test]
    fn rack_kill_drains_a_whole_failure_domain() {
        let mut fleet = small(PlacementPolicy::BestFit);
        fleet.kill_rack(0, 100);
        let report = fleet.run();
        assert!(report.accounting.exact());
        assert_eq!(report.accounting.pending, 0);
        assert_eq!(report.kills, crate::RACK_SIZE as u32);
        assert!(report.accounting.migrated > 0);
    }

    #[test]
    fn restore_brings_a_device_back() {
        let mut fleet = small(PlacementPolicy::BestFit);
        let victim = fleet.assignments()[0].device;
        fleet.kill_device(victim, 100);
        fleet.restore_device(victim, 120);
        let report = fleet.run();
        assert!(report.accounting.exact());
        assert_eq!(report.accounting.pending, 0);
        let d = &fleet.inventory.devices[victim as usize];
        assert_eq!(d.state, DeviceState::Live);
        assert!(d.executed > 0, "served again after restore");
    }

    #[test]
    fn rolling_upgrade_completes_and_keeps_the_books() {
        let mut fleet = small(PlacementPolicy::BestFit);
        fleet.schedule_upgrade(10, 2, 16);
        let report = fleet.run();
        assert!(report.accounting.exact());
        assert_eq!(report.accounting.pending, 0);
        let u = report.upgrade.expect("upgrade scheduled");
        assert_eq!(u.target_version, 2);
        assert_eq!(u.devices_upgraded, 96);
        assert!(u.completed_tick.is_some(), "finished within the campaign");
        assert!(u.waves >= 6, "96 devices / 16 per wave");
        assert!(fleet.inventory.devices.iter().all(|d| d.shell_version == 2));
    }

    #[test]
    fn render_is_stable_for_equal_specs() {
        let a = small(PlacementPolicy::BestFit).run().render();
        let b = small(PlacementPolicy::BestFit).run().render();
        assert_eq!(a, b);
        assert!(a.contains("exact=yes"));
    }

    #[test]
    fn split_by_capacity_conserves() {
        let eligible = vec![(0u32, 100u64), (1, 250), (2, 33)];
        for n in [0u64, 1, 7, 1000, 999_999] {
            let split = split_by_capacity(n, &eligible);
            assert_eq!(split.iter().map(|&(_, s)| s).sum::<u64>(), n, "n={n}");
        }
    }

    /// Reference split: every share computed in u128.
    fn split_u128(n: u64, eligible: &[(u32, u64)]) -> Vec<(u32, u64)> {
        let cap_sum: u64 = eligible.iter().map(|&(_, c)| c).sum();
        if cap_sum == 0 {
            let each = n / eligible.len() as u64;
            let mut out: Vec<(u32, u64)> = eligible.iter().map(|&(i, _)| (i, each)).collect();
            out[0].1 += n - each * eligible.len() as u64;
            return out;
        }
        let mut out = Vec::new();
        let mut rema = Vec::new();
        let mut assigned = 0u64;
        for (k, &(i, c)) in eligible.iter().enumerate() {
            let exact = n as u128 * c as u128;
            let base = (exact / cap_sum as u128) as u64;
            out.push((i, base));
            rema.push((k, (exact % cap_sum as u128) as u64));
            assigned += base;
        }
        rema.sort_by_key(|&(k, rem)| (std::cmp::Reverse(rem), k));
        for &(k, _) in rema.iter().take((n - assigned) as usize) {
            out[k].1 += 1;
        }
        out
    }

    forall! {
        /// The u64 fast path splits exactly as the u128 arithmetic does:
        /// for all-zero capacities, for shares whose `n × capacity`
        /// overflows a u64, and for capacities near `u64::MAX`.
        #[test]
        fn split_by_capacity_matches_u128_arithmetic(
            n in prop_oneof![0u64..10_000, any::<u64>(), Just(u64::MAX)],
            raw in collection::vec(
                prop_oneof![
                    Just(0u64),
                    1u64..1_000,
                    any::<u64>(),
                    (0u64..4).prop_map(|d| u64::MAX - d),
                ],
                1..6,
            ),
            all_zero in any::<bool>(),
        ) {
            // Scale so the capacities sum within a u64, as a fleet's do.
            let len = raw.len() as u64;
            let eligible: Vec<(u32, u64)> = raw
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as u32, if all_zero { 0 } else { c / len }))
                .collect();
            prop_assert_eq!(split_by_capacity(n, &eligible), split_u128(n, &eligible));
        }
    }

    #[test]
    fn push_cohort_keeps_fifo_and_coalesces() {
        let mut q = std::collections::VecDeque::new();
        push_cohort(&mut q, 5, 10);
        push_cohort(&mut q, 7, 3);
        push_cohort(&mut q, 5, 2); // out of order: merges into tick 5
        push_cohort(&mut q, 6, 1);
        let v: Vec<_> = q.into_iter().collect();
        assert_eq!(v, vec![(5, 12), (6, 1), (7, 3)]);
    }

    #[test]
    fn spec_from_env_defaults() {
        let spec = FleetSpec::from_knobs(|_| None).unwrap();
        assert!(spec.devices > 0);
        assert_eq!(spec.ticks, crate::TICKS_PER_DAY);
    }
}
