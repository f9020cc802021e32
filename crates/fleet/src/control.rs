//! The [`FleetController`]: campaign loop, failure domains, rolling
//! upgrades, exact command accounting.
//!
//! A *campaign* runs a fleet for a simulated day (plus a drain phase):
//! each 5-minute tick routes the diurnal load across role replicas in
//! proportion to their real service capacity, applies the link events
//! scheduled for that tick (a link-down is the kill switch for a card or
//! a whole rack), drains and reschedules the work of dead or
//! upgrading devices through the migration cost matrix, and executes
//! queued commands against per-device service rates, recording every
//! command's latency.
//!
//! The accounting invariant is checked every tick: commands injected
//! equal commands executed plus commands still queued somewhere —
//! nothing is ever lost or double-executed, including across kills,
//! rack failures and upgrade waves.

use crate::catalog::{standard_catalog, RoleClass};
use crate::inventory::{device_speed, DeviceState, FleetDevice, Inventory};
use crate::placement::{
    migration_matrix, place, Assignment, MigrationMatrix, PlacementError, PlacementPolicy,
};
use crate::traffic::{DiurnalTraffic, TickLoad};
use crate::KnobError;
use harmonia_hw::device::DeviceId;
use harmonia_sim::metrics::{MetricsRegistry, Slo, SloObjective};
use harmonia_sim::{LogHistogram, Picos};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One phase of a control tick, run at tick `t`.
type Phase = fn(&mut FleetController, u32);

/// The phases of one control tick, in the order every tick runs them.
/// [`FleetController::run_with`] hands each one, by name, to the
/// caller's wrapper.
const PHASES: [(&str, Phase); 7] = [
    ("promote", FleetController::promote),
    ("inject", FleetController::inject),
    ("consult_faults", FleetController::consult_faults),
    ("upgrade_wave", FleetController::upgrade_wave),
    ("redispatch_orphans", FleetController::redispatch_orphans),
    ("execute", FleetController::execute),
    ("settle", FleetController::settle),
];

/// One executed cohort: `(offset, step, lo, hi)`, the arguments of its
/// [`LogHistogram::record_progression`] call.
type Cohort = (u64, u64, u64, u64);

/// How many of a role's newest distinct cohorts `execute` compares a
/// new cohort with before giving it a group of its own.
const GROUP_WINDOW: usize = 8;

/// Ticks a replacement spare spends deploying before it serves.
pub(crate) const DEPLOY_TICKS: u32 = 2;

/// Ticks one rolling-upgrade wave keeps its devices out of service.
pub(crate) const UPGRADE_TICKS: u32 = 2;

/// Upper bound on post-traffic drain ticks before the campaign gives
/// up and reports the residual backlog as `pending`.
pub(crate) const MAX_DRAIN_TICKS: u32 = 2_000;

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
    /// default best-fit), seed 42. `harmonia fleet` passes the process
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
    /// The spec asks for a fleet of zero devices.
    NoDevices,
    /// The placement scheduler could not cover a role's peak demand.
    Placement(PlacementError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoDevices => write!(f, "a fleet needs at least one device"),
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
                u.completed_tick
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
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
        registry.counter_add(
            "harmonia_fleet_cmds_injected",
            &[],
            self.accounting.injected,
        );
        registry.counter_add(
            "harmonia_fleet_cmds_executed",
            &[],
            self.accounting.executed,
        );
        registry.counter_add(
            "harmonia_fleet_cmds_migrated",
            &[],
            self.accounting.migrated,
        );
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
            registry.gauge_set(
                "harmonia_fleet_role_replicas",
                &[("role", r.name)],
                r.replicas as u64,
            );
            registry.counter_add("harmonia_fleet_role_cmds", &[("role", r.name)], r.executed);
            registry.observe_histogram(
                "harmonia_fleet_role_latency_ps",
                &[("role", r.name)],
                &r.latency,
            );
        }
        if let Some(u) = &self.upgrade {
            registry.counter_add(
                "harmonia_fleet_upgraded_devices",
                &[],
                u64::from(u.devices_upgraded),
            );
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

#[derive(Debug)]
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
    /// `(service_ps, capacity_per_tick)` of each role on each catalog
    /// model, `rates[role][model]`, computed once at bring-up.
    rates: Vec<[(Picos, u64); DeviceId::ALL.len()]>,
    /// Command-latency histogram of each role, catalog order.
    latency: Vec<LogHistogram>,
    /// Reused buffers: each role's distinct cohorts of this tick with
    /// their copy counts, and `inject`'s eligible replicas with their
    /// capacities, shares and remainders.
    groups: Vec<Vec<(Cohort, u64)>>,
    eligible: Vec<(u32, u64)>,
    shares: Vec<u64>,
    rema: Vec<(u64, usize)>,
    /// The devices that are `Deploying` or `Upgrading`, the only ones
    /// `promote` can bring back: a spare joins in `drain_and_reschedule`,
    /// a wave's devices in `upgrade_wave`, and a device leaves when it
    /// is promoted or killed.
    waking: Vec<u32>,
    /// What `execute`'s pass over every device leaves for `settle`: the
    /// commands still queued on the devices, and whether any device's
    /// front cohort arrived before this tick.
    queued_after_execute: u64,
    aged_after_execute: bool,
    /// Every cohort each device executed, recorded with one plain call
    /// per cohort and keyed by the role it was recorded under: the
    /// oracle for the grouped per-role histograms.
    #[cfg(test)]
    shadow: Vec<BTreeMap<usize, LogHistogram>>,
    schedule: Vec<TickLoad>,
    /// Scheduled link events: tick → device → whether its link is up
    /// after that tick's last event for it.
    link_events: BTreeMap<u32, BTreeMap<u32, bool>>,
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
    /// traffic schedule, and places every role under the spec's policy.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoDevices`] for a spec of zero devices, and
    /// [`FleetError::Placement`] when the devices cannot cover a role's
    /// peak demand.
    pub fn new(spec: FleetSpec) -> Result<FleetController, FleetError> {
        if spec.devices == 0 {
            return Err(FleetError::NoDevices);
        }
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
            take_role(&mut inventory.devices[a.device as usize], a.role);
            role_members[a.role].push(a.device);
        }
        let rates = roles
            .iter()
            .map(|role| {
                DeviceId::ALL.map(|m| {
                    let speed = device_speed(m);
                    (role.service_ps(speed), role.capacity_per_tick(speed))
                })
            })
            .collect();
        Ok(FleetController {
            latency: vec![LogHistogram::new(); roles.len()],
            groups: vec![Vec::new(); roles.len()],
            #[cfg(test)]
            shadow: vec![BTreeMap::new(); spec.devices],
            spec,
            roles,
            table,
            inventory,
            assignments,
            role_members,
            rates,
            eligible: Vec::new(),
            shares: Vec::new(),
            rema: Vec::new(),
            waking: Vec::new(),
            queued_after_execute: 0,
            aged_after_execute: false,
            schedule,
            link_events: BTreeMap::new(),
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

    /// Schedules a link-down kill of one device at `tick`.
    pub fn kill_device(&mut self, device: u32, tick: u32) {
        self.push_link_event(device, tick, false);
        self.kills += 1;
        self.first_fault_tick = Some(self.first_fault_tick.map_or(tick, |t| t.min(tick)));
    }

    /// Schedules a link restore of one device at `tick`.
    #[cfg(test)]
    fn restore_device(&mut self, device: u32, tick: u32) {
        self.push_link_event(device, tick, true);
    }

    /// Schedules a rolling shell upgrade: from `start_tick`, waves of
    /// `wave_size` devices drain their work, go dark for
    /// `UPGRADE_TICKS`, and come back on `target_version`.
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

    /// Schedules a link state change; of one device's events at one
    /// tick, the last scheduled wins.
    fn push_link_event(&mut self, device: u32, tick: u32, up: bool) {
        self.link_events.entry(tick).or_default().insert(device, up);
    }

    /// Runs the campaign: the traffic ticks, then a drain phase until
    /// every queue is empty (bounded by `MAX_DRAIN_TICKS`).
    pub fn run(&mut self) -> CampaignReport {
        self.run_with(|_, phase| phase())
    }

    /// Runs the campaign as [`Self::run`] does, handing every phase of
    /// every tick to `wrap` with the phase's name; `wrap` must call the
    /// phase exactly once. A bench wraps each phase in a wall clock; the
    /// control plane itself reads none.
    pub fn run_with(
        &mut self,
        mut wrap: impl FnMut(&'static str, &mut dyn FnMut()),
    ) -> CampaignReport {
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
            for (name, phase) in PHASES {
                wrap(name, &mut || phase(self, t));
            }
            t += 1;
        }
        self.report(t)
    }

    /// Promotes the devices whose deploy/upgrade completes at `t`. Only a
    /// device on the `waking` list can, so no other device is visited.
    fn promote(&mut self, t: u32) {
        self.waking.retain(|&i| {
            let d = &mut self.inventory.devices[i as usize];
            match d.state {
                DeviceState::Deploying { ready_tick } if ready_tick <= t => {}
                DeviceState::Upgrading { done_tick } if done_tick <= t => {
                    if let Some(u) = &mut self.upgrade {
                        d.shell_version = u.target_version;
                        u.upgraded += 1;
                    }
                    d.stall_ps += crate::placement::DEPLOY_BASE_PS;
                }
                _ => return true,
            }
            d.state = DeviceState::Live;
            false
        });
    }

    /// Routes this tick's load across role replicas in proportion to
    /// their real per-tick service capacity (largest-remainder split,
    /// so the command count is conserved exactly). The drain phase past
    /// the last traffic tick injects nothing.
    fn inject(&mut self, t: u32) {
        let Some(load) = self.schedule.get(t as usize) else {
            return;
        };
        for (r, &n) in load.per_role.iter().enumerate() {
            if n == 0 {
                continue;
            }
            self.acc.injected += n;
            self.eligible.clear();
            for &i in &self.role_members[r] {
                let d = &self.inventory.devices[i as usize];
                if !matches!(d.state, DeviceState::Down | DeviceState::Upgrading { .. }) {
                    self.eligible.push((i, self.rates[r][d.model as usize].1));
                }
            }
            if self.eligible.is_empty() {
                self.orphaned.push((r, t, n));
                continue;
            }
            split_by_capacity(n, &self.eligible, &mut self.shares, &mut self.rema);
            for (&(i, _), &share) in self.eligible.iter().zip(&self.shares) {
                self.inventory.devices[i as usize].incoming += share;
            }
        }
    }

    /// Applies the link events scheduled for tick `t`, device by device
    /// in ascending index: link-down drains and reschedules the device's
    /// work; link-up brings it back (with a redeploy stall).
    fn consult_faults(&mut self, t: u32) {
        let Some(events) = self.link_events.get(&t).cloned() else {
            return;
        };
        for (device, up) in events {
            let i = device as usize;
            let state = self.inventory.devices[i].state;
            if !up && state != DeviceState::Down {
                self.waking.retain(|&w| w != device);
                self.inventory.devices[i].state = DeviceState::Down;
                self.drain_and_reschedule(i, t, true);
            } else if up && state == DeviceState::Down {
                self.inventory.devices[i].state = DeviceState::Live;
                self.inventory.devices[i].stall_ps += crate::placement::DEPLOY_BASE_PS;
            }
        }
    }

    /// Launches the next upgrade wave when none is in flight. A wave in
    /// flight is an `Upgrading` device on the `waking` list, so the check
    /// reads that list; only the launch of a wave scans the fleet.
    fn upgrade_wave(&mut self, t: u32) {
        let Some(plan) = &self.upgrade else {
            return;
        };
        if plan.completed_tick.is_some() || t < plan.start_tick {
            return;
        }
        let (target_version, wave_size) = (plan.target_version, plan.wave_size);
        let in_flight = self.waking.iter().any(|&i| {
            matches!(
                self.inventory.devices[i as usize].state,
                DeviceState::Upgrading { .. }
            )
        });
        if in_flight {
            return;
        }
        let wave: Vec<usize> = self
            .inventory
            .devices
            .iter()
            .filter(|d| d.shell_version < target_version && d.state == DeviceState::Live)
            .map(|d| d.index as usize)
            .take(wave_size)
            .collect();
        if wave.is_empty() {
            if let Some(u) = &mut self.upgrade {
                u.completed_tick = Some(t);
            }
            return;
        }
        for i in wave {
            self.inventory.devices[i].state = DeviceState::Upgrading {
                done_tick: t + UPGRADE_TICKS,
            };
            self.drain_and_reschedule(i, t, false);
            self.waking.push(i as u32);
        }
        if let Some(u) = &mut self.upgrade {
            u.waves += 1;
        }
    }

    /// Moves a device's queued work off it: to a freshly-deployed spare
    /// (kills, when one fits) or onto the least-loaded surviving replica
    /// of the same role. Orphans the cohorts when nobody can take them —
    /// they re-dispatch the moment a replica is eligible again, so the
    /// accounting never loses a command. The caller has already taken
    /// the victim out of service (`Down` or `Upgrading`), so it is never
    /// its own survivor.
    fn drain_and_reschedule(&mut self, victim: usize, t: u32, deploy_spare: bool) {
        let d = &mut self.inventory.devices[victim];
        let (role, victim_model) = (d.role, d.model);
        let mut cohorts: Vec<(u32, u64)> = d.backlog.drain(..).collect();
        let incoming = std::mem::take(&mut d.incoming);
        if incoming > 0 {
            cohorts.push((t, incoming));
        }
        let moved: u64 = cohorts.iter().map(|&(_, n)| n).sum();
        let Some(r) = role else { return };
        if moved == 0 && !deploy_spare {
            return;
        }
        // Preferred target for a kill: the fastest fitting spare, which
        // joins the role after a deploy delay and a migration stall from
        // the real migration cost matrix.
        let spare = if deploy_spare {
            self.inventory
                .devices
                .iter()
                .filter(|d| {
                    d.role.is_none() && d.state == DeviceState::Live && self.table.fits(d.model, r)
                })
                .min_by_key(|d| (std::cmp::Reverse(device_speed(d.model)), d.index))
                .map(|d| d.index)
        } else {
            None
        };
        let target = if let Some(s) = spare {
            let cost = self
                .table
                .cost(victim_model, r, self.inventory.devices[s as usize].model, r)
                .expect("spare was fit-checked");
            let d = &mut self.inventory.devices[s as usize];
            take_role(d, r);
            d.state = DeviceState::Deploying {
                ready_tick: t + DEPLOY_TICKS,
            };
            d.stall_ps += cost;
            self.waking.push(s);
            self.role_members[r].push(s);
            self.role_members[r].sort_unstable();
            s
        } else if let Some(i) = self.least_loaded(r) {
            i
        } else {
            // Parked, not lost: still part of `pending` until re-dispatch.
            for (at, n) in cohorts {
                self.orphaned.push((r, at, n));
            }
            return;
        };
        let d = &mut self.inventory.devices[target as usize];
        for (at, n) in cohorts {
            push_cohort(&mut d.backlog, at, n);
        }
        self.acc.migrated += moved;
    }

    /// The replica of role `r` that takes work (neither `Down` nor
    /// `Upgrading`) with the least queued, ties to the lower index.
    fn least_loaded(&self, r: usize) -> Option<u32> {
        self.role_members[r]
            .iter()
            .copied()
            .filter(|&i| {
                !matches!(
                    self.inventory.devices[i as usize].state,
                    DeviceState::Down | DeviceState::Upgrading { .. }
                )
            })
            .min_by_key(|&i| (self.inventory.devices[i as usize].queued(), i))
    }

    /// Re-dispatches orphaned cohorts once their role has an eligible
    /// replica again.
    fn redispatch_orphans(&mut self, _t: u32) {
        if self.orphaned.is_empty() {
            return;
        }
        let orphaned = std::mem::take(&mut self.orphaned);
        for (r, at, n) in orphaned {
            match self.least_loaded(r) {
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
    ///
    /// Replicas of one role and model that held the same backlog serve
    /// identical cohorts, so each distinct cohort of the tick is recorded
    /// into its role's histogram once, with the number of replicas that
    /// served it as the copy count. A cohort is compared with its role's
    /// [`GROUP_WINDOW`] newest groups only, newest first; one equal to an
    /// older group is recorded on its own, which leaves the same
    /// histogram. The groups inside one window are pairwise distinct (a
    /// cohort that matches one is never pushed), so the search order
    /// does not change which group a cohort joins.
    ///
    /// The pass visits every device, so right after serving one it also
    /// adds up the device's queue and checks its front cohort's age for
    /// `settle`.
    fn execute(&mut self, t: u32) {
        let (mut queued, mut aged) = (0u64, false);
        for d in &mut self.inventory.devices {
            let incoming = std::mem::take(&mut d.incoming);
            if incoming > 0 {
                push_cohort(&mut d.backlog, t, incoming);
            }
            if let Some(r) = d.role.filter(|_| d.state == DeviceState::Live) {
                let (service, per_tick) = self.rates[r][d.model as usize];
                let stall = d.stall_ps.min(crate::TICK_PS);
                d.stall_ps -= stall;
                let mut capacity = if stall == 0 {
                    per_tick
                } else {
                    (crate::TICK_PS - stall) / service
                };
                let mut pos = 0u64;
                while capacity > 0 {
                    let Some(&(at, n)) = d.backlog.front() else {
                        break;
                    };
                    let k = n.min(capacity);
                    let age = Picos::from(t - at) * crate::TICK_PS;
                    let cohort = (age + stall + service, service, pos, pos + k - 1);
                    let groups = &mut self.groups[r];
                    let newest = groups.len().saturating_sub(GROUP_WINDOW);
                    match groups[newest..].iter_mut().rev().find(|g| g.0 == cohort) {
                        Some(group) => group.1 += 1,
                        None => groups.push((cohort, 1)),
                    }
                    #[cfg(test)]
                    self.shadow[d.index as usize]
                        .entry(r)
                        .or_default()
                        .record_progression(cohort.0, cohort.1, cohort.2, cohort.3, 1);
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
            queued += d.queued();
            aged |= d.backlog.front().is_some_and(|&(at, _)| at < t);
        }
        self.queued_after_execute = queued;
        self.aged_after_execute = aged;
        for (latency, groups) in self.latency.iter_mut().zip(&mut self.groups) {
            for ((offset, step, lo, hi), copies) in groups.drain(..) {
                latency.record_progression(offset, step, lo, hi, copies);
            }
        }
    }

    /// End-of-tick bookkeeping: pending is the sum of the actual queues
    /// (`execute`'s pass adds up every device's; the orphans are added
    /// here), exact conservation is asserted, and congestion is tracked
    /// from `execute`'s aged flag and the orphans' ages.
    fn settle(&mut self, t: u32) {
        let orphaned: u64 = self.orphaned.iter().map(|&(_, _, n)| n).sum();
        self.acc.pending = self.queued_after_execute + orphaned;
        assert!(
            self.acc.exact(),
            "conservation violated at tick {t}: injected={} executed={} pending={}",
            self.acc.injected,
            self.acc.executed,
            self.acc.pending,
        );
        let aged = self.aged_after_execute || self.orphaned.iter().any(|&(_, at, _)| at < t);
        #[cfg(test)]
        self.assert_matches_rescan(t, aged);
        if aged {
            self.congested_ticks += 1;
            if self.first_fault_tick.is_some_and(|f| t >= f) {
                self.rebalance_ticks += 1;
            }
        }
    }

    /// The incremental bookkeeping against a full rescan of the fleet:
    /// `waking` holds exactly the deploying and upgrading devices, once
    /// each; `pending` is every device's queue plus the orphans; and
    /// `aged` is whether any queued or orphaned cohort arrived before
    /// `t`.
    #[cfg(test)]
    fn assert_matches_rescan(&self, t: u32, aged: bool) {
        let devices = &self.inventory.devices;
        let mut waking = self.waking.clone();
        waking.sort_unstable();
        let want: Vec<u32> = devices
            .iter()
            .filter(|d| {
                matches!(
                    d.state,
                    DeviceState::Deploying { .. } | DeviceState::Upgrading { .. }
                )
            })
            .map(|d| d.index)
            .collect();
        assert_eq!(waking, want, "waking list at tick {t}");
        let queued: u64 = devices.iter().map(|d| d.queued() + d.incoming).sum();
        let orphaned: u64 = self.orphaned.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(self.acc.pending, queued + orphaned, "pending at tick {t}");
        let rescanned = devices
            .iter()
            .any(|d| d.backlog.front().is_some_and(|&(at, _)| at < t))
            || self.orphaned.iter().any(|&(_, at, _)| at < t);
        assert_eq!(aged, rescanned, "aged flag at tick {t}");
    }

    fn report(&self, total_ticks: u32) -> CampaignReport {
        let mut fleet_latency = LogHistogram::new();
        for latency in &self.latency {
            fleet_latency.merge(latency);
        }
        let mut roles: Vec<RoleReport> = self
            .roles
            .iter()
            .zip(&self.latency)
            .map(|(r, latency)| RoleReport {
                name: r.name,
                replicas: 0,
                executed: 0,
                latency: latency.clone(),
            })
            .collect();
        for d in &self.inventory.devices {
            if let Some(r) = d.role {
                roles[r].replicas += 1;
                roles[r].executed += d.executed;
            }
        }
        let spares = self
            .inventory
            .devices
            .iter()
            .filter(|d| d.role.is_none())
            .count();
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

/// Gives a device its role. A role is written once, at placement or
/// when a spare deploys, so every latency sample a device records lands
/// in the role it ends the campaign on.
fn take_role(d: &mut FleetDevice, role: usize) {
    assert!(
        d.role.is_none(),
        "device {} already holds role {:?}",
        d.index,
        d.role
    );
    d.role = Some(role);
}

/// Splits `n` commands across `(device, capacity)` pairs in proportion
/// to capacity, conserving `n` exactly (largest-remainder rounding):
/// `shares[k]` becomes `eligible[k]`'s share. `shares` and `rema` are the
/// caller's buffers, so a split allocates nothing once they have grown
/// to the largest role. `eligible` must not be empty.
pub(crate) fn split_by_capacity(
    n: u64,
    eligible: &[(u32, u64)],
    shares: &mut Vec<u64>,
    rema: &mut Vec<(u64, usize)>,
) {
    shares.clear();
    let cap_sum: u64 = eligible.iter().map(|&(_, c)| c).sum();
    if cap_sum == 0 {
        // Degenerate: equal split, remainder to the first.
        let each = n / eligible.len() as u64;
        shares.resize(eligible.len(), each);
        shares[0] += n - each * eligible.len() as u64;
        return;
    }
    rema.clear();
    let mut assigned = 0u64;
    for (k, &(_, c)) in eligible.iter().enumerate() {
        // `n × c` fits a u64 at fleet scale; widen only when it does not.
        let (base, rem) = match n.checked_mul(c) {
            Some(exact) => (exact / cap_sum, exact % cap_sum),
            None => {
                let exact = n as u128 * c as u128;
                (
                    (exact / cap_sum as u128) as u64,
                    (exact % cap_sum as u128) as u64,
                )
            }
        };
        shares.push(base);
        rema.push((u64::MAX - rem, k));
        assigned += base;
    }
    // Largest remainder first, ties to the lower index; the keys are
    // distinct, so the in-place unstable sort gives the stable order.
    rema.sort_unstable();
    for &(_, k) in rema.iter().take((n - assigned) as usize) {
        shares[k] += 1;
    }
}

/// Appends a cohort keeping the backlog sorted by arrival tick (FIFO),
/// coalescing with an existing same-tick cohort. Arrivals come in tick
/// order, so the append is inlined into the tick's loops; only a migrated
/// cohort older than the resident queue takes the cold insert.
#[inline]
fn push_cohort(backlog: &mut VecDeque<(u32, u64)>, at: u32, n: u64) {
    if n == 0 {
        return;
    }
    match backlog.back_mut() {
        Some(last) if last.0 == at => last.1 += n,
        Some(last) if last.0 > at => insert_cohort(backlog, at, n),
        _ => backlog.push_back((at, n)),
    }
}

/// [`push_cohort`]'s out-of-order case: inserts a cohort older than the
/// backlog's newest at its arrival tick's place, or merges it into the
/// cohort already there.
#[cold]
fn insert_cohort(backlog: &mut VecDeque<(u32, u64)>, at: u32, n: u64) {
    let pos = backlog.partition_point(|&(a, _)| a <= at);
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

    /// Kills every device in `rack` at `tick` — a whole failure domain
    /// going dark at once.
    fn kill_whole_rack(fleet: &mut FleetController, rack: u32, tick: u32) {
        let victims: Vec<u32> = fleet
            .inventory
            .devices
            .iter()
            .filter(|d| d.rack == rack)
            .map(|d| d.index)
            .collect();
        for v in victims {
            fleet.kill_device(v, tick);
        }
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
        kill_whole_rack(&mut fleet, 0, 100);
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
        let (mut shares, mut rema) = (Vec::new(), Vec::new());
        for n in [0u64, 1, 7, 1000, 999_999] {
            split_by_capacity(n, &eligible, &mut shares, &mut rema);
            assert_eq!(shares.len(), eligible.len());
            assert_eq!(shares.iter().sum::<u64>(), n, "n={n}");
        }
    }

    /// Reference split: every share computed in u128, remainders ranked
    /// by a stable sort.
    fn split_u128(n: u64, eligible: &[(u32, u64)]) -> Vec<u64> {
        let cap_sum: u64 = eligible.iter().map(|&(_, c)| c).sum();
        if cap_sum == 0 {
            let each = n / eligible.len() as u64;
            let mut out = vec![each; eligible.len()];
            out[0] += n - each * eligible.len() as u64;
            return out;
        }
        let mut out = Vec::new();
        let mut rema = Vec::new();
        let mut assigned = 0u64;
        for (k, &(_, c)) in eligible.iter().enumerate() {
            let exact = n as u128 * c as u128;
            let base = (exact / cap_sum as u128) as u64;
            out.push(base);
            rema.push((k, (exact % cap_sum as u128) as u64));
            assigned += base;
        }
        rema.sort_by_key(|&(k, rem)| (std::cmp::Reverse(rem), k));
        for &(k, _) in rema.iter().take((n - assigned) as usize) {
            out[k] += 1;
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
            // Buffers left over from an unrelated split, as `inject`'s are.
            let (mut shares, mut rema) = (vec![7u64; 9], vec![(1u64, 3usize); 2]);
            split_by_capacity(n, &eligible, &mut shares, &mut rema);
            prop_assert_eq!(shares, split_u128(n, &eligible));
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

    forall! {
        /// Any sequence of pushes leaves the backlog that a map from
        /// arrival tick to summed count holds: FIFO by tick, one cohort
        /// per tick, no empty cohort — whether a push appends, merges
        /// into the newest cohort or takes the out-of-order insert.
        #[test]
        fn push_cohort_matches_a_tick_map(
            pushes in collection::vec((0u32..16, prop_oneof![Just(0u64), 1u64..1_000]), 0..40),
        ) {
            let mut backlog = VecDeque::new();
            let mut oracle = BTreeMap::<u32, u64>::new();
            for (at, n) in pushes {
                push_cohort(&mut backlog, at, n);
                if n > 0 {
                    *oracle.entry(at).or_default() += n;
                }
                prop_assert!(
                    backlog.iter().zip(backlog.iter().skip(1)).all(|(a, b)| a.0 < b.0),
                    "not FIFO by tick: {:?}",
                    backlog
                );
                prop_assert!(backlog.iter().all(|&(_, n)| n > 0), "empty cohort: {:?}", backlog);
                prop_assert_eq!(
                    backlog.iter().copied().collect::<Vec<_>>(),
                    oracle.iter().map(|(&at, &n)| (at, n)).collect::<Vec<_>>()
                );
            }
        }
    }

    forall! {
        /// The incremental tick bookkeeping matches a full rescan of the
        /// fleet after every tick (`settle` checks it in test builds):
        /// the `waking` list, and the queued sum and aged flag of
        /// `execute`'s pass. Random kills, some restored later, and an
        /// optional rolling upgrade drive spares into `Deploying`, waves
        /// into `Upgrading`, and both of them `Down`.
        #[test]
        fn incremental_bookkeeping_matches_a_full_rescan(
            random in any::<bool>(),
            kills in collection::vec(
                (0u32..96, 0u32..288, option::of(1u32..40)),
                0..5,
            ),
            upgrade in option::of((0u32..288, 1usize..24)),
        ) {
            let policy = if random { PlacementPolicy::Random } else { PlacementPolicy::BestFit };
            let mut fleet = small(policy);
            for (device, tick, restore_after) in kills {
                fleet.kill_device(device, tick);
                if let Some(after) = restore_after {
                    fleet.restore_device(device, tick + after);
                }
            }
            if let Some((tick, wave_size)) = upgrade {
                fleet.schedule_upgrade(tick, 2, wave_size);
            }
            let report = fleet.run();
            prop_assert!(report.accounting.exact());
        }
    }

    #[test]
    fn empty_fleet_is_an_error_not_a_panic() {
        for policy in [PlacementPolicy::BestFit, PlacementPolicy::Random] {
            let result = FleetController::new(FleetSpec::new(0, 7, policy));
            assert!(
                matches!(result, Err(FleetError::NoDevices)),
                "{}",
                policy.name()
            );
        }
        assert_eq!(
            FleetError::NoDevices.to_string(),
            "a fleet needs at least one device"
        );
    }

    /// The report's histograms rebuilt from the shadow: every cohort each
    /// device executed, recorded with one plain call per cohort, merged
    /// by the role the device ends the campaign on.
    fn shadow_histograms(fleet: &FleetController) -> (LogHistogram, Vec<LogHistogram>) {
        let mut all = LogHistogram::new();
        let mut roles = vec![LogHistogram::new(); fleet.roles.len()];
        for (d, by_role) in fleet.inventory.devices.iter().zip(&fleet.shadow) {
            for h in by_role.values() {
                all.merge(h);
                roles[d.role.expect("only a device with a role executes")].merge(h);
            }
        }
        (all, roles)
    }

    forall! {
        /// Recording each distinct cohort once per role, with a copy
        /// count, leaves exactly the fleet and role histograms that
        /// recording every device's cohorts on their own and merging them
        /// by final role leaves — bucket by bucket, with `count`, `sum`,
        /// `min` and `max` — under a device kill that deploys a spare, a
        /// rack kill, a kill and restore, and a rolling upgrade. Each
        /// device records under one role only, the one it ends on, and a
        /// placed device keeps its role ([`take_role`] asserts that a role
        /// is only ever set while it is `None`).
        #[test]
        fn per_role_recording_matches_the_per_device_shadow(
            seed in 0u64..1_000,
            random in any::<bool>(),
            scenario in 0u8..4,
            tick in 10u32..70,
        ) {
            let policy = if random { PlacementPolicy::Random } else { PlacementPolicy::BestFit };
            let mut spec = FleetSpec::new(64, seed, policy);
            spec.ticks = 80;
            let mut fleet = FleetController::new(spec).expect("placement");
            let placed = fleet.assignments().len();
            let first = fleet.assignments()[0].device;
            match scenario {
                0 => {
                    // A replica whose role some spare fits.
                    let victim = fleet.assignments().iter().find(|a| {
                        fleet.inventory.devices.iter().any(|d| {
                            d.role.is_none() && fleet.table.fits(d.model, a.role)
                        })
                    });
                    prop_assert!(victim.is_some(), "no spare fits any placed role");
                    fleet.kill_device(victim.expect("checked").device, tick);
                }
                1 => {
                    let rack = seed as u32 % fleet.inventory.racks;
                    kill_whole_rack(&mut fleet, rack, tick);
                }
                2 => {
                    fleet.kill_device(first, tick);
                    fleet.restore_device(first, tick + 5);
                }
                _ => fleet.schedule_upgrade(tick, 2, 8),
            }
            let report = fleet.run();
            prop_assert!(report.accounting.exact());
            if scenario == 0 {
                prop_assert_eq!(report.replicas, placed + 1, "the spare took the role");
            }
            for a in fleet.assignments() {
                prop_assert_eq!(fleet.inventory.devices[a.device as usize].role, Some(a.role));
            }
            for (d, by_role) in fleet.inventory.devices.iter().zip(&fleet.shadow) {
                prop_assert!(
                    by_role.keys().all(|&r| Some(r) == d.role),
                    "device {} recorded under {:?} but ends as {:?}",
                    d.index,
                    by_role.keys().collect::<Vec<_>>(),
                    d.role
                );
            }
            let (all, roles) = shadow_histograms(&fleet);
            prop_assert_eq!(&report.fleet_latency, &all);
            for (r, want) in report.roles.iter().zip(&roles) {
                prop_assert_eq!(&r.latency, want, "role {}", r.name);
            }
        }
    }

    #[test]
    fn spec_from_env_defaults() {
        let spec = FleetSpec::from_knobs(|_| None).unwrap();
        assert!(spec.devices > 0);
        assert_eq!(spec.ticks, crate::TICKS_PER_DAY);
    }
}
