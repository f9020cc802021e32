//! Fleet campaign suite: kill-device and kill-rack convergence with
//! exact accounting, rolling upgrades, the fleet knobs, and the
//! `harmonia_fleet_*` metrics + SLO surface.

use harmonia_fleet::control::fleet_slos;
use harmonia_fleet::{
    FleetController, FleetSpec, Inventory, PlacementPolicy, FLEET_DEVICES_ENV, FLEET_POLICY_ENV,
    TICK_PS,
};
use harmonia_sim::metrics::{evaluate_slos, MetricsRegistry};

/// A knob getter over fixed `(name, value)` pairs; other knobs are unset.
fn knobs<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
    move |name| {
        pairs
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.to_string())
    }
}

fn fleet(devices: usize, policy: PlacementPolicy) -> FleetController {
    FleetController::new(FleetSpec::new(devices, 7, policy)).expect("placement feasible")
}

#[test]
fn kill_device_mid_traffic_converges_with_exact_accounting() {
    let mut f = fleet(192, PlacementPolicy::BestFit);
    let victim = f.assignments()[0].device;
    f.kill_device(victim, 150);
    let report = f.run();
    assert!(report.accounting.exact(), "books must balance");
    assert_eq!(report.accounting.pending, 0, "campaign must drain");
    assert!(report.accounting.migrated > 0, "victim's queue rescheduled");
    assert!(
        report.accounting.migrated < report.accounting.injected / 10,
        "a single kill should move a sliver of the day, not {} of {}",
        report.accounting.migrated,
        report.accounting.injected
    );
    assert_eq!(report.first_fault_tick, Some(150));
    assert!(
        report.rebalance_ticks <= 8,
        "rebalance after one kill should settle within a few ticks, took {}",
        report.rebalance_ticks
    );
}

#[test]
fn rack_kill_reschedules_a_whole_failure_domain() {
    let mut f = fleet(192, PlacementPolicy::BestFit);
    // The controller samples its inventory from the same size and seed.
    for d in Inventory::sample(192, 7)
        .devices
        .iter()
        .filter(|d| d.rack == 1)
    {
        f.kill_device(d.index, 120);
    }
    let report = f.run();
    assert!(report.accounting.exact());
    assert_eq!(report.accounting.pending, 0);
    assert_eq!(report.kills, 32, "every card in the rack died");
    assert!(report.accounting.migrated > 0);
    // Work still completes: the day's full injected load executes.
    assert_eq!(report.accounting.executed, report.accounting.injected);
}

#[test]
fn rolling_upgrade_completes_under_load() {
    let mut f = fleet(128, PlacementPolicy::BestFit);
    f.schedule_upgrade(20, 3, 8);
    let report = f.run();
    assert!(report.accounting.exact());
    assert_eq!(report.accounting.pending, 0);
    let u = report.upgrade.expect("scheduled");
    assert_eq!(u.devices_upgraded, 128);
    assert!(u.waves >= 16, "128 devices in waves of 8");
    assert!(u.completed_tick.is_some());
}

#[test]
fn best_fit_beats_random_on_fleet_p99() {
    let best = fleet(128, PlacementPolicy::BestFit).run();
    let random = fleet(128, PlacementPolicy::Random).run();
    assert!(best.accounting.exact() && random.accounting.exact());
    assert!(
        best.fleet_latency.p99() <= TICK_PS,
        "best-fit p99 {} must fit inside one tick {}",
        best.fleet_latency.p99(),
        TICK_PS
    );
    assert!(
        random.fleet_latency.p99() >= 2 * best.fleet_latency.p99(),
        "spec-blind placement should blow the tail: random p99 {} vs best-fit {}",
        random.fleet_latency.p99(),
        best.fleet_latency.p99()
    );
}

#[test]
fn fleet_knobs_select_size_and_policy() {
    let pairs = [(FLEET_DEVICES_ENV, "64"), (FLEET_POLICY_ENV, "random")];
    let spec = FleetSpec::from_knobs(knobs(&pairs)).unwrap();
    assert_eq!(spec.devices, 64);
    assert_eq!(spec.policy, PlacementPolicy::Random);
    assert_eq!(spec.users, 64 * harmonia_fleet::USERS_PER_DEVICE);
    let default_spec = FleetSpec::from_knobs(knobs(&[])).unwrap();
    assert_eq!(default_spec.devices, harmonia_fleet::DEFAULT_FLEET_DEVICES);
    assert_eq!(default_spec.policy, PlacementPolicy::BestFit);
    // Garbage values are rejected, naming the knob, rather than silently
    // running a fleet nobody asked for.
    for (devices, policy, bad_knob) in [
        ("not-a-number", "bestfit", FLEET_DEVICES_ENV),
        ("0", "bestfit", FLEET_DEVICES_ENV),
        ("64", "mystery", FLEET_POLICY_ENV),
    ] {
        let pairs = [(FLEET_DEVICES_ENV, devices), (FLEET_POLICY_ENV, policy)];
        let err = FleetSpec::from_knobs(knobs(&pairs)).unwrap_err();
        assert_eq!(err.knob, bad_knob, "{devices}/{policy}");
        assert!(err.to_string().starts_with(bad_knob), "{err}");
    }
}

#[test]
fn campaign_publishes_fleet_metrics_and_meets_the_slos() {
    let mut f = fleet(128, PlacementPolicy::BestFit);
    let victim = f.assignments()[0].device;
    f.kill_device(victim, 100);
    let report = f.run();
    let registry = MetricsRegistry::enabled();
    report.publish_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("harmonia_fleet_cmds_injected"),
        report.accounting.injected
    );
    assert_eq!(
        snap.counter("harmonia_fleet_cmds_executed"),
        report.accounting.executed
    );
    assert_eq!(snap.gauge("harmonia_fleet_devices"), 128);
    assert_eq!(
        snap.histogram("harmonia_fleet_latency_ps").count(),
        report.fleet_latency.count()
    );
    let prom = snap.export_prometheus();
    assert!(
        prom.lines().any(|l| l.starts_with("harmonia_fleet_")),
        "{prom}"
    );
    let slos = evaluate_slos(&snap, &fleet_slos());
    assert!(
        slos.results.iter().all(|r| r.pass),
        "best-fit with one kill must meet the fleet SLOs:\n{}",
        slos.render()
    );
}

#[test]
fn random_placement_blows_the_p99_slo() {
    let report = fleet(128, PlacementPolicy::Random).run();
    let registry = MetricsRegistry::enabled();
    report.publish_metrics(&registry);
    let slos = evaluate_slos(&registry.snapshot(), &fleet_slos());
    let p99 = slos
        .results
        .iter()
        .find(|r| r.name == "fleet-p99-within-tick")
        .expect("objective present");
    assert!(
        !p99.pass,
        "spec-blind placement must fail the tick-latency SLO"
    );
}
