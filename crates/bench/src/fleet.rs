//! The cluster-scale fleet sweep behind the committed `BENCH_fleet.json`.
//!
//! Policy × fleet-size campaigns over the heterogeneous catalog: each
//! point runs a full simulated day of diurnal traffic with one
//! kill-device fault injected at the evening peak, and reports
//! placement quality (fleet p50/p99) plus rebalance latency (ticks of
//! aged backlog after the fault). The contract the `fleet_scaling`
//! test pins: **best-fit holds the fleet p99 inside one control tick
//! and rebalances within a few ticks of the kill**, while the
//! spec-blind **random baseline blows the tail by ≥ 2×** — it sizes
//! replica counts against the fastest model in the fleet and then
//! lands them on whatever it draws. All numbers are simulated and
//! deterministic — the committed `BENCH_fleet.json` is byte-stable
//! across machines, and the `fleet_scaling` test checks it byte for
//! byte.

use harmonia::fleet::{FleetController, FleetSpec, PlacementPolicy, TICK_PS};

/// Fleet sizes the sweep covers.
pub const DEVICES: [usize; 2] = [128, 512];

/// Sweep seed (inventory shuffle, traffic jitter, random placement).
pub(crate) const SEED: u64 = 7;

/// Tick the kill lands on: 21:00, the diurnal peak — the worst moment
/// to lose a serving card.
pub const KILL_TICK: u32 = 252;

/// The benchmark's fleet day, ready to run: 256 devices at `seed` under
/// best-fit, the first assigned device killed at [`KILL_TICK`] and a
/// 16-device rolling upgrade to shell 2 from tick 100.
pub fn fleet_day(seed: u64) -> FleetController {
    let spec = FleetSpec::new(256, seed, PlacementPolicy::BestFit);
    let mut fleet = FleetController::new(spec).expect("placement feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, KILL_TICK);
    fleet.schedule_upgrade(100, 2, 16);
    fleet
}

/// One measured (policy, devices) point of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPoint {
    /// Placement policy (`bestfit` / `random`).
    pub policy: &'static str,
    /// Fleet size.
    pub devices: usize,
    /// Fleet-wide command-latency p50, ps.
    pub p50_ps: u64,
    /// Fleet-wide command-latency p99, ps.
    pub p99_ps: u64,
    /// Commands injected over the day.
    pub injected: u64,
    /// Commands executed (equals `injected` when the drain converged).
    pub executed: u64,
    /// Commands migrated off the killed device (and any orphan moves).
    pub migrated: u64,
    /// Ticks of aged backlog at/after the kill — the rebalance latency.
    pub rebalance_ticks: u32,
    /// All ticks that ended with aged backlog.
    pub congested_ticks: u32,
    /// Replicas the placement claimed.
    pub replicas: usize,
}

impl FleetPoint {
    /// The `POLICY/devices=N` name this point publishes under.
    pub fn name(&self) -> String {
        format!("{}/devices={}", self.policy, self.devices)
    }
}

/// Runs one sweep point. `policy` is explicit — the sweep never
/// consults `HARMONIA_FLEET_POLICY` or `HARMONIA_FLEET_DEVICES`, so
/// bench numbers cannot drift with the caller's environment.
pub(crate) fn run_point(policy: PlacementPolicy, devices: usize) -> FleetPoint {
    let mut fleet =
        FleetController::new(FleetSpec::new(devices, SEED, policy)).expect("placement feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, KILL_TICK);
    let report = fleet.run();
    assert!(
        report.accounting.exact(),
        "{}: books must balance",
        policy.name()
    );
    FleetPoint {
        policy: report.policy,
        devices: report.devices,
        p50_ps: report.fleet_latency.p50(),
        p99_ps: report.fleet_latency.p99(),
        injected: report.accounting.injected,
        executed: report.accounting.executed,
        migrated: report.accounting.migrated,
        rebalance_ticks: report.rebalance_ticks,
        congested_ticks: report.congested_ticks,
        replicas: report.replicas,
    }
}

/// The full policy × fleet-size sweep, in declaration order.
pub fn sweep() -> Vec<FleetPoint> {
    [PlacementPolicy::BestFit, PlacementPolicy::Random]
        .iter()
        .flat_map(|&p| DEVICES.iter().map(move |&d| run_point(p, d)))
        .collect()
}

/// Renders the sweep as the `BENCH_fleet.json` artifact body
/// (hand-rolled, like the other simulated artifacts; byte-stable).
pub fn sweep_json(points: &[FleetPoint]) -> String {
    let mut out = String::from("{\n  \"group\": \"fleet\",\n");
    out.push_str("  \"unit\": \"simulated\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"kill_tick\": {KILL_TICK},\n"));
    out.push_str(&format!("  \"tick_ps\": {TICK_PS},\n"));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"policy\": \"{}\", \"devices\": {}, \
             \"p50_ps\": {}, \"p99_ps\": {}, \"injected\": {}, \
             \"executed\": {}, \"migrated\": {}, \"rebalance_ticks\": {}, \
             \"congested_ticks\": {}, \"replicas\": {}}}{}\n",
            p.name(),
            p.policy,
            p.devices,
            p.p50_ps,
            p.p99_ps,
            p.injected,
            p.executed,
            p.migrated,
            p.rebalance_ticks,
            p.congested_ticks,
            p.replicas,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_fields() {
        let points = vec![run_point(PlacementPolicy::BestFit, 96)];
        let json = sweep_json(&points);
        let p = &points[0];
        assert_eq!(
            crate::json_field(&json, &p.name(), "p99_ps"),
            Some(p.p99_ps)
        );
        assert_eq!(
            crate::json_field(&json, &p.name(), "injected"),
            Some(p.injected)
        );
        assert_eq!(
            crate::json_field::<u64>(&json, "bestfit/devices=9", "p99_ps"),
            None
        );
    }

    #[test]
    fn points_are_deterministic() {
        assert_eq!(
            run_point(PlacementPolicy::Random, 96),
            run_point(PlacementPolicy::Random, 96)
        );
    }
}
