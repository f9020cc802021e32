//! `fleet` — run one fleet campaign and export its metrics surface.
//!
//! Runs a best-fit campaign (sized by `HARMONIA_FLEET_DEVICES` /
//! `HARMONIA_FLEET_POLICY`, default 2048 devices / best-fit) with one
//! kill-device fault at the diurnal peak, publishes the result into a
//! metrics registry, and prints:
//!
//! ```sh
//! cargo run --bin fleet              # Prometheus text exposition
//! cargo run --bin fleet -- --slo     # fleet SLO report
//! cargo run --bin fleet -- --report  # rendered campaign report
//! ```
//!
//! All values are simulated, so every mode is byte-identical on every
//! run.

use harmonia::fleet::control::fleet_slos;
use harmonia::fleet::{FleetController, FleetSpec};
use harmonia::sim::metrics::{evaluate_slos, MetricsRegistry};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let knob = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let spec = FleetSpec::from_knobs(knob).unwrap_or_else(|e| {
        eprintln!("fleet: {e}");
        std::process::exit(2);
    });
    let mut fleet = FleetController::new(spec).expect("fleet placement must be feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, harmonia_bench::fleet::KILL_TICK);
    let report = fleet.run();
    if args.iter().any(|a| a == "--report") {
        print!("{}", report.render());
        return;
    }
    let registry = MetricsRegistry::enabled();
    report.publish_metrics(&registry);
    let snapshot = registry.snapshot();
    if args.iter().any(|a| a == "--slo") {
        print!("{}", evaluate_slos(&snapshot, &fleet_slos()).render());
    } else {
        print!("{}", snapshot.export_prometheus());
    }
}
