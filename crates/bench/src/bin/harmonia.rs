//! `harmonia` — the evaluation harness's command line.
//!
//! ```sh
//! cargo run -p harmonia-bench -- paper               # every table and figure
//! cargo run -p harmonia-bench -- paper fig10 tables  # the named generators only
//! cargo run -p harmonia-bench -- trace > trace.json  # Chrome/Perfetto trace-event JSON
//! cargo run -p harmonia-bench -- trace --text        # plain-text timeline + histogram
//! cargo run -p harmonia-bench -- metrics             # Prometheus text exposition
//! cargo run -p harmonia-bench -- metrics --json      # compact JSON snapshot
//! cargo run -p harmonia-bench -- metrics --slo       # SLO report (pass + fail cases)
//! cargo run -p harmonia-bench -- metrics --flight    # flight-recorder post-mortem demo
//! cargo run -p harmonia-bench -- fleet               # fleet campaign, Prometheus text
//! cargo run -p harmonia-bench -- fleet --slo         # fleet SLO report
//! cargo run -p harmonia-bench -- fleet --report      # rendered campaign report
//! ```
//!
//! `paper` with no name runs every generator concurrently, one table per
//! job (`harmonia_bench::all_tables`); ordered reassembly makes the
//! output byte-identical to running them one by one. A generator name is
//! one of `harmonia_bench::generators()`. `trace` and `metrics` run the
//! seeded fault-campaign fleet of `harmonia_bench::metrics_run`;
//! `fleet` runs a campaign sized by `HARMONIA_FLEET_DEVICES` /
//! `HARMONIA_FLEET_POLICY` (default 2048 devices, best-fit) with one
//! kill-device fault at the diurnal peak. Load `trace.json` at
//! <https://ui.perfetto.dev>; each scenario occupies its own track
//! (`tid` = lane).
//!
//! All values are simulated, so every output is byte-identical on every
//! run. Bad input prints usage (or the error) to stderr and exits 2.

use harmonia::fleet::control::fleet_slos;
use harmonia::fleet::{FleetController, FleetSpec};
use harmonia::sim::metrics::{evaluate_slos, MetricsRegistry};
use harmonia_bench::metrics_run;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["paper", names @ ..] => paper(names),
        ["trace", flag @ ..] if matches!(flag, [] | ["--text"]) => trace(flag.first().copied()),
        ["metrics", flag @ ..] if matches!(flag, [] | ["--json" | "--slo" | "--flight"]) => {
            metrics(flag.first().copied())
        }
        ["fleet", flag @ ..] if matches!(flag, [] | ["--report" | "--slo"]) => {
            fleet(flag.first().copied())
        }
        _ => usage(),
    }
}

/// Prints usage to stderr and exits 2.
fn usage() -> ! {
    let names: Vec<&str> = harmonia_bench::generators().map(|(name, _)| name).to_vec();
    eprintln!(
        "usage: harmonia paper [GENERATOR...]\n       \
         harmonia trace [--text]\n       \
         harmonia metrics [--json|--slo|--flight]\n       \
         harmonia fleet [--report|--slo]\n\
         GENERATOR is one of: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

/// Prints the named generators' tables in the order named, or every
/// table when no name is given.
fn paper(names: &[&str]) {
    if names.is_empty() {
        harmonia_bench::print_all(&harmonia_bench::all_tables());
        return;
    }
    let generators = harmonia_bench::generators();
    let mut chosen: Vec<harmonia_bench::TableFn> = Vec::new();
    for name in names {
        match generators.iter().find(|(n, _)| n == name) {
            Some((_, tables)) => chosen.extend_from_slice(tables),
            None => usage(),
        }
    }
    let tables: Vec<_> = chosen.iter().map(|table| table()).collect();
    harmonia_bench::print_all(&tables);
}

fn trace(flag: Option<&str>) {
    let run = metrics_run::capture(4);
    if flag == Some("--text") {
        for line in &run.reports {
            println!("{line}");
        }
        println!();
        print!("{}", run.trace.export_text());
        println!();
        println!("command latency (ps): {}", run.histogram);
        print!("{}", run.histogram.render());
    } else {
        println!("{}", run.trace.export_perfetto());
    }
}

fn metrics(flag: Option<&str>) {
    if flag == Some("--flight") {
        let (err, dump) = metrics_run::post_mortem_campaign();
        println!("terminal error: {err}");
        print!("{dump}");
        return;
    }
    let run = metrics_run::capture(4);
    match flag {
        Some("--slo") => print!("{}", metrics_run::render_slo_artifact(&run)),
        Some("--json") => print!("{}", run.snapshot.export_json()),
        _ => print!("{}", run.snapshot.export_prometheus()),
    }
}

/// Prints `fleet: <error>` to stderr and exits 2.
fn fleet_error(e: impl std::fmt::Display) -> ! {
    eprintln!("fleet: {e}");
    std::process::exit(2);
}

fn fleet(flag: Option<&str>) {
    let knob = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let spec = FleetSpec::from_knobs(knob).unwrap_or_else(|e| fleet_error(e));
    let mut fleet = FleetController::new(spec).unwrap_or_else(|e| fleet_error(e));
    let Some(victim) = fleet.assignments().first().map(|a| a.device) else {
        fleet_error("no role was placed");
    };
    fleet.kill_device(victim, harmonia_bench::fleet::KILL_TICK);
    let report = fleet.run();
    if flag == Some("--report") {
        print!("{}", report.render());
        return;
    }
    let registry = MetricsRegistry::enabled();
    report.publish_metrics(&registry);
    let snapshot = registry.snapshot();
    if flag == Some("--slo") {
        print!("{}", evaluate_slos(&snapshot, &fleet_slos()).render());
    } else {
        print!("{}", snapshot.export_prometheus());
    }
}
