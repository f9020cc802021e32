//! `metrics` — export a deterministic metrics-plane capture.
//!
//! Runs the seeded fault-campaign fleet from
//! [`harmonia_bench::metrics_run`] and prints the merged snapshot:
//!
//! ```sh
//! cargo run --bin metrics              # Prometheus text exposition
//! cargo run --bin metrics -- --json    # compact JSON snapshot
//! cargo run --bin metrics -- --slo     # SLO report (pass + fail cases)
//! cargo run --bin metrics -- --flight  # flight-recorder post-mortem demo
//! ```
//!
//! All values are simulated, so every mode is byte-identical at any
//! `HARMONIA_THREADS`.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--flight") {
        let (err, dump) = harmonia_bench::metrics_run::post_mortem_campaign();
        println!("terminal error: {err}");
        print!("{dump}");
        return;
    }
    let run = harmonia_bench::metrics_run::capture(4);
    if args.iter().any(|a| a == "--slo") {
        print!("{}", harmonia_bench::metrics_run::render_slo_artifact(&run));
    } else if args.iter().any(|a| a == "--json") {
        print!("{}", run.snapshot.export_json());
    } else {
        print!("{}", run.snapshot.export_prometheus());
    }
}
