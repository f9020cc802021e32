//! `trace` — export a deterministic observability capture.
//!
//! Runs the seeded fault-campaign fleet from
//! [`harmonia_bench::metrics_run`] and prints the merged timeline:
//!
//! ```sh
//! cargo run --bin trace > trace.json   # Chrome/Perfetto trace-event JSON
//! cargo run --bin trace -- --text      # plain-text timeline + histogram
//! ```
//!
//! Load `trace.json` at <https://ui.perfetto.dev> (or `chrome://tracing`);
//! each scenario occupies its own track (`tid` = lane). The output is
//! byte-identical on every run.

fn main() {
    let text = std::env::args().any(|a| a == "--text");
    let run = harmonia_bench::metrics_run::capture(4);
    if text {
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
