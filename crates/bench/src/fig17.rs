//! Figure 17 — application performance with and without Harmonia.

use harmonia::apps::{HostNetwork, RetrievalEngine, SecGateway};
use harmonia::metrics::report::fmt_f64;
use harmonia::metrics::Table;
use harmonia::sim::Freq;

fn bitw_table(title: &str, path: harmonia::apps::BitwPath) -> Table {
    let mut t = Table::new(
        title,
        &[
            "pkt (B)",
            "w/o tpt (Gbps)",
            "w/ tpt (Gbps)",
            "w/o lat (us)",
            "w/ lat (us)",
            "lat delta",
        ],
    );
    let without = path.clone().without_harmonia();
    for size in [64u32, 128, 256, 512, 1024] {
        let w = path.perf(size);
        let wo = without.perf(size);
        let delta = (w.latency_ps - wo.latency_ps) as f64 / wo.latency_ps as f64;
        t.row([
            size.to_string(),
            fmt_f64(wo.throughput, 2),
            fmt_f64(w.throughput, 2),
            fmt_f64(wo.latency_us(), 3),
            fmt_f64(w.latency_us(), 3),
            format!("{:.2}%", 100.0 * delta),
        ]);
    }
    t
}

/// Figure 17a: Sec-Gateway.
pub fn fig17a() -> Table {
    let gw = SecGateway::new(harmonia::apps::sec_gateway::Action::Allow);
    bitw_table("Figure 17a — Sec-Gateway performance", gw.datapath())
}

/// Figure 17b: Layer-4 LB.
pub fn fig17b() -> Table {
    bitw_table(
        "Figure 17b — Layer-4 LB performance",
        crate::roles::sample_lb().datapath(),
    )
}

/// Figure 17c: Host Network.
pub fn fig17c() -> Table {
    bitw_table(
        "Figure 17c — Host Network performance",
        HostNetwork::new(1024).datapath(),
    )
}

/// Figure 17d: Retrieval QPS/latency vs corpus size.
pub fn fig17d() -> Table {
    let mut t = Table::new(
        "Figure 17d — Retrieval performance",
        &[
            "corpus items",
            "w/o QPS",
            "w/ QPS",
            "w/o lat (us)",
            "w/ lat (us)",
        ],
    );
    let clock = Freq::mhz(450);
    for exp in [3u32, 5, 7, 9] {
        let items = 10u64.pow(exp);
        // Capacity model: geometry only, sharded across FPGAs past 10^6.
        let engine = RetrievalEngine::capacity_only(items, 64);
        let w = engine.sharded_perf(2048, clock, true);
        let wo = engine.sharded_perf(2048, clock, false);
        t.row([
            format!("1e{exp}"),
            fmt_f64(wo.throughput, 1),
            fmt_f64(w.throughput, 1),
            fmt_f64(wo.latency_us(), 1),
            fmt_f64(w.latency_us(), 1),
        ]);
    }
    t
}

/// The Figure 17 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig17a, fig17b, fig17c, fig17d];

/// All Figure 17 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_identical_latency_delta_below_1pct() {
        for t in [fig17a(), fig17b(), fig17c()] {
            for line in t.to_string().lines().skip(3) {
                let cells: Vec<&str> = line.split_whitespace().collect();
                let wo_t: f64 = cells[cells.len() - 5].parse().unwrap();
                let w_t: f64 = cells[cells.len() - 4].parse().unwrap();
                assert_eq!(wo_t, w_t, "{}: '{line}'", t.title());
                let delta: f64 = cells
                    .last()
                    .unwrap()
                    .trim_end_matches('%')
                    .parse()
                    .unwrap();
                assert!(delta < 1.0, "{}: latency delta {delta}%", t.title());
                assert!(delta > 0.0);
            }
        }
    }

    #[test]
    fn retrieval_qps_identical_with_and_without() {
        let t = fig17d();
        for line in t.to_string().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let wo: f64 = cells[cells.len() - 4].parse().unwrap();
            let w: f64 = cells[cells.len() - 3].parse().unwrap();
            assert_eq!(wo, w);
        }
    }
}
