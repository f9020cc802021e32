//! Ablation studies for the design decisions DESIGN.md calls out.
//!
//! Not in the paper, but each isolates one Harmonia mechanism and measures
//! what it buys: the pipelined (vs store-and-forward) wrapper, the Memory
//! RBB ex-functions, the active-queue scheduler, and control-queue
//! isolation.

use harmonia::host::DmaEngine;
use harmonia::hw::ip::dram::MemOp;
use harmonia::hw::ip::{MacIp, PcieDmaIp};
use harmonia::hw::Vendor;
use harmonia::metrics::report::fmt_f64;
use harmonia::metrics::Table;
use harmonia::shell::rbb::{HostRbb, MemoryRbb};
use harmonia::workloads::{AccessPattern, MemTraceGen};

/// Ablation 1: pipelined wrapper vs a store-and-forward converter that
/// buffers a whole packet before re-emitting it.
pub fn ablation_wrapper() -> Table {
    let mut t = Table::new(
        "Ablation — wrapper conversion strategy (100G MAC, Gbps)",
        &["pkt (B)", "pipelined", "store-and-forward"],
    );
    let mac = MacIp::new(Vendor::Xilinx, 100);
    for size in [64u32, 256, 1024] {
        let pipelined = mac.throughput_gbps(size);
        // Store-and-forward: the converter holds each packet for its full
        // serialization before forwarding, halving effective occupancy on
        // back-to-back packets (receive of packet N+1 overlaps only the
        // buffer drain, not the convert stage).
        let beats = f64::from(size.div_ceil(64));
        let saf = pipelined * beats / (beats + f64::from(size.div_ceil(64)));
        t.row([size.to_string(), fmt_f64(pipelined, 2), fmt_f64(saf, 2)]);
    }
    t
}

/// Ablation 2: Memory RBB ex-functions on/off.
pub fn ablation_memory() -> Table {
    let mut t = Table::new(
        "Ablation — Memory RBB ex-functions (DDR4 x2, GB/s)",
        &["pattern", "both on", "no cache", "no interleave", "neither"],
    );
    let cases = [
        ("sequential", AccessPattern::Sequential),
        ("fixed", AccessPattern::Fixed),
        ("random", AccessPattern::Random),
    ];
    for (label, pattern) in cases {
        // One trace per pattern, replayed on a fresh memory system for
        // each configuration.
        let ops = MemTraceGen::new(11)
            .trace(pattern, false, 64, 40_000)
            .expect("64 B ops fit the default footprint");
        let mut row = vec![label.to_string()];
        for (cache, interleave) in [(true, true), (false, true), (true, false), (false, false)] {
            let mut mem = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
            mem.set_cache(cache);
            mem.set_interleave(interleave);
            let r = mem.run_trace(ops.iter().copied());
            row.push(fmt_f64(r.bandwidth_gbs(), 1));
        }
        t.row(row);
    }
    t
}

/// Ablation 3: active-ring vs naive full-scan scheduling.
pub fn ablation_scheduler() -> Table {
    let mut t = Table::new(
        "Ablation — Host RBB queue scheduling (slots examined / dequeue)",
        &["active queues", "active-ring", "naive scan"],
    );
    for active in [2u16, 16, 128] {
        let mut fast = HostRbb::with_link(Vendor::Xilinx, 4, 8);
        let mut slow = HostRbb::with_link(Vendor::Xilinx, 4, 8);
        for h in [&mut fast, &mut slow] {
            for q in 0..active {
                let queue = q * 7 % HostRbb::QUEUES;
                h.activate(queue).unwrap();
                for _ in 0..16 {
                    h.enqueue(queue, 64).unwrap();
                }
            }
        }
        let mut deq_fast = 0u64;
        while fast.schedule().is_some() {
            deq_fast += 1;
        }
        let mut deq_slow = 0u64;
        while slow.schedule_naive().is_some() {
            deq_slow += 1;
        }
        t.row([
            active.to_string(),
            fmt_f64(fast.sched_visits() as f64 / deq_fast as f64, 2),
            fmt_f64(slow.sched_visits() as f64 / deq_slow as f64, 2),
        ]);
    }
    t
}

/// Ablation 4: command latency with and without control-queue isolation
/// under data-path load.
pub fn ablation_ctrl_isolation() -> Table {
    let mut t = Table::new(
        "Ablation — control-queue isolation (command latency, us)",
        &["data backlog (MB)", "isolated", "shared queue"],
    );
    for backlog_mb in [0u64, 10, 100] {
        let mut iso = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8));
        let mut shared = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8));
        shared.set_ctrl_isolated(false);
        iso.enqueue_data(backlog_mb * 1_000_000);
        shared.enqueue_data(backlog_mb * 1_000_000);
        t.row([
            backlog_mb.to_string(),
            fmt_f64(iso.command_latency_ps(64) as f64 / 1e6, 2),
            fmt_f64(shared.command_latency_ps(64) as f64 / 1e6, 2),
        ]);
    }
    t
}

/// Ablation 5: hot-cache benefit on a cache-friendly working set.
pub fn ablation_hot_cache_hits() -> Table {
    let mut t = Table::new(
        "Ablation — hot cache on a 512 KiB working set (GB/s)",
        &["pass", "cache on", "cache off"],
    );
    // The cache warms across passes, so each row depends on the previous
    // one.
    let mut on = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
    let mut off = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
    off.set_cache(false);
    for pass in 1..=3 {
        let ops = || (0..8_192u64).map(|i| MemOp::read(i * 64, 64));
        let r_on = on.run_trace(ops());
        let r_off = off.run_trace(ops());
        t.row([
            pass.to_string(),
            fmt_f64(r_on.bandwidth_gbs(), 1),
            fmt_f64(r_off.bandwidth_gbs(), 1),
        ]);
    }
    t
}

/// Validation: the beat-level datapath simulation against the analytic
/// line-rate model (the Figure 10a claims, verified by cycle simulation).
pub fn ablation_datapath_sim() -> Table {
    use harmonia::shell::DatapathSim;
    use harmonia::sim::Freq;
    let mut t = Table::new(
        "Validation — cycle-simulated datapath vs analytic model (100G)",
        &["pkt (B)", "analytic (Gbps)", "simulated (Gbps)", "sim latency (ns)"],
    );
    let mac = || MacIp::new(Vendor::Xilinx, 100);
    for size in [64u32, 256, 1024] {
        let sim = DatapathSim::new(mac(), Freq::khz(322_265), 512);
        let report = sim.run(size, 1_500);
        t.row([
            size.to_string(),
            fmt_f64(mac().throughput_gbps(size), 2),
            fmt_f64(report.throughput.gbps(), 2),
            fmt_f64(report.latency.mean_ns(), 1),
        ]);
    }
    t
}

/// Ablation 6: RDMA go-back-N window size vs loss — the window that
/// maximizes goodput shrinks as loss grows.
pub fn ablation_rdma_window() -> Table {
    use harmonia::shell::rbb::rdma::{QueuePair, RdmaConfig};
    use harmonia::sim::SplitMix64;
    let mut t = Table::new(
        "Ablation — RDMA window vs loss (goodput efficiency)",
        &["window", "loss 0%", "loss 1%", "loss 10%"],
    );
    for window in [8usize, 32, 128] {
        let mut row = vec![window.to_string()];
        for loss in [0.0, 0.01, 0.10] {
            let mut qp = QueuePair::new(RdmaConfig {
                mtu: 4096,
                window,
                timeout_slots: 8,
            });
            for _ in 0..200 {
                qp.post_send(16_384).unwrap();
            }
            let mut rng = SplitMix64::new(17);
            qp.run_to_completion(&mut rng, loss, 10_000_000)
                .expect("completes");
            row.push(fmt_f64(qp.stats().efficiency(), 3));
        }
        t.row(row);
    }
    t
}

/// The ablation tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[
    ablation_wrapper,
    ablation_memory,
    ablation_scheduler,
    ablation_ctrl_isolation,
    ablation_hot_cache_hits,
    ablation_datapath_sim,
    ablation_rdma_window,
];

/// All ablation tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_two(t: &Table, row: usize) -> (f64, f64) {
        let text = t.to_string();
        let line = text.lines().nth(3 + row).unwrap();
        let cells: Vec<&str> = line.split_whitespace().collect();
        (
            cells[cells.len() - 2].parse().unwrap(),
            cells[cells.len() - 1].parse().unwrap(),
        )
    }

    #[test]
    fn pipelined_wrapper_beats_store_and_forward() {
        let t = ablation_wrapper();
        for row in 0..t.len() {
            let (pipelined, saf) = last_two(&t, row);
            assert!(pipelined > saf);
        }
    }

    #[test]
    fn scheduler_ablation_widens_with_sparsity() {
        let t = ablation_scheduler();
        let (ring2, naive2) = last_two(&t, 0);
        assert!(ring2 < naive2);
        let (ring128, naive128) = last_two(&t, 2);
        assert!(ring128 <= ring2 * 2.0);
        assert!(naive2 / ring2 > naive128 / ring128 * 0.9);
    }

    #[test]
    fn isolation_flat_shared_grows() {
        let t = ablation_ctrl_isolation();
        let (iso0, shared0) = last_two(&t, 0);
        let (iso100, shared100) = last_two(&t, 2);
        assert_eq!(iso0, iso100);
        assert!(shared100 > 10.0 * shared0);
    }

    #[test]
    fn hot_cache_wins_after_warmup() {
        let t = ablation_hot_cache_hits();
        let (on3, off3) = last_two(&t, 2);
        assert!(on3 > off3, "cache on {on3} <= off {off3}");
    }

    #[test]
    fn memory_ablation_has_12_cells() {
        let t = ablation_memory();
        let text = t.to_string();
        let rows: Vec<(&str, Vec<f64>)> = text
            .lines()
            .skip(3)
            .take(t.len())
            .map(|line| {
                let mut cells = line.split_whitespace();
                let label = cells.next().expect("pattern label");
                let cells = cells.map(|c| c.parse().expect("numeric cell")).collect();
                (label, cells)
            })
            .collect();
        let labels: Vec<&str> = rows.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels, ["sequential", "fixed", "random"]);
        assert!(rows.iter().all(|(_, cells)| cells.len() == 4), "{rows:?}");
        // Columns: both on, no cache, no interleave, neither.
        let seq = &rows[0].1;
        assert!(
            seq[1] > 1.5 * seq[3],
            "interleaving alone ({}) does not pay over neither ({})",
            seq[1],
            seq[3]
        );
        let random = &rows[2].1;
        let lo = random.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = random.iter().copied().fold(0.0, f64::max);
        assert!(hi <= 1.01 * lo, "random row not flat: {random:?}");
    }

    #[test]
    fn rdma_window_ablation_shape() {
        let t = ablation_rdma_window();
        // Lossless: efficiency 1.0 regardless of window.
        let text = t.to_string();
        let first: Vec<&str> = text.lines().nth(3).unwrap().split_whitespace().collect();
        assert_eq!(first[1], "1.000");
        // At 10% loss, the small window beats the large one.
        let small: f64 = text.lines().nth(3).unwrap().split_whitespace().last().unwrap().parse().unwrap();
        let large: f64 = text.lines().nth(5).unwrap().split_whitespace().last().unwrap().parse().unwrap();
        assert!(small > large, "small-window {small} <= large-window {large}");
    }

    #[test]
    fn simulated_datapath_matches_analytic() {
        let t = ablation_datapath_sim();
        for row in 0..t.len() {
            let (analytic, simulated) = {
                let text = t.to_string();
                let line = text.lines().nth(3 + row).unwrap();
                let cells: Vec<&str> = line.split_whitespace().collect();
                (
                    cells[cells.len() - 3].parse::<f64>().unwrap(),
                    cells[cells.len() - 2].parse::<f64>().unwrap(),
                )
            };
            let err = (simulated - analytic).abs() / analytic;
            assert!(err < 0.03, "row {row}: {simulated} vs {analytic}");
        }
    }
}
