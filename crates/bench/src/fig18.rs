//! Figure 18 — Harmonia vs Vitis / oneAPI / Coyote.

use harmonia::frameworks::{baseline_shell_resources, Framework, PerfFactors};
use harmonia::hw::device::catalog;
use harmonia::hw::ResourceKind;
use harmonia::metrics::report::{fmt_f64, fmt_pct};
use harmonia::metrics::Table;
use harmonia::shell::rbb::MemoryRbb;
use harmonia::shell::{MemoryDemand, RoleSpec};
use harmonia::workloads::{AccessMode, MatMulWorkload, TcpWorkload, VectorDbWorkload};

fn bench_role() -> RoleSpec {
    RoleSpec::builder("benchmark")
        .network_gbps(100)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build()
}

/// Figure 18a: shell resource usage per framework (each on a device it
/// supports: Vitis/Coyote/Harmonia on A, oneAPI on D).
pub(crate) fn fig18a() -> Table {
    let mut t = Table::new(
        "Figure 18a — shell resource usage (% of device)",
        &["framework", "device", "LUT", "REG", "BRAM"],
    );
    let role = bench_role();
    for f in Framework::ALL {
        let device = match f {
            Framework::OneApi => catalog::device_d(),
            _ => catalog::device_a(),
        };
        let usage = baseline_shell_resources(f, &device, &role)
            .expect("role deploys")
            .expect("framework supports its own device");
        t.row([
            f.to_string(),
            device.name().to_string(),
            fmt_pct(usage.percent_of(device.capacity(), ResourceKind::Lut)),
            fmt_pct(usage.percent_of(device.capacity(), ResourceKind::Reg)),
            fmt_pct(usage.percent_of(device.capacity(), ResourceKind::Bram)),
        ]);
    }
    t
}

/// Figure 18b: matrix multiplication vs parallelism.
pub(crate) fn fig18b() -> Table {
    let mut t = Table::new(
        "Figure 18b — matrix multiplication (matrices/s)",
        &["parallelism", "Vitis", "oneAPI", "Coyote", "Harmonia"],
    );
    let w = MatMulWorkload::paper();
    for p in [4u32, 8, 16] {
        let mut row = vec![format!("x{p}")];
        for f in Framework::ALL {
            let pf = PerfFactors::of(f);
            row.push(fmt_f64(
                pf.throughput(w.matrices_per_sec(p, pf.kernel_clock)),
                0,
            ));
        }
        t.row(row);
    }
    t
}

/// Figure 18c: vector database access (million vectors/s by mode).
pub(crate) fn fig18c() -> Table {
    let mut t = Table::new(
        "Figure 18c — database access (Mvec/s)",
        &["mode", "Vitis", "oneAPI", "Coyote", "Harmonia"],
    );
    for mode in AccessMode::ALL {
        // Every framework drives the same DDR4 memory system with the same
        // trace, so the trace is replayed once per mode and each
        // framework's `PerfFactors` scale the result afterwards. The
        // 4M-vector database dwarfs any on-chip cache, so Harmonia's hot
        // cache is bypassed here (its win is in the ablations); the
        // comparison isolates the interface plumbing, which is where the
        // paper's "no bubbles" claim lives.
        let mut mem = MemoryRbb::ddr(harmonia::hw::Vendor::Xilinx, 4, 2);
        mem.set_cache(false);
        let ops = VectorDbWorkload::new(3, 4_000_000).accesses(mode, 0.2, 60_000);
        let n = ops.len() as u64;
        let ops_per_sec = mem.run_trace(ops).ops_per_sec(n);
        let mut row = vec![mode.to_string()];
        for f in Framework::ALL {
            row.push(fmt_f64(PerfFactors::of(f).throughput(ops_per_sec) / 1e6, 1));
        }
        t.row(row);
    }
    t
}

/// Figure 18d: TCP transmission throughput/latency vs packet size.
pub(crate) fn fig18d() -> Table {
    let mut t = Table::new(
        "Figure 18d — TCP transmission",
        &[
            "pkt (B)",
            "Vitis (Gbps/us)",
            "oneAPI (Gbps/us)",
            "Coyote (Gbps/us)",
            "Harmonia (Gbps/us)",
        ],
    );
    let w = TcpWorkload::paper();
    for size in TcpWorkload::PACKET_SIZES {
        let mut row = vec![size.to_string()];
        for f in Framework::ALL {
            let pf = PerfFactors::of(f);
            let tpt = pf.throughput(w.goodput_gbps(size));
            let lat = pf.latency_ps(w.latency_ps(size)) as f64 / 1e6;
            row.push(format!("{:.1}/{:.1}", tpt, lat));
        }
        t.row(row);
    }
    t
}

/// The Figure 18 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig18a, fig18b, fig18c, fig18d];

/// All Figure 18 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: &Table, row: usize, col_from_end: usize) -> String {
        let text = t.to_string();
        let line = text.lines().nth(3 + row).unwrap().to_string();
        let cells: Vec<&str> = line.split_whitespace().collect();
        cells[cells.len() - 1 - col_from_end].to_string()
    }

    #[test]
    fn fig18a_harmonia_uses_least_lut() {
        let t = fig18a();
        let pct = |row: usize| -> f64 { cell(&t, row, 2).trim_end_matches('%').parse().unwrap() };
        let (vitis, coyote, harmonia) = (pct(0), pct(2), pct(3));
        for baseline in [vitis, coyote] {
            let saving = 100.0 * (1.0 - harmonia / baseline);
            assert!(
                (3.5..=35.0).contains(&saving),
                "saving {saving:.1}% vs baseline"
            );
        }
    }

    #[test]
    fn fig18b_scales_and_matches_across_frameworks() {
        let t = fig18b();
        let v = |row: usize, c: usize| -> f64 { cell(&t, row, c).parse().unwrap() };
        // Scaling with parallelism for Harmonia (col 0 from end).
        assert!(v(2, 0) > 3.5 * v(0, 0));
        // Frameworks comparable at the same clock (Vitis vs Harmonia).
        let ratio = v(1, 0) / v(1, 3);
        assert!((0.95..=1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fig18c_sequential_fastest_and_frameworks_comparable() {
        let t = fig18c();
        let v = |row: usize, c: usize| -> f64 { cell(&t, row, c).parse().unwrap() };
        let (rand, seq) = (v(0, 0), v(2, 0));
        assert!(seq > rand, "sequential {seq} <= random {rand}");
        // Harmonia (col 0) within 3% of Vitis (col 3) in every mode.
        for row in 0..3 {
            let ratio = v(row, 0) / v(row, 3);
            assert!((0.97..=1.03).contains(&ratio), "row {row}: ratio {ratio}");
        }
    }

    #[test]
    fn fig18d_throughput_and_latency_rise_with_size() {
        let t = fig18d();
        let parse = |row: usize| -> (f64, f64) {
            let s = cell(&t, row, 0);
            let (a, b) = s.split_once('/').unwrap();
            (a.parse().unwrap(), b.parse().unwrap())
        };
        let (t64, l64) = parse(0);
        let (t1500, l1500) = parse(2);
        assert!(t1500 > t64);
        assert!(l1500 > l64);
    }
}
