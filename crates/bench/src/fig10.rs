//! Figure 10 — interface-wrapper micro-benchmarks.
//!
//! Native vendor interfaces vs Harmonia's wrapper: throughput must match,
//! latency may grow by a few fixed cycles.

use harmonia::hw::ip::dram::MemOp;
use harmonia::hw::ip::{DdrIp, MacIp, PcieDmaIp};
use harmonia::hw::Vendor;
use harmonia::metrics::report::fmt_f64;
use harmonia::metrics::Table;
use harmonia::platform::InterfaceWrapper;
use harmonia::shell::rbb::MemoryRbb;
use harmonia::workloads::{AccessPattern, MemTraceGen};

/// Figure 10a: MAC loopback, native vs wrapped.
pub fn fig10a() -> Table {
    let mut t = Table::new(
        "Figure 10a — MAC (100G) native vs wrapped",
        &[
            "pkt (B)",
            "native tpt (Gbps)",
            "wrapped tpt (Gbps)",
            "native lat (us)",
            "wrapped lat (us)",
        ],
    );
    let mac = MacIp::new(Vendor::Xilinx, 100);
    let wrapper = InterfaceWrapper::wrap(&mac, 512);
    for size in [64u32, 128, 256, 512, 1024] {
        let native_t = mac.throughput_gbps(size);
        let wrapped_t = wrapper.wrapped_throughput(native_t);
        let native_l = mac.loopback_latency_ps(size);
        let wrapped_l = native_l + 2 * wrapper.added_latency_ps();
        t.row([
            size.to_string(),
            fmt_f64(native_t, 2),
            fmt_f64(wrapped_t, 2),
            fmt_f64(native_l as f64 / 1e6, 3),
            fmt_f64(wrapped_l as f64 / 1e6, 3),
        ]);
    }
    t
}

/// Figure 10b: PCIe DMA reads, native vs wrapped.
pub fn fig10b() -> Table {
    let mut t = Table::new(
        "Figure 10b — PCIe DMA (Gen4x8) native vs wrapped",
        &[
            "req (B)",
            "native tpt (GB/s)",
            "wrapped tpt (GB/s)",
            "native lat (us)",
            "wrapped lat (us)",
        ],
    );
    let dma = PcieDmaIp::new(Vendor::Xilinx, 4, 8);
    let wrapper = InterfaceWrapper::wrap(&dma, 512);
    for size in [1024u32, 2048, 4096, 8192, 16384] {
        let native_t = dma.throughput_gbs(size);
        let native_l = dma.read_latency_ps(size);
        let wrapped_l = native_l + 2 * wrapper.added_latency_ps();
        t.row([
            (size / 1024).to_string() + "K",
            fmt_f64(native_t, 2),
            fmt_f64(wrapper.wrapped_throughput(native_t), 2),
            fmt_f64(native_l as f64 / 1e6, 3),
            fmt_f64(wrapped_l as f64 / 1e6, 3),
        ]);
    }
    t
}

/// Figure 10c: DDR4 access patterns, native vs wrapped.
pub fn fig10c() -> Table {
    let mut t = Table::new(
        "Figure 10c — DDR4 native vs wrapped",
        &[
            "pattern",
            "native tpt (GB/s)",
            "wrapped tpt (GB/s)",
            "native lat (ns)",
            "wrapped lat (ns)",
        ],
    );
    let ip = DdrIp::new(Vendor::Xilinx, 4);
    let wrapper = InterfaceWrapper::wrap(&ip, 512);
    let cases = [
        ("RandRead", AccessPattern::Random, false),
        ("RandWrite", AccessPattern::Random, true),
        ("SeqRead", AccessPattern::Sequential, false),
        ("SeqWrite", AccessPattern::Sequential, true),
    ];
    for (label, pattern, write) in cases {
        let ops = MemTraceGen::new(7).trace(pattern, write, 64, 30_000);
        let mut mem = MemoryRbb::ddr(Vendor::Xilinx, 4, 1);
        mem.set_cache(false);
        let native_bw = mem.run_trace(ops.iter().copied()).bandwidth_gbs();
        // Single-access latency.
        let mut one = ip.channel();
        let native_lat = one.access(0, MemOp::read(0, 64));
        let wrapped_lat = native_lat + 2 * wrapper.added_latency_ps();
        t.row([
            label.to_string(),
            fmt_f64(native_bw, 2),
            fmt_f64(wrapper.wrapped_throughput(native_bw), 2),
            fmt_f64(native_lat as f64 / 1e3, 1),
            fmt_f64(wrapped_lat as f64 / 1e3, 1),
        ]);
    }
    t
}

/// The Figure 10 tables, in order: each one a job of the paper sweep.
pub const TABLES: &[crate::TableFn] = &[fig10a, fig10b, fig10c];

/// All Figure 10 tables.
pub fn generate() -> Vec<Table> {
    TABLES.iter().map(|table| table()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &Table, row: usize, col_from_end: usize) -> f64 {
        let text = t.to_string();
        let line = text.lines().nth(3 + row).unwrap();
        let cells: Vec<&str> = line.split_whitespace().collect();
        cells[cells.len() - 1 - col_from_end].parse().unwrap()
    }

    #[test]
    fn wrapped_throughput_identical_everywhere() {
        for t in [fig10a(), fig10b()] {
            for row in 0..t.len() {
                let native = col(&t, row, 3);
                let wrapped = col(&t, row, 2);
                assert_eq!(native, wrapped, "{} row {row}", t.title());
            }
        }
    }

    #[test]
    fn wrapper_latency_delta_is_nanoseconds() {
        let t = fig10a();
        for row in 0..t.len() {
            let native = col(&t, row, 1);
            let wrapped = col(&t, row, 0);
            let delta_us = wrapped - native;
            assert!(delta_us > 0.0);
            assert!(delta_us < 0.05, "delta {delta_us} µs too big");
        }
    }

    #[test]
    fn pcie_throughput_climbs_with_request_size() {
        let t = fig10b();
        let first = col(&t, 0, 3);
        let last = col(&t, 4, 3);
        assert!(last > first);
    }

    #[test]
    fn ddr_sequential_beats_random() {
        let t = fig10c();
        let rand_read = col(&t, 0, 3);
        let seq_read = col(&t, 2, 3);
        assert!(seq_read > 1.5 * rand_read, "seq {seq_read} vs rand {rand_read}");
    }
}
