//! Micro-benches (harmonia-testkit harness) for the platform-specific layer: width conversion,
//! clock-domain crossing and the vendor IP timing models (Figure 10's
//! machinery).

use harmonia_testkit::bench::{Criterion, Throughput, black_box};
use harmonia_testkit::{bench_group, bench_main};
use harmonia::hw::ip::{MacIp, PcieDmaIp};
use harmonia::hw::Vendor;
use harmonia::platform::WidthConverter;
use harmonia::shell::rbb::MemoryRbb;
use harmonia::shell::ParamCdc;
use harmonia::sim::stream::packet_to_beats;
use harmonia::sim::Freq;
use harmonia::workloads::{AccessPattern, MemTraceGen};

fn bench_width_converter(c: &mut Criterion) {
    let mut g = c.benchmark_group("width_converter");
    let beats = packet_to_beats(1500, 512);
    g.throughput(Throughput::Bytes(1500));
    g.bench_function("512_to_128_per_1500B_packet", |b| {
        b.iter(|| {
            let mut conv = WidthConverter::new(512, 128);
            for beat in &beats {
                conv.push(*beat);
            }
            black_box(conv.drain().len())
        })
    });
    g.bench_function("512_to_512_per_1500B_packet", |b| {
        b.iter(|| {
            let mut conv = WidthConverter::new(512, 512);
            for beat in &beats {
                conv.push(*beat);
            }
            black_box(conv.drain().len())
        })
    });
    g.finish();
}

fn bench_cdc(c: &mut Criterion) {
    let mut g = c.benchmark_group("param_cdc");
    g.sample_size(20);
    g.bench_function("matched_100us_window", |b| {
        let cdc = ParamCdc::new(Freq::mhz(100), 512, Freq::mhz(400), 128, 32);
        b.iter(|| black_box(cdc.simulate(100_000_000)).delivered)
    });
    g.finish();
}

fn bench_ip_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("ip_models");
    g.bench_function("mac_throughput_sweep", |b| {
        let mac = MacIp::new(Vendor::Xilinx, 100);
        b.iter(|| {
            let mut acc = 0.0;
            for s in [64u32, 128, 256, 512, 1024, 1500] {
                acc += mac.throughput_gbps(black_box(s));
            }
            black_box(acc)
        })
    });
    g.bench_function("pcie_latency_sweep", |b| {
        let dma = PcieDmaIp::new(Vendor::Intel, 4, 16);
        b.iter(|| {
            let mut acc = 0u64;
            for s in [1024u32, 4096, 16384] {
                acc += dma.read_latency_ps(black_box(s));
            }
            black_box(acc)
        })
    });
    g.sample_size(20);
    g.bench_function("ddr_random_trace_10k", |b| {
        let ops = MemTraceGen::new(5)
            .trace(AccessPattern::Random, false, 64, 10_000)
            .expect("64 B ops fit the default footprint");
        b.iter(|| {
            let mut mem = MemoryRbb::ddr(Vendor::Xilinx, 4, 1);
            mem.set_cache(false);
            black_box(mem.run_trace(ops.iter().copied()))
        })
    });
    g.finish();
}

bench_group!(benches, bench_width_converter, bench_cdc, bench_ip_models);
bench_main!(benches);
