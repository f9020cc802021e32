//! Micro-benches (harmonia-testkit harness) for the Reusable Building Blocks: packet filtering +
//! flow direction, queue scheduling, and the memory system with its
//! ex-functions on and off (the ablation's timing side).

use harmonia::apps::common::to_packet_meta;
use harmonia::hw::Vendor;
use harmonia::shell::rbb::{HostRbb, MemoryRbb, NetworkRbb};
use harmonia::workloads::{AccessPattern, MemTraceGen, PacketGen};
use harmonia_testkit::bench::{black_box, BenchmarkId, Criterion, Throughput};
use harmonia_testkit::{bench_group, bench_main};

const LOCAL_MAC: u64 = 0x02_11_22_33_44_55;

fn bench_network_rbb(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_rbb");
    let pkts: Vec<_> = PacketGen::new(1, LOCAL_MAC)
        .with_foreign_traffic(64, 10_000, 0.2)
        .iter()
        .map(to_packet_meta)
        .collect();
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("filter_and_direct_10k_packets", |b| {
        b.iter(|| {
            let mut rbb = NetworkRbb::with_speed(Vendor::Xilinx, 100, 256);
            rbb.add_local_mac(LOCAL_MAC);
            for p in &pkts {
                black_box(rbb.process_rx(p));
            }
            rbb.stats().rx_packets
        })
    });
    g.finish();
}

fn bench_host_rbb(c: &mut Criterion) {
    let mut g = c.benchmark_group("host_rbb");
    for &active in &[4u16, 64] {
        g.bench_with_input(
            BenchmarkId::new("active_ring_schedule", active),
            &active,
            |b, &active| {
                b.iter(|| {
                    let mut h = HostRbb::with_link(Vendor::Xilinx, 4, 8);
                    for q in 0..active {
                        h.activate(q * 3).unwrap();
                        for _ in 0..8 {
                            h.enqueue(q * 3, 64).unwrap();
                        }
                    }
                    let mut n = 0u32;
                    while h.schedule().is_some() {
                        n += 1;
                    }
                    black_box(n)
                })
            },
        );
    }
    g.finish();
}

fn bench_memory_rbb(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory_rbb");
    g.sample_size(20);
    let trace = |pattern, count| {
        MemTraceGen::new(2)
            .trace(pattern, false, 64, count)
            .expect("64 B ops fit the default footprint")
    };
    let seq = trace(AccessPattern::Sequential, 20_000);
    let rnd = trace(AccessPattern::Random, 20_000);
    // 100k ops over HBM's 32 pseudo-channels time routing at a high
    // channel count.
    let hbm_seq = trace(AccessPattern::Sequential, 100_000);
    let hbm_rnd = trace(AccessPattern::Random, 100_000);
    let ddr2: fn() -> MemoryRbb = || MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
    let hbm: fn() -> MemoryRbb = || MemoryRbb::hbm(Vendor::Xilinx);
    for (name, make, trace, cache) in [
        ("seq_cache_on", ddr2, &seq, true),
        ("seq_cache_off", ddr2, &seq, false),
        ("rand_cache_off", ddr2, &rnd, false),
        ("hbm_seq_cache_off", hbm, &hbm_seq, false),
        ("hbm_rand_cache_off", hbm, &hbm_rnd, false),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut mem = make();
                mem.set_cache(cache);
                black_box(mem.run_trace(trace.iter().copied()))
            })
        });
    }
    g.finish();
}

fn bench_rdma(c: &mut Criterion) {
    use harmonia::shell::rbb::rdma::{QueuePair, RdmaConfig};
    use harmonia::sim::SplitMix64;
    let mut g = c.benchmark_group("rdma");
    g.sample_size(20);
    for (name, loss) in [("lossless", 0.0), ("loss_5pct", 0.05)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut qp = QueuePair::new(RdmaConfig::default());
                for _ in 0..64 {
                    qp.post_send(8192).unwrap();
                }
                let mut rng = SplitMix64::new(9);
                black_box(qp.run_to_completion(&mut rng, loss, 1_000_000).unwrap())
            })
        });
    }
    g.finish();
}

bench_group!(
    benches,
    bench_network_rbb,
    bench_host_rbb,
    bench_memory_rbb,
    bench_rdma
);
bench_main!(benches);
