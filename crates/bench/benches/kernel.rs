//! Micro-benches (harmonia-testkit harness) for the command interface: packet codec and unified
//! control kernel execution (the Figure 13 / Table 4 machinery).

use harmonia::cmd::{CommandCode, CommandPacket, SrcId, UnifiedControlKernel};
use harmonia::host::reg_driver::RegisterDriver;
use harmonia::hw::device::catalog;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia_testkit::bench::{black_box, Criterion, Throughput};
use harmonia_testkit::{bench_group, bench_main};

fn table4_shell() -> TailoredShell {
    let unified = UnifiedShell::for_device(&catalog::device_a());
    let role = RoleSpec::builder("bench")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .queues(192)
        .build();
    TailoredShell::tailor(&unified, &role).expect("deploys")
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_codec");
    let packet = CommandPacket::new(SrcId::Application, 1, 0, CommandCode::TableWrite)
        .with_data((0..16).collect());
    let bytes = packet.encode();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(packet.encode())));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(CommandPacket::decode(&bytes).unwrap()))
    });
    g.finish();
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("control_kernel");
    let shell = table4_shell();
    g.bench_function("module_init_command", |b| {
        b.iter(|| {
            let mut k = UnifiedControlKernel::new(16);
            k.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
            k.submit(CommandPacket::new(
                SrcId::Application,
                1,
                0,
                CommandCode::ModuleInit,
            ))
            .unwrap();
            black_box(k.step().unwrap())
        })
    });
    g.bench_function("stats_read_command", |b| {
        let mut k = UnifiedControlKernel::new(16);
        k.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        b.iter(|| {
            k.submit(CommandPacket::new(
                SrcId::CtrlTool,
                1,
                0,
                CommandCode::StatsRead,
            ))
            .unwrap();
            black_box(k.step().unwrap())
        })
    });
    g.finish();
}

fn bench_reg_scripts(c: &mut Criterion) {
    let mut g = c.benchmark_group("register_scripts");
    let shell = table4_shell();
    let device = catalog::device_a();
    g.bench_function("full_init_script_generation", |b| {
        b.iter(|| black_box(RegisterDriver::full_init_script(&device, &shell).len()))
    });
    let a = RegisterDriver::full_init_script(&device, &shell);
    g.bench_function("script_lcs_diff", |b| {
        b.iter(|| black_box(harmonia::metrics::lcs_diff(&a, &a[..a.len() - 10])))
    });
    g.finish();
}

bench_group!(benches, bench_codec, bench_kernel, bench_reg_scripts);
bench_main!(benches);
