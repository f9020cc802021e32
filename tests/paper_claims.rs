//! The paper's headline numbers, asserted as integration tests. Each test
//! names the claim (abstract/§5) it checks and the band we accept for the
//! simulation substrate (EXPERIMENTS.md records exact values).

use harmonia::hw::device::catalog;
use harmonia::shell::rbb::MigrationKind;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};

/// "Reduces shell development workloads by 69%–93%" — RBB reuse across the
/// evaluated migrations.
#[test]
fn claim_shell_development_reduction() {
    let unified = UnifiedShell::for_device(&catalog::device_a());
    let role = RoleSpec::builder("claim")
        .network_gbps(100)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    for rbb in shell.rbbs() {
        let xv = rbb.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = rbb.workload(MigrationKind::CrossChip).reuse_fraction();
        assert!(
            (0.64..=0.93).contains(&xv) && (0.64..=0.95).contains(&xc),
            "{:?}: xv {xv:.2} xc {xc:.2}",
            rbb.kind()
        );
    }
}

/// "Save hardware resources by 3%–25.1% with shell tailoring."
#[test]
fn claim_tailoring_savings() {
    let unified = UnifiedShell::for_device(&catalog::device_a());
    let roles = [
        RoleSpec::builder("a")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build(),
        RoleSpec::builder("b")
            .network_gbps(100)
            .network_ports(1)
            .memory(MemoryDemand::Hbm)
            .build(),
    ];
    for role in &roles {
        let t = TailoredShell::tailor(&unified, role).unwrap();
        let saving = 100.0 * t.overall_savings_vs(&unified);
        assert!(
            (2.0..=31.0).contains(&saving),
            "{}: {saving:.1}%",
            role.name()
        );
    }
}

/// "Negligible resource overhead (<0.63%)" per Harmonia component —
/// wrappers under 0.37%, control kernel under 0.67% (Figure 16).
#[test]
fn claim_component_overheads() {
    use harmonia::cmd::UnifiedControlKernel;
    use harmonia::hw::ip::{MacIp, PcieDmaIp, VendorIp};
    use harmonia::platform::InterfaceWrapper;
    for device in catalog::all() {
        let cap = device.capacity();
        let die = device.die_vendor();
        let ips: Vec<Box<dyn VendorIp>> = vec![
            Box::new(MacIp::new(die, 100)),
            Box::new(PcieDmaIp::new(die, 4, 8)),
        ];
        for ip in &ips {
            let w = InterfaceWrapper::wrap(ip.as_ref(), 512);
            let pct = w.resources().retargeted_for(cap).max_percent_of(cap);
            assert!(pct < 0.37, "{}: wrapper {pct:.3}%", device.name());
        }
        let uck = UnifiedControlKernel::resources()
            .retargeted_for(cap)
            .max_percent_of(cap);
        assert!(uck < 0.67, "{}: UCK {uck:.3}%", device.name());
    }
}

/// "Maintains the throughput and latency of applications … minimal
/// performance impact (<1%)."
#[test]
fn claim_performance_preserved() {
    use harmonia::apps::{App, HostNetwork, SecGateway};
    let apps: Vec<(Box<dyn App>, harmonia::apps::BitwPath)> = vec![
        (Box::new(SecGateway), SecGateway.datapath()),
        (Box::new(HostNetwork), HostNetwork.datapath()),
    ];
    for (_, path) in &apps {
        let without = path.clone().without_harmonia();
        for size in [64u32, 512, 1024] {
            assert_eq!(
                path.throughput_gbps(size),
                without.throughput_gbps(size),
                "throughput changed"
            );
            let inc = (path.latency_ps(size) - without.latency_ps(size)) as f64
                / without.latency_ps(size) as f64;
            assert!(inc < 0.01, "latency +{:.2}%", 100.0 * inc);
        }
    }
}

/// "Supports cross-vendor FPGAs" while each baseline is single-vendor
/// (Table 3), and "simplifies 15–23× software configurations" (Table 4).
#[test]
fn claim_cross_vendor_and_config_simplification() {
    use harmonia::frameworks::Framework;
    let vendors_covered = |f: Framework| {
        catalog::all()
            .iter()
            .filter(|d| f.supports(d))
            .map(|d| d.die_vendor())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    };
    for f in Framework::BASELINES {
        assert!(vendors_covered(f) <= 1, "{f} spans vendors");
    }
    assert_eq!(vendors_covered(Framework::Harmonia), 2);

    // Table 4 reductions: 21x / 23x / 15x.
    use harmonia::host::reg_driver::RegisterDriver;
    use harmonia::shell::rbb::RbbKind;
    let unified = UnifiedShell::for_device(&catalog::device_a());
    let role = RoleSpec::builder("t4")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .queues(192)
        .build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    let mon = RegisterDriver::monitoring_script(&shell).len() as f64 / 4.0;
    assert!((15.0..=23.0).contains(&mon), "monitoring {mon:.0}x");
    let net = shell.rbbs_of(RbbKind::Network).next().unwrap();
    let net_x = RegisterDriver::network_init_ops(net, 0).len() as f64 / 5.0;
    assert!((15.0..=23.0).contains(&net_x), "network {net_x:.0}x");
    let host = shell.rbbs_of(RbbKind::Host).next().unwrap();
    let host_x = RegisterDriver::host_config_ops(host, 0).len() as f64 / 4.0;
    assert!((15.0..=23.0).contains(&host_x), "host {host_x:.0}x");
}

/// The lossless-CDC condition S×M = R×U holds for the paper's parameter
/// progression (25/100/400G at 128/512/2048 bits).
#[test]
fn claim_cdc_lossless_progression() {
    use harmonia::shell::ParamCdc;
    use harmonia::sim::Freq;
    for (gbps, bits, mhz) in [(25u32, 128u32, 250u64), (100, 512, 322), (400, 2048, 402)] {
        let cdc = ParamCdc::new(Freq::mhz(mhz), bits, Freq::mhz(mhz), bits, 32);
        assert!(cdc.is_lossless(), "{gbps}G config not lossless");
        let report = cdc.simulate(10_000_000);
        assert_eq!(report.writer_stalls, 0, "{gbps}G stalled");
    }
}
