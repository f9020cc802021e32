//! Portability integration tests: the Table 1 story — unified shell,
//! portable roles and a consistent host interface across the whole
//! heterogeneous catalog.

use harmonia::cmd::CommandCode;
use harmonia::frameworks::Framework;
use harmonia::hw::device::catalog;
use harmonia::shell::rbb::RbbKind;
use harmonia::{Harmonia, RoleSpec};

fn portable_role() -> RoleSpec {
    RoleSpec::builder("portable")
        .network_gbps(100)
        .queues(64)
        .build()
}

#[test]
fn identical_role_and_software_on_all_devices() {
    // The exact same role spec AND the exact same command sequence must
    // work on every device — that is the consistent-host-interface claim.
    let commands = [
        (RbbKind::Network.id(), CommandCode::ModuleReset, vec![]),
        (RbbKind::Network.id(), CommandCode::ModuleInit, vec![]),
        (
            RbbKind::Network.id(),
            CommandCode::TableWrite,
            vec![1u32, 2, 3],
        ),
        (RbbKind::Network.id(), CommandCode::StatsRead, vec![]),
        (RbbKind::Host.id(), CommandCode::StatsRead, vec![]),
        (0, CommandCode::HealthRead, vec![]),
    ];
    for device in catalog::all() {
        let mut d = Harmonia::deploy(&device, &portable_role())
            .unwrap_or_else(|e| panic!("{}: {e}", device.name()));
        for (rbb, code, data) in &commands {
            d.driver_mut()
                .cmd_raw_resilient(*rbb, 0, *code, data.clone())
                .unwrap_or_else(|e| panic!("{}: {code:?}: {e}", device.name()));
        }
    }
}

#[test]
fn unified_ports_are_identical_across_vendors() {
    use harmonia::hw::ip::{MacIp, VendorIp};
    use harmonia::hw::Vendor;
    use harmonia::platform::InterfaceWrapper;
    // The vendor-facing sides differ massively…
    let xi = MacIp::new(Vendor::Xilinx, 100);
    let it = MacIp::new(Vendor::Intel, 100);
    assert!(xi.native_interface().diff(&it.native_interface()).total() > 20);
    // …the role-facing sides do not differ at all.
    let wx = InterfaceWrapper::wrap(&xi, 512);
    let wi = InterfaceWrapper::wrap(&it, 512);
    assert_eq!(wx.ports(), wi.ports());
}

#[test]
fn baselines_cannot_cover_the_catalog() {
    for f in Framework::BASELINES {
        let covered = catalog::all().iter().filter(|d| f.supports(d)).count();
        assert!(covered <= 1, "{f} unexpectedly covers {covered} devices");
    }
    assert_eq!(
        catalog::all()
            .iter()
            .filter(|d| Framework::Harmonia.supports(d))
            .count(),
        4
    );
}

#[test]
fn shell_reuse_holds_for_every_catalog_migration_pair() {
    use harmonia::shell::rbb::MigrationKind;
    use harmonia::shell::{TailoredShell, UnifiedShell};
    let role = portable_role();
    let devices = catalog::all();
    for from in &devices {
        for to in &devices {
            let kind = MigrationKind::between(from, to);
            let unified = UnifiedShell::for_device(from);
            let shell = TailoredShell::tailor(&unified, &role).unwrap();
            let reuse = shell.workload(kind).reuse_fraction();
            match kind {
                MigrationKind::SamePlatform => assert_eq!(reuse, 1.0),
                MigrationKind::CrossChip => {
                    assert!(reuse >= 0.84, "{} -> {}: {reuse}", from.name(), to.name())
                }
                MigrationKind::CrossVendor => {
                    assert!(reuse >= 0.64, "{} -> {}: {reuse}", from.name(), to.name())
                }
            }
        }
    }
}

#[test]
fn legacy_generation_still_deploys() {
    // §2.2: generations coexist for 4+ years. A 25G role written against
    // the unified abstraction deploys on the legacy Stratix 10 board with
    // its DDR3 and Gen3 host link, unchanged.
    let device = catalog::device_e_legacy();
    let role = RoleSpec::builder("legacy")
        .network_gbps(25)
        .memory(harmonia::MemoryDemand::Ddr { channels: 1 })
        .queues(16)
        .user_domain(harmonia::sim::Freq::mhz(250), 128)
        .build();
    let mut d = Harmonia::deploy(&device, &role).expect("legacy deploys");
    d.driver_mut()
        .cmd_raw_resilient(RbbKind::Network.id(), 0, CommandCode::StatsRead, vec![])
        .expect("same software, older hardware");
    // The 25G instance was selected (128-bit datapath).
    let net = d
        .shell()
        .rbbs_of(RbbKind::Network)
        .next()
        .expect("network RBB");
    assert_eq!(net.instance().data_width_bits(), 128);
    // And the memory RBB runs DDR3 timing (12.8 GB/s peak).
    let mem = d.shell().rbbs_of(RbbKind::Memory).next().expect("memory");
    assert!(mem.instance().instance_name().contains("ddr3"));
}

#[test]
fn adapters_validate_against_their_devices() {
    use harmonia::platform::DeviceAdapter;
    for device in catalog::all() {
        let mut adapter = DeviceAdapter::generate(&device);
        adapter
            .dynamic_mut()
            .map_pin("refclk_p", 0)
            .map_pin("refclk_n", 1)
            .map_clock("dma", 0);
        assert!(adapter.validate().is_ok(), "{}", device.name());
        // And catch real mistakes.
        adapter.dynamic_mut().map_pin("oops", 1_000_000);
        assert!(adapter.validate().is_err());
    }
}
