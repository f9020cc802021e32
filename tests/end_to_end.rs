//! End-to-end integration: deploy → traffic → control, across every crate.

use harmonia::apps::common::to_packet_meta;
use harmonia::apps::l4lb::Backend;
use harmonia::apps::Layer4Lb;
use harmonia::cmd::CommandCode;
use harmonia::hw::device::catalog;
use harmonia::hw::{ChipFamily, FpgaDevice, Peripheral, Vendor};
use harmonia::platform::MappingError;
use harmonia::shell::rbb::network::RxDecision;
use harmonia::shell::rbb::{NetworkRbb, RbbKind};
use harmonia::shell::TailorError;
use harmonia::sim::Freq;
use harmonia::workloads::PacketGen;
use harmonia::{DeployError, Harmonia, MemoryDemand, RoleSpec};

const LOCAL_MAC: u64 = 0x02_00_00_00_00_77;

#[test]
fn deploy_and_control_full_stack() {
    let device = catalog::device_a();
    let role = RoleSpec::builder("e2e")
        .network_gbps(100)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .queues(64)
        .build();
    let mut deployment = Harmonia::deploy(&device, &role).expect("deploys");

    // Control path: init already ran; reset + re-init the network module.
    deployment
        .driver_mut()
        .cmd_resilient(RbbKind::Network, 0, CommandCode::ModuleReset, Vec::new())
        .expect("reset");
    deployment
        .driver_mut()
        .cmd_resilient(RbbKind::Network, 0, CommandCode::ModuleInit, Vec::new())
        .expect("re-init");

    // Program a table entry and read it back through the kernel.
    deployment
        .driver_mut()
        .cmd_resilient(
            RbbKind::Network,
            0,
            CommandCode::TableWrite,
            vec![5, 0xDEAD, 0xBEEF],
        )
        .expect("table write");
    let read = deployment
        .driver_mut()
        .cmd_resilient(RbbKind::Network, 0, CommandCode::TableRead, vec![5])
        .expect("table read");
    assert_eq!(read.data, vec![0xDEAD, 0xBEEF]);

    // Stats flow end to end.
    let stats = deployment
        .driver_mut()
        .cmd_resilient(RbbKind::Host, 0, CommandCode::StatsRead, Vec::new())
        .expect("stats");
    assert_eq!(stats.data.len(), 32);
}

#[test]
fn packet_pipeline_through_shell_and_role() {
    // Dataplane: network RBB + LB role against generated traffic.
    let mut network = NetworkRbb::with_speed(harmonia::hw::Vendor::Xilinx, 100, 64);
    network.add_local_mac(LOCAL_MAC);
    let mut lb = Layer4Lb::new((0..4).map(|id| Backend { id, weight: 1 }).collect(), 10_000);
    let pkts = PacketGen::new(3, LOCAL_MAC)
        .with_flows(500)
        .with_foreign_traffic(256, 20_000, 0.25);
    let mut forwarded = 0u64;
    for wp in &pkts {
        let meta = to_packet_meta(wp);
        if let RxDecision::Deliver { queue } = network.process_rx(&meta) {
            assert!(queue < 64);
            if lb.dispatch(&meta).is_some() {
                forwarded += 1;
            }
        }
    }
    let s = network.stats();
    assert_eq!(s.rx_packets + s.filtered, 20_000);
    assert!(s.filtered > 3_000, "filter did nothing");
    assert_eq!(forwarded, s.rx_packets);
    assert_eq!(lb.stats().new_connections, 500);
}

#[test]
fn deployment_rejects_overcommitted_roles_cleanly() {
    let device = catalog::device_c();
    let role = RoleSpec::builder("too-big")
        .network_gbps(100)
        .memory(MemoryDemand::Hbm) // C has no HBM
        .build();
    let err = Harmonia::deploy(&device, &role).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("tailoring"), "unexpected error: {msg}");
}

#[test]
fn unsupported_ddr_generation_is_an_error_not_a_panic() {
    // Device D with DDR5 in place of its DDR4: only DDR3 and DDR4 have a
    // controller model, so the board offers no DDR at all.
    let device = FpgaDevice::builder("Device D (DDR5)")
        .vendor(Vendor::Intel)
        .family(ChipFamily::Agilex)
        .part("AGF014")
        .capacity(*catalog::device_d().capacity())
        .peripheral(Peripheral::Qsfp { gbps: 100 })
        .peripheral(Peripheral::Qsfp { gbps: 100 })
        .peripheral(Peripheral::Pcie { gen: 4, lanes: 16 })
        .peripheral(Peripheral::Ddr { gen: 5, gib: 16 })
        .clock_source(Freq::mhz(100))
        .clock_source(Freq::mhz(250))
        .virtual_functions(16)
        .io_pins(624)
        .build();
    let ddr_role = RoleSpec::builder("needs-ddr")
        .network_gbps(100)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let err = Harmonia::deploy(&device, &ddr_role).unwrap_err();
    assert!(
        matches!(
            err,
            DeployError::Tailor(TailorError::MemoryUnavailable { .. })
        ),
        "unexpected error: {err}"
    );
    let net_role = RoleSpec::builder("no-memory").network_gbps(100).build();
    assert!(Harmonia::deploy(&device, &net_role).is_ok());
}

/// A one-QSFP board; the builder leaves out the clocks unless asked.
fn one_port_board(pins: u32, clocked: bool) -> FpgaDevice {
    let mut builder = FpgaDevice::builder("one-port board")
        .vendor(Vendor::Xilinx)
        .family(ChipFamily::VirtexUltraScalePlus)
        .capacity(*catalog::device_b().capacity())
        .peripheral(Peripheral::Qsfp { gbps: 100 })
        .peripheral(Peripheral::Pcie { gen: 3, lanes: 16 })
        .io_pins(pins);
    if clocked {
        builder = builder.clock_source(Freq::mhz(100));
    }
    builder.build()
}

#[test]
fn board_without_clocks_is_a_mapping_error_not_a_panic() {
    let role = RoleSpec::builder("one-port")
        .network_gbps(100)
        .network_ports(1)
        .build();
    assert!(Harmonia::deploy(&one_port_board(200, true), &role).is_ok());
    let err = Harmonia::deploy(&one_port_board(200, false), &role).unwrap_err();
    let DeployError::Mapping(errs) = &err else {
        panic!("unexpected error: {err}");
    };
    assert!(
        errs.iter().all(|e| matches!(
            e,
            MappingError::ClockOutOfRange {
                index: 0,
                available: 0,
                ..
            }
        )),
        "{err}"
    );
    assert!(err.to_string().contains("mapping"), "{err}");
}

#[test]
fn board_short_of_pins_is_a_mapping_error_not_a_panic() {
    let role = RoleSpec::builder("one-port")
        .network_gbps(100)
        .network_ports(1)
        .build();
    let err = Harmonia::deploy(&one_port_board(2, true), &role).unwrap_err();
    let DeployError::Mapping(errs) = &err else {
        panic!("unexpected error: {err}");
    };
    assert!(!errs.is_empty());
    assert!(
        errs.iter()
            .all(|e| matches!(e, MappingError::PinOutOfRange { available: 2, .. })),
        "{err}"
    );
}

#[test]
fn board_test_app_validates_every_catalog_device() {
    for device in catalog::all() {
        let report = harmonia::apps::BoardTest::new(9).run(&device);
        assert!(report.all_passed(), "{} failed:\n{report}", device.name());
    }
}
