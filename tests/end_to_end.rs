//! End-to-end integration: deploy → traffic → control, across every crate.

use harmonia::apps::common::to_packet_meta;
use harmonia::apps::l4lb::Backend;
use harmonia::apps::Layer4Lb;
use harmonia::cmd::CommandCode;
use harmonia::hw::device::catalog;
use harmonia::shell::rbb::network::RxDecision;
use harmonia::shell::rbb::{NetworkRbb, RbbKind};
use harmonia::workloads::PacketGen;
use harmonia::{Harmonia, MemoryDemand, RoleSpec};

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
    let mut lb = Layer4Lb::new(
        (0..4).map(|id| Backend { id, weight: 1 }).collect(),
        10_000,
    );
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
fn board_test_app_validates_every_catalog_device() {
    for device in catalog::all() {
        let report = harmonia::apps::BoardTest::new(9).run(&device);
        assert!(
            report.all_passed(),
            "{} failed:\n{report}",
            device.name()
        );
    }
}
