//! Property-based tests for the host layer: DMA control-queue isolation
//! and the link model beneath it.

use harmonia_host::dma::DmaEngine;
use harmonia_hw::ip::PcieDmaIp;
use harmonia_hw::Vendor;
use harmonia_testkit::prelude::*;

fn arb_dma() -> impl Strategy<Value = PcieDmaIp> {
    (
        prop_oneof![
            Just(Vendor::Xilinx),
            Just(Vendor::Intel),
            Just(Vendor::InHouse)
        ],
        3u8..=5,
        prop_oneof![Just(8u8), Just(16u8)],
    )
        .prop_map(|(vendor, gen, lanes)| PcieDmaIp::new(vendor, gen, lanes))
}

forall! {
    /// §3.3.3 isolation: with the separate control queue, command latency
    /// is a pure function of the command size — data backlog never leaks
    /// into it. Without isolation, latency only grows with backlog.
    #[test]
    fn dma_ctrl_isolation_decouples_backlog(
        dma in arb_dma(),
        cmd_bytes in 1u32..4_096,
        backlogs in collection::vec(1u64..50_000_000, 1..10),
    ) {
        let mut isolated = DmaEngine::new(dma.clone());
        let quiet = isolated.command_latency_ps(cmd_bytes);
        let mut shared = DmaEngine::new(dma);
        shared.set_ctrl_isolated(false);
        let mut last_shared = shared.command_latency_ps(cmd_bytes);
        prop_assert_eq!(last_shared, quiet, "empty shared queue must match isolated");
        for &bytes in &backlogs {
            isolated.enqueue_data(bytes);
            shared.enqueue_data(bytes);
            prop_assert_eq!(isolated.command_latency_ps(cmd_bytes), quiet,
                "isolated latency shifted under backlog");
            let busy = shared.command_latency_ps(cmd_bytes);
            prop_assert!(busy >= last_shared,
                "shared-queue latency dropped as backlog grew");
            last_shared = busy;
        }
        prop_assert_eq!(
            isolated.commands_sent(),
            1 + backlogs.len() as u64,
            "command counter out of step"
        );
    }

    /// The link model underneath commands and data is sane for every
    /// supported configuration: positive latency, throughput below the
    /// raw link rate, and both monotone in request size.
    #[test]
    fn dma_link_model_bounds(dma in arb_dma(), small in 64u32..2_048, grow in 1u32..30_000) {
        let engine = DmaEngine::new(dma);
        let large = small + grow;
        let link = engine.link();
        prop_assert!(link.read_latency_ps(small) > 0);
        prop_assert!(link.read_latency_ps(large) >= link.read_latency_ps(small));
        let (t_small, t_large) = (link.throughput_gbs(small), link.throughput_gbs(large));
        prop_assert!(t_small > 0.0);
        prop_assert!(t_large >= t_small, "throughput fell with larger requests");
        prop_assert!(t_large <= link.raw_gbs(), "throughput beats the raw link");
    }
}
