//! Property-based tests for the host layer: interrupt moderation bounds
//! and DMA control-queue isolation.

use harmonia_host::dma::DmaEngine;
use harmonia_host::irq::{IrqModeration, IrqModerator};
use harmonia_hw::ip::PcieDmaIp;
use harmonia_hw::Vendor;
use harmonia_testkit::prelude::*;

fn arb_policy() -> impl Strategy<Value = IrqModeration> {
    (0u64..100_000_000, 1u32..256).prop_map(|(max_wait_ps, batch_threshold)| IrqModeration {
        max_wait_ps,
        batch_threshold,
    })
}

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
    /// Moderation invariants for any policy and uniform stream: every
    /// event is counted, at most one interrupt per event, no batch grows
    /// past the threshold, and no event waits past the coalescing timer.
    #[test]
    fn irq_moderation_bounds(
        policy in arb_policy(),
        gap_ps in 0u64..10_000_000,
        count in 1u64..2_000,
    ) {
        let r = IrqModerator::run_uniform(policy, gap_ps, count);
        prop_assert_eq!(r.events, count);
        prop_assert!(r.interrupts >= 1, "flushed stream must interrupt");
        prop_assert!(r.interrupts <= r.events);
        prop_assert!(
            r.coalescing() <= f64::from(policy.batch_threshold),
            "coalescing {} exceeds batch threshold {}",
            r.coalescing(), policy.batch_threshold
        );
        prop_assert!(
            r.max_delay_ps <= policy.max_wait_ps,
            "event waited {} ps past the {} ps timer",
            r.max_delay_ps, policy.max_wait_ps
        );
        prop_assert!(r.mean_delay_ps <= r.max_delay_ps as f64);
    }

    /// The no-moderation policy degenerates to one interrupt per event
    /// with zero delay, for any stream.
    #[test]
    fn irq_immediate_policy_is_transparent(gap_ps in 0u64..10_000_000, count in 1u64..2_000) {
        let r = IrqModerator::run_uniform(IrqModeration::immediate(), gap_ps, count);
        prop_assert_eq!(r.interrupts, count);
        prop_assert_eq!(r.max_delay_ps, 0);
        prop_assert_eq!(r.mean_delay_ps, 0.0);
    }

    /// Raising the batch threshold (same timer) never raises the
    /// interrupt count — the Figure-style moderation trade-off direction.
    #[test]
    fn irq_batching_monotone_in_threshold(
        max_wait_ps in 1u64..100_000_000,
        small in 1u32..64,
        extra in 1u32..192,
        gap_ps in 1u64..1_000_000,
        count in 1u64..2_000,
    ) {
        let weak = IrqModerator::run_uniform(
            IrqModeration { max_wait_ps, batch_threshold: small }, gap_ps, count);
        let strong = IrqModerator::run_uniform(
            IrqModeration { max_wait_ps, batch_threshold: small + extra }, gap_ps, count);
        prop_assert!(strong.interrupts <= weak.interrupts,
            "threshold {} raised interrupts over threshold {}", small + extra, small);
    }

    /// Backlog bookkeeping is a saturating fold of the enqueue/drain
    /// history, whatever the interleaving.
    #[test]
    fn dma_backlog_matches_history(
        dma in arb_dma(),
        ops in collection::vec((any::<bool>(), 0u64..1_000_000), 0..40),
    ) {
        let mut engine = DmaEngine::new(dma);
        let mut expected: u64 = 0;
        for &(enqueue, bytes) in &ops {
            if enqueue {
                engine.enqueue_data(bytes);
                expected += bytes;
            } else {
                engine.drain_data(bytes);
                expected = expected.saturating_sub(bytes);
            }
            prop_assert_eq!(engine.data_backlog(), expected);
        }
    }

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
        prop_assert!(engine.data_latency_ps(small) > 0);
        prop_assert!(engine.data_latency_ps(large) >= engine.data_latency_ps(small));
        let (t_small, t_large) = (
            engine.data_throughput_gbs(small),
            engine.data_throughput_gbs(large),
        );
        prop_assert!(t_small > 0.0);
        prop_assert!(t_large >= t_small, "throughput fell with larger requests");
        prop_assert!(t_large <= engine.link().raw_gbs(), "throughput beats the raw link");
    }
}
