//! Property-based tests for the platform-independent layer.

use harmonia_hw::Vendor;
use harmonia_shell::cdc::ParamCdc;
use harmonia_shell::rbb::network::{FlowKey, PacketMeta, RxDecision};
use harmonia_shell::rbb::rdma::{QueuePair, RdmaConfig};
use harmonia_shell::rbb::{HostRbb, NetworkRbb};
use harmonia_sim::{Freq, SplitMix64};
use harmonia_testkit::prelude::*;

fn arb_packet() -> impl Strategy<Value = PacketMeta> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(6u8), Just(17u8)],
        64u32..9000,
    )
        .prop_map(
            |(dst_mac, src_ip, dst_ip, src_port, dst_port, proto, bytes)| PacketMeta {
                dst_mac: dst_mac & 0xFFFF_FFFF_FFFF,
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
                bytes,
            },
        )
}

forall! {
    /// The flow director is deterministic and always lands in range; with
    /// every packet's MAC registered as local every packet is delivered.
    #[test]
    fn director_deterministic_in_range(
        pkts in collection::vec(arb_packet(), 1..100),
        queues in 1u16..512,
    ) {
        let mut rbb = NetworkRbb::with_speed(Vendor::Xilinx, 100, queues);
        for p in &pkts {
            rbb.add_local_mac(p.dst_mac);
        }
        for p in &pkts {
            let d1 = rbb.process_rx(p);
            let d2 = rbb.process_rx(p);
            prop_assert_eq!(d1, d2, "director not deterministic");
            match d1 {
                RxDecision::Deliver { queue } => prop_assert!(queue < queues),
                RxDecision::Filtered => prop_assert!(false, "local MAC filtered"),
            }
        }
    }

    /// Same 5-tuple → same queue, regardless of other header fields.
    #[test]
    fn director_keyed_on_flow_only(p in arb_packet(), other_mac in any::<u64>(), other_len in 64u32..9000) {
        let mut rbb = NetworkRbb::with_speed(Vendor::Intel, 100, 64);
        let mut q = p;
        q.dst_mac = other_mac & 0xFFFF_FFFF_FFFF;
        q.bytes = other_len;
        rbb.add_local_mac(p.dst_mac);
        rbb.add_local_mac(q.dst_mac);
        prop_assert_eq!(rbb.process_rx(&p), rbb.process_rx(&q));
    }

    /// Filter semantics: a packet is delivered iff its MAC is local, or
    /// multicast is enabled and the MAC has the group bit.
    #[test]
    fn filter_semantics(p in arb_packet(), local in any::<u64>(), multicast in any::<bool>()) {
        let mut rbb = NetworkRbb::with_speed(Vendor::Xilinx, 100, 8);
        let local = local & 0xFFFF_FFFF_FFFF;
        rbb.add_local_mac(local);
        rbb.set_accept_multicast(multicast);
        let delivered = matches!(rbb.process_rx(&p), RxDecision::Deliver { .. });
        let expect = p.dst_mac == local || (multicast && p.is_multicast());
        prop_assert_eq!(delivered, expect);
    }

    /// Host RBB conservation: everything enqueued is either scheduled out
    /// or still buffered; per-queue stats add up.
    #[test]
    fn host_queue_conservation(
        ops in collection::vec((0u16..32, 1u32..2000, any::<bool>()), 1..300),
    ) {
        let mut h = HostRbb::with_link(Vendor::Xilinx, 4, 8);
        for q in 0..32 {
            h.activate(q).unwrap();
        }
        let mut accepted = 0u64;
        let mut scheduled = 0u64;
        for (q, bytes, drain) in ops {
            if h.enqueue(q, bytes).is_ok() {
                accepted += 1;
            }
            if drain && h.schedule().is_some() {
                scheduled += 1;
            }
        }
        let buffered: u64 = (0..32).map(|q| h.queue_depth(q) as u64).sum();
        prop_assert_eq!(accepted, scheduled + buffered);
    }

    /// CDC: the lossless predicate is exactly `S×M ≤ R×U`, and when it
    /// holds a saturated simulation never stalls the writer.
    #[test]
    fn cdc_lossless_predicate(
        wfreq in 50u64..500,
        wbits_log in 3u32..9,
        rfreq in 50u64..500,
        rbits_log in 3u32..9,
    ) {
        let wbits = 8u32 << wbits_log.min(8);
        let rbits = 8u32 << rbits_log.min(8);
        let cdc = ParamCdc::new(Freq::mhz(wfreq), wbits, Freq::mhz(rfreq), rbits, 64);
        let predicted = u128::from(wfreq) * u128::from(wbits) <= u128::from(rfreq) * u128::from(rbits);
        prop_assert_eq!(cdc.is_lossless(), predicted);
        if predicted {
            let r = cdc.simulate(3_000_000);
            prop_assert_eq!(r.writer_stalls, 0, "lossless config stalled");
        }
    }

    /// RDMA delivers every posted byte exactly once for any loss rate
    /// below certainty and any seed.
    #[test]
    fn rdma_delivery_invariant(
        seed in any::<u64>(),
        loss_pct in 0u32..45,
        msgs in collection::vec(1u32..20_000, 1..20),
    ) {
        let mut qp = QueuePair::new(RdmaConfig {
            mtu: 1024,
            window: 16,
            timeout_slots: 8,
        });
        for &m in &msgs {
            qp.post_send(m).unwrap();
        }
        let mut rng = SplitMix64::new(seed);
        qp.run_to_completion(&mut rng, f64::from(loss_pct) / 100.0, 5_000_000)
            .expect("must complete below 100% loss");
        let s = qp.stats();
        prop_assert_eq!(s.messages_delivered, msgs.len() as u64);
        prop_assert_eq!(s.bytes_delivered, msgs.iter().map(|&m| u64::from(m)).sum::<u64>());
    }

    /// FlowKey hashing is stable and spreads: two keys differing in one
    /// field hash differently almost always (checked deterministically for
    /// the port field).
    #[test]
    fn flow_hash_sensitivity(src_ip in any::<u32>(), port in 0u16..u16::MAX) {
        let a = FlowKey { src_ip, dst_ip: 1, src_port: port, dst_port: 80, proto: 6 };
        let b = FlowKey { src_port: port + 1, ..a };
        prop_assert_ne!(a.hash(), b.hash());
    }
}
