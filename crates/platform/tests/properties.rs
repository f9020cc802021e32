//! Property-based tests for the platform-specific layer.

use harmonia_platform::adapter::vendor::Version;
use harmonia_platform::WidthConverter;
use harmonia_sim::stream::packet_to_beats;
use harmonia_testkit::prelude::*;

fn arb_width() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(64u32),
        Just(128),
        Just(256),
        Just(512),
        Just(1024),
        Just(2048)
    ]
}

forall! {
    /// The width converter conserves bytes and packet boundaries for any
    /// packet mix and any width pair.
    #[test]
    fn converter_conserves_bytes_and_boundaries(
        inw in arb_width(),
        outw in arb_width(),
        pkts in collection::vec(1u32..4000, 1..20),
    ) {
        let mut conv = WidthConverter::new(inw, outw);
        let mut out = Vec::new();
        for &p in &pkts {
            for beat in packet_to_beats(p, inw) {
                conv.push(beat);
            }
            out.extend(conv.drain());
        }
        // Byte conservation.
        let total: u64 = out.iter().map(|b| u64::from(b.valid_bytes)).sum();
        prop_assert_eq!(total, pkts.iter().map(|&p| u64::from(p)).sum::<u64>());
        // Boundary conservation: exactly one sop and one eop per packet,
        // alternating correctly.
        prop_assert_eq!(out.iter().filter(|b| b.sop).count(), pkts.len());
        prop_assert_eq!(out.iter().filter(|b| b.eop).count(), pkts.len());
        let mut in_packet = false;
        for b in &out {
            if b.sop {
                prop_assert!(!in_packet, "sop inside a packet");
                in_packet = true;
            }
            prop_assert!(in_packet, "beat outside any packet");
            if b.eop {
                in_packet = false;
            }
        }
        prop_assert!(!in_packet, "unterminated packet");
        // Width respected: every beat carries at most the output width and
        // only the final beat of a packet may be partial.
        for w in out.windows(2) {
            if !w[0].eop {
                prop_assert_eq!(u32::from(w[0].valid_bytes), outw / 8);
            }
        }
    }

    /// Per-packet beat counts match the analytic expectation.
    #[test]
    fn converter_beat_count(outw in arb_width(), pkt in 1u32..9000) {
        let mut conv = WidthConverter::new(2048, outw);
        for beat in packet_to_beats(pkt, 2048) {
            conv.push(beat);
        }
        let out = conv.drain();
        prop_assert_eq!(out.len() as u32, pkt.div_ceil(outw / 8));
    }

    /// Version parsing round-trips through Display.
    #[test]
    fn version_round_trip(major in 0u32..3000, minor in 0u32..1000, patch in 0u32..1000) {
        let v = Version::new(major, minor, patch);
        let parsed: Version = v.to_string().parse().unwrap();
        prop_assert_eq!(parsed, v);
    }

    /// Version satisfaction is reflexive and antisymmetric w.r.t. ordering
    /// within a major line.
    #[test]
    fn version_satisfaction_partial_order(
        major in 0u32..50,
        a in (0u32..100, 0u32..100),
        b in (0u32..100, 0u32..100),
    ) {
        let va = Version::new(major, a.0, a.1);
        let vb = Version::new(major, b.0, b.1);
        prop_assert!(va.satisfies(&va));
        if va.satisfies(&vb) && vb.satisfies(&va) {
            prop_assert_eq!(va, vb);
        }
        // Exactly one direction (or equality) must hold within a major.
        prop_assert!(va.satisfies(&vb) || vb.satisfies(&va));
        // Never across majors.
        let other = Version::new(major + 1, a.0, a.1);
        prop_assert!(!other.satisfies(&va) || major + 1 == major);
    }
}
