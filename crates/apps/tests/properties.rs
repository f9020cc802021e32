//! Property-based tests for the application role logic.

use harmonia_apps::l4lb::{Backend, Layer4Lb};
use harmonia_apps::retrieval::RetrievalEngine;
use harmonia_shell::rbb::network::PacketMeta;
use harmonia_testkit::prelude::*;

forall! {
    /// LB: flows are sticky, and new flows churning through the
    /// connection table never remap an established one.
    #[test]
    fn lb_stickiness_under_churn(
        ports in collection::vec(any::<u16>(), 1..200),
        churn in collection::vec(any::<u16>(), 0..200),
    ) {
        let mut lb = Layer4Lb::new(
            (0..8).map(|id| Backend { id, weight: 1 }).collect(),
            100_000,
        );
        let pkt = |p: u16, dst_port: u16| PacketMeta {
            dst_mac: 0,
            src_ip: 1,
            dst_ip: 2,
            src_port: p,
            dst_port,
            proto: 6,
            bytes: 64,
        };
        let mut first: Vec<(u16, u16)> = Vec::new();
        for &p in &ports {
            if let Some(b) = lb.dispatch(&pkt(p, 80)) {
                first.push((p, b));
            }
        }
        for &p in &churn {
            lb.dispatch(&pkt(p, 443));
        }
        for (p, b) in first {
            prop_assert_eq!(lb.dispatch(&pkt(p, 80)), Some(b), "flow remapped");
        }
    }

    /// Top-K equals the exhaustive reference for arbitrary K and corpus.
    #[test]
    fn topk_matches_reference(seed in any::<u64>(), items in 1u64..400, k in 1usize..64) {
        let e = RetrievalEngine::synthetic(seed, items, 8);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 - 3.5) / 4.0).collect();
        let got = e.top_k(&q, k);
        let mut scores: Vec<f32> = (0..items).map(|i| e.score(&q, i)).collect();
        scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let want = &scores[..k.min(items as usize)];
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            prop_assert!((g.score - w).abs() < 1e-5, "score mismatch {} vs {}", g.score, w);
        }
    }
}
