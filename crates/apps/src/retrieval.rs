//! Retrieval: embedding-based candidate retrieval (FAERY-style).
//!
//! "Chooses relevant candidates from a large corpus for recommendation
//! systems; FPGAs accelerate the similarity calculation and top-K
//! selection" (§5.1). Look-aside architecture: queries arrive over PCIe,
//! the corpus streams from HBM, scores are dot products and a streaming
//! top-K heap keeps the winners.

use crate::common::{App, AppPerf};
use harmonia_hw::ip::HbmIp;
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::{Freq, SplitMix64};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored candidate.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Corpus index.
    pub index: u64,
    /// Similarity score (dot product).
    pub score: f32,
}

// Min-heap ordering by score (we evict the smallest of the current top-K).
impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The retrieval engine.
#[derive(Clone, Debug)]
pub struct RetrievalEngine {
    dim: usize,
    corpus: Vec<f32>,
    items: u64,
}

impl RetrievalEngine {
    /// Builds a synthetic corpus of `items` embeddings of `dim` floats,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `items` or `dim` is zero.
    pub fn synthetic(seed: u64, items: u64, dim: usize) -> Self {
        assert!(items > 0 && dim > 0, "degenerate corpus");
        let mut rng = SplitMix64::new(seed);
        let corpus = (0..items as usize * dim)
            .map(|_| (rng.next_f64() as f32) * 2.0 - 1.0)
            .collect();
        RetrievalEngine { dim, corpus, items }
    }

    /// Corpus size in items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Dot-product score of `query` against item `index`.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension mismatches or the index is out of
    /// range.
    pub fn score(&self, query: &[f32], index: u64) -> f32 {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert!(index < self.items, "index out of range");
        let base = index as usize * self.dim;
        self.corpus[base..base + self.dim]
            .iter()
            .zip(query)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Streaming top-K: one pass over the corpus with a size-K min-heap,
    /// exactly the hardware structure. Results are sorted by descending
    /// score.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<Candidate> {
        assert!(k > 0, "top-0 is meaningless");
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
        for index in 0..self.items {
            let c = Candidate {
                index,
                score: self.score(query, index),
            };
            if heap.len() < k {
                heap.push(c);
            } else if let Some(worst) = heap.peek() {
                if c.score > worst.score {
                    heap.pop();
                    heap.push(c);
                }
            }
        }
        let mut out = heap.into_vec();
        out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
        out
    }

    /// Capacity-model constructor: tracks corpus geometry for performance
    /// modelling without materializing embeddings (used for the Figure 17d
    /// sweep up to 10⁹ items, where a real corpus would not fit in host
    /// memory either — production shards it across accelerators).
    ///
    /// # Panics
    ///
    /// Panics if `items` or `dim` is zero. Scoring methods panic if called
    /// on a capacity model.
    pub fn capacity_only(items: u64, dim: usize) -> Self {
        assert!(items > 0 && dim > 0, "degenerate corpus");
        RetrievalEngine {
            dim,
            corpus: Vec::new(),
            items,
        }
    }

    /// Items one FPGA shard holds; larger corpora scale out horizontally.
    pub(crate) const SHARD_ITEMS: u64 = 1_000_000;

    /// Per-query performance with corpus sharding: each FPGA scans at most
    /// `SHARD_ITEMS`; beyond that QPS and latency
    /// plateau (the fleet grows instead).
    pub fn sharded_perf(&self, parallel_lanes: u32, clock: Freq, with_harmonia: bool) -> AppPerf {
        let shard = RetrievalEngine::capacity_only(self.items.min(Self::SHARD_ITEMS), self.dim);
        shard.perf(parallel_lanes, clock, with_harmonia)
    }

    /// Queries per second on the FPGA: the corpus streams from HBM once per
    /// query (bandwidth-bound) unless the scoring pipeline is the limit.
    pub(crate) fn qps(&self, parallel_lanes: u32, clock: Freq) -> f64 {
        let corpus_bytes = self.items as f64 * self.dim as f64 * 4.0;
        let hbm = HbmIp::new(harmonia_hw::Vendor::Xilinx);
        let mem_qps = hbm.aggregate_peak_gbs() * 1e9 / corpus_bytes;
        // Scoring: `parallel_lanes` MACs per cycle across the corpus.
        let macs = self.items as f64 * self.dim as f64;
        let compute_qps = f64::from(parallel_lanes) * clock.hz() as f64 / macs;
        mem_qps.min(compute_qps)
    }

    /// One Figure 17d sweep point: QPS plus per-query latency.
    pub(crate) fn perf(&self, parallel_lanes: u32, clock: Freq, with_harmonia: bool) -> AppPerf {
        let qps = self.qps(parallel_lanes, clock);
        let scan_ps = (1e12 / qps) as u64;
        // PCIe query/response hop plus the scan; Harmonia adds wrapper
        // nanoseconds.
        let base = 800_000 + scan_ps;
        let latency_ps = if with_harmonia { base + 25_000 } else { base };
        AppPerf {
            throughput: qps,
            latency_ps,
        }
    }
}

impl App for RetrievalEngine {
    fn name(&self) -> &'static str {
        "Retrieval"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("retrieval")
            .network_gbps(100)
            .network_ports(1) // service port for corpus updates
            .memory(MemoryDemand::Hbm)
            .queues(256)
            .user_domain(Freq::mhz(450), 256)
            .build()
    }

    fn role_loc(&self) -> u64 {
        // Figure 3a: the shell is 79 % of the Retrieval project.
        9_800
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> RetrievalEngine {
        RetrievalEngine::synthetic(42, 2_000, 16)
    }

    fn query(dim: usize) -> Vec<f32> {
        (0..dim).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn top_k_matches_exhaustive_sort() {
        let e = engine();
        let q = query(16);
        let got = e.top_k(&q, 10);
        let mut all: Vec<Candidate> = (0..e.items())
            .map(|i| Candidate {
                index: i,
                score: e.score(&q, i),
            })
            .collect();
        all.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        let want: Vec<u64> = all[..10].iter().map(|c| c.index).collect();
        let got_idx: Vec<u64> = got.iter().map(|c| c.index).collect();
        assert_eq!(got_idx, want);
    }

    #[test]
    fn top_k_scores_descending() {
        let e = engine();
        let got = e.top_k(&query(16), 25);
        assert_eq!(got.len(), 25);
        for w in got.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn k_larger_than_corpus_returns_everything() {
        let e = RetrievalEngine::synthetic(1, 5, 4);
        assert_eq!(e.top_k(&query(4), 100).len(), 5);
    }

    #[test]
    fn score_is_dot_product() {
        let e = RetrievalEngine::synthetic(7, 3, 2);
        let q = [2.0f32, -1.0];
        let manual = e.corpus[2] * 2.0 - e.corpus[3];
        assert!((e.score(&q, 1) - manual).abs() < 1e-6);
    }

    #[test]
    fn qps_drops_with_corpus_size() {
        let small = RetrievalEngine::synthetic(1, 1_000, 64);
        let big = RetrievalEngine::synthetic(1, 100_000, 64);
        let clk = Freq::mhz(450);
        assert!(small.qps(512, clk) > big.qps(512, clk));
    }

    #[test]
    fn qps_is_memory_bound_for_large_corpora() {
        // 10^7 × 256 B = 2.56 GB per scan; HBM at 460 GB/s → ~180 QPS, no
        // matter how many lanes.
        let e = RetrievalEngine {
            dim: 64,
            corpus: Vec::new(),
            items: 10_000_000,
        };
        let q1 = e.qps(512, Freq::mhz(450));
        let q2 = e.qps(4096, Freq::mhz(450));
        assert!((q1 - q2).abs() / q1 < 1e-9, "lanes should not matter");
        assert!((150.0..220.0).contains(&q1), "qps {q1:.0}");
    }

    #[test]
    fn harmonia_latency_delta_negligible() {
        let e = engine();
        let with = e.perf(512, Freq::mhz(450), true);
        let without = e.perf(512, Freq::mhz(450), false);
        assert_eq!(with.throughput, without.throughput);
        let delta = (with.latency_ps - without.latency_ps) as f64;
        assert!(delta / without.latency_ps as f64 <= 0.03);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn query_shape_checked() {
        let e = engine();
        let _ = e.score(&[1.0; 8], 0);
    }

    #[test]
    #[should_panic(expected = "top-0")]
    fn zero_k_rejected() {
        let e = engine();
        let _ = e.top_k(&query(16), 0);
    }
}
