//! Throughput and latency statistics for simulation runs.

use crate::time::{Picos, PS_PER_SEC};
use std::fmt;

/// Accumulates transferred bytes/items over a time window and reports rates.
///
/// ```
/// use harmonia_sim::Throughput;
/// let mut t = Throughput::new();
/// t.record(1500, 1);
/// t.record(1500, 1);
/// t.close(1_000_000); // 1 µs window
/// assert!((t.gbps() - 24.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Throughput {
    bytes: u64,
    items: u64,
    window_ps: Picos,
}

impl Throughput {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed transfer of `bytes` bytes / `items` items.
    #[inline]
    pub fn record(&mut self, bytes: u64, items: u64) {
        self.bytes += bytes;
        self.items += items;
    }

    /// Sets the measurement window. Must be called before reading rates.
    pub fn close(&mut self, window_ps: Picos) {
        self.window_ps = window_ps;
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Measurement window in picoseconds.
    pub fn window_ps(&self) -> Picos {
        self.window_ps
    }

    /// Gigabits per second over the window.
    ///
    /// # Panics
    ///
    /// Panics if the window was never set ([`close`](Self::close)).
    pub fn gbps(&self) -> f64 {
        assert!(self.window_ps > 0, "throughput window not closed");
        (self.bytes as f64 * 8.0) / (self.window_ps as f64 / PS_PER_SEC as f64) / 1e9
    }

    /// Million items (operations, packets, vectors, …) per second.
    pub(crate) fn mops(&self) -> f64 {
        assert!(self.window_ps > 0, "throughput window not closed");
        self.items as f64 / (self.window_ps as f64 / PS_PER_SEC as f64) / 1e6
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.window_ps == 0 {
            write!(f, "{} B / {} items (window open)", self.bytes, self.items)
        } else {
            write!(f, "{:.3} Gbps, {:.3} Mops", self.gbps(), self.mops())
        }
    }
}

/// Collects latency samples (picoseconds) and reports distribution summary
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<Picos>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample in picoseconds.
    #[inline]
    pub fn record(&mut self, latency_ps: Picos) {
        self.samples.push(latency_ps);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum sample, if any.
    pub fn min(&self) -> Option<Picos> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample, if any.
    pub fn max(&self) -> Option<Picos> {
        self.samples.iter().copied().max()
    }

    /// Mean latency in picoseconds (0 when empty).
    pub fn mean_ps(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.mean_ps() / 1e3
    }

    /// The `p`-th percentile (0.0–100.0), by nearest-rank on sorted samples.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub(crate) fn percentile(&mut self, p: f64) -> Option<Picos> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        // Nearest-rank method: rank = ⌈p/100 · n⌉, clamped to [1, n].
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// Median latency.
    pub fn p50(&mut self) -> Option<Picos> {
        self.percentile(50.0)
    }

    /// 99th-percentile latency.
    pub fn p99(&mut self) -> Option<Picos> {
        self.percentile(99.0)
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency mean={:.1} ns (n={})",
            self.mean_ns(),
            self.samples.len()
        )
    }
}

impl Extend<Picos> for LatencyStats {
    fn extend<I: IntoIterator<Item = Picos>>(&mut self, iter: I) {
        for s in iter {
            self.record(s);
        }
    }
}

impl FromIterator<Picos> for LatencyStats {
    fn from_iter<I: IntoIterator<Item = Picos>>(iter: I) -> Self {
        let mut l = LatencyStats::new();
        l.extend(iter);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_line_rate_example() {
        // 100 Gbps worth of 64 B packets over 1 µs, counting wire overhead
        // separately (caller's concern).
        let mut t = Throughput::new();
        let pkts = 148_809_523u64 / 1_000_000; // per µs at 100G line rate
        for _ in 0..pkts {
            t.record(64, 1);
        }
        t.close(1_000_000);
        assert!(t.gbps() > 75.0 && t.gbps() < 76.0);
    }

    #[test]
    #[should_panic(expected = "window not closed")]
    fn rate_requires_closed_window() {
        let t = Throughput::new();
        let _ = t.gbps();
    }

    #[test]
    fn ops_and_mops_consistent() {
        let mut t = Throughput::new();
        t.record(0, 5_000_000);
        t.close(PS_PER_SEC);
        assert!((t.mops() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles() {
        let mut l: LatencyStats = (1..=100u64).map(|v| v * 10).collect();
        assert_eq!(l.p50(), Some(500));
        assert_eq!(l.p99(), Some(990));
        assert_eq!(l.percentile(0.0), Some(10));
        assert_eq!(l.percentile(100.0), Some(1000));
    }

    #[test]
    fn latency_empty_behaviour() {
        let mut l = LatencyStats::new();
        assert!(l.is_empty());
        assert_eq!(l.p50(), None);
        assert_eq!(l.mean_ps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        let mut l = LatencyStats::new();
        l.record(1);
        let _ = l.percentile(101.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Throughput::new().to_string().is_empty());
        assert!(!LatencyStats::new().to_string().is_empty());
    }

    #[test]
    fn latency_stats_summarize_their_samples() {
        let mut l = LatencyStats::new();
        for v in [100, 200, 300] {
            l.record(v);
        }
        assert_eq!(l.min(), Some(100));
        assert_eq!(l.max(), Some(300));
        assert!((l.mean_ns() - 0.2).abs() < 1e-9);
    }
}
