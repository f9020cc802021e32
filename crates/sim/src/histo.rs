//! Log-bucketed latency histograms: bounded-memory percentile tracking
//! for the observability plane.
//!
//! [`crate::stats::LatencyStats`] keeps every sample — exact percentiles,
//! unbounded memory. [`LogHistogram`] is its streaming complement: 65
//! power-of-two buckets, O(1) record, mergeable across workers, with
//! nearest-rank p50/p99/max read off bucket upper bounds. Bucket `b`
//! covers `[2^(b-1), 2^b - 1]` (bucket 0 is exactly `{0}`), so relative
//! error is bounded by 2× — plenty for "where did the tail go" questions,
//! while `max` stays exact.
//!
//! ```
//! use harmonia_sim::histo::LogHistogram;
//!
//! let mut h = LogHistogram::new();
//! for v in [100u64, 200, 300, 400, 50_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.max(), 50_000);          // exact
//! assert!(h.p50() >= 200 && h.p50() < 512); // bucketed upper bound
//! assert!(h.p99() >= 50_000);
//! ```

use std::fmt;

/// Number of buckets: one for zero plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A fixed-size log2-bucketed histogram of `u64` samples (latencies in
/// picoseconds, sizes in bytes — any non-negative magnitude).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (v.ilog2() + 1) as usize
        }
    }

    /// Upper bound of bucket `b` (inclusive).
    fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one sample. O(1), no allocation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` samples of value `v` in O(1) — the bulk entry point
    /// for aggregate models, and what a zero-step
    /// [`record_progression`](Self::record_progression) records.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records the progression `offset + p × step` for every position `p`
    /// in `lo..=hi`, `copies` times over, in O(buckets) — the fleet
    /// control plane records each per-tick command cohort this way (the
    /// command at queue position `p` waits `p` service times more than
    /// the head of the queue), once for every replica that served an
    /// identical cohort that tick.
    ///
    /// The positions falling in one bucket form a chunk; the bucket
    /// gets the chunk's length, and `sum` gets the chunk's first value
    /// once plus its last value for each further position. So `min` and
    /// `max` stay exact, and `sum` (hence `mean` and the Prometheus
    /// `_sum`) counts each chunk at its boundary values. One call with
    /// `copies = m` leaves exactly what `m` calls with `copies = 1` leave.
    ///
    /// `lo > hi` or `copies == 0` records nothing. `step == 0` records
    /// `copies × (hi − lo + 1)` samples of `offset`. `offset + hi × step`
    /// and the sample count `copies × (hi − lo + 1)` must each fit in a
    /// `u64` (checked in debug builds).
    pub fn record_progression(&mut self, offset: u64, step: u64, lo: u64, hi: u64, copies: u64) {
        if lo > hi || copies == 0 {
            return;
        }
        debug_assert!(
            (hi - lo)
                .checked_add(1)
                .and_then(|n| n.checked_mul(copies))
                .is_some(),
            "sample count overflows a u64"
        );
        if step == 0 {
            self.record_n(offset, (hi - lo + 1) * copies);
            return;
        }
        debug_assert!(
            hi.checked_mul(step)
                .and_then(|x| x.checked_add(offset))
                .is_some(),
            "offset + hi × step overflows a u64"
        );
        let first = offset + lo * step;
        let last = offset + hi * step;
        let recip = u64::MAX / step;
        // Sum of the chunk of positions `s..=e`, at its boundary values.
        let chunk_sum = |s: u64, e: u64| {
            (offset + s * step) as u128 + (offset + e * step) as u128 * (e - s) as u128
        };
        let mut sum = 0u128;
        // First position of the next chunk; no bucket's end depends on it.
        let mut start = lo;
        let last_bucket = Self::bucket_of(last);
        for b in Self::bucket_of(first)..last_bucket {
            // Last position whose value is at most the bucket's upper
            // bound: below `hi`, since the bound is below `last`, and
            // `upper ≥ first ≥ offset`, so the subtraction cannot wrap.
            let end = div_floor(Self::bucket_upper(b) - offset, step, recip);
            if end < start {
                continue; // step is wider than this bucket: no position lands here
            }
            self.buckets[b] += (end - start + 1) * copies;
            sum += chunk_sum(start, end);
            start = end + 1;
        }
        // The last bucket takes every remaining position.
        self.buckets[last_bucket] += (hi - start + 1) * copies;
        sum += chunk_sum(start, hi);
        self.count += (hi - lo + 1) * copies;
        // At most `copies × (hi − lo + 1)` samples of at most `u64::MAX`
        // each, so the product stays below 2^128.
        self.sum += sum * u128::from(copies);
        self.min = self.min.min(first);
        self.max = self.max.max(last);
    }

    /// Folds another histogram into this one (workers merge into a fleet
    /// view). Merge order does not affect any reported statistic.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all samples (`u128`: 2^64 samples of `u64::MAX`
    /// cannot overflow it), except that [`Self::record_progression`]
    /// adds each chunk at its boundary values. The Prometheus summary
    /// `_sum` line.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all samples, rounded down (0 when empty).
    pub(crate) fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Nearest-rank percentile (`0 < p <= 100`), reported as the upper
    /// bound of the bucket holding that rank — except the last occupied
    /// bucket, where the exact `max` is returned. Same nearest-rank
    /// convention as [`crate::stats::LatencyStats`].
    pub(crate) fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Ranks landing in the top occupied bucket report the
                // exact max rather than a (possibly 2×) upper bound.
                return Self::bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Multi-line ASCII rendering of the occupied buckets, with `#` bars
    /// scaled to the fullest bucket — `harmonia trace --text` and the
    /// `trace_capture` example print this.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return String::from("(empty histogram)\n");
        }
        let widest = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let lo = self.buckets.iter().position(|&n| n > 0).unwrap_or(0);
        let hi = self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        let mut out = String::new();
        for b in lo..=hi {
            let n = self.buckets[b];
            let bar = (n * 40 / widest) as usize;
            out.push_str(&format!(
                "{:>20} | {:<40} {}\n",
                format!("<= {}", Self::bucket_upper(b)),
                "#".repeat(bar.max(usize::from(n > 0))),
                n
            ));
        }
        out
    }
}

/// `x / d` for `d > 0`, given `recip = u64::MAX / d`, with no division.
///
/// `r = ⌊(2^64 − 1) / d⌋` leaves `2^64 − r·d ∈ [1, d]`, so `x·r / 2^64`
/// falls short of `x / d` by at most `x / 2^64 < 1`. The high word of
/// `x·r` is therefore the quotient or one less, and one comparison of
/// the remainder against `d` adds the missing 1.
fn div_floor(x: u64, d: u64, recip: u64) -> u64 {
    let q = ((x as u128 * recip as u128) >> 64) as u64;
    q + u64::from(x - q * d >= d)
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histo[n={} min={} mean={} p50={} p99={} max={}]",
            self.count(),
            self.min(),
            self.mean(),
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_testkit::prelude::*;

    /// Reference progression recorder: one division per chunk, each
    /// chunk starting where the last one ended. `step` must be non-zero.
    fn chunk_loop(hist: &mut LogHistogram, offset: u64, step: u64, lo: u64, hi: u64) {
        let mut p = lo;
        while p <= hi {
            let lat = offset + p * step;
            let upper = LogHistogram::bucket_upper(LogHistogram::bucket_of(lat));
            let p_max = if upper >= offset {
                ((upper - offset) / step).min(hi)
            } else {
                p
            };
            let p_max = p_max.max(p);
            hist.record(lat);
            if p_max > p {
                hist.record_n(offset + p_max * step, p_max - p);
            }
            if p_max == hi {
                break; // `p_max + 1` would overflow at `hi == u64::MAX`
            }
            p = p_max + 1;
        }
    }

    /// A value of any magnitude: a full-width draw shifted right by 0–63.
    fn magnitude() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(x, shift)| x >> shift)
    }

    forall! {
        /// `record_progression` leaves exactly the histogram the chunk
        /// loop leaves — every bucket, `count`, `sum`, `min` and `max` —
        /// on top of random history, for `offset` 0, `step` 1, single
        /// positions, empty ranges, ranges that reach bucket 64, and
        /// ranges from position 0 whose step is wider than the buckets
        /// just above the offset, which leaves those buckets empty.
        #[test]
        fn record_progression_matches_the_chunk_loop(
            history in collection::vec(magnitude(), 0..6),
            offset in prop_oneof![Just(0u64), magnitude()],
            step in prop_oneof![Just(0u64), Just(1u64), magnitude()],
            a in prop_oneof![Just(0u64), magnitude()],
            b in magnitude(),
            shape in 0u8..5,
        ) {
            // Largest `hi` with `offset + hi × step` in range, leaving
            // room in `count` for the history.
            let fit = (u64::MAX - offset).checked_div(step).unwrap_or(u64::MAX);
            let top = fit.min(u64::MAX - 8);
            let (lo, hi) = match shape {
                0 => (a.min(top), a.min(top)),                // one position
                1 => (b.min(top).saturating_add(1 + a % 4), b.min(top)), // lo > hi
                2 => (a.min(top), a.min(top).saturating_add(b % 64).min(top)),
                3 => (a.min(b).min(top), top),                // up to the fit limit
                _ => (a.min(b).min(top), a.max(b).min(top)),
            };
            let mut want = LogHistogram::new();
            for &v in &history {
                want.record(v);
            }
            let mut got = want.clone();
            got.record_progression(offset, step, lo, hi, 1);
            if step == 0 {
                if lo <= hi {
                    want.record_n(offset, hi - lo + 1);
                }
            } else {
                chunk_loop(&mut want, offset, step, lo, hi);
            }
            prop_assert_eq!(got, want, "offset {} step {} positions {}..={}", offset, step, lo, hi);
        }

        /// One call with `copies = m` leaves exactly what `m` calls with
        /// `copies = 1` leave — every bucket, `count`, `sum`, `min` and
        /// `max` — on top of random history, for `copies = 0` too, which
        /// leaves the history untouched even for a value below its `min`
        /// or above its `max`.
        #[test]
        fn record_progression_copies_match_repeated_calls(
            history in collection::vec(magnitude(), 0..6),
            offset in prop_oneof![Just(0u64), magnitude()],
            step in prop_oneof![Just(0u64), Just(1u64), magnitude()],
            lo in prop_oneof![Just(0u64), magnitude()],
            len in prop_oneof![Just(0u64), 1u64..64, magnitude()],
            copies in 0u64..8,
        ) {
            // Largest `hi` with `offset + hi × step` in range, and at most
            // `u64::MAX / 8` positions, so that every copy fits in `count`
            // beside the history.
            let fit = (u64::MAX - offset).checked_div(step).unwrap_or(u64::MAX);
            let lo = lo.min(fit);
            let hi = lo.saturating_add(len.min(u64::MAX / 8 - 1)).min(fit);
            let mut want = LogHistogram::new();
            for &v in &history {
                want.record(v);
            }
            let mut got = want.clone();
            got.record_progression(offset, step, lo, hi, copies);
            for _ in 0..copies {
                want.record_progression(offset, step, lo, hi, 1);
            }
            prop_assert_eq!(
                got, want,
                "offset {} step {} positions {}..={} copies {}", offset, step, lo, hi, copies
            );
        }

        /// The reciprocal division is `x / d` for every `x` and every
        /// non-zero `d`, at exact multiples of `d` and one below them.
        #[test]
        fn div_floor_matches_division(
            raw in any::<u64>(),
            d in prop_oneof![
                Just(1u64),
                Just(u64::MAX),
                (0u32..64).prop_map(|k| 1u64 << k),
                magnitude().prop_map(|d| d.max(1)),
            ],
            form in 0u8..4,
        ) {
            let x = match form {
                0 => raw,
                1 => raw / d * d,
                2 => (raw / d * d).saturating_sub(1),
                _ => u64::MAX,
            };
            prop_assert_eq!(div_floor(x, d, u64::MAX / d), x / d, "x {} d {}", x, d);
        }
    }

    #[test]
    fn progression_matches_per_command_records() {
        let mut bulk = LogHistogram::new();
        let mut looped = LogHistogram::new();
        let (offset, step) = (1_000u64, 700u64);
        bulk.record_progression(offset, step, 1, 500, 1);
        for p in 1..=500u64 {
            looped.record(offset + p * step);
        }
        assert_eq!(bulk.buckets, looped.buckets);
        assert_eq!(bulk.count(), looped.count());
        assert_eq!(bulk.p50(), looped.p50());
        assert_eq!(bulk.p99(), looped.p99());
        assert_eq!(bulk.min(), looped.min());
        assert_eq!(bulk.max(), looped.max());
    }

    #[test]
    fn progression_handles_single_position_and_zero_offset() {
        let mut h = LogHistogram::new();
        h.record_progression(0, 3, 7, 7, 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 21);
        assert_eq!(h.sum(), 21);
    }

    #[test]
    fn progression_degenerate_inputs() {
        let mut h = LogHistogram::new();
        h.record_progression(5, 3, 9, 8, 1); // lo > hi: nothing
        assert_eq!(h, LogHistogram::new());
        h.record_progression(40, 0, 2, 11, 1); // step 0: ten samples of the offset
        let mut want = LogHistogram::new();
        want.record_n(40, 10);
        assert_eq!(h, want);
    }

    #[test]
    fn empty_reports_zeros() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert!(h.render().contains("empty"));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_upper(0), 0);
        assert_eq!(LogHistogram::bucket_upper(1), 1);
        assert_eq!(LogHistogram::bucket_upper(2), 3);
        assert_eq!(LogHistogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = LogHistogram::new();
        h.record(777);
        assert_eq!(h.p50(), 777, "top occupied bucket reports exact max");
        assert_eq!(h.p99(), 777);
        assert_eq!(h.min(), 777);
        assert_eq!(h.mean(), 777);
    }

    #[test]
    fn percentiles_track_distribution_shape() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, upper bound 127
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 127);
        assert_eq!(h.percentile(99.0), 127);
        assert_eq!(h.percentile(100.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [5u64, 10, 20] {
            a.record(v);
        }
        for v in [40u64, 80, 160_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.min(), 5);
        assert_eq!(ab.max(), 160_000);
    }

    #[test]
    fn record_n_matches_looped_records() {
        let mut bulk = LogHistogram::new();
        let mut looped = LogHistogram::new();
        for (v, n) in [(0u64, 3u64), (100, 7), (65_536, 2)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                looped.record(v);
            }
        }
        assert_eq!(bulk, looped);
        assert_eq!(bulk.count(), 12);
        // Zero-count is a no-op even for a fresh value.
        let before = bulk.clone();
        bulk.record_n(u64::MAX, 0);
        assert_eq!(bulk, before);
    }

    #[test]
    fn empty_percentiles_are_zero_at_every_rank() {
        let h = LogHistogram::new();
        for p in [0.001, 1.0, 50.0, 99.0, 99.99, 100.0] {
            assert_eq!(h.percentile(p), 0);
        }
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(123_456);
        for p in [0.001, 1.0, 50.0, 99.0, 99.99, 100.0] {
            assert_eq!(h.percentile(p), 123_456);
        }
        assert_eq!(h.sum(), 123_456);
        assert_eq!(h.max(), 123_456);
    }

    #[test]
    fn merge_is_associative() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for v in [0u64, 7, 13] {
            a.record(v);
        }
        for v in [1_000u64, 2_000] {
            b.record(v);
        }
        for v in [5u64, 900_000, u64::MAX] {
            c.record(v);
        }
        // merge(a, merge(b, c))
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // merge(merge(a, b), c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        assert_eq!(a_bc, ab_c);
        assert_eq!(a_bc.count(), 8);
        assert_eq!(a_bc.sum(), a.sum() + b.sum() + c.sum());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let before = h.clone();
        h.merge(&LogHistogram::new());
        assert_eq!(h, before);
        let mut empty = LogHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn zero_samples_live_in_bucket_zero() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 1);
    }

    #[test]
    fn render_shows_occupied_buckets_only() {
        let mut h = LogHistogram::new();
        h.record(100);
        h.record(100_000);
        let r = h.render();
        assert_eq!(
            r.lines().count(),
            LogHistogram::bucket_of(100_000) - LogHistogram::bucket_of(100) + 1
        );
        assert!(r.contains('#'));
    }

    #[test]
    fn display_one_liner() {
        let mut h = LogHistogram::new();
        h.record(1_000);
        let s = h.to_string();
        assert!(s.starts_with("histo[n=1"), "{s}");
        assert!(s.contains("max=1000"), "{s}");
    }

    #[test]
    fn zero_step_progression_equals_repeated_records() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_progression(500, 0, 0, 999, 1);
        for _ in 0..1_000 {
            b.record(500);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn record_progression_counts_every_copy() {
        let mut h = LogHistogram::new();
        h.record_progression(1_000, 700, 1, 500, 2);
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.min(), 1_700);
        assert_eq!(h.max(), 351_000);
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_max() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000);
    }
}
