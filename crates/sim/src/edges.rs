//! Deterministic interleaving of rising edges from multiple clock domains.
//!
//! Dual-clock models (the parameterized CDC, wrapper datapaths spanning the
//! vendor-IP clock and the user clock) need their per-domain `on_*_edge`
//! callbacks invoked in global time order. [`MultiClock`] merges any number
//! of clock domains into a single ordered edge stream.

use crate::time::{ClockDomain, Picos};

/// One rising edge of one registered clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClockEdge {
    /// Index of the clock (registration order in [`MultiClock`]).
    pub clock: usize,
    /// The edge's cycle number within its own domain (0-based).
    pub cycle: u64,
    /// Global simulation time of the edge.
    pub at_ps: Picos,
}

#[derive(Debug, Clone)]
struct EdgeState {
    period_ps: Picos,
    next_ps: Picos,
    cycle: u64,
}

/// Merges rising edges of several clock domains in time order.
///
/// Ties are broken by registration order, which makes simulations fully
/// deterministic. Edge 0 of every clock occurs at time 0 plus the clock's
/// phase offset.
///
/// ```
/// use harmonia_sim::{ClockDomain, Freq, MultiClock};
/// let mut mc = MultiClock::new();
/// let fast = mc.add(ClockDomain::new(Freq::mhz(200))); // 5 ns
/// let slow = mc.add(ClockDomain::new(Freq::mhz(100))); // 10 ns
/// let edges: Vec<_> = mc.edges_until(10_000).collect();
/// // t=0: both; t=5000: fast; t=10000: excluded (half-open window)
/// assert_eq!(edges.len(), 3);
/// assert_eq!(edges[0].clock, fast);
/// assert_eq!(edges[1].clock, slow);
/// assert_eq!(edges[2].at_ps, 5_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiClock {
    clocks: Vec<EdgeState>,
}

impl MultiClock {
    /// Creates an empty clock set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a clock starting at time 0; returns its index.
    pub fn add(&mut self, domain: ClockDomain) -> usize {
        self.add_with_phase(domain, 0)
    }

    /// Registers a clock whose first edge occurs at `phase_ps`.
    ///
    /// A non-zero phase models the arbitrary alignment between truly
    /// asynchronous clocks.
    pub fn add_with_phase(&mut self, domain: ClockDomain, phase_ps: Picos) -> usize {
        self.clocks.push(EdgeState {
            period_ps: domain.period_ps(),
            next_ps: phase_ps,
            cycle: 0,
        });
        self.clocks.len() - 1
    }

    /// Number of registered clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether no clocks are registered.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Returns the next edge at or after the current position, advancing the
    /// corresponding clock. Returns `None` when no clocks are registered.
    #[cfg(test)]
    fn next_edge(&mut self) -> Option<ClockEdge> {
        let idx = self.next_clock()?;
        Some(self.advance(idx))
    }

    /// The clock whose edge comes next: the earliest, ties to the first
    /// registered.
    #[inline]
    fn next_clock(&self) -> Option<usize> {
        self.clocks
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.next_ps)
            .map(|(i, _)| i)
    }

    /// Emits clock `idx`'s pending edge and moves it one period on.
    #[inline]
    fn advance(&mut self, idx: usize) -> ClockEdge {
        let state = &mut self.clocks[idx];
        let edge = ClockEdge {
            clock: idx,
            cycle: state.cycle,
            at_ps: state.next_ps,
        };
        state.cycle += 1;
        state.next_ps += state.period_ps;
        edge
    }

    /// Iterates edges in the **half-open** window `[current, until_ps)`.
    ///
    /// An edge falling *exactly* at `until_ps` is excluded and remains
    /// pending: a subsequent call picks it up as its first edge, so
    /// consecutive windows `[0, w)`, `[w, 2w)`, … visit every edge exactly
    /// once with no duplicates at the seams.
    pub fn edges_until(&mut self, until_ps: Picos) -> EdgesUntil<'_> {
        EdgesUntil { mc: self, until_ps }
    }
}

/// Iterator returned by [`MultiClock::edges_until`].
#[derive(Debug)]
pub struct EdgesUntil<'a> {
    mc: &'a mut MultiClock,
    until_ps: Picos,
}

impl Iterator for EdgesUntil<'_> {
    type Item = ClockEdge;

    #[inline]
    fn next(&mut self) -> Option<ClockEdge> {
        let idx = self.mc.next_clock()?;
        if self.mc.clocks[idx].next_ps >= self.until_ps {
            return None;
        }
        Some(self.mc.advance(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Freq;

    #[test]
    fn edges_come_in_time_order() {
        let mut mc = MultiClock::new();
        mc.add(ClockDomain::new(Freq::mhz(322)));
        mc.add(ClockDomain::new(Freq::mhz(250)));
        mc.add(ClockDomain::new(Freq::mhz(100)));
        let mut last = 0;
        for e in mc.edges_until(1_000_000) {
            assert!(e.at_ps >= last);
            last = e.at_ps;
        }
    }

    #[test]
    fn tie_break_by_registration_order() {
        let mut mc = MultiClock::new();
        let a = mc.add(ClockDomain::new(Freq::mhz(100)));
        let b = mc.add(ClockDomain::new(Freq::mhz(100)));
        let edges: Vec<_> = mc.edges_until(10_001).collect();
        assert_eq!(edges[0].clock, a);
        assert_eq!(edges[1].clock, b);
        assert_eq!(edges[2].clock, a);
        assert_eq!(edges[3].clock, b);
    }

    #[test]
    fn edge_counts_match_frequency_ratio() {
        let mut mc = MultiClock::new();
        let fast = mc.add(ClockDomain::new(Freq::mhz(400)));
        let slow = mc.add(ClockDomain::new(Freq::mhz(100)));
        let mut counts = [0u64; 2];
        for e in mc.edges_until(1_000_000_000) {
            counts[e.clock] += 1;
        }
        assert_eq!(counts[fast], 4 * counts[slow]);
    }

    #[test]
    fn phase_offset_shifts_first_edge() {
        let mut mc = MultiClock::new();
        mc.add_with_phase(ClockDomain::new(Freq::mhz(100)), 3_000);
        let e = mc.next_edge().unwrap();
        assert_eq!(e.at_ps, 3_000);
        assert_eq!(e.cycle, 0);
        let e = mc.next_edge().unwrap();
        assert_eq!(e.at_ps, 13_000);
    }

    #[test]
    fn edge_at_window_boundary_is_excluded_then_opens_next_window() {
        let mut mc = MultiClock::new();
        mc.add(ClockDomain::new(Freq::mhz(100))); // period 10_000 ps
                                                  // Half-open window: the edge at exactly 20_000 must not appear.
        let first: Vec<_> = mc.edges_until(20_000).map(|e| e.at_ps).collect();
        assert_eq!(first, vec![0, 10_000]);
        // The boundary edge is still pending and leads the next window,
        // so stitched windows neither drop nor duplicate it.
        let second: Vec<_> = mc.edges_until(40_000).map(|e| e.at_ps).collect();
        assert_eq!(second, vec![20_000, 30_000]);
    }

    #[test]
    fn empty_multiclock_yields_nothing() {
        let mut mc = MultiClock::new();
        assert!(mc.next_edge().is_none());
        assert_eq!(mc.edges_until(1_000).count(), 0);
    }

    #[test]
    fn cycle_numbers_are_per_clock() {
        let mut mc = MultiClock::new();
        mc.add(ClockDomain::new(Freq::mhz(200)));
        mc.add(ClockDomain::new(Freq::mhz(100)));
        let mut cycles = [Vec::new(), Vec::new()];
        for e in mc.edges_until(30_000) {
            cycles[e.clock].push(e.cycle);
        }
        assert_eq!(cycles[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(cycles[1], vec![0, 1, 2]);
    }

    #[test]
    fn edges_until_leaves_its_bound_to_the_next_window() {
        let mut mc = MultiClock::new();
        mc.add(ClockDomain::new(Freq::mhz(100))); // edges at 0, 10_000, 20_000, …
                                                  // The edge at exactly until_ps = 10_000 is NOT included…
        let first: Vec<_> = mc.edges_until(10_000).map(|e| e.at_ps).collect();
        assert_eq!(first, vec![0]);
        // …it opens the next window instead.
        let second: Vec<_> = mc.edges_until(20_000).map(|e| e.at_ps).collect();
        assert_eq!(second, vec![10_000]);
    }
}
