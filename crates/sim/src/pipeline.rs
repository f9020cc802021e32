//! Fixed-latency, fully pipelined processing stages.
//!
//! The paper's interface wrapper uses "fully pipelined sequential
//! translation logic" that "operates without generating bubbles in the
//! processing and consumes a few fixed clock cycles" (§3.2). [`Pipeline`]
//! models exactly that contract: one item may enter per cycle, every item
//! emerges exactly `latency` cycles later, and throughput is never reduced.

use std::collections::VecDeque;
use std::fmt;

/// A rejected [`Pipeline::push`]: the item comes back with the cycle
/// context needed to diagnose the collision without a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T> {
    /// The item the pipeline refused.
    pub item: T,
    /// The cycle the rejected push targeted.
    pub cycle: u64,
    /// The cycle of the most recent accepted push (pushes must be
    /// strictly later than this).
    pub last_push_cycle: u64,
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_item(self) -> T {
        self.item
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline rejected push at cycle {} (last accepted push at cycle {}; \
             a pipeline accepts at most one beat per cycle, strictly in time order)",
            self.cycle, self.last_push_cycle
        )
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// A fully pipelined stage with fixed latency in cycles.
///
/// ```
/// use harmonia_sim::Pipeline;
/// let mut p = Pipeline::new(3);
/// p.push(0, "beat").unwrap();
/// assert_eq!(p.pop(2), None);
/// assert_eq!(p.pop(3), Some("beat"));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<T> {
    latency: u64,
    in_flight: VecDeque<(u64, T)>,
    last_push_cycle: Option<u64>,
    total: u64,
}

impl<T> Pipeline<T> {
    /// Creates a pipeline with the given latency in cycles.
    ///
    /// Zero latency is permitted and models a combinational pass-through.
    pub fn new(latency: u64) -> Self {
        Pipeline {
            latency,
            in_flight: VecDeque::new(),
            last_push_cycle: None,
            total: 0,
        }
    }

    /// The fixed latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Accepts one item at clock cycle `cycle`.
    ///
    /// # Errors
    ///
    /// Returns a [`PushError`] carrying the item back — plus the
    /// offending and last-accepted cycles — if another item was already
    /// accepted at the same cycle (a pipeline accepts at most one beat
    /// per cycle) or if `cycle` is in the past relative to the previous
    /// push.
    pub fn push(&mut self, cycle: u64, item: T) -> Result<(), PushError<T>> {
        if let Some(last) = self.last_push_cycle {
            if cycle <= last {
                return Err(PushError {
                    item,
                    cycle,
                    last_push_cycle: last,
                });
            }
        }
        self.last_push_cycle = Some(cycle);
        self.in_flight.push_back((cycle + self.latency, item));
        self.total += 1;
        Ok(())
    }

    /// Retrieves the item that completes at or before `cycle`, if any.
    ///
    /// Items exit in push order; call repeatedly to drain everything due.
    pub fn pop(&mut self, cycle: u64) -> Option<T> {
        match self.in_flight.front() {
            Some(&(due, _)) if due <= cycle => self.in_flight.pop_front().map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number of items currently traversing the pipeline.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Total items ever accepted.
    pub fn total_accepted(&self) -> u64 {
        self.total
    }

    /// Whether the pipeline holds no items.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_latency_observed() {
        let mut p = Pipeline::new(5);
        p.push(10, 'a').unwrap();
        assert_eq!(p.pop(14), None);
        assert_eq!(p.pop(15), Some('a'));
    }

    #[test]
    fn zero_latency_pass_through() {
        let mut p = Pipeline::new(0);
        p.push(3, 1u8).unwrap();
        assert_eq!(p.pop(3), Some(1));
    }

    #[test]
    fn one_item_per_cycle() {
        let mut p = Pipeline::new(2);
        p.push(1, 'x').unwrap();
        let same_cycle = p.push(1, 'y').unwrap_err();
        assert_eq!(same_cycle.item, 'y');
        assert_eq!(same_cycle.cycle, 1);
        assert_eq!(same_cycle.last_push_cycle, 1);
        let past = p.push(0, 'z').unwrap_err();
        assert_eq!(past.into_item(), 'z');
        assert_eq!(past.cycle, 0);
        assert_eq!(past.last_push_cycle, 1);
        p.push(2, 'y').unwrap();
    }

    #[test]
    fn push_error_display_names_both_cycles() {
        let mut p = Pipeline::new(1);
        p.push(7, ()).unwrap();
        let err = p.push(3, ()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cycle 3") && msg.contains("cycle 7"), "{msg}");
    }

    #[test]
    fn full_rate_no_bubbles() {
        // Push every cycle for 100 cycles; every item must exit exactly
        // `latency` cycles later, i.e. throughput equals input rate.
        let lat = 4;
        let mut p = Pipeline::new(lat);
        let mut out = Vec::new();
        for c in 0..100u64 {
            p.push(c, c).unwrap();
            if let Some(v) = p.pop(c) {
                out.push((c, v));
            }
        }
        for c in 100..100 + lat {
            if let Some(v) = p.pop(c) {
                out.push((c, v));
            }
        }
        assert_eq!(out.len(), 100);
        for (exit_cycle, item) in out {
            assert_eq!(exit_cycle, item + lat);
        }
    }

    #[test]
    fn in_order_exit() {
        let mut p = Pipeline::new(3);
        p.push(0, 1).unwrap();
        p.push(1, 2).unwrap();
        p.push(5, 3).unwrap();
        assert_eq!(p.pop(10), Some(1));
        assert_eq!(p.pop(10), Some(2));
        assert_eq!(p.pop(10), Some(3));
        assert_eq!(p.pop(10), None);
    }

    #[test]
    fn accounting() {
        let mut p = Pipeline::new(1);
        p.push(0, ()).unwrap();
        p.push(1, ()).unwrap();
        assert_eq!(p.in_flight(), 2);
        assert_eq!(p.total_accepted(), 2);
        p.pop(2);
        p.pop(2);
        assert!(p.is_empty());
    }
}
