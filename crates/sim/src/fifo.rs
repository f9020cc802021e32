//! Bounded synchronous FIFO with occupancy statistics.
//!
//! This is the single-clock buffering primitive used throughout the hardware
//! models: vendor-IP output buffers, the interface wrapper's sideband FIFO,
//! command queues in the unified control kernel, and the per-queue buffers
//! of the Host RBB.

use crate::fault::FaultInjector;
use crate::probe::Probe;
use crate::time::Picos;
use crate::trace::TraceEventKind;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error returned by [`SyncFifo::push`] when the FIFO is full.
///
/// The rejected item is handed back so the producer can retry (hardware
/// backpressure: the producer holds the beat until `ready` asserts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoFullError<T>(pub T);

impl<T> fmt::Display for FifoFullError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fifo is full")
    }
}

impl<T: fmt::Debug> Error for FifoFullError<T> {}

/// What became of a beat offered via [`SyncFifo::push_at`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BeatFate {
    /// The beat was stored normally.
    Stored,
    /// An injected ECC hit discarded the beat (counted as rejected).
    Discarded,
}

/// A bounded FIFO within a single clock domain.
///
/// ```
/// use harmonia_sim::SyncFifo;
/// let mut f = SyncFifo::new(2);
/// f.push(1).unwrap();
/// f.push(2).unwrap();
/// assert!(f.push(3).is_err());
/// assert_eq!(f.pop(), Some(1));
/// assert_eq!(f.max_occupancy(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SyncFifo<T> {
    buf: VecDeque<T>,
    capacity: usize,
    max_occupancy: usize,
    total_pushes: u64,
    total_pops: u64,
    rejected: u64,
}

impl<T> SyncFifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// `capacity` is a bound, not a reservation: the buffer starts empty
    /// and grows as items are pushed, so an idle FIFO costs no heap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        SyncFifo {
            buf: VecDeque::new(),
            capacity,
            max_occupancy: 0,
            total_pushes: 0,
            total_pops: 0,
            rejected: 0,
        }
    }

    /// Attempts to enqueue an item.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] containing the item when the FIFO is full.
    pub fn push(&mut self, item: T) -> Result<(), FifoFullError<T>> {
        if self.buf.len() == self.capacity {
            self.rejected += 1;
            return Err(FifoFullError(item));
        }
        self.buf.push_back(item);
        self.total_pushes += 1;
        self.max_occupancy = self.max_occupancy.max(self.buf.len());
        Ok(())
    }

    /// Enqueues an item at absolute time `now` through the fault plane
    /// and the observability plane. An [`FaultInjector`] ECC hit on the
    /// FIFO memory discards the beat (tallied in [`SyncFifo::rejected`])
    /// instead of storing a corrupt word; a rejection for a full FIFO
    /// records a [`TraceEventKind::FifoStall`] instant on `probe`, so
    /// backpressure shows up on the timeline. With the no-op injector
    /// this is exactly [`SyncFifo::push`], whatever the probe.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] containing the item when the FIFO is
    /// full (backpressure precedes the memory, so full wins over ECC).
    pub fn push_at(
        &mut self,
        item: T,
        now: Picos,
        faults: &FaultInjector,
        probe: &Probe,
    ) -> Result<BeatFate, FifoFullError<T>> {
        if self.buf.len() == self.capacity {
            probe.trace.instant(
                now,
                TraceEventKind::FifoStall {
                    occupancy: self.buf.len() as u32,
                },
            );
        } else if faults.ecc_error(now) {
            self.rejected += 1;
            return Ok(BeatFate::Discarded);
        }
        self.push(item).map(|()| BeatFate::Stored)
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.buf.pop_front();
        if item.is_some() {
            self.total_pops += 1;
        }
        item
    }

    /// Peeks at the oldest item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.buf.front()
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the FIFO currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of occupancy since construction (the paper's Network
    /// RBB monitors queue usage; this is that statistic).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Total accepted pushes.
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }

    /// Total successful pops.
    pub fn total_pops(&self) -> u64 {
        self.total_pops
    }

    /// Number of pushes rejected due to a full FIFO (drop/backpressure count).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Removes all items and returns them, preserving order.
    pub fn drain(&mut self) -> Vec<T> {
        self.total_pops += self.buf.len() as u64;
        self.buf.drain(..).collect()
    }
}

impl<T> Extend<T> for SyncFifo<T> {
    /// Pushes items until the FIFO fills; excess items are counted as
    /// rejected and dropped.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            let _ = self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut f = SyncFifo::new(8);
        for i in 0..8 {
            f.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(f.pop(), Some(i));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn full_fifo_rejects_and_returns_item() {
        let mut f = SyncFifo::new(1);
        f.push("a").unwrap();
        let err = f.push("b").unwrap_err();
        assert_eq!(err.0, "b");
        assert_eq!(f.rejected(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _: SyncFifo<u8> = SyncFifo::new(0);
    }

    #[test]
    fn statistics_track_traffic() {
        let mut f = SyncFifo::new(4);
        for i in 0..3 {
            f.push(i).unwrap();
        }
        f.pop();
        f.push(9).unwrap();
        assert_eq!(f.total_pushes(), 4);
        assert_eq!(f.total_pops(), 1);
        assert_eq!(f.max_occupancy(), 3);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = SyncFifo::new(2);
        f.push(7).unwrap();
        assert_eq!(f.peek(), Some(&7));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn drain_empties_in_order() {
        let mut f = SyncFifo::new(4);
        f.extend([1, 2, 3]);
        assert_eq!(f.drain(), vec![1, 2, 3]);
        assert!(f.is_empty());
        assert_eq!(f.total_pops(), 3);
    }

    #[test]
    fn faulty_push_matches_plain_push_with_no_plan() {
        use crate::fault::FaultPlan;
        let inj = FaultPlan::none().injector();
        let off = Probe::disabled();
        let mut f = SyncFifo::new(2);
        assert_eq!(f.push_at(1, 0, &inj, &off), Ok(BeatFate::Stored));
        assert_eq!(f.push_at(2, 10, &inj, &off), Ok(BeatFate::Stored));
        assert_eq!(f.push_at(3, 20, &inj, &off), Err(FifoFullError(3)));
        assert_eq!(f.drain(), vec![1, 2]);
    }

    #[test]
    fn ecc_hit_discards_the_beat() {
        use crate::fault::{FaultKind, FaultPlan};
        let inj = FaultPlan::new().at(5, FaultKind::EccError).injector();
        let probe = Probe::enabled();
        let mut f = SyncFifo::new(4);
        assert_eq!(f.push_at(1, 0, &inj, &probe), Ok(BeatFate::Stored));
        assert_eq!(f.push_at(2, 5, &inj, &probe), Ok(BeatFate::Discarded));
        assert_eq!(f.push_at(3, 6, &inj, &probe), Ok(BeatFate::Stored));
        assert!(probe.trace.is_empty(), "an ECC discard is not a stall");
        assert_eq!(f.rejected(), 1);
        assert_eq!(f.drain(), vec![1, 3]);
    }

    #[test]
    fn traced_push_emits_stall_only_on_rejection() {
        use crate::fault::FaultInjector;
        let probe = Probe::enabled();
        let none = FaultInjector::none();
        let mut f = SyncFifo::new(1);
        f.push_at(1, 100, &none, &probe).unwrap();
        assert!(probe.trace.is_empty(), "accepted beats emit nothing");
        assert!(f.push_at(2, 200, &none, &probe).is_err());
        assert_eq!(f.rejected(), 1);
        let trace = probe.trace.take();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].at, 200);
        assert_eq!(
            trace.events()[0].kind,
            TraceEventKind::FifoStall { occupancy: 1 }
        );
    }

    #[test]
    fn capacity_is_a_bound_while_storage_grows_on_push() {
        let mut f = SyncFifo::new(256);
        assert_eq!(f.capacity(), 256);
        for i in 0..256u32 {
            f.push(i).unwrap();
            assert_eq!(f.max_occupancy(), i as usize + 1);
        }
        assert!(f.is_full());
        assert_eq!(f.push(256), Err(FifoFullError(256)));
        assert_eq!(f.rejected(), 1);
        assert_eq!(
            (f.len(), f.max_occupancy(), f.total_pushes()),
            (256, 256, 256)
        );
        // The bound still holds after a drain and a refill.
        assert_eq!(f.drain(), (0..256).collect::<Vec<_>>());
        f.extend(0..300);
        assert_eq!((f.len(), f.max_occupancy(), f.rejected()), (256, 256, 45));
    }

    #[test]
    fn extend_counts_overflow_as_rejected() {
        let mut f = SyncFifo::new(2);
        f.extend(0..5);
        assert_eq!(f.len(), 2);
        assert_eq!(f.rejected(), 3);
    }
}
