//! Gray-code asynchronous FIFO — the clock-domain-crossing primitive.
//!
//! The paper's parameterized clock-domain crossing (§3.3.1, Figure 6)
//! synchronizes an RBB at `S` MHz / `M` bits with user logic at `R` MHz /
//! `U` bits using "the widely used asynchronous FIFO" with binary↔gray
//! pointer conversion. This module models that structure faithfully:
//!
//! * free-running write/read pointers, exchanged between domains in gray
//!   code through two-flop synchronizers (one value may only be observed
//!   two destination-domain edges after it was produced);
//! * `full` computed in the write domain against the *synchronized* read
//!   pointer, `empty` computed in the read domain against the
//!   *synchronized* write pointer — both conservative, never unsafe;
//! * at most one push per write edge and one pop per read edge.
//!
//! The lossless-bandwidth condition `S × M = R × U` from the paper is
//! exercised by the property tests in this crate and by the CDC benches.

use crate::fifo::FifoFullError;

/// Converts a binary value to its gray code.
///
/// ```
/// use harmonia_sim::async_fifo::{bin_to_gray, gray_to_bin};
/// assert_eq!(bin_to_gray(0b1000), 0b1100);
/// assert_eq!(gray_to_bin(bin_to_gray(12345)), 12345);
/// ```
pub fn bin_to_gray(b: u64) -> u64 {
    b ^ (b >> 1)
}

/// Converts a gray-coded value back to binary.
pub fn gray_to_bin(mut g: u64) -> u64 {
    let mut shift = 32;
    while shift > 0 {
        g ^= g >> shift;
        shift /= 2;
    }
    g
}

/// A dual-clock FIFO with gray-code pointer synchronization.
///
/// The caller drives the two clock domains explicitly: call
/// [`on_write_edge`](AsyncFifo::on_write_edge) at every write-clock rising
/// edge and [`on_read_edge`](AsyncFifo::on_read_edge) at every read-clock
/// rising edge (in global time order — use
/// [`MultiClock`](crate::MultiClock) to interleave them), then push/pop
/// within that edge.
///
/// ```
/// use harmonia_sim::AsyncFifo;
/// let mut f = AsyncFifo::new(8);
/// f.on_write_edge();
/// f.try_push(1u8).unwrap();
/// // The write pointer needs two read-domain edges to become visible.
/// f.on_read_edge();
/// assert_eq!(f.try_pop(), None);
/// f.on_read_edge();
/// assert_eq!(f.try_pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct AsyncFifo<T> {
    storage: Vec<Option<T>>,
    capacity: usize,
    wptr: u64,
    rptr: u64,
    /// Two-flop synchronizer carrying the gray write pointer into the read
    /// domain. `[0]` is the metastability stage, `[1]` the stable stage.
    wptr_gray_sync: [u64; 2],
    /// Two-flop synchronizer carrying the gray read pointer into the write
    /// domain.
    rptr_gray_sync: [u64; 2],
    pushed_this_edge: bool,
    popped_this_edge: bool,
    total_pushes: u64,
    total_pops: u64,
    max_occupancy: usize,
}

impl<T> AsyncFifo<T> {
    /// Creates an async FIFO with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two (gray-code pointer
    /// comparison requires power-of-two depth) or is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity.is_power_of_two(),
            "async fifo capacity must be a non-zero power of two, got {capacity}"
        );
        AsyncFifo {
            storage: (0..capacity).map(|_| None).collect(),
            capacity,
            wptr: 0,
            rptr: 0,
            wptr_gray_sync: [0; 2],
            rptr_gray_sync: [0; 2],
            pushed_this_edge: false,
            popped_this_edge: false,
            total_pushes: 0,
            total_pops: 0,
            max_occupancy: 0,
        }
    }

    /// Advances the write-domain state by one clock edge: the read pointer's
    /// gray code moves one stage deeper into the write-side synchronizer.
    pub fn on_write_edge(&mut self) {
        self.rptr_gray_sync[1] = self.rptr_gray_sync[0];
        self.rptr_gray_sync[0] = bin_to_gray(self.rptr);
        self.pushed_this_edge = false;
    }

    /// Advances the read-domain state by one clock edge.
    pub fn on_read_edge(&mut self) {
        self.wptr_gray_sync[1] = self.wptr_gray_sync[0];
        self.wptr_gray_sync[0] = bin_to_gray(self.wptr);
        self.popped_this_edge = false;
    }

    /// The write side's (conservative) view of occupancy.
    fn write_side_level(&self) -> u64 {
        self.wptr - gray_to_bin(self.rptr_gray_sync[1])
    }

    /// Whether a push would succeed at the current write edge.
    pub fn can_push(&self) -> bool {
        !self.pushed_this_edge && self.write_side_level() < self.capacity as u64
    }

    /// Whether a pop would succeed at the current read edge.
    pub fn can_pop(&self) -> bool {
        !self.popped_this_edge && self.rptr < gray_to_bin(self.wptr_gray_sync[1])
    }

    /// Pushes one item in the current write-clock cycle.
    ///
    /// # Errors
    ///
    /// Returns the item back if the FIFO appears full from the write domain
    /// or an item was already pushed this edge (one beat per cycle).
    pub fn try_push(&mut self, item: T) -> Result<(), FifoFullError<T>> {
        if !self.can_push() {
            return Err(FifoFullError(item));
        }
        let slot = (self.wptr % self.capacity as u64) as usize;
        debug_assert!(self.storage[slot].is_none(), "overwriting live slot");
        self.storage[slot] = Some(item);
        self.wptr += 1;
        self.pushed_this_edge = true;
        self.total_pushes += 1;
        let occ = (self.wptr - self.rptr) as usize;
        self.max_occupancy = self.max_occupancy.max(occ);
        Ok(())
    }

    /// Pops one item in the current read-clock cycle, if visible.
    pub fn try_pop(&mut self) -> Option<T> {
        if !self.can_pop() {
            return None;
        }
        let slot = (self.rptr % self.capacity as u64) as usize;
        let item = self.storage[slot].take();
        debug_assert!(item.is_some(), "popping empty slot");
        self.rptr += 1;
        self.popped_this_edge = true;
        self.total_pops += 1;
        item
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True occupancy (omniscient; not visible to either domain).
    pub fn len(&self) -> usize {
        (self.wptr - self.rptr) as usize
    }

    /// Whether the FIFO holds no items (omniscient view).
    pub fn is_empty(&self) -> bool {
        self.wptr == self.rptr
    }

    /// Total accepted pushes.
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }

    /// Total successful pops.
    pub fn total_pops(&self) -> u64 {
        self.total_pops
    }

    /// High-water mark of true occupancy.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_round_trip() {
        for v in [0u64, 1, 2, 3, 7, 8, 255, 256, u32::MAX as u64, 1 << 40] {
            assert_eq!(gray_to_bin(bin_to_gray(v)), v);
        }
    }

    #[test]
    fn gray_adjacent_values_differ_in_one_bit() {
        for v in 0u64..1024 {
            let diff = bin_to_gray(v) ^ bin_to_gray(v + 1);
            assert_eq!(diff.count_ones(), 1, "gray codes of {v} and {} differ in >1 bit", v + 1);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_rejected() {
        let _: AsyncFifo<u8> = AsyncFifo::new(6);
    }

    #[test]
    fn synchronizer_delays_visibility_by_two_edges() {
        let mut f = AsyncFifo::new(4);
        f.on_write_edge();
        f.try_push(5u8).unwrap();
        f.on_read_edge();
        assert!(!f.can_pop(), "visible after one edge");
        f.on_read_edge();
        assert_eq!(f.try_pop(), Some(5));
    }

    #[test]
    fn one_push_per_edge_enforced() {
        let mut f = AsyncFifo::new(8);
        f.on_write_edge();
        f.try_push(1).unwrap();
        assert!(f.try_push(2).is_err());
        f.on_write_edge();
        f.try_push(2).unwrap();
    }

    #[test]
    fn full_detection_is_conservative_but_eventually_clears() {
        let mut f = AsyncFifo::new(2);
        f.on_write_edge();
        f.try_push(1).unwrap();
        f.on_write_edge();
        f.try_push(2).unwrap();
        f.on_write_edge();
        assert!(!f.can_push(), "full fifo must reject");
        // Drain from the read side.
        f.on_read_edge();
        f.on_read_edge();
        assert_eq!(f.try_pop(), Some(1));
        // Write side needs two write edges to observe the new read pointer.
        f.on_write_edge();
        f.on_write_edge();
        assert!(f.can_push());
    }

    #[test]
    fn data_integrity_across_many_items() {
        let mut f = AsyncFifo::new(8);
        let mut received = Vec::new();
        let mut next = 0u32;
        // Interleave: 1 write edge then 1 read edge, 1000 rounds.
        for _ in 0..1000 {
            f.on_write_edge();
            if f.can_push() {
                f.try_push(next).unwrap();
                next += 1;
            }
            f.on_read_edge();
            if let Some(v) = f.try_pop() {
                received.push(v);
            }
        }
        // Drain remaining.
        for _ in 0..32 {
            f.on_read_edge();
            if let Some(v) = f.try_pop() {
                received.push(v);
            }
        }
        assert_eq!(received, (0..next).collect::<Vec<_>>());
    }
}
