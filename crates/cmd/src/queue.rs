//! SQ/CQ ring pair for the batched command path.
//!
//! Production host interfaces (NVMe, QDMA) amortize per-command doorbell
//! and interrupt overhead with ring-buffer submission/completion queues:
//! the host writes N descriptors, rings the doorbell once, and the device
//! posts N compact completion records back. This module is that idiom for
//! Harmonia's control plane — a fixed-depth power-of-two
//! [`SubmissionQueue`] of encoded [`CommandPacket`](crate::CommandPacket)
//! descriptors paired with a [`CompletionQueue`] of [`CompletionRecord`]s,
//! drained by [`UnifiedControlKernel::ring_doorbell`](crate::UnifiedControlKernel::ring_doorbell).
//!
//! Indices are free-running `u64` counters masked down to slots, the
//! classic lock-free-ring trick that makes full/empty unambiguous without
//! wasting a slot: the ring is empty when `head == tail` and full when
//! `tail - head == depth`.

use harmonia_sim::Picos;

/// One submission-ring entry: an encoded command packet plus the host-side
/// idempotency tag its completion record will carry back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqDescriptor {
    /// Host-side tag pairing this descriptor with its completion.
    pub tag: u32,
    /// The encoded [`CommandPacket`](crate::CommandPacket) wire bytes.
    pub bytes: Vec<u8>,
}

/// Completion status carried in a [`CompletionRecord`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The command executed (or replayed); its response packet is
    /// available from the drain outcome.
    Ok,
    /// The descriptor bytes failed to decode; the kernel NACKed.
    Nack {
        /// The stable [`DecodeError::code`](crate::DecodeError::code).
        error_code: u32,
    },
    /// The command reached the kernel but execution failed with a typed
    /// [`KernelError`](crate::KernelError) (carried in the drain outcome).
    Error,
}

/// One completion-ring entry: compact — tag, status, completion time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CompletionRecord {
    /// The originating descriptor's tag.
    pub tag: u32,
    /// How the command completed.
    pub status: CompletionStatus,
    /// Kernel-side completion time, picoseconds.
    pub at_ps: Picos,
}

/// A fixed-depth ring: a power-of-two slot array indexed by free-running
/// head/tail counters. [`SubmissionQueue`] and [`CompletionQueue`] are
/// its two uses.
#[derive(Debug)]
pub struct Ring<T> {
    slots: Vec<Option<T>>,
    /// Consumer index (free-running; never wraps in practice).
    head: u64,
    /// Producer index (free-running).
    tail: u64,
    mask: u64,
}

/// Fixed-depth submission ring of encoded command descriptors.
pub type SubmissionQueue = Ring<SqDescriptor>;

/// Fixed-depth completion ring of compact completion records.
pub type CompletionQueue = Ring<CompletionRecord>;

impl<T> Ring<T> {
    /// Creates a ring of the given depth, rounded up to a power of two
    /// (minimum 1).
    pub fn new(depth: usize) -> Self {
        let depth = depth.max(1).next_power_of_two();
        Ring {
            slots: (0..depth).map(|_| None).collect(),
            head: 0,
            tail: 0,
            mask: depth as u64 - 1,
        }
    }

    /// Slot count (always a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether every slot is occupied (the producer must back off).
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Free-running consumer index (wrap-around is `index & (depth-1)`).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Free-running producer index.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Enqueues an entry.
    ///
    /// # Errors
    ///
    /// Returns the entry back when the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        let slot = (self.tail & self.mask) as usize;
        debug_assert!(self.slots[slot].is_none(), "full/empty accounting broke");
        self.slots[slot] = Some(item);
        self.tail += 1;
        Ok(())
    }

    /// Dequeues the oldest entry, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let slot = (self.head & self.mask) as usize;
        let item = self.slots[slot].take();
        debug_assert!(item.is_some(), "full/empty accounting broke");
        self.head += 1;
        item
    }
}

/// Per-slice doorbell quota for a tenant, enforced by
/// [`UnifiedControlKernel::ring_doorbell_budgeted`](crate::UnifiedControlKernel::ring_doorbell_budgeted):
/// the tenant scheduler grants a command budget per time slice, the
/// kernel charges every drained descriptor against it and refuses to
/// drain past exhaustion — a flooding tenant stalls its *own* rings
/// instead of monopolizing the control kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommandBudget {
    /// Tenant index the budget belongs to (scheduler registration
    /// order); selects the tenant ring's replay window.
    pub tenant: u32,
    /// Commands the slice granted.
    pub granted: u64,
    /// Commands charged so far.
    pub used: u64,
}

impl CommandBudget {
    /// A fresh budget of `granted` commands for `tenant`.
    pub fn new(tenant: u32, granted: u64) -> CommandBudget {
        CommandBudget {
            tenant,
            granted,
            used: 0,
        }
    }

    /// An effectively unlimited budget (the single-tenant fast path).
    pub fn unlimited() -> CommandBudget {
        CommandBudget::new(u32::MAX, u64::MAX)
    }

    /// Commands still chargeable.
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> u64 {
        self.granted.saturating_sub(self.used)
    }

    /// Whether the budget is spent.
    pub fn exhausted(&self) -> bool {
        self.used >= self.granted
    }

    /// Charges one command.
    pub(crate) fn charge(&mut self) {
        self.used += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(tag: u32) -> SqDescriptor {
        SqDescriptor {
            tag,
            bytes: vec![tag as u8],
        }
    }

    #[test]
    fn depth_rounds_up_to_power_of_two() {
        assert_eq!(SubmissionQueue::new(0).capacity(), 1);
        assert_eq!(SubmissionQueue::new(1).capacity(), 1);
        assert_eq!(SubmissionQueue::new(3).capacity(), 4);
        assert_eq!(CompletionQueue::new(64).capacity(), 64);
        assert_eq!(CompletionQueue::new(65).capacity(), 128);
    }

    #[test]
    fn fifo_order_and_full_empty_detection() {
        let mut sq = SubmissionQueue::new(2);
        assert!(sq.is_empty() && !sq.is_full());
        sq.push(desc(0)).unwrap();
        sq.push(desc(1)).unwrap();
        assert!(sq.is_full());
        assert_eq!(sq.push(desc(2)).unwrap_err().tag, 2);
        assert_eq!(sq.pop().unwrap().tag, 0);
        assert_eq!(sq.pop().unwrap().tag, 1);
        assert!(sq.pop().is_none());
        assert!(sq.is_empty());
    }

    #[test]
    fn indices_free_run_across_wrap_around() {
        let mut cq = CompletionQueue::new(4);
        for i in 0..10u32 {
            cq.push(CompletionRecord {
                tag: i,
                status: CompletionStatus::Ok,
                at_ps: u64::from(i),
            })
            .unwrap();
            assert_eq!(cq.pop().unwrap().tag, i);
        }
        // Ten pushes through a 4-slot ring: the counters kept running.
        assert_eq!(cq.tail(), 10);
        assert_eq!(cq.head(), 10);
        assert!(cq.is_empty());
    }
}
