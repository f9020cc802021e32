//! RDMA flow-level transport engine.
//!
//! §3.3.1: the Network RBB covers "packet-level processing (e.g., MAC) and
//! flow-level processing (e.g., RDMA)". This module models the flow-level
//! instance: a reliable-connection transport with queue pairs, MTU
//! segmentation, a bounded in-flight window, cumulative acknowledgements
//! and go-back-N retransmission — the SRNIC-class design the paper's
//! deployment uses for its RDMA NICs.
//!
//! The engine is deterministic: packet loss is injected by the test/bench
//! harness through a seeded RNG, and the delivery invariant (every message
//! byte delivered exactly once, in order) is property-tested.

use harmonia_sim::SplitMix64;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Transport configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RdmaConfig {
    /// Path MTU in bytes.
    pub mtu: u32,
    /// Maximum unacknowledged segments in flight per QP.
    pub window: usize,
    /// Slots without progress before a go-back-N timeout fires.
    pub timeout_slots: u32,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            mtu: 4096,
            window: 64,
            timeout_slots: 16,
        }
    }
}

/// Errors from queue-pair operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RdmaError {
    /// A zero-byte message was posted.
    EmptyMessage,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::EmptyMessage => f.write_str("zero-byte RDMA message"),
        }
    }
}

impl Error for RdmaError {}

/// One transmit segment.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Segment {
    psn: u64,
    bytes: u32,
    /// Marks the last segment of a message (completion boundary).
    last: bool,
}

/// Sender-side state of a reliable connection.
#[derive(Debug, Default)]
struct TxState {
    segments: Vec<Segment>,
    /// Index of the oldest unacknowledged segment.
    base: usize,
    /// Index of the next segment to (re)transmit.
    next: usize,
    /// Slots since last cumulative-ACK progress.
    stall_slots: u32,
}

/// Receiver-side state.
#[derive(Debug, Default)]
struct RxState {
    expected_psn: u64,
    delivered_bytes: u64,
    delivered_messages: u64,
    /// Bytes of the in-progress message.
    partial_bytes: u64,
}

/// Per-QP statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QpStats {
    /// Messages fully delivered to the receiver.
    pub messages_delivered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Segments retransmitted.
    pub retransmits: u64,
    /// Segments the link dropped.
    pub drops: u64,
}

impl QpStats {
    /// Goodput efficiency: delivered segments over transmitted segments.
    pub fn efficiency(&self) -> f64 {
        if self.segments_sent == 0 {
            0.0
        } else {
            (self.segments_sent - self.retransmits) as f64 / self.segments_sent as f64
        }
    }
}

/// A reliable-connection queue pair bound to a lossy link, simulated in
/// discrete slots (one slot ≈ one wire transmission opportunity per
/// window).
#[derive(Debug)]
pub struct QueuePair {
    config: RdmaConfig,
    tx: TxState,
    rx: RxState,
    stats: QpStats,
    /// Messages posted, in order, as byte lengths (for invariant checks).
    posted: VecDeque<u32>,
}

impl QueuePair {
    /// Creates a QP with the given transport configuration.
    pub fn new(config: RdmaConfig) -> Self {
        QueuePair {
            config,
            tx: TxState::default(),
            rx: RxState::default(),
            stats: QpStats::default(),
            posted: VecDeque::new(),
        }
    }

    /// Posts a send work request of `bytes`, segmented at the MTU.
    ///
    /// # Errors
    ///
    /// [`RdmaError::EmptyMessage`] for zero-byte messages.
    pub fn post_send(&mut self, bytes: u32) -> Result<(), RdmaError> {
        if bytes == 0 {
            return Err(RdmaError::EmptyMessage);
        }
        self.posted.push_back(bytes);
        let full = bytes / self.config.mtu;
        let tail = bytes % self.config.mtu;
        let mut psn = self.tx.segments.len() as u64;
        for i in 0..full {
            self.tx.segments.push(Segment {
                psn,
                bytes: self.config.mtu,
                last: tail == 0 && i == full - 1,
            });
            psn += 1;
        }
        if tail > 0 {
            self.tx.segments.push(Segment {
                psn,
                bytes: tail,
                last: true,
            });
        }
        Ok(())
    }

    /// Whether all posted work has been delivered and acknowledged.
    pub(crate) fn is_drained(&self) -> bool {
        self.tx.base == self.tx.segments.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> QpStats {
        self.stats
    }

    /// Runs one simulation slot against a lossy link: transmit up to the
    /// window, deliver/drop each segment, process the cumulative ACK,
    /// handle timeout. `loss` is the per-segment drop probability.
    pub(crate) fn slot(&mut self, rng: &mut SplitMix64, loss: f64) {
        let window_end = (self.tx.base + self.config.window).min(self.tx.segments.len());
        let mut progressed = false;
        // Transmit every sendable segment this slot.
        while self.tx.next < window_end {
            let seg = self.tx.segments[self.tx.next];
            self.tx.next += 1;
            self.stats.segments_sent += 1;
            if rng.chance(loss) {
                self.stats.drops += 1;
                continue;
            }
            // Receiver side: in-order acceptance only (RC semantics).
            if seg.psn == self.rx.expected_psn {
                self.rx.expected_psn += 1;
                self.rx.partial_bytes += u64::from(seg.bytes);
                if seg.last {
                    self.rx.delivered_messages += 1;
                    self.rx.delivered_bytes += self.rx.partial_bytes;
                    self.rx.partial_bytes = 0;
                }
            }
            // Out-of-order segments are silently dropped by the responder;
            // the cumulative ACK below tells the sender where it stands.
        }
        // Cumulative ACK (assume the reverse path is reliable — NAK/ACK
        // coalescing loss is folded into the timeout path).
        let acked = self.rx.expected_psn as usize;
        if acked > self.tx.base {
            self.tx.base = acked;
            self.tx.stall_slots = 0;
            progressed = true;
        }
        // Go-back-N on timeout: rewind `next` to the oldest unacked.
        if !progressed && !self.is_drained() {
            self.tx.stall_slots += 1;
            if self.tx.stall_slots >= self.config.timeout_slots || self.tx.next > self.tx.base {
                let rewound = self.tx.next.saturating_sub(self.tx.base) as u64;
                // Only count as retransmission the segments sent again.
                if self.tx.next > self.tx.base {
                    self.stats.retransmits += rewound.min(self.config.window as u64);
                }
                self.tx.next = self.tx.base;
                self.tx.stall_slots = 0;
            }
        }
        self.stats.messages_delivered = self.rx.delivered_messages;
        self.stats.bytes_delivered = self.rx.delivered_bytes;
    }

    /// Runs slots until drained or `max_slots` elapse; returns the slots
    /// used, or `None` if the transfer did not complete.
    pub fn run_to_completion(
        &mut self,
        rng: &mut SplitMix64,
        loss: f64,
        max_slots: u64,
    ) -> Option<u64> {
        for slot in 0..max_slots {
            if self.is_drained() {
                return Some(slot);
            }
            self.slot(rng, loss);
        }
        self.is_drained().then_some(max_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_transfer_is_exact_and_efficient() {
        let mut qp = QueuePair::new(RdmaConfig::default());
        for bytes in [100u32, 4096, 5000, 65536] {
            qp.post_send(bytes).unwrap();
        }
        let mut rng = SplitMix64::new(1);
        let slots = qp.run_to_completion(&mut rng, 0.0, 10_000).unwrap();
        let s = qp.stats();
        assert_eq!(s.messages_delivered, 4);
        assert_eq!(s.bytes_delivered, 100 + 4096 + 5000 + 65536);
        assert_eq!(s.retransmits, 0);
        assert_eq!(s.efficiency(), 1.0);
        assert!(slots < 50);
    }

    #[test]
    fn segmentation_respects_mtu() {
        let mut qp = QueuePair::new(RdmaConfig {
            mtu: 1024,
            ..Default::default()
        });
        qp.post_send(2500).unwrap();
        assert_eq!(qp.tx.segments.len(), 3);
        assert_eq!(qp.tx.segments[2].bytes, 452);
        assert!(qp.tx.segments[2].last);
        assert!(!qp.tx.segments[0].last);
    }

    #[test]
    fn heavy_loss_still_delivers_everything_in_order() {
        let mut qp = QueuePair::new(RdmaConfig::default());
        for _ in 0..50 {
            qp.post_send(10_000).unwrap();
        }
        let mut rng = SplitMix64::new(7);
        qp.run_to_completion(&mut rng, 0.3, 1_000_000)
            .expect("transfer must complete despite 30% loss");
        let s = qp.stats();
        assert_eq!(s.messages_delivered, 50);
        assert_eq!(s.bytes_delivered, 50 * 10_000);
        assert!(s.retransmits > 0, "loss must trigger retransmission");
        assert!(s.efficiency() < 1.0);
    }

    #[test]
    fn loss_degrades_efficiency_monotonically() {
        let eff = |loss: f64| {
            let mut qp = QueuePair::new(RdmaConfig::default());
            for _ in 0..100 {
                qp.post_send(8192).unwrap();
            }
            let mut rng = SplitMix64::new(42);
            qp.run_to_completion(&mut rng, loss, 10_000_000).unwrap();
            qp.stats().efficiency()
        };
        let e0 = eff(0.0);
        let e05 = eff(0.05);
        let e2 = eff(0.2);
        assert!(e0 > e05 && e05 > e2, "{e0} {e05} {e2}");
        // Go-back-N with a 64-segment window is brutal at 20% loss —
        // roughly (1-p)/(p·W) useful work — but must not deadlock.
        assert!(e2 > 0.04, "go-back-N collapsed entirely: {e2}");
    }

    #[test]
    fn zero_byte_message_rejected() {
        let mut qp = QueuePair::new(RdmaConfig::default());
        assert_eq!(qp.post_send(0), Err(RdmaError::EmptyMessage));
    }
}
