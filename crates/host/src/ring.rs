//! The SQ/CQ ring round both ring drivers run.
//!
//! A [`Ring`] is an SQ/CQ pair plus the entries in flight on it, keyed by
//! idempotency tag: [`Ring::submit`] delivers a burst and applies the
//! per-descriptor faults, [`Ring::doorbell`] drains the SQ and polls the
//! CQ. What a fault costs and when an entry goes out again is each
//! driver's policy, in `batch` and `tenant`.

use crate::dma::{CommandDelivery, DmaEngine};
use harmonia_cmd::queue::{CommandBudget, CompletionStatus, SqDescriptor};
use harmonia_cmd::UnifiedControlKernel;
use harmonia_cmd::{CommandPacket, CompletionQueue, KernelError, SrcId, SubmissionQueue};
use harmonia_sim::{FaultInjector, Picos};
use std::collections::BTreeMap;

/// What [`Ring::submit`] made of a burst: its wire bytes, the delivery's
/// latency, whether it arrived (false: the link was down), and the
/// entries that never reached the SQ — all of them if it did not arrive,
/// else the descriptors dropped on the wire.
pub(crate) struct Burst<T> {
    pub(crate) bytes: u32,
    pub(crate) latency_ps: Picos,
    pub(crate) delivered: bool,
    pub(crate) lost: Vec<T>,
}

/// The SQ descriptor of `packet` under idempotency tag `tag`.
pub(crate) fn descriptor(tag: u32, packet: &CommandPacket) -> SqDescriptor {
    SqDescriptor {
        tag,
        bytes: packet.encode(),
    }
}

/// How the host hears a polled command complete.
pub(crate) enum Outcome {
    Acked(CommandPacket),
    /// The descriptor failed to decode: the stable decode-error code.
    Nacked(u32),
    Failed(KernelError),
}

/// One CQ record matched to its entry. `outcome` is `None` when the
/// completion interrupt was lost: the command ran, and its retry replays.
pub(crate) struct Completion<T> {
    pub(crate) entry: T,
    pub(crate) at_ps: Picos,
    pub(crate) outcome: Option<Outcome>,
}

/// An SQ/CQ ring pair and the entries in flight on it.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    sq: SubmissionQueue,
    cq: CompletionQueue,
    inflight: BTreeMap<u32, T>,
}

impl<T> Ring<T> {
    /// SQ and CQ of `depth` slots each, so a full drain can always post.
    pub(crate) fn new(depth: usize) -> Ring<T> {
        Ring {
            sq: SubmissionQueue::new(depth),
            cq: CompletionQueue::new(depth),
            inflight: BTreeMap::new(),
        }
    }

    /// SQ slots free for the next burst.
    pub(crate) fn free(&self) -> usize {
        self.sq.capacity() - self.sq.len()
    }

    /// Whether nothing is in flight — also whether the SQ is empty, as
    /// every doorbell polls the CQ dry.
    pub(crate) fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Ships `burst` — at most [`Ring::free`] descriptors, each with its
    /// entry — as one DMA delivery starting at `at`; what arrives is
    /// checked for a drop, then a corruption, at the post-delivery clock.
    pub(crate) fn submit(
        &mut self,
        engine: &mut DmaEngine,
        faults: &FaultInjector,
        burst: Vec<(SqDescriptor, T)>,
        at: Picos,
    ) -> Burst<T> {
        let bytes = burst.iter().map(|(d, _)| d.bytes.len() as u32).sum();
        let delivery = engine.batch_delivery(bytes, burst.len() as u32, at);
        let (CommandDelivery::Delivered { latency_ps } | CommandDelivery::Lost { latency_ps }) =
            delivery;
        let delivered = matches!(delivery, CommandDelivery::Delivered { .. });
        let now = at + latency_ps;
        let mut lost = Vec::new();
        for (mut desc, entry) in burst {
            if !delivered || faults.is_active() && faults.drop_command(now) {
                lost.push(entry);
                continue;
            }
            faults.corrupt_command(now, &mut desc.bytes);
            self.inflight.insert(desc.tag, entry);
            self.sq
                .push(desc)
                .expect("a burst is capped at the free ring space");
        }
        Burst {
            bytes,
            latency_ps,
            delivered,
            lost,
        }
    }

    /// Drains the SQ through the kernel at `now` against `budget` (what it
    /// stops stays queued), then polls the CQ, drawing a lost interrupt
    /// for each executed command: the drain's execution time and every
    /// record, in completion order.
    pub(crate) fn doorbell(
        &mut self,
        kernel: &mut UnifiedControlKernel,
        faults: &FaultInjector,
        now: Picos,
        budget: &mut CommandBudget,
    ) -> (Picos, Vec<Completion<T>>) {
        kernel.sync_clock(now);
        let n = self.sq.len();
        let out = kernel.ring_doorbell_budgeted(
            &mut self.sq,
            &mut self.cq,
            n,
            SrcId::Application,
            budget,
        );
        let polled_at = now + out.exec_ps;
        // Responses and errors come in drain order, as the CQ records do.
        let mut responses = out.responses.into_iter();
        let mut errors = out.errors.into_iter();
        let mut completions = Vec::with_capacity(self.cq.len());
        while let Some(rec) = self.cq.pop() {
            let entry = self
                .inflight
                .remove(&rec.tag)
                .expect("CQ record for an entry in flight");
            let outcome = match rec.status {
                CompletionStatus::Ok => {
                    let (tag, resp) = responses.next().expect("Ok record has a response");
                    debug_assert_eq!(tag, rec.tag);
                    (!faults.irq_lost(polled_at)).then_some(Outcome::Acked(resp))
                }
                CompletionStatus::Nack { error_code } => Some(Outcome::Nacked(error_code)),
                CompletionStatus::Error => {
                    let (tag, err) = errors.next().expect("Error record has a kernel error");
                    debug_assert_eq!(tag, rec.tag);
                    Some(Outcome::Failed(err))
                }
            };
            completions.push(Completion {
                entry,
                at_ps: rec.at_ps,
                outcome,
            });
        }
        (out.exec_ps, completions)
    }
}
