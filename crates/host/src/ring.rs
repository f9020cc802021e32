//! The SQ/CQ ring round both ring drivers run.
//!
//! A [`Ring`] is an SQ/CQ pair plus the entries in flight on it, in SQ
//! order: [`Ring::stage`] adds a descriptor to the next burst,
//! [`Ring::submit`] delivers the burst and applies the per-descriptor
//! faults, [`Ring::doorbell`] drains the SQ and polls the CQ. What a
//! fault costs and when an entry goes out again is each driver's policy,
//! in `batch` and `tenant`.

use crate::dma::{CommandDelivery, DmaEngine};
use harmonia_cmd::queue::{CommandBudget, CompletionStatus, SqDescriptor};
use harmonia_cmd::UnifiedControlKernel;
use harmonia_cmd::{CommandPacket, CompletionQueue, KernelError, SrcId, SubmissionQueue};
use harmonia_sim::{FaultInjector, Picos};
use std::collections::VecDeque;

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
#[derive(Debug)]
pub(crate) enum Outcome {
    Acked(CommandPacket),
    /// The descriptor failed to decode: the stable decode-error code.
    Nacked(u32),
    Failed(KernelError),
}

/// One CQ record matched to its entry. `outcome` is `None` when the
/// completion interrupt was lost: the command ran, and its retry replays.
#[derive(Debug)]
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
    /// Tagged entries in SQ push order. The kernel pops the SQ in order
    /// and posts one CQ record per descriptor, and a budgeted drain
    /// leaves the rest queued in order, so entries complete front first.
    inflight: VecDeque<(u32, T)>,
    /// The next burst, kept across rounds so staging reuses its storage.
    burst: Vec<(SqDescriptor, T)>,
}

impl<T> Ring<T> {
    /// SQ and CQ of `depth` slots each, so a full drain can always post.
    pub(crate) fn new(depth: usize) -> Ring<T> {
        Ring {
            sq: SubmissionQueue::new(depth),
            cq: CompletionQueue::new(depth),
            inflight: VecDeque::new(),
            burst: Vec::new(),
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

    /// Adds `desc` and its entry to the next burst, which holds at most
    /// [`Ring::free`] descriptors.
    pub(crate) fn stage(&mut self, desc: SqDescriptor, entry: T) {
        debug_assert!(self.burst.len() < self.free(), "a burst fits the ring");
        self.burst.push((desc, entry));
    }

    /// Ships the staged burst as one DMA delivery starting at `at`; what
    /// arrives is checked for a drop, then a corruption, at the
    /// post-delivery clock.
    pub(crate) fn submit(
        &mut self,
        engine: &mut DmaEngine,
        faults: &FaultInjector,
        at: Picos,
    ) -> Burst<T> {
        let bytes = self.burst.iter().map(|(d, _)| d.bytes.len() as u32).sum();
        let delivery = engine.batch_delivery(bytes, self.burst.len() as u32, at);
        let (CommandDelivery::Delivered { latency_ps } | CommandDelivery::Lost { latency_ps }) =
            delivery;
        let delivered = matches!(delivery, CommandDelivery::Delivered { .. });
        let now = at + latency_ps;
        let mut lost = Vec::new();
        for (mut desc, entry) in self.burst.drain(..) {
            if !delivered || faults.drop_command(now) {
                lost.push(entry);
                continue;
            }
            faults.corrupt_command(now, &mut desc.bytes);
            self.inflight.push_back((desc.tag, entry));
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
    /// for each executed command: appends every record to `completions`,
    /// in completion order, and returns the drain's execution time.
    pub(crate) fn doorbell(
        &mut self,
        kernel: &mut UnifiedControlKernel,
        faults: &FaultInjector,
        now: Picos,
        budget: &mut CommandBudget,
        completions: &mut Vec<Completion<T>>,
    ) -> Picos {
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
        while let Some(rec) = self.cq.pop() {
            let (tag, entry) = self
                .inflight
                .pop_front()
                .expect("CQ record for an entry in flight");
            assert_eq!(tag, rec.tag, "CQ records complete in SQ order");
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
        out.exec_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_cmd::{CommandCode, IDEMPOTENCY_FLAG};
    use harmonia_hw::ip::PcieDmaIp;
    use harmonia_hw::Vendor;

    fn health(tag: u32) -> SqDescriptor {
        let packet = CommandPacket::new(SrcId::Application, 0, 0, CommandCode::HealthRead)
            .with_idempotency_tag(tag);
        descriptor(tag, &packet)
    }

    /// Every completion's entry, checked against the tag its response
    /// echoes.
    fn entries(completions: Vec<Completion<u32>>) -> Vec<u32> {
        completions
            .into_iter()
            .map(|c| match c.outcome {
                Some(Outcome::Acked(resp)) => {
                    assert_eq!(resp.options, IDEMPOTENCY_FLAG | c.entry);
                    c.entry
                }
                _ => panic!("entry {} did not ack", c.entry),
            })
            .collect()
    }

    #[test]
    fn a_budgeted_partial_drain_keeps_entries_paired_across_doorbells() {
        let mut kernel = UnifiedControlKernel::new(64);
        let mut engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8));
        let faults = FaultInjector::none();
        let mut ring: Ring<u32> = Ring::new(16);
        let mut submit = |ring: &mut Ring<u32>, tags: std::ops::Range<u32>| {
            for t in tags {
                ring.stage(health(t), t);
            }
            ring.submit(&mut engine, &faults, 0).delivered
        };
        assert!(submit(&mut ring, 0..10));
        let mut slice = CommandBudget::new(0, 4);
        let mut first = Vec::new();
        ring.doorbell(&mut kernel, &faults, 0, &mut slice, &mut first);
        assert_eq!(entries(first), vec![0, 1, 2, 3]);
        assert!(!ring.is_idle(), "the budget left six descriptors queued");
        // A later burst queues behind what the budget left.
        assert!(submit(&mut ring, 10..13));
        let mut next = CommandBudget::new(0, 64);
        let mut second = Vec::new();
        ring.doorbell(&mut kernel, &faults, 0, &mut next, &mut second);
        assert_eq!(entries(second), (4..13).collect::<Vec<_>>());
        assert!(ring.is_idle());
        assert_eq!(kernel.commands_executed(), 13);
    }
}
