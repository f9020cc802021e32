//! The ring transport of [`CommandDriver`]: batched submission over the
//! SQ/CQ ring pair.
//!
//! With a batch size above 1, [`CommandDriver::submit`] amortizes
//! per-command control-path overhead the way NVMe/QDMA drivers do: it
//! writes up to `batch` encoded descriptors into the
//! [`SubmissionQueue`](harmonia_cmd::SubmissionQueue), rings the kernel
//! doorbell once (one DMA burst for the whole chunk instead of one
//! delivery per packet), drains the
//! [`CompletionQueue`](harmonia_cmd::CompletionQueue), and coalesces
//! completion interrupts per batch through the driver's
//! [`IrqModerator`](crate::IrqModerator).
//!
//! The round itself runs over the crate-private `ring` module, shared
//! with [`TenantHostDriver`](crate::TenantHostDriver); this module is the
//! command driver's policy over it. Each entry goes through the same
//! issue, ack, nack, time-out and retry-or-give-up steps as the serial
//! transport:
//!
//! * every entry carries its own idempotency tag, so a retried entry is
//!   replayed from the kernel's replay window for this driver's ring,
//!   never re-executed. The window holds at least twice the ring depth,
//!   and the driver's tags are dense, so a retry stays inside it; a tag a
//!   whole window behind the newest would get `KernelError::StaleTag`;
//! * a burst lost on the wire (link down) times out every entry in it; a
//!   per-descriptor `CmdDrop`/`IrqLost` fault times out only that entry,
//!   and only the lost entries ride the next doorbell — replay recovers
//!   exactly what was lost;
//! * per-entry NACKs (wire corruption) and retry budgets are accounted
//!   identically to the serial transport ([`DriverReport`](crate::DriverReport)
//!   fields mean the same thing).
//!
//! Two deliberate departures from the serial transport, both batching
//! artifacts: entries retried from one round share a single deadline wait
//! and a single (maximum) backoff interval — they ride the next doorbell
//! together — and completion order may interleave across rounds under
//! faults (a retried entry completes after its batchmates). With
//! `batch == 1` neither applies: [`CommandDriver::submit`] sends every
//! command over the serial transport, exactly as
//! [`CommandDriver::cmd_raw_resilient`] does.

use crate::cmd_driver::{CommandDriver, Inflight};
use crate::resilience::DriverError;
use crate::ring::{self, Outcome};
use harmonia_cmd::queue::CommandBudget;
use harmonia_cmd::{CommandCode, CommandPacket};
use harmonia_sim::{LogHistogram, Picos, TraceEventKind};
use std::collections::VecDeque;

/// One command to submit: `(rbb_id, instance_id, code, data)`.
pub type CmdSpec = (u8, u8, CommandCode, Vec<u32>);

/// Per-command outcome, on either transport.
pub type CmdResult = Result<CommandPacket, DriverError>;

/// [`CommandDriver`] under the name the batched-submission callers import.
pub type BatchedCommandDriver = CommandDriver;

impl CommandDriver {
    /// Submits a batch of commands and drives every one of them to
    /// convergence — acked or reported-failed — in submission order.
    ///
    /// With `batch == 1` this is exactly one
    /// [`CommandDriver::cmd_raw_resilient`] call per command (the serial
    /// transport, byte for byte). Otherwise commands go out up to
    /// `batch` per doorbell: one DMA burst, one kernel drain, one CQ
    /// poll, coalesced completion interrupts; entries that a fault takes
    /// out retry on a later doorbell under their original idempotency
    /// tags.
    pub fn submit(&mut self, cmds: Vec<CmdSpec>) -> Vec<CmdResult> {
        if self.batch == 1 {
            return cmds
                .into_iter()
                .map(|(rbb, inst, code, data)| self.cmd_raw_resilient(rbb, inst, code, data))
                .collect();
        }
        let mut results: Vec<Option<CmdResult>> = (0..cmds.len()).map(|_| None).collect();
        // The per-command metrics are summed here and published once.
        let issued = cmds.len() as u64;
        // Commands are issued as the ring takes them, behind the retries:
        // issuing reads no clock, so the tags and the issue log come out
        // as if every command were issued up front.
        let mut fresh = cmds.into_iter().enumerate();
        let mut retried: VecDeque<Inflight> = VecDeque::new();
        let mut acks = LogHistogram::new();
        while !retried.is_empty() || fresh.len() > 0 {
            self.ring_round(&mut retried, &mut fresh, &mut results, &mut acks);
        }
        self.irq.flush(self.clock_ps);
        let metrics = &self.probe.metrics;
        if issued > 0 {
            metrics.counter_add("harmonia_cmd_issued_total", &[], issued);
        }
        if !acks.is_empty() {
            metrics.counter_add("harmonia_cmd_acked_total", &[], acks.count());
            metrics.observe_histogram("harmonia_cmd_latency_ps", &[], &acks);
        }
        results
            .into_iter()
            .map(|r| r.expect("every entry converges to ack or give-up"))
            .collect()
    }

    /// One doorbell round: take up to `batch` entries, retried ones
    /// first, then `fresh` commands, ship them as one burst over the
    /// driver's ring, and re-queue whatever a fault took out. Ack
    /// latencies go into `acks` for the caller to publish.
    fn ring_round(
        &mut self,
        retried: &mut VecDeque<Inflight>,
        fresh: &mut impl ExactSizeIterator<Item = (usize, CmdSpec)>,
        results: &mut [Option<CmdResult>],
        acks: &mut LogHistogram,
    ) {
        let take = self
            .batch
            .min(self.ring.free())
            .min(retried.len() + fresh.len());
        let round_start = self.clock_ps;
        for _ in 0..take {
            let mut cmd = match retried.pop_front() {
                Some(cmd) => cmd,
                None => {
                    let (idx, spec) = fresh.next().expect("take is capped at what is left");
                    self.issue(idx, spec)
                }
            };
            self.transmit(&mut cmd, round_start);
            self.ring.stage(ring::descriptor(cmd.tag, &cmd.packet), cmd);
        }
        let burst = self
            .ring
            .submit(&mut self.engine, &self.faults, round_start);
        let submit = TraceEventKind::BatchSubmit {
            entries: take as u32,
            bytes: burst.bytes,
        };
        self.probe.trace.span(round_start, burst.latency_ps, submit);
        self.clock_ps += burst.latency_ps;
        // What the wire lost — the whole burst on a down link, else the
        // descriptors dropped on it — waits out the shared deadline.
        // Corrupted descriptors NACK out of the kernel.
        let mut lost = burst.lost;
        let mut nacked: Vec<Inflight> = Vec::new();
        if burst.delivered {
            self.total_latency_ps += burst.latency_ps;
            let mut completions = std::mem::take(&mut self.completions);
            let exec_ps = self.ring.doorbell(
                &mut self.kernel,
                &self.faults,
                self.clock_ps,
                &mut CommandBudget::unlimited(),
                &mut completions,
            );
            debug_assert!(self.ring.is_idle(), "CQ is sized to the SQ");
            self.clock_ps += exec_ps;
            self.total_latency_ps += exec_ps;
            let polled = completions.len() as u32;
            let mut interrupts = 0u32;
            for done in completions.drain(..) {
                let Some(outcome) = done.outcome else {
                    lost.push(done.entry);
                    continue;
                };
                let cmd = done.entry;
                if self.irq.event(self.clock_ps) {
                    interrupts += 1;
                }
                match outcome {
                    Outcome::Acked(resp) => {
                        acks.record(self.ack(&cmd));
                        results[cmd.idx] = Some(Ok(resp));
                    }
                    Outcome::Nacked(error_code) => {
                        self.nack(error_code);
                        nacked.push(cmd);
                    }
                    Outcome::Failed(e) => results[cmd.idx] = Some(Err(DriverError::Kernel(e))),
                }
            }
            let complete = TraceEventKind::BatchComplete {
                entries: polled,
                interrupts,
            };
            self.probe.trace.instant(self.clock_ps, complete);
            self.completions = completions;
        }
        if !lost.is_empty() {
            self.time_out(&lost, round_start);
        }
        lost.append(&mut nacked);
        if !lost.is_empty() {
            self.requeue(lost, retried, results);
        }
    }

    /// Retry bookkeeping for a round's failed entries: budget-exhausted
    /// entries give up (typed error into their result slot); the rest
    /// back off together (the maximum of their individual intervals —
    /// they ride the next doorbell as one burst) and re-queue at the
    /// front in submission order.
    fn requeue(
        &mut self,
        mut failed: Vec<Inflight>,
        pending: &mut VecDeque<Inflight>,
        results: &mut [Option<CmdResult>],
    ) {
        failed.sort_by_key(|cmd| cmd.idx);
        let mut backoff: Picos = 0;
        failed.retain_mut(|cmd| match self.retry_or_give_up(cmd) {
            Ok(wait) => {
                backoff = backoff.max(wait);
                true
            }
            Err(gave_up) => {
                results[cmd.idx] = Some(Err(gave_up));
                false
            }
        });
        if failed.is_empty() {
            return;
        }
        self.back_off(backoff, &failed);
        for cmd in failed.into_iter().rev() {
            pending.push_front(cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmaEngine;
    use harmonia_cmd::{KernelError, UnifiedControlKernel};
    use harmonia_hw::device::catalog;
    use harmonia_hw::ip::PcieDmaIp;
    use harmonia_hw::Vendor;
    use harmonia_shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};

    fn setup(batch: usize) -> CommandDriver {
        let dev = catalog::device_a();
        let unified = UnifiedShell::for_device(&dev);
        let role = RoleSpec::builder("t")
            .network_gbps(100)
            .network_ports(1)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let mut kernel = UnifiedControlKernel::new(64);
        kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        let (gen, lanes) = dev.pcie().unwrap();
        let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
        CommandDriver::with_depth(engine, kernel, batch, 64)
    }

    fn health_reads(n: usize) -> Vec<CmdSpec> {
        (0..n)
            .map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()))
            .collect()
    }

    #[test]
    fn faultless_batch_acks_everything_in_order() {
        let mut drv = setup(16);
        let results = drv.submit(health_reads(32));
        assert_eq!(results.len(), 32);
        for r in &results {
            assert_eq!(r.as_ref().unwrap().data.len(), 4);
        }
        assert_eq!(drv.acked_log(), (0..32).collect::<Vec<u32>>());
        assert!(drv.report().converged());
        assert_eq!(drv.report().acked, 32);
        // 32 commands over batch=16 is exactly two doorbells.
        assert_eq!(drv.kernel().commands_executed(), 32);
    }

    #[test]
    fn batching_amortizes_the_simulated_clock() {
        let mut batched = setup(16);
        batched.submit(health_reads(64));
        let mut serial = setup(1);
        serial.submit(health_reads(64));
        assert!(
            batched.clock_ps() * 2 < serial.clock_ps(),
            "batched {} ps not even 2x faster than serial {} ps",
            batched.clock_ps(),
            serial.clock_ps()
        );
    }

    #[test]
    fn interrupts_coalesce_per_batch() {
        let mut drv = setup(16);
        drv.submit(health_reads(64));
        let r = drv.irq_report();
        assert_eq!(r.events, 64);
        assert_eq!(r.interrupts, 4, "one interrupt per 16-command batch");
        assert_eq!(r.coalescing(), 16.0);
    }

    #[test]
    fn batch_one_delegates_to_the_serial_transport() {
        let mut drv = setup(1);
        let results = drv.submit(health_reads(4));
        assert!(results.iter().all(|r| r.is_ok()));
        // The serial transport: one DMA send and one immediate
        // interrupt per command.
        let irq = drv.irq_report();
        assert_eq!((irq.events, irq.interrupts), (4, 4));
        assert_eq!(drv.engine_ref().doorbells(), 4);
        assert_eq!(drv.acked_log(), &[0, 1, 2, 3]);
    }

    #[test]
    fn kernel_errors_surface_per_entry_without_wedging_the_batch() {
        let mut drv = setup(8);
        let mut cmds = health_reads(3);
        // An unknown module: typed kernel error for this entry only.
        cmds.insert(1, (2, 9, CommandCode::ModuleReset, Vec::new()));
        let results = drv.submit(cmds);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(DriverError::Kernel(KernelError::UnknownModule { .. }))
        ));
        assert!(results[2].is_ok() && results[3].is_ok());
        assert_eq!(drv.report().acked, 3);
    }

    #[test]
    fn per_entry_drop_recovers_only_the_lost_entry() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mut drv = setup(4);
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::CmdDrop).injector());
        let results = drv.submit(health_reads(4));
        assert!(results.iter().all(|r| r.is_ok()));
        let r = drv.report();
        assert_eq!(r.timeouts, 1, "{r}");
        assert_eq!(r.retries, 1, "{r}");
        assert!(r.converged(), "{r}");
        // Only the dropped entry re-rode a doorbell: 4 + 1 transmissions.
        assert_eq!(drv.engine_ref().commands_sent(), 5);
    }

    #[test]
    fn lost_irq_replays_instead_of_double_applying() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mut drv = setup(4);
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::IrqLost).injector());
        let results = drv.submit(vec![
            (1, 0, CommandCode::ModuleInit, Vec::new()),
            (2, 0, CommandCode::ModuleInit, Vec::new()),
        ]);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(drv.kernel().replays(), 1, "retry must replay");
        assert_eq!(drv.kernel().commands_executed(), 2);
        assert_eq!(drv.report().timeouts, 1);
    }

    #[test]
    fn corrupted_descriptor_nacks_then_succeeds() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mut drv = setup(4);
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::CmdCorrupt).injector());
        let results = drv.submit(health_reads(4));
        assert!(results.iter().all(|r| r.is_ok()));
        let r = drv.report();
        assert_eq!(r.nacks, 1, "{r}");
        assert_eq!(r.retries, 1, "{r}");
        assert_eq!(drv.kernel().decode_errors(), 1);
    }

    #[test]
    fn exhausted_retries_give_up_with_accounting() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mut drv = setup(4);
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::LinkDown).injector());
        let results = drv.submit(health_reads(2));
        for r in &results {
            match r {
                Err(DriverError::GaveUp { attempts, .. }) => {
                    assert_eq!(*attempts, drv.policy().max_retries + 1);
                }
                other => panic!("expected GaveUp, got {other:?}"),
            }
        }
        let rep = drv.report();
        assert_eq!(rep.gave_up, 2);
        assert!(rep.converged(), "{rep}");
    }

    #[test]
    fn batch_trace_spans_mark_submit_drain_complete() {
        let mut drv = setup(8);
        drv.set_probe(harmonia_sim::Probe::enabled());
        drv.submit(health_reads(8));
        let trace = drv.probe().trace.take();
        let names: Vec<&str> = trace.events().iter().map(|e| e.kind.name()).collect();
        for expected in ["batch-submit", "batch-drain", "batch-complete", "cmd-ack"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
    }
}
