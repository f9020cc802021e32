//! Host-side driver for time-multiplexed tenants.
//!
//! [`TenantHostDriver`] is the composition root of the virtualization
//! stack: it owns one [`TenantScheduler`] (the shell-side policy engine
//! over the PR plane), one [`DmaEngine`] + [`UnifiedControlKernel`]
//! (the shared control path), and one SQ/CQ ring pair **per tenant**
//! inside that tenant's pinned queue range. Each scheduler grant runs
//! one slice: the driver tops the resident tenant's submission ring up
//! from its backlog and runs ring rounds — the same burst delivery,
//! per-descriptor faults, doorbell and CQ poll as the
//! [`CommandDriver`](crate::CommandDriver)'s ring transport — *with the
//! slice's command budget*. A tenant that floods its backlog therefore
//! stalls only its own rings — the kernel refuses to drain past the
//! budget and the scheduler hands the slot to the next tenant.
//!
//! Latencies are closed-loop: each completion is timed from the later
//! of its enqueue and the tenant's previous completion, the way a
//! client that issues its next command on ack would see it. Slices
//! where the tenant is preempted show up as exactly the inter-slice gap
//! in its tail — the noisy-neighbor signal `BENCH_tenancy.json`
//! quantifies.
//!
//! Retry policy: a dropped or nacked descriptor re-queues at the
//! *front* of its tenant's backlog under its original idempotency tag,
//! a lost completion interrupt retries the same way, without a bound,
//! and a burst lost to a down link burns the remainder of the slice
//! (the wire is dead; spinning would starve the other tenants' grants).
//! Tags are numbered per lane, and the kernel keeps one replay window
//! per tenant ring, of at least twice the ring depth: a retry re-queued
//! at the front stays inside it however many other tenants' commands
//! run in between, so the kernel replays it and never re-executes. A
//! tag a whole window behind its ring's newest would get
//! `KernelError::StaleTag` instead. Everything is deterministic: no RNG
//! outside the seeded fault plane, ties broken by tenant index,
//! byte-identical on every run.

use crate::batch::CmdSpec;
use crate::dma::DmaEngine;
use crate::ring::{self, Outcome, Ring};
use harmonia_cmd::queue::CommandBudget;
use harmonia_cmd::{CommandPacket, SrcId, UnifiedControlKernel};
use harmonia_shell::sched::{SliceGrant, TenantScheduler};
use harmonia_sim::histo::LogHistogram;
use harmonia_sim::{FaultInjector, Picos};
use std::collections::VecDeque;

/// Default per-tenant ring depth: deliberately deeper than
/// [`BASE_SLICE_CMDS`](harmonia_shell::sched::BASE_SLICE_CMDS) so
/// kernel-side quota enforcement is observable — a flooding tenant
/// overfills its ring and the budgeted drain stops mid-ring.
pub(crate) const DEFAULT_TENANT_RING_DEPTH: usize = 128;

/// A command waiting in (or re-queued to) a tenant's backlog.
#[derive(Clone, Debug)]
struct PendingCmd {
    /// Idempotency tag, numbered per lane. The kernel keeps one replay
    /// window per tenant ring, so tenants' equal tags never meet, and
    /// dense tags keep a retry inside its ring's window.
    tag: u32,
    packet: CommandPacket,
    /// Clock at first enqueue (closed-loop latency origin).
    submitted_at: Picos,
}

/// One tenant's private slice of the host interface: rings inside its
/// pinned queue range, a backlog, and per-tenant accounting.
#[derive(Debug)]
struct TenantLane {
    ring: Ring<PendingCmd>,
    backlog: VecDeque<PendingCmd>,
    /// The tag the lane's next enqueued command gets.
    next_tag: u32,
    latency: LogHistogram,
    /// Completion time of the tenant's latest acked command.
    last_done_ps: Picos,
    /// Counters; `slices` is the scheduler's, filled in on read.
    stats: TenantStats,
}

impl TenantLane {
    fn new() -> TenantLane {
        TenantLane {
            ring: Ring::new(DEFAULT_TENANT_RING_DEPTH),
            backlog: VecDeque::new(),
            next_tag: 0,
            latency: LogHistogram::new(),
            last_done_ps: 0,
            stats: TenantStats {
                completed: 0,
                nacks: 0,
                timeouts: 0,
                errors: 0,
                slices: 0,
            },
        }
    }

    fn runnable(&self) -> bool {
        !self.backlog.is_empty() || !self.ring.is_idle()
    }
}

/// Per-tenant accounting snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// Commands acked.
    pub completed: u64,
    /// Wire-corruption NACKs (all retried).
    pub nacks: u64,
    /// Lost descriptors / bursts / completion interrupts (all retried).
    pub timeouts: u64,
    /// Typed kernel errors (terminal; the command is not retried).
    pub errors: u64,
    /// Scheduler slices this tenant received.
    pub slices: u64,
}

/// The multi-tenant host driver. See the module docs for the model.
#[derive(Debug)]
pub struct TenantHostDriver {
    sched: TenantScheduler,
    engine: DmaEngine,
    kernel: UnifiedControlKernel,
    lanes: Vec<TenantLane>,
    faults: FaultInjector,
    clock_ps: Picos,
    slices_run: u64,
    quota_hits: u64,
}

impl TenantHostDriver {
    /// Builds the driver over a pre-registered scheduler. One SQ/CQ
    /// pair of `DEFAULT_TENANT_RING_DEPTH` is carved per registered
    /// tenant.
    pub fn new(
        sched: TenantScheduler,
        engine: DmaEngine,
        kernel: UnifiedControlKernel,
    ) -> TenantHostDriver {
        let lanes = (0..sched.tenant_count())
            .map(|_| TenantLane::new())
            .collect();
        TenantHostDriver {
            sched,
            engine,
            kernel,
            lanes,
            faults: FaultInjector::none(),
            clock_ps: 0,
            slices_run: 0,
            quota_hits: 0,
        }
    }

    /// Wires one injector through the whole stack: per-descriptor
    /// drop/corrupt/irq-lost faults in the driver plus link/credit
    /// faults in the DMA engine, all drawing from the same schedule.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.engine.set_fault_injector(faults.clone());
        self.faults = faults;
    }

    /// Queues commands on a tenant's backlog (closed-loop source).
    pub fn enqueue(&mut self, tenant: usize, cmds: Vec<CmdSpec>) {
        let lane = &mut self.lanes[tenant];
        for (rbb_id, instance_id, code, data) in cmds {
            let tag = lane.next_tag;
            lane.next_tag += 1;
            let packet = CommandPacket::new(SrcId::Application, rbb_id, instance_id, code)
                .with_data(data)
                .with_idempotency_tag(tag);
            lane.backlog.push_back(PendingCmd {
                tag,
                packet,
                submitted_at: self.clock_ps,
            });
        }
    }

    /// The shared control kernel (commands executed, replays).
    pub fn kernel(&self) -> &UnifiedControlKernel {
        &self.kernel
    }

    /// The scheduler (policy, slices granted, region accounting).
    pub fn scheduler(&self) -> &TenantScheduler {
        &self.sched
    }

    /// The driver's simulation clock.
    pub fn clock_ps(&self) -> Picos {
        self.clock_ps
    }

    /// Slices executed so far.
    pub fn slices_run(&self) -> u64 {
        self.slices_run
    }

    /// Slices ended by kernel quota enforcement (work still queued).
    pub fn quota_hits(&self) -> u64 {
        self.quota_hits
    }

    /// A tenant's closed-loop command-latency histogram.
    pub fn latency(&self, tenant: usize) -> &LogHistogram {
        &self.lanes[tenant].latency
    }

    /// A tenant's accounting snapshot.
    pub fn stats(&self, tenant: usize) -> TenantStats {
        TenantStats {
            slices: self.sched.slices_granted(tenant),
            ..self.lanes[tenant].stats.clone()
        }
    }

    /// Whether every backlog and ring has drained.
    pub fn idle(&self) -> bool {
        self.lanes.iter().all(|l| !l.runnable())
    }

    /// Runs scheduler slices until every tenant drains or `max_slices`
    /// is hit, returning the number of slices executed. Each call
    /// continues from the current clock — faults keyed to absolute
    /// simulation time line up across calls.
    pub fn run(&mut self, max_slices: u64) -> u64 {
        let mut executed = 0;
        while executed < max_slices {
            let runnable: Vec<bool> = self.lanes.iter().map(TenantLane::runnable).collect();
            let grant = self
                .sched
                .next_slice(&runnable)
                .expect("scheduler-reserved ranges cannot violate isolation");
            let Some(grant) = grant else { break };
            self.clock_ps += grant.switch_ps;
            self.run_slice(&grant);
            self.slices_run += 1;
            executed += 1;
        }
        executed
    }

    /// One granted slice: rounds of top-up → burst delivery → budgeted
    /// doorbell → CQ poll, until the tenant drains, the budget dies, or
    /// the slice's wall clock runs out.
    fn run_slice(&mut self, grant: &SliceGrant) {
        let t = grant.tenant;
        let mut budget = CommandBudget::new(t as u32, grant.budget_cmds);
        let deadline = self.clock_ps + grant.slice_ps;
        while self.lanes[t].runnable() && !budget.exhausted() && self.clock_ps < deadline {
            // Stage fresh descriptors into the free ring space.
            let lane = &mut self.lanes[t];
            let take = lane.ring.free().min(lane.backlog.len());
            if take > 0 {
                for p in lane.backlog.drain(..take) {
                    lane.ring.stage(ring::descriptor(p.tag, &p.packet), p);
                }
                let burst = lane
                    .ring
                    .submit(&mut self.engine, &self.faults, self.clock_ps);
                lane.stats.timeouts += burst.lost.len() as u64;
                for p in burst.lost.into_iter().rev() {
                    lane.backlog.push_front(p);
                }
                if !burst.delivered {
                    // Link down: nothing reached the device. Burn the
                    // slice — retrying into a dead wire would starve every
                    // other grant.
                    self.clock_ps = (self.clock_ps + burst.latency_ps).max(deadline);
                    break;
                }
                self.clock_ps += burst.latency_ps;
            }
            if lane.ring.is_idle() {
                // Every staged descriptor was dropped on the wire; the
                // clock already advanced, so loop for the retry.
                continue;
            }
            let mut completions = Vec::new();
            let exec_ps = lane.ring.doorbell(
                &mut self.kernel,
                &self.faults,
                self.clock_ps,
                &mut budget,
                &mut completions,
            );
            self.clock_ps += exec_ps;
            for done in completions {
                let p = done.entry;
                match done.outcome {
                    // Executed but unheard-of: the ring's replay window
                    // makes the retry safe.
                    None => {
                        lane.stats.timeouts += 1;
                        lane.backlog.push_front(p);
                    }
                    Some(Outcome::Acked(_)) => {
                        let start = p.submitted_at.max(lane.last_done_ps);
                        let latency = done.at_ps.saturating_sub(start);
                        lane.last_done_ps = done.at_ps;
                        lane.latency.record(latency);
                        lane.stats.completed += 1;
                    }
                    Some(Outcome::Nacked(_)) => {
                        lane.stats.nacks += 1;
                        lane.backlog.push_front(p);
                    }
                    Some(Outcome::Failed(_)) => lane.stats.errors += 1,
                }
            }
            // The kernel stopped at the budget with descriptors queued.
            if budget.exhausted() && !lane.ring.is_idle() {
                self.quota_hits += 1;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_cmd::CommandCode;
    use harmonia_hw::device::catalog;
    use harmonia_hw::ip::PcieDmaIp;
    use harmonia_hw::resource::ResourceUsage;
    use harmonia_hw::Vendor;
    use harmonia_shell::pr::{MultiTenantRegion, TenantRole};
    use harmonia_shell::sched::{TenantPolicy, DEFAULT_TENANT_SLICE_PS};
    use harmonia_shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
    use harmonia_sim::{FaultKind, FaultPlan};

    fn driver(policy: TenantPolicy, weights: &[u64]) -> TenantHostDriver {
        let dev = catalog::device_a();
        let unified = UnifiedShell::for_device(&dev);
        let role = RoleSpec::builder("mt")
            .network_gbps(100)
            .network_ports(1)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let region = MultiTenantRegion::partition(&shell, dev.capacity(), 1, 1024);
        let mut sched = TenantScheduler::new(region, 0, policy, DEFAULT_TENANT_SLICE_PS).unwrap();
        let logic = ResourceUsage::new(50_000, 80_000, 100, 20, 100);
        for (i, &w) in weights.iter().enumerate() {
            sched
                .register(TenantRole::new(format!("t{i}"), logic, 8), w)
                .unwrap();
        }
        let mut kernel = UnifiedControlKernel::new(64);
        kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        let (gen, lanes) = dev.pcie().unwrap();
        let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
        TenantHostDriver::new(sched, engine, kernel)
    }

    fn health_reads(n: usize) -> Vec<CmdSpec> {
        (0..n)
            .map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()))
            .collect()
    }

    #[test]
    fn single_tenant_drains_without_preemption() {
        let mut d = driver(TenantPolicy::RoundRobin, &[1]);
        d.enqueue(0, health_reads(100));
        d.run(u64::MAX);
        assert!(d.idle());
        let s = d.stats(0);
        assert_eq!(s.completed, 100);
        assert_eq!((s.nacks, s.timeouts, s.errors), (0, 0, 0));
        assert_eq!(d.scheduler().switches(), 1, "one initial residency");
        assert_eq!(d.latency(0).count(), 100);
    }

    #[test]
    fn two_tenants_interleave_and_both_drain() {
        let mut d = driver(TenantPolicy::RoundRobin, &[1, 1]);
        d.enqueue(0, health_reads(200));
        d.enqueue(1, health_reads(200));
        d.run(u64::MAX);
        assert!(d.idle());
        assert_eq!(d.stats(0).completed, 200);
        assert_eq!(d.stats(1).completed, 200);
        assert!(
            d.scheduler().switches() > 2,
            "200 cmds over 64-cmd slices must preempt"
        );
    }

    #[test]
    fn flooding_tenant_hits_quota_without_blocking_the_victim() {
        let mut d = driver(TenantPolicy::WeightedFair, &[4, 1]);
        d.enqueue(0, health_reads(50));
        d.enqueue(1, health_reads(2000));
        d.run(u64::MAX);
        assert!(d.idle());
        assert_eq!(d.stats(0).completed, 50);
        assert_eq!(d.stats(1).completed, 2000);
        assert!(d.quota_hits() > 0, "the flood must trip quota enforcement");
    }

    #[test]
    fn campaign_faults_recover_through_replay() {
        let mut d = driver(TenantPolicy::RoundRobin, &[1, 1]);
        d.set_fault_injector(
            FaultPlan::new()
                .at(0, FaultKind::CmdDrop)
                .at(1, FaultKind::CmdCorrupt)
                .at(2, FaultKind::IrqLost)
                .injector(),
        );
        d.enqueue(0, health_reads(40));
        d.enqueue(1, health_reads(40));
        d.run(u64::MAX);
        assert!(d.idle());
        assert_eq!(d.stats(0).completed + d.stats(1).completed, 80);
        let total_recoveries: u64 = (0..2).map(|t| d.stats(t).nacks + d.stats(t).timeouts).sum();
        assert_eq!(total_recoveries, 3, "each armed fault fires exactly once");
    }

    #[test]
    fn link_down_burns_the_slice_but_converges_after_link_up() {
        let mut d = driver(TenantPolicy::RoundRobin, &[1, 1]);
        d.set_fault_injector(
            FaultPlan::new()
                .at(0, FaultKind::LinkDown)
                .at(30_000_000_000, FaultKind::LinkUp)
                .injector(),
        );
        d.enqueue(0, health_reads(30));
        d.enqueue(1, health_reads(30));
        d.run(u64::MAX);
        assert!(d.idle(), "work must converge once the link returns");
        assert_eq!(d.stats(0).completed + d.stats(1).completed, 60);
        assert!(d.stats(0).timeouts > 0 || d.stats(1).timeouts > 0);
        assert!(d.clock_ps() >= 30_000_000_000, "waited out the outage");
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut d = driver(TenantPolicy::WeightedFair, &[4, 2, 1]);
            d.set_fault_injector(
                FaultPlan::new()
                    .with_rates(
                        7,
                        harmonia_sim::FaultRates {
                            cmd_drop: 0.05,
                            cmd_corrupt: 0.05,
                            irq_lost: 0.05,
                            ecc: 0.0,
                        },
                    )
                    .injector(),
            );
            for t in 0..3 {
                d.enqueue(t, health_reads(150));
            }
            d.run(u64::MAX);
            let stats: Vec<TenantStats> = (0..3).map(|t| d.stats(t)).collect();
            let p99s: Vec<u64> = (0..3).map(|t| d.latency(t).p99()).collect();
            (stats, p99s, d.clock_ps(), d.slices_run(), d.quota_hits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_slices_caps_execution() {
        let mut d = driver(TenantPolicy::RoundRobin, &[1, 1]);
        d.enqueue(0, health_reads(1000));
        d.enqueue(1, health_reads(1000));
        assert_eq!(d.run(3), 3);
        assert!(!d.idle());
        assert_eq!(d.slices_run(), 3);
    }
}
