//! Time-multiplexed multi-tenancy: a deterministic tenant scheduler
//! over the PR plane (ROADMAP item 2; SYNERGY's time-sharing model on
//! RC3E-style cloud provisioning).
//!
//! [`crate::pr::MultiTenantRegion`] gives Harmonia *spatial* tenancy:
//! tenants live side by side in PR slots. This module adds the
//! *temporal* axis — more tenants than slots, sharing one slot through
//! scheduled partial reconfiguration. Each registered tenant pins a
//! persistent, disjoint host-queue range (its doorbells survive
//! preemption); every involuntary switch pays the honest PR price: one
//! context-save readback of the outgoing tenant plus one bitstream load
//! of the incoming one, both charged through
//! [`crate::pr::PrSlot::reconfig_time_ps`].
//!
//! Two policies, chosen by the [`TenantPolicy`] passed to
//! [`TenantScheduler::new`]:
//!
//! * **round-robin** — equal fixed slices in registration order. Simple
//!   and starvation-free, but a noisy neighbor degrades everyone
//!   equally: an N-tenant region hands a victim 1/N of the doorbell
//!   budget regardless of weight.
//! * **weighted-fair** — WF²Q+-style virtual-clock scheduling with
//!   integer arithmetic only. Tenant `i` with weight `w_i` receives
//!   `w_i / Σw` of the slices (within one slice of exact, see
//!   `shell/tests/all/tenancy_properties.rs`) *and* a per-slice command
//!   budget scaled by `w_i`, so a weighted victim keeps its tail
//!   latency while an aggressor floods its own queues.
//!
//! Everything here is integer/deterministic: virtual time is tracked in
//! units of `VSCALE/w` so every division is exact for weights up to
//! 16, and ties break on tenant index. The same registration order
//! yields byte-identical schedules on every run.

use crate::pr::{MultiTenantRegion, TenancyError, TenantRole};
use harmonia_sim::Picos;
use std::ops::Range;

/// Default slice length: 2 ms — an order of magnitude above the
/// millisecond-scale PR reconfiguration cost, so useful work dominates
/// switch overhead even under round-robin.
pub const DEFAULT_TENANT_SLICE_PS: Picos = 2_000_000_000;
/// Command budget of one unweighted slice. Weighted-fair multiplies
/// this by the tenant's weight.
pub const BASE_SLICE_CMDS: u64 = 64;
/// Virtual-time unit: `lcm(1..=16)`, so `VSCALE / w` is exact for every
/// admissible weight and the virtual clock never accumulates rounding.
const VSCALE: u128 = 720_720;
/// Largest admissible tenant weight (keeps `VSCALE` divisions exact).
pub(crate) const MAX_TENANT_WEIGHT: u64 = 16;

/// Scheduling policy for the time-shared slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantPolicy {
    /// Equal slices in registration order.
    RoundRobin,
    /// WF²Q+-style weighted fair queueing.
    WeightedFair,
}

impl TenantPolicy {
    /// Stable short name (`rr` / `wfq`) for bench rows and reports.
    pub fn name(&self) -> &'static str {
        match self {
            TenantPolicy::RoundRobin => "rr",
            TenantPolicy::WeightedFair => "wfq",
        }
    }
}

/// One scheduling decision: which tenant owns the slot next and what it
/// may spend there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceGrant {
    /// Index of the granted tenant (registration order).
    pub tenant: usize,
    /// Doorbell command budget for this slice (policy- and
    /// weight-dependent); enforced by the control kernel.
    pub budget_cmds: u64,
    /// Wall-clock length of the slice.
    pub slice_ps: Picos,
    /// PR cost paid to make the tenant resident (context save of the
    /// evicted tenant + bitstream load), `0` when it already was.
    pub switch_ps: Picos,
}

#[derive(Clone, Debug)]
struct ScheduledTenant {
    role: TenantRole,
    weight: u64,
    queue_range: Range<u16>,
    slices: u64,
    /// WF²Q+ virtual start tag.
    start: u128,
    /// WF²Q+ virtual finish tag.
    finish: u128,
    /// Runnable state at the previous scheduling point (detects the
    /// idle→busy edge that re-anchors the tags to the virtual clock).
    prev_runnable: bool,
}

/// Deterministic time-multiplexing scheduler for one PR slot.
///
/// ```
/// use harmonia_shell::pr::{MultiTenantRegion, TenantRole};
/// use harmonia_shell::sched::{TenantPolicy, TenantScheduler, DEFAULT_TENANT_SLICE_PS};
/// use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};
/// use harmonia_hw::device::catalog;
/// use harmonia_hw::resource::ResourceUsage;
///
/// let device = catalog::device_a();
/// let unified = UnifiedShell::for_device(&device);
/// let role = RoleSpec::builder("mt").network_gbps(100).build();
/// let shell = TailoredShell::tailor(&unified, &role).unwrap();
/// let region = MultiTenantRegion::partition(&shell, device.capacity(), 1, 256);
/// let mut sched = TenantScheduler::new(
///     region, 0, TenantPolicy::WeightedFair, DEFAULT_TENANT_SLICE_PS).unwrap();
/// let logic = ResourceUsage::new(50_000, 80_000, 100, 20, 100);
/// let victim = sched.register(TenantRole::new("victim", logic, 8), 4).unwrap();
/// let noisy = sched.register(TenantRole::new("noisy", logic, 8), 1).unwrap();
/// let grant = sched.next_slice(&[true, true]).unwrap().unwrap();
/// assert_eq!(grant.tenant, victim);
/// assert!(grant.switch_ps > 0, "first residency pays the PR load");
/// assert_eq!(grant.budget_cmds, 64 * 4, "budget scales with weight");
/// # let _ = noisy;
/// ```
#[derive(Debug)]
pub struct TenantScheduler {
    region: MultiTenantRegion,
    slot: usize,
    policy: TenantPolicy,
    slice_ps: Picos,
    tenants: Vec<ScheduledTenant>,
    /// Tenant currently loaded in the slot.
    resident: Option<usize>,
    /// Round-robin rotation cursor.
    rr_next: usize,
    /// WF²Q+ virtual clock, in `VSCALE` units.
    vclock: u128,
    switches: u64,
}

impl TenantScheduler {
    /// Wraps a region, time-sharing `slot` under `policy` with
    /// `slice_ps`-long slices.
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoSuchSlot`] when `slot` is out of range, and
    /// [`TenancyError::SlotOccupied`] when something is already deployed
    /// there (the scheduler must own the slot's lifecycle exclusively).
    pub fn new(
        region: MultiTenantRegion,
        slot: usize,
        policy: TenantPolicy,
        slice_ps: Picos,
    ) -> Result<TenantScheduler, TenancyError> {
        let s = region
            .slots()
            .get(slot)
            .ok_or(TenancyError::NoSuchSlot { slot })?;
        if let Some(resident) = s.tenant() {
            return Err(TenancyError::SlotOccupied {
                slot,
                resident: resident.name.clone(),
            });
        }
        assert!(slice_ps > 0, "slice length must be positive");
        Ok(TenantScheduler {
            region,
            slot,
            policy,
            slice_ps,
            tenants: Vec::new(),
            resident: None,
            rr_next: 0,
            vclock: 0,
            switches: 0,
        })
    }

    /// Registers a tenant: reserves its persistent queue range and seeds
    /// its fair-queueing tags. Weights only matter under
    /// [`TenantPolicy::WeightedFair`]; round-robin ignores them.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is outside `1..=MAX_TENANT_WEIGHT`.
    ///
    /// # Errors
    ///
    /// [`TenancyError::QueuesExhausted`] when the region cannot supply
    /// the tenant's queue demand, and [`TenancyError::DoesNotFit`] when
    /// its logic exceeds the shared slot's capacity.
    pub fn register(&mut self, role: TenantRole, weight: u64) -> Result<usize, TenancyError> {
        assert!(
            (1..=MAX_TENANT_WEIGHT).contains(&weight),
            "tenant weight {weight} outside 1..={MAX_TENANT_WEIGHT}"
        );
        // Fit is checked at registration so an oversized tenant fails
        // here, not mid-schedule on its first slice.
        let capacity = *self.region.slots()[self.slot].capacity();
        if !role.resources.fits_in(&capacity) {
            return Err(TenancyError::DoesNotFit {
                slot: self.slot,
                requested: role.resources,
                capacity,
            });
        }
        let queue_range = self.region.reserve_queues(role.queues)?;
        self.tenants.push(ScheduledTenant {
            role,
            weight,
            queue_range,
            slices: 0,
            start: 0,
            finish: VSCALE / weight as u128,
            prev_runnable: false,
        });
        Ok(self.tenants.len() - 1)
    }

    /// Registered tenant count.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A tenant's pinned queue range.
    pub fn queue_range(&self, tenant: usize) -> Range<u16> {
        self.tenants[tenant].queue_range.clone()
    }

    /// Slices granted to a tenant so far.
    pub fn slices_granted(&self, tenant: usize) -> u64 {
        self.tenants[tenant].slices
    }

    /// Tenant switches performed (residency changes, not grants).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The underlying region (reconfig-time accounting lives there).
    pub fn region(&self) -> &MultiTenantRegion {
        &self.region
    }

    /// Doorbell budget one slice grants `tenant` under the policy.
    pub fn budget_cmds(&self, tenant: usize) -> u64 {
        match self.policy {
            TenantPolicy::RoundRobin => BASE_SLICE_CMDS,
            TenantPolicy::WeightedFair => BASE_SLICE_CMDS * self.tenants[tenant].weight,
        }
    }

    /// Picks the next tenant to own the slot and makes it resident,
    /// paying (and reporting) the PR switch cost when residency changes.
    /// `runnable[i]` says whether tenant `i` has queued work; idle
    /// tenants are skipped without consuming virtual time, so backlogged
    /// tenants absorb the slack (work-conserving). Returns `None` when
    /// nobody is runnable.
    ///
    /// # Panics
    ///
    /// Panics when `runnable.len()` disagrees with the tenant count.
    ///
    /// # Errors
    ///
    /// Propagates [`TenancyError`] from the PR plane (cannot happen for
    /// ranges the scheduler itself reserved, but the region stays the
    /// single source of truth for isolation).
    pub fn next_slice(&mut self, runnable: &[bool]) -> Result<Option<SliceGrant>, TenancyError> {
        assert_eq!(
            runnable.len(),
            self.tenants.len(),
            "runnable mask must cover every registered tenant"
        );
        let pick = match self.policy {
            TenantPolicy::RoundRobin => self.pick_round_robin(runnable),
            TenantPolicy::WeightedFair => self.pick_weighted_fair(runnable),
        };
        let Some(pick) = pick else {
            return Ok(None);
        };

        let mut switch_ps = 0;
        if self.resident != Some(pick) {
            if self.resident.is_some() {
                // Preempting a live tenant: read its context back before
                // the slot is overwritten, then evict.
                switch_ps += self.region.charge_context_save(self.slot)?;
                self.region.undeploy(self.slot)?;
            }
            switch_ps += self.region.deploy_with_range(
                self.slot,
                self.tenants[pick].role.clone(),
                self.tenants[pick].queue_range.clone(),
            )?;
            self.resident = Some(pick);
            self.switches += 1;
        }
        self.tenants[pick].slices += 1;
        Ok(Some(SliceGrant {
            tenant: pick,
            budget_cmds: self.budget_cmds(pick),
            slice_ps: self.slice_ps,
            switch_ps,
        }))
    }

    fn pick_round_robin(&mut self, runnable: &[bool]) -> Option<usize> {
        let n = self.tenants.len();
        for off in 0..n {
            let idx = (self.rr_next + off) % n;
            if runnable[idx] {
                self.rr_next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// WF²Q+ with integer virtual time. A tenant is *eligible* when its
    /// start tag has come due (`start <= vclock`); among eligible
    /// tenants the smallest finish tag wins, index breaking ties. The
    /// clock advances by `VSCALE / Σ(runnable weights)` per slice, so
    /// over any window each backlogged tenant's share tracks
    /// `w_i / Σw` within one slice — the eligibility gate is what stops
    /// a heavy tenant from bunching its whole share at the front.
    fn pick_weighted_fair(&mut self, runnable: &[bool]) -> Option<usize> {
        // Re-anchor tenants that just became busy: credit earned while
        // idle is forfeited (tags catch up to the clock).
        for (t, &r) in self.tenants.iter_mut().zip(runnable) {
            if r && !t.prev_runnable {
                t.start = t.start.max(self.vclock);
                t.finish = t.start + VSCALE / t.weight as u128;
            }
            t.prev_runnable = r;
        }
        let total_weight: u64 = self
            .tenants
            .iter()
            .zip(runnable)
            .filter(|(_, &r)| r)
            .map(|(t, _)| t.weight)
            .sum();
        if total_weight == 0 {
            return None;
        }
        let eligible_min = |tenants: &[ScheduledTenant], vclock: u128| {
            tenants
                .iter()
                .enumerate()
                .zip(runnable)
                .filter(|((_, t), &r)| r && t.start <= vclock)
                .min_by_key(|((i, t), _)| (t.finish, *i))
                .map(|((i, _), _)| i)
        };
        let pick = match eligible_min(&self.tenants, self.vclock) {
            Some(i) => i,
            None => {
                // Every runnable tenant is ahead of the clock; jump to
                // the earliest start so the schedule stays
                // work-conserving.
                let jump = self
                    .tenants
                    .iter()
                    .zip(runnable)
                    .filter(|(_, &r)| r)
                    .map(|(t, _)| t.start)
                    .min()
                    .expect("total_weight > 0 implies a runnable tenant");
                self.vclock = self.vclock.max(jump);
                eligible_min(&self.tenants, self.vclock)
                    .expect("a tenant with start == vclock is eligible")
            }
        };
        let t = &mut self.tenants[pick];
        t.start = t.finish;
        t.finish = t.start + VSCALE / t.weight as u128;
        self.vclock += VSCALE / total_weight as u128;
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::role::RoleSpec;
    use crate::tailor::TailoredShell;
    use crate::unified::UnifiedShell;
    use harmonia_hw::device::catalog;
    use harmonia_hw::resource::ResourceUsage;

    fn region() -> MultiTenantRegion {
        let device = catalog::device_a();
        let unified = UnifiedShell::for_device(&device);
        let role = RoleSpec::builder("mt").network_gbps(100).build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        MultiTenantRegion::partition(&shell, device.capacity(), 1, 1024)
    }

    fn tenant(name: &str) -> TenantRole {
        TenantRole::new(name, ResourceUsage::new(50_000, 80_000, 100, 20, 100), 8)
    }

    fn sched(policy: TenantPolicy, weights: &[u64]) -> TenantScheduler {
        let mut s = TenantScheduler::new(region(), 0, policy, DEFAULT_TENANT_SLICE_PS).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            s.register(tenant(&format!("t{i}")), w).unwrap();
        }
        s
    }

    fn run_slices(s: &mut TenantScheduler, n: usize) -> Vec<usize> {
        let runnable = vec![true; s.tenant_count()];
        (0..n)
            .map(|_| s.next_slice(&runnable).unwrap().unwrap().tenant)
            .collect()
    }

    #[test]
    fn round_robin_rotates_in_registration_order() {
        let mut s = sched(TenantPolicy::RoundRobin, &[1, 1, 1]);
        assert_eq!(run_slices(&mut s, 7), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_skips_idle_tenants() {
        let mut s = sched(TenantPolicy::RoundRobin, &[1, 1, 1]);
        let g = s.next_slice(&[false, true, true]).unwrap().unwrap();
        assert_eq!(g.tenant, 1);
        let g = s.next_slice(&[false, true, true]).unwrap().unwrap();
        assert_eq!(g.tenant, 2);
        assert_eq!(s.next_slice(&[false, false, false]).unwrap(), None);
    }

    #[test]
    fn wfq_share_tracks_weights_within_one_slice() {
        for weights in [&[1u64, 1, 8][..], &[4, 2, 1], &[16, 1, 1], &[3, 5, 7]] {
            let mut s = sched(TenantPolicy::WeightedFair, weights);
            let total: u64 = weights.iter().sum();
            let rounds = 6 * total;
            let picks = run_slices(&mut s, rounds as usize);
            for (i, &w) in weights.iter().enumerate() {
                let got = picks.iter().filter(|&&p| p == i).count() as i128;
                // got * total within ±total of rounds * w  ⇔  share off
                // by at most one slice.
                let diff = got * total as i128 - (rounds * w) as i128;
                assert!(
                    diff.abs() <= total as i128,
                    "weights {weights:?}: tenant {i} got {got}/{rounds}, diff {diff}"
                );
            }
        }
    }

    #[test]
    fn wfq_budget_scales_with_weight_rr_does_not() {
        let mut wfq = sched(TenantPolicy::WeightedFair, &[4, 1]);
        assert_eq!(wfq.budget_cmds(0), BASE_SLICE_CMDS * 4);
        assert_eq!(wfq.budget_cmds(1), BASE_SLICE_CMDS);
        let rr = sched(TenantPolicy::RoundRobin, &[4, 1]);
        assert_eq!(rr.budget_cmds(0), BASE_SLICE_CMDS);
        assert_eq!(rr.budget_cmds(1), BASE_SLICE_CMDS);
        // Weighted grants carry the scaled budget.
        let g = wfq.next_slice(&[true, true]).unwrap().unwrap();
        assert_eq!(
            g.budget_cmds,
            BASE_SLICE_CMDS * wfq.tenants[g.tenant].weight
        );
    }

    #[test]
    fn switch_pays_save_plus_load_and_same_tenant_is_free() {
        let mut s = sched(TenantPolicy::RoundRobin, &[1, 1]);
        let load = s.region().slots()[0].reconfig_time_ps();
        let g0 = s.next_slice(&[true, true]).unwrap().unwrap();
        // First residency: no context to save, just the load.
        assert_eq!(g0.switch_ps, load);
        let g1 = s.next_slice(&[true, true]).unwrap().unwrap();
        // Preemption: save the outgoing tenant, load the incoming one.
        assert_eq!(g1.switch_ps, 2 * load);
        // Only one tenant runnable → repeated grants stay resident.
        let g2 = s.next_slice(&[false, true]).unwrap().unwrap();
        assert_eq!((g2.tenant, g2.switch_ps), (1, 0));
        assert_eq!(s.switches(), 2);
        assert_eq!(s.region().total_reconfig_ps(), 3 * load);
    }

    #[test]
    fn queue_ranges_stay_pinned_and_disjoint_across_switches() {
        let mut s = sched(TenantPolicy::WeightedFair, &[2, 1, 1]);
        let ranges: Vec<_> = (0..3).map(|i| s.queue_range(i)).collect();
        assert_eq!(ranges, vec![0..8, 8..16, 16..24]);
        for _ in 0..3 {
            let picks = run_slices(&mut s, 8);
            assert!(picks.iter().any(|&p| p != picks[0]), "must multiplex");
        }
        for (i, range) in ranges.iter().enumerate() {
            assert_eq!(&s.queue_range(i), range, "range moved for tenant {i}");
        }
        assert!(s.region().queues_disjoint());
    }

    #[test]
    fn wfq_rising_edge_forfeits_idle_credit() {
        let mut s = sched(TenantPolicy::WeightedFair, &[1, 1]);
        // Tenant 1 idles while tenant 0 runs for a while...
        for _ in 0..10 {
            let g = s.next_slice(&[true, false]).unwrap().unwrap();
            assert_eq!(g.tenant, 0);
        }
        // ...then wakes: it must NOT monopolize the slot to "catch up".
        let picks: Vec<_> = (0..10)
            .map(|_| s.next_slice(&[true, true]).unwrap().unwrap().tenant)
            .collect();
        let ones = picks.iter().filter(|&&p| p == 1).count();
        assert!(
            (4..=6).contains(&ones),
            "woken tenant got {ones}/10: {picks:?}"
        );
    }

    #[test]
    fn oversized_tenant_rejected_at_registration() {
        let mut s = sched(TenantPolicy::RoundRobin, &[]);
        let huge = TenantRole::new("huge", ResourceUsage::new(5_000_000, 1, 0, 0, 0), 4);
        assert!(matches!(
            s.register(huge, 1),
            Err(TenancyError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn occupied_slot_rejected_at_construction() {
        let mut r = region();
        r.deploy(0, tenant("squatter")).unwrap();
        assert!(matches!(
            TenantScheduler::new(r, 0, TenantPolicy::RoundRobin, 1),
            Err(TenancyError::SlotOccupied { .. })
        ));
    }

    #[test]
    fn deterministic_across_reconstruction() {
        let run = || {
            let mut s = sched(TenantPolicy::WeightedFair, &[4, 2, 1, 1]);
            format!("{:?}", run_slices(&mut s, 64))
        };
        assert_eq!(run(), run());
    }
}
