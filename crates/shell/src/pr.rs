//! Multi-tenancy through partial reconfiguration (§6, Discussion).
//!
//! "Harmonia utilizes the Ex-function in RBBs to achieve resource isolation
//! in the shell, while employing typical partial reconfiguration techniques
//! to enable multi-tenancy deployment in the role. Moreover, Harmonia
//! provides multiple independent queues to isolate host software belonging
//! to different users."
//!
//! This module models the role region as a set of PR slots: tenants deploy
//! into slots (checked against slot capacity), each tenant gets an
//! exclusive host-queue range, and slot reconfiguration pays the realistic
//! bitstream-load time (region size over ICAP bandwidth) while the rest of
//! the shell keeps running.

use crate::tailor::TailoredShell;
use harmonia_hw::resource::ResourceUsage;
use harmonia_sim::Picos;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Bytes of partial bitstream per LUT of reconfigurable region (frame
/// overhead included) — used to model reconfiguration time.
const BITSTREAM_BYTES_PER_LUT: u64 = 12;
/// Internal configuration port bandwidth, bytes/second (ICAP-class).
const ICAP_BYTES_PER_SEC: u64 = 400_000_000;

/// A tenant's role deployed into a PR slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantRole {
    /// Tenant name.
    pub name: String,
    /// The tenant logic's resource footprint.
    pub resources: ResourceUsage,
    /// Host queues the tenant wants.
    pub queues: u16,
}

impl TenantRole {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, resources: ResourceUsage, queues: u16) -> Self {
        TenantRole {
            name: name.into(),
            resources,
            queues,
        }
    }
}

/// One partially reconfigurable slot of the role region.
#[derive(Clone, Debug)]
pub struct PrSlot {
    capacity: ResourceUsage,
    tenant: Option<TenantRole>,
    reconfigurations: u64,
}

impl PrSlot {
    /// The slot's resource capacity.
    pub fn capacity(&self) -> &ResourceUsage {
        &self.capacity
    }

    /// The currently deployed tenant, if any.
    pub fn tenant(&self) -> Option<&TenantRole> {
        self.tenant.as_ref()
    }

    /// How many times this slot has been reconfigured.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Time to load a partial bitstream for this slot.
    pub fn reconfig_time_ps(&self) -> Picos {
        let bytes = self.capacity.lut * BITSTREAM_BYTES_PER_LUT;
        bytes * 1_000_000_000_000 / ICAP_BYTES_PER_SEC
    }
}

/// Multi-tenancy errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenancyError {
    /// Slot index out of range.
    NoSuchSlot {
        /// Offending index.
        slot: usize,
    },
    /// The slot already hosts a tenant; undeploy first.
    SlotOccupied {
        /// Occupied slot.
        slot: usize,
        /// Resident tenant.
        resident: String,
    },
    /// The tenant's logic exceeds the slot's capacity.
    DoesNotFit {
        /// Target slot.
        slot: usize,
        /// Requested resources.
        requested: ResourceUsage,
        /// Slot capacity.
        capacity: ResourceUsage,
    },
    /// Not enough free host queues for the tenant's isolation range.
    QueuesExhausted {
        /// Queues requested.
        requested: u16,
        /// Queues remaining.
        available: u16,
    },
    /// The slot is empty (undeploy of a free slot).
    SlotEmpty {
        /// Offending index.
        slot: usize,
    },
    /// An explicit queue range collides with a range already assigned to
    /// another slot — caught at deploy time, before the tenant lands.
    RangeOverlap {
        /// Target slot.
        slot: usize,
        /// The requested range.
        requested: Range<u16>,
        /// The slot whose range it collides with.
        other: usize,
    },
    /// An explicit queue range reaches past the region's queue space.
    RangeOutOfBounds {
        /// The requested range.
        requested: Range<u16>,
        /// Total queues the region owns.
        total: u16,
    },
    /// An explicit queue range's width disagrees with the tenant's
    /// declared queue demand.
    RangeMismatch {
        /// The requested range.
        requested: Range<u16>,
        /// Queues the tenant declared.
        declared: u16,
    },
}

impl fmt::Display for TenancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenancyError::NoSuchSlot { slot } => write!(f, "no PR slot {slot}"),
            TenancyError::SlotOccupied { slot, resident } => {
                write!(f, "slot {slot} already hosts '{resident}'")
            }
            TenancyError::DoesNotFit { slot, .. } => {
                write!(f, "tenant does not fit in slot {slot}")
            }
            TenancyError::QueuesExhausted {
                requested,
                available,
            } => write!(f, "wanted {requested} queues, {available} available"),
            TenancyError::SlotEmpty { slot } => write!(f, "slot {slot} is empty"),
            TenancyError::RangeOverlap {
                slot,
                requested,
                other,
            } => write!(
                f,
                "queue range {}..{} for slot {slot} overlaps slot {other}",
                requested.start, requested.end
            ),
            TenancyError::RangeOutOfBounds { requested, total } => write!(
                f,
                "queue range {}..{} exceeds the {total}-queue region",
                requested.start, requested.end
            ),
            TenancyError::RangeMismatch {
                requested,
                declared,
            } => write!(
                f,
                "queue range {}..{} is not the declared {declared} queues wide",
                requested.start, requested.end
            ),
        }
    }
}

impl Error for TenancyError {}

/// The multi-tenant role region over a tailored shell.
#[derive(Clone, Debug)]
pub struct MultiTenantRegion {
    slots: Vec<PrSlot>,
    /// Total host queues available for tenant isolation.
    total_queues: u16,
    /// Next free queue index (queues are handed out as disjoint ranges).
    next_queue: u16,
    /// Queue range per slot (parallel to `slots`).
    queue_ranges: Vec<Option<Range<u16>>>,
    /// Accumulated reconfiguration time.
    total_reconfig_ps: Picos,
}

impl MultiTenantRegion {
    /// Partitions the device headroom left by a tailored shell into
    /// `slot_count` equal PR slots, with `total_queues` host queues
    /// available for tenant isolation.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` is zero.
    pub fn partition(
        shell: &TailoredShell,
        device_capacity: &ResourceUsage,
        slot_count: usize,
        total_queues: u16,
    ) -> Self {
        assert!(slot_count > 0, "need at least one PR slot");
        let headroom = device_capacity.saturating_sub(&shell.resources());
        // Leave 20% of headroom for routing/PR overhead.
        let usable = ResourceUsage::new(
            headroom.lut * 8 / 10,
            headroom.reg * 8 / 10,
            headroom.bram * 8 / 10,
            headroom.uram * 8 / 10,
            headroom.dsp * 8 / 10,
        );
        let n = slot_count as u64;
        let per_slot = ResourceUsage::new(
            usable.lut / n,
            usable.reg / n,
            usable.bram / n,
            usable.uram / n,
            usable.dsp / n,
        );
        MultiTenantRegion {
            slots: (0..slot_count)
                .map(|_| PrSlot {
                    capacity: per_slot,
                    tenant: None,
                    reconfigurations: 0,
                })
                .collect(),
            total_queues,
            next_queue: 0,
            queue_ranges: vec![None; slot_count],
            total_reconfig_ps: 0,
        }
    }

    /// The PR slots.
    pub fn slots(&self) -> &[PrSlot] {
        &self.slots
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.tenant.is_some()).count()
    }

    /// Host queues not yet assigned to any tenant.
    pub fn free_queues(&self) -> u16 {
        self.total_queues - self.next_queue
    }

    /// The queue range assigned to a slot's tenant.
    pub fn queue_range(&self, slot: usize) -> Option<Range<u16>> {
        self.queue_ranges.get(slot).cloned().flatten()
    }

    /// Total time spent reconfiguring.
    pub fn total_reconfig_ps(&self) -> Picos {
        self.total_reconfig_ps
    }

    /// Checks a candidate range for a slot: in bounds and disjoint from
    /// every range already assigned to *another* slot.
    fn validate_range(&self, slot: usize, range: &Range<u16>) -> Result<(), TenancyError> {
        if range.end > self.total_queues || range.start > range.end {
            return Err(TenancyError::RangeOutOfBounds {
                requested: range.clone(),
                total: self.total_queues,
            });
        }
        for (other, r) in self.queue_ranges.iter().enumerate() {
            let Some(r) = r else { continue };
            if other == slot {
                continue;
            }
            if range.start < r.end && r.start < range.end {
                return Err(TenancyError::RangeOverlap {
                    slot,
                    requested: range.clone(),
                    other,
                });
            }
        }
        Ok(())
    }

    /// Slot fit/occupancy pre-flight shared by the deploy paths.
    fn validate_slot(&self, slot: usize, tenant: &TenantRole) -> Result<(), TenancyError> {
        let s = self
            .slots
            .get(slot)
            .ok_or(TenancyError::NoSuchSlot { slot })?;
        if let Some(resident) = &s.tenant {
            return Err(TenancyError::SlotOccupied {
                slot,
                resident: resident.name.clone(),
            });
        }
        if !tenant.resources.fits_in(&s.capacity) {
            return Err(TenancyError::DoesNotFit {
                slot,
                requested: tenant.resources,
                capacity: s.capacity,
            });
        }
        Ok(())
    }

    /// Lands a validated tenant in a slot and charges the PR load time.
    fn install(&mut self, slot: usize, tenant: TenantRole, range: Range<u16>) -> Picos {
        self.queue_ranges[slot] = Some(range);
        let s = &mut self.slots[slot];
        s.tenant = Some(tenant);
        s.reconfigurations += 1;
        let t = s.reconfig_time_ps();
        self.total_reconfig_ps += t;
        t
    }

    /// Deploys a tenant into a slot: capacity check, disjoint queue-range
    /// assignment (validated *before* the tenant lands), and the PR load
    /// time charged.
    ///
    /// # Errors
    ///
    /// See [`TenancyError`].
    pub fn deploy(&mut self, slot: usize, tenant: TenantRole) -> Result<Picos, TenancyError> {
        self.validate_slot(slot, &tenant)?;
        if tenant.queues > self.free_queues() {
            return Err(TenancyError::QueuesExhausted {
                requested: tenant.queues,
                available: self.free_queues(),
            });
        }
        let range = self.next_queue..self.next_queue + tenant.queues;
        // Defense in depth: the monotone allocator cannot hand out an
        // overlapping range on its own, but scheduler-reserved ranges
        // (restored via `deploy_with_range`) share the same space — fail
        // the deploy rather than break isolation after the fact.
        self.validate_range(slot, &range)?;
        self.next_queue = range.end;
        Ok(self.install(slot, tenant, range))
    }

    /// Reserves a disjoint queue range without touching any slot — the
    /// tenant scheduler pins one persistent range per registered tenant
    /// and restores it on every time-slice swap, so a tenant's doorbells
    /// survive preemption (same tenant, same queues: no cross-tenant
    /// leak, unlike recycling a *retired* range).
    ///
    /// # Errors
    ///
    /// [`TenancyError::QueuesExhausted`] when fewer than `n` queues remain.
    pub fn reserve_queues(&mut self, n: u16) -> Result<Range<u16>, TenancyError> {
        if n > self.free_queues() {
            return Err(TenancyError::QueuesExhausted {
                requested: n,
                available: self.free_queues(),
            });
        }
        let range = self.next_queue..self.next_queue + n;
        self.next_queue = range.end;
        Ok(range)
    }

    /// Deploys a tenant into a slot with an explicit, previously reserved
    /// queue range (see [`MultiTenantRegion::reserve_queues`]). The range
    /// is validated eagerly — bounds, width against the tenant's declared
    /// demand, and disjointness against every other slot — so an
    /// isolation violation is a deploy-time [`TenancyError`], never a
    /// broken [`MultiTenantRegion::queues_disjoint`] after the fact.
    ///
    /// # Errors
    ///
    /// See [`TenancyError`].
    pub fn deploy_with_range(
        &mut self,
        slot: usize,
        tenant: TenantRole,
        range: Range<u16>,
    ) -> Result<Picos, TenancyError> {
        self.validate_slot(slot, &tenant)?;
        self.validate_range(slot, &range)?;
        if range.end - range.start != tenant.queues {
            return Err(TenancyError::RangeMismatch {
                requested: range,
                declared: tenant.queues,
            });
        }
        Ok(self.install(slot, tenant, range))
    }

    /// Charges a context save against a slot: before an occupied slot is
    /// preempted, the tenant's live state is read back over the same
    /// configuration port the bitstream loads through, so it costs one
    /// more [`PrSlot::reconfig_time_ps`]. Counts in
    /// [`total_reconfig_ps`](Self::total_reconfig_ps) like any other charge.
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoSuchSlot`] or [`TenancyError::SlotEmpty`].
    pub fn charge_context_save(&mut self, slot: usize) -> Result<Picos, TenancyError> {
        let s = self
            .slots
            .get(slot)
            .ok_or(TenancyError::NoSuchSlot { slot })?;
        if s.tenant.is_none() {
            return Err(TenancyError::SlotEmpty { slot });
        }
        let t = s.reconfig_time_ps();
        self.total_reconfig_ps += t;
        Ok(t)
    }

    /// Removes a tenant from a slot. Its queue range is retired (queues
    /// are not recycled — production drains and fences them; a fresh range
    /// avoids cross-tenant data leaks).
    ///
    /// # Errors
    ///
    /// [`TenancyError::NoSuchSlot`] or [`TenancyError::SlotEmpty`].
    pub fn undeploy(&mut self, slot: usize) -> Result<TenantRole, TenancyError> {
        let s = self
            .slots
            .get_mut(slot)
            .ok_or(TenancyError::NoSuchSlot { slot })?;
        let tenant = s.tenant.take().ok_or(TenancyError::SlotEmpty { slot })?;
        self.queue_ranges[slot] = None;
        Ok(tenant)
    }

    /// Swaps a slot's tenant in one operation (undeploy + deploy), the hot
    /// path of time-shared multi-tenancy. Returns `(evicted, load_time)`.
    ///
    /// The swap is atomic: every failure mode is checked *before* the
    /// resident is evicted (retired queues are never recycled, so the
    /// incoming tenant's queue demand is against `free_queues()` as-is),
    /// and on error the region is unchanged.
    ///
    /// # Errors
    ///
    /// See [`TenancyError`].
    pub fn swap(
        &mut self,
        slot: usize,
        tenant: TenantRole,
    ) -> Result<(TenantRole, Picos), TenancyError> {
        // Validate the incoming tenant against the slot before evicting.
        let s = self
            .slots
            .get(slot)
            .ok_or(TenancyError::NoSuchSlot { slot })?;
        if s.tenant.is_none() {
            return Err(TenancyError::SlotEmpty { slot });
        }
        if !tenant.resources.fits_in(&s.capacity) {
            return Err(TenancyError::DoesNotFit {
                slot,
                requested: tenant.resources,
                capacity: s.capacity,
            });
        }
        if tenant.queues > self.free_queues() {
            return Err(TenancyError::QueuesExhausted {
                requested: tenant.queues,
                available: self.free_queues(),
            });
        }
        let evicted = self.undeploy(slot)?;
        let t = self.deploy(slot, tenant)?;
        Ok((evicted, t))
    }

    /// Verifies the isolation invariant: all assigned queue ranges are
    /// pairwise disjoint.
    pub fn queues_disjoint(&self) -> bool {
        let mut ranges: Vec<&Range<u16>> = self.queue_ranges.iter().flatten().collect();
        ranges.sort_by_key(|r| r.start);
        ranges.windows(2).all(|w| w[0].end <= w[1].start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::role::RoleSpec;
    use crate::unified::UnifiedShell;
    use harmonia_hw::device::catalog;

    fn region(slots: usize) -> MultiTenantRegion {
        let device = catalog::device_a();
        let unified = UnifiedShell::for_device(&device);
        let role = RoleSpec::builder("mt").network_gbps(100).build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        MultiTenantRegion::partition(&shell, device.capacity(), slots, 1024)
    }

    fn small_tenant(name: &str, queues: u16) -> TenantRole {
        TenantRole::new(
            name,
            ResourceUsage::new(50_000, 80_000, 100, 20, 100),
            queues,
        )
    }

    #[test]
    fn partition_splits_headroom() {
        let r = region(4);
        assert_eq!(r.slots().len(), 4);
        let cap = r.slots()[0].capacity();
        assert!(cap.lut > 100_000, "slot capacity {} too small", cap.lut);
        assert_eq!(r.occupied(), 0);
    }

    #[test]
    fn deploy_and_queue_isolation() {
        let mut r = region(4);
        r.deploy(0, small_tenant("alice", 64)).unwrap();
        r.deploy(1, small_tenant("bob", 128)).unwrap();
        assert_eq!(r.occupied(), 2);
        assert_eq!(r.queue_range(0), Some(0..64));
        assert_eq!(r.queue_range(1), Some(64..192));
        assert!(r.queues_disjoint());
        assert_eq!(r.free_queues(), 1024 - 192);
    }

    #[test]
    fn oversized_tenant_rejected() {
        let mut r = region(8); // small slots
        let huge = TenantRole::new("huge", ResourceUsage::new(5_000_000, 1, 0, 0, 0), 4);
        assert!(matches!(
            r.deploy(0, huge),
            Err(TenancyError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn occupied_slot_rejected_until_undeploy() {
        let mut r = region(2);
        r.deploy(0, small_tenant("a", 8)).unwrap();
        assert!(matches!(
            r.deploy(0, small_tenant("b", 8)),
            Err(TenancyError::SlotOccupied { .. })
        ));
        let evicted = r.undeploy(0).unwrap();
        assert_eq!(evicted.name, "a");
        r.deploy(0, small_tenant("b", 8)).unwrap();
    }

    #[test]
    fn queue_exhaustion_detected() {
        let mut r = region(2);
        r.deploy(0, small_tenant("greedy", 1000)).unwrap();
        assert!(matches!(
            r.deploy(1, small_tenant("late", 100)),
            Err(TenancyError::QueuesExhausted { available: 24, .. })
        ));
    }

    #[test]
    fn swap_charges_reconfig_time() {
        let mut r = region(2);
        r.deploy(0, small_tenant("v1", 16)).unwrap();
        let before = r.total_reconfig_ps();
        let (evicted, t) = r.swap(0, small_tenant("v2", 16)).unwrap();
        assert_eq!(evicted.name, "v1");
        // PR time is millisecond-scale for a ~100k-LUT region.
        let ms = t as f64 / 1e9;
        assert!((0.5..20.0).contains(&ms), "reconfig {ms:.2} ms");
        assert_eq!(r.total_reconfig_ps(), before + t);
        assert_eq!(r.slots()[0].reconfigurations(), 2);
        assert_eq!(r.slots()[0].tenant().unwrap().name, "v2");
    }

    #[test]
    fn swap_validates_before_evicting() {
        let mut r = region(2);
        r.deploy(0, small_tenant("keep", 16)).unwrap();
        let huge = TenantRole::new("huge", ResourceUsage::new(5_000_000, 1, 0, 0, 0), 4);
        assert!(r.swap(0, huge).is_err());
        // The resident survived the failed swap.
        assert_eq!(r.slots()[0].tenant().unwrap().name, "keep");
    }

    #[test]
    fn undeploy_empty_slot_errors() {
        let mut r = region(1);
        assert_eq!(r.undeploy(0), Err(TenancyError::SlotEmpty { slot: 0 }));
        assert!(matches!(
            r.undeploy(9),
            Err(TenancyError::NoSuchSlot { slot: 9 })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one PR slot")]
    fn zero_slots_rejected() {
        let _ = region(0);
    }

    #[test]
    fn reserved_range_survives_preemption_cycles() {
        let mut r = region(1);
        let range = r.reserve_queues(16).unwrap();
        assert_eq!(range, 0..16);
        for _ in 0..100 {
            r.deploy_with_range(0, small_tenant("t", 16), range.clone())
                .unwrap();
            assert_eq!(r.queue_range(0), Some(range.clone()));
            assert!(r.queues_disjoint());
            r.undeploy(0).unwrap();
        }
        // Pinned ranges never eat into the free pool a second time.
        assert_eq!(r.free_queues(), 1024 - 16);
    }

    #[test]
    fn deploy_with_range_rejects_overlap_eagerly() {
        let mut r = region(2);
        let a = r.reserve_queues(32).unwrap();
        r.deploy_with_range(0, small_tenant("a", 32), a.clone())
            .unwrap();
        let err = r
            .deploy_with_range(1, small_tenant("b", 8), 16..24)
            .unwrap_err();
        assert!(matches!(err, TenancyError::RangeOverlap { other: 0, .. }));
        assert!(r.queues_disjoint(), "failed deploy must not land");
        assert_eq!(r.occupied(), 1);
    }

    #[test]
    fn deploy_with_range_rejects_bounds_and_width() {
        let mut r = region(1);
        assert!(matches!(
            r.deploy_with_range(0, small_tenant("t", 8), 1020..1028),
            Err(TenancyError::RangeOutOfBounds { total: 1024, .. })
        ));
        assert!(matches!(
            r.deploy_with_range(0, small_tenant("t", 8), 0..4),
            Err(TenancyError::RangeMismatch { declared: 8, .. })
        ));
        assert_eq!(r.occupied(), 0);
    }

    #[test]
    fn context_save_charges_one_reconfig_time() {
        let mut r = region(2);
        r.deploy(0, small_tenant("t", 8)).unwrap();
        let before = r.total_reconfig_ps();
        let t = r.charge_context_save(0).unwrap();
        assert_eq!(t, r.slots()[0].reconfig_time_ps());
        assert_eq!(r.total_reconfig_ps(), before + t);
        // Empty slot has no state to save.
        assert_eq!(
            r.charge_context_save(1),
            Err(TenancyError::SlotEmpty { slot: 1 })
        );
    }
}
