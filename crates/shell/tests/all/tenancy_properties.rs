//! Property suites for the multi-tenant PR plane (`pr.rs` + `sched.rs`):
//! arbitrary deploy/undeploy/swap/reserve interleavings against a model
//! region, swap-vs-(undeploy+deploy) equivalence with atomic failure,
//! scheduler reconfig-time accounting under random runnable masks, and
//! the WF²Q+ ±1-slice fairness bound for arbitrary weight vectors.
//! Shrunk counterexamples are committed as regression tapes in
//! `tests/regressions/`.

use harmonia_hw::device::catalog;
use harmonia_hw::resource::ResourceUsage;
use harmonia_shell::pr::{MultiTenantRegion, TenancyError, TenantRole};
use harmonia_shell::sched::{TenantPolicy, TenantScheduler};
use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};
use harmonia_sim::Picos;
use harmonia_testkit::prelude::*;
use std::ops::Range;

/// A region over device A's tailored shell with `slots` PR slots and
/// `total_queues` host queues (small queue totals make
/// `QueuesExhausted` reachable with single-digit tenant demands).
fn region(slots: usize, total_queues: u16) -> MultiTenantRegion {
    let device = catalog::device_a();
    let unified = UnifiedShell::for_device(&device);
    let role = RoleSpec::builder("mt").network_gbps(100).build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    MultiTenantRegion::partition(&shell, device.capacity(), slots, total_queues)
}

/// A tenant small enough to fit any slot of a ≤4-way partition.
fn tenant(name: &str, queues: u16) -> TenantRole {
    TenantRole::new(
        name,
        ResourceUsage::new(50_000, 80_000, 100, 20, 100),
        queues,
    )
}

/// Canonical observable state of a region: occupancy, free queues,
/// reconfig accounting, and per-slot resident/range/reconfig-count.
fn fingerprint(r: &MultiTenantRegion) -> String {
    let slots: Vec<String> = r
        .slots()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{i}:{}:{}:{:?}",
                s.tenant().map_or("-", |t| t.name.as_str()),
                s.reconfigurations(),
                r.queue_range(i)
            )
        })
        .collect();
    format!(
        "occ={} free={} reconfig_ps={} slots=[{}]",
        r.occupied(),
        r.free_queues(),
        r.total_reconfig_ps(),
        slots.join(" ")
    )
}

forall! {
    /// Arbitrary operation interleavings against a model region: queue
    /// ranges stay pairwise disjoint, occupancy / free-queue / reconfig
    /// accounting agree with the model after every step, and every error
    /// path (occupied slot, empty slot, exhausted queues) surfaces as the
    /// right `TenancyError` with the region untouched. Op decode per
    /// `u64` draw `d`: kind = d%5 (0 deploy, 1 undeploy, 2 swap,
    /// 3 reserve+deploy_with_range, 4 charge_context_save),
    /// slot = (d/5)%slots, queues = 1+((d>>8)%8).
    #[test]
    fn region_ops(slots in 1usize..5, ops in collection::vec(any::<u64>(), 0..40)) {
        let total_queues: u16 = 12;
        let mut r = region(slots, total_queues);
        let load = r.slots()[0].reconfig_time_ps();
        // Model state: per-slot assigned range, free queues, reconfig sum.
        let mut model: Vec<Option<Range<u16>>> = vec![None; slots];
        let mut free: u16 = total_queues;
        let mut expected_ps: Picos = 0;
        for (step, d) in ops.into_iter().enumerate() {
            let kind = d % 5;
            let slot = ((d / 5) as usize) % slots;
            let q = 1 + ((d >> 8) % 8) as u16;
            let t = tenant(&format!("t{step}"), q);
            match kind {
                0 => {
                    // Error precedence mirrors deploy: slot validation
                    // runs before the queue-exhaustion check.
                    let res = r.deploy(slot, t);
                    if model[slot].is_some() {
                        prop_assert!(
                            matches!(res, Err(TenancyError::SlotOccupied { .. })),
                            "step {step}: deploy into occupied slot gave {res:?}"
                        );
                    } else if q > free {
                        prop_assert!(
                            matches!(res, Err(TenancyError::QueuesExhausted { .. })),
                            "step {step}: deploy past exhaustion gave {res:?}"
                        );
                    } else {
                        prop_assert_eq!(res, Ok(load), "step {step}: deploy cost");
                        let range = r.queue_range(slot).unwrap();
                        prop_assert_eq!(range.end - range.start, q);
                        model[slot] = Some(range);
                        free -= q;
                        expected_ps += load;
                    }
                }
                1 => {
                    let res = r.undeploy(slot);
                    if model[slot].is_none() {
                        prop_assert!(
                            matches!(res, Err(TenancyError::SlotEmpty { .. })),
                            "step {step}: undeploy of empty slot gave {res:?}"
                        );
                    } else {
                        prop_assert!(res.is_ok(), "step {step}: {res:?}");
                        // Retired queues are NOT recycled: free unchanged.
                        model[slot] = None;
                    }
                }
                2 => {
                    let res = r.swap(slot, t);
                    if model[slot].is_none() {
                        prop_assert!(
                            matches!(res, Err(TenancyError::SlotEmpty { .. })),
                            "step {step}: swap on empty slot gave {res:?}"
                        );
                    } else if q > free {
                        prop_assert!(
                            matches!(res, Err(TenancyError::QueuesExhausted { .. })),
                            "step {step}: swap past exhaustion gave {res:?}"
                        );
                    } else {
                        let (_evicted, cost) = res.unwrap();
                        prop_assert_eq!(cost, load, "step {step}: swap load cost");
                        model[slot] = r.queue_range(slot);
                        free -= q;
                        expected_ps += load;
                    }
                }
                3 => {
                    // Scheduler-style path: reserve a pinned range, then
                    // deploy with it. A reservation consumes queues even
                    // when the deploy leg then refuses an occupied slot —
                    // reserved ranges are retired, never recycled.
                    if q > free {
                        prop_assert!(matches!(
                            r.reserve_queues(q),
                            Err(TenancyError::QueuesExhausted { .. })
                        ));
                    } else {
                        let range = r.reserve_queues(q).unwrap();
                        free -= q;
                        let res = r.deploy_with_range(slot, t, range.clone());
                        if model[slot].is_some() {
                            prop_assert!(
                                matches!(res, Err(TenancyError::SlotOccupied { .. })),
                                "step {step}: ranged deploy into occupied slot gave {res:?}"
                            );
                        } else {
                            prop_assert_eq!(res, Ok(load), "step {step}: ranged deploy cost");
                            model[slot] = Some(range);
                            expected_ps += load;
                        }
                    }
                }
                _ => {
                    let res = r.charge_context_save(slot);
                    if model[slot].is_none() {
                        prop_assert!(
                            matches!(res, Err(TenancyError::SlotEmpty { .. })),
                            "step {step}: context save of empty slot gave {res:?}"
                        );
                    } else {
                        prop_assert_eq!(res, Ok(load), "step {step}: save cost");
                        expected_ps += load;
                    }
                }
            }
            prop_assert!(r.queues_disjoint(), "step {step}: isolation broke");
            prop_assert_eq!(r.occupied(), model.iter().flatten().count());
            prop_assert_eq!(r.free_queues(), free, "step {step}");
            prop_assert_eq!(r.total_reconfig_ps(), expected_ps, "step {step}");
            for (s, range) in model.iter().enumerate() {
                prop_assert_eq!(r.queue_range(s), range.clone(), "slot {s} range");
            }
        }
    }

    /// `swap` is exactly undeploy-then-deploy when it succeeds — same
    /// evicted tenant, same load cost, byte-identical region state — and
    /// atomic when it fails: the region fingerprint is unchanged, unlike
    /// the manual sequence which can strand the slot empty. Setup decode
    /// per `u64` draw `d`: slot = d%4, queues = 1+((d>>8)%8).
    #[test]
    fn swap_equals_undeploy_deploy(
        setup in collection::vec(any::<u64>(), 1..6),
        slot_d in any::<u64>(),
        q_new in 1u16..33,
    ) {
        let mut r = region(4, 40);
        for (i, d) in setup.iter().enumerate() {
            let slot = (*d as usize) % 4;
            let q = 1 + ((d >> 8) % 8) as u16;
            // Occupied slots / exhausted queues are simply skipped here;
            // region_ops owns the setup-error contracts.
            let _ = r.deploy(slot, tenant(&format!("s{i}"), q));
        }
        let slot = (slot_d as usize) % 4;
        let incoming = tenant("incoming", q_new);
        let before = fingerprint(&r);
        let mut swapped = r.clone();
        let mut manual = r;
        match swapped.swap(slot, incoming.clone()) {
            Ok((evicted, cost)) => {
                let evicted_manual = manual.undeploy(slot).unwrap();
                let cost_manual = manual.deploy(slot, incoming).unwrap();
                prop_assert_eq!(evicted, evicted_manual);
                prop_assert_eq!(cost, cost_manual);
                prop_assert_eq!(fingerprint(&swapped), fingerprint(&manual));
            }
            Err(e) => {
                prop_assert_eq!(
                    fingerprint(&swapped),
                    before.clone(),
                    "failed swap ({e}) must leave the region untouched"
                );
                // The error agrees with the observable state.
                match e {
                    TenancyError::SlotEmpty { .. } => {
                        prop_assert!(swapped.queue_range(slot).is_none());
                    }
                    TenancyError::QueuesExhausted { requested, available } => {
                        prop_assert_eq!(requested, q_new);
                        prop_assert_eq!(available, swapped.free_queues());
                        prop_assert!(q_new > swapped.free_queues());
                    }
                    other => prop_assert!(false, "unexpected swap error {other:?}"),
                }
            }
        }
    }

    /// Under either policy and arbitrary runnable masks: grants only go
    /// to runnable tenants, the grant's budget matches the policy, the
    /// region's reconfiguration total is exactly the sum of reported
    /// switch costs (every save/load is accounted, nothing double-
    /// charged), and the pinned queue ranges never move.
    #[test]
    fn scheduler_reconfig_accounting(
        weights in collection::vec(1u64..17, 2..6),
        masks in collection::vec(any::<u64>(), 1..50),
        wfq in any::<bool>(),
    ) {
        let policy = if wfq { TenantPolicy::WeightedFair } else { TenantPolicy::RoundRobin };
        let slice_ps: Picos = 1_000_000;
        let mut s = TenantScheduler::new(region(1, 1024), 0, policy, slice_ps).unwrap();
        let n = weights.len();
        let mut pinned = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            let idx = s.register(tenant(&format!("t{i}"), 4), w).unwrap();
            prop_assert_eq!(idx, i);
            pinned.push(s.queue_range(idx));
        }
        let mut total_switch: Picos = 0;
        let mut granted = vec![0u64; n];
        for (step, m) in masks.iter().enumerate() {
            let runnable: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            match s.next_slice(&runnable).unwrap() {
                Some(g) => {
                    prop_assert!(runnable[g.tenant], "granted an idle tenant");
                    prop_assert_eq!(g.budget_cmds, s.budget_cmds(g.tenant));
                    prop_assert_eq!(g.slice_ps, slice_ps);
                    total_switch += g.switch_ps;
                    granted[g.tenant] += 1;
                }
                None => prop_assert!(
                    runnable.iter().all(|&x| !x),
                    "no grant while step {step} had runnable tenants"
                ),
            }
        }
        prop_assert_eq!(s.region().total_reconfig_ps(), total_switch,
            "reconfig accounting must equal the sum of reported switch costs");
        for (i, r0) in pinned.iter().enumerate() {
            prop_assert_eq!(&s.queue_range(i), r0, "tenant {i} range moved");
            prop_assert_eq!(s.slices_granted(i), granted[i]);
        }
        prop_assert!(s.region().queues_disjoint());
    }

    /// The WF²Q+ fairness bound for arbitrary admissible weight vectors:
    /// over any all-backlogged window of `mult·Σw` slices from a fresh
    /// scheduler, tenant `i` receives within one slice of its exact
    /// `w_i/Σw` share (|got·Σw − rounds·w_i| ≤ Σw).
    #[test]
    fn wfq_share_within_one_slice(
        weights in collection::vec(1u64..17, 2..6),
        mult in 2u64..8,
    ) {
        let slice_ps: Picos = 1_000_000;
        let mut s = TenantScheduler::new(
            region(1, 1024), 0, TenantPolicy::WeightedFair, slice_ps).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            s.register(tenant(&format!("t{i}"), 2), w).unwrap();
        }
        let total: u64 = weights.iter().sum();
        let rounds = mult * total;
        let runnable = vec![true; weights.len()];
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..rounds {
            let g = s.next_slice(&runnable).unwrap().unwrap();
            counts[g.tenant] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let diff = counts[i] as i128 * total as i128 - (rounds * w) as i128;
            prop_assert!(
                diff.abs() <= total as i128,
                "weights {weights:?}: tenant {i} got {}/{rounds} slices (diff {diff})",
                counts[i]
            );
        }
        prop_assert_eq!(counts.iter().sum::<u64>(), rounds);
    }
}
