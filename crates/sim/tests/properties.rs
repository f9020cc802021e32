//! Property-based tests for the simulation kernel invariants.

use harmonia_sim::async_fifo::{bin_to_gray, gray_to_bin};
use harmonia_sim::{
    AsyncFifo, ClockDomain, FaultInjector, FaultKind, FaultPlan, FaultRates, Freq, MultiClock,
    Pipeline, SyncFifo,
};
use harmonia_testkit::prelude::*;

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::LinkDown),
        Just(FaultKind::LinkUp),
        (1u64..64).prop_map(|beats| FaultKind::PcieCreditStall { beats }),
        Just(FaultKind::EccError),
        Just(FaultKind::CmdDrop),
        Just(FaultKind::CmdCorrupt),
        Just(FaultKind::IrqLost),
    ]
}

/// Scheduled events and seeded rates over the first 1000 ps.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        collection::vec((0u64..1_000, arb_fault_kind()), 0..12),
        any::<u64>(),
        (0u32..60, 0u32..60, 0u32..60),
    )
        .prop_map(|(events, seed, (drop_pct, corrupt_pct, irq_pct))| {
            let mut plan = FaultPlan::new();
            for (at, kind) in events {
                plan = plan.at(at, kind);
            }
            plan.with_rates(
                seed,
                FaultRates {
                    cmd_drop: f64::from(drop_pct) / 100.0,
                    cmd_corrupt: f64::from(corrupt_pct) / 100.0,
                    irq_lost: f64::from(irq_pct) / 100.0,
                    ecc: 0.0,
                },
            )
        })
}

/// One ring round as `Ring` draws it: at `at`, each of `burst` descriptors
/// of a delivered burst is checked for a drop and, if kept, a corruption;
/// at `polled_at`, each of `oks` Ok records for a lost interrupt. With
/// `guard` set every instant's draws go through one
/// [`FaultInjector::with_draws`] guard, else through the per-call
/// consults. Returns every outcome, corrupted bytes included.
fn ring_round(
    faults: &FaultInjector,
    guard: bool,
    (at, burst, delivered, polled_at, oks): (u64, usize, bool, u64, usize),
) -> Vec<(bool, bool, Vec<u8>)> {
    // `draw` answers one delivered descriptor: (dropped, corrupted).
    let submit = |draw: &mut dyn FnMut(&mut [u8]) -> (bool, bool)| {
        (0..burst)
            .map(|i| {
                let mut bytes = vec![i as u8; 8];
                let (dropped, corrupted) = if delivered {
                    draw(&mut bytes)
                } else {
                    (true, false)
                };
                (dropped, corrupted, bytes)
            })
            .collect::<Vec<_>>()
    };
    let poll = |lost: &mut dyn FnMut() -> bool| {
        (0..oks)
            .map(|_| (lost(), false, Vec::new()))
            .collect::<Vec<_>>()
    };
    let mut out;
    if guard {
        out = faults.with_draws(at, |d| {
            submit(&mut |bytes| {
                let dropped = d.drop_command();
                (dropped, !dropped && d.corrupt_command(bytes))
            })
        });
        out.extend(faults.with_draws(polled_at, |d| poll(&mut || d.irq_lost())));
    } else {
        out = submit(&mut |bytes| {
            let dropped = faults.drop_command(at);
            (dropped, !dropped && faults.corrupt_command(at, bytes))
        });
        out.extend(poll(&mut || faults.irq_lost(polled_at)));
    }
    out
}

/// Per-call consults at `probes`' instants: what a later reader sees of
/// the plan's state.
fn later_state(faults: &FaultInjector, probes: &[u64]) -> Vec<(bool, u64, bool, bool, Vec<u8>)> {
    probes
        .iter()
        .map(|&t| {
            let mut bytes = vec![0x5A; 8];
            let corrupted = faults.corrupt_command(t, &mut bytes);
            (
                faults.link_up(t),
                faults.take_stall_beats(t),
                faults.drop_command(t),
                faults.irq_lost(t) || corrupted,
                bytes,
            )
        })
        .collect()
}

forall! {
    /// A ring round drawn through one guard per instant gives the same
    /// drops, corruptions and lost interrupts as the per-call consults,
    /// and leaves the plan in the same state for later consults. Rounds
    /// that draw nothing (an undelivered or empty burst, a poll with no
    /// Ok record) leave the schedule unadvanced: instants are random, so
    /// a later consult may come earlier than a round that drew nothing.
    #[test]
    fn one_guard_per_instant_draws_like_per_call_consults(
        plan in arb_plan(),
        rounds in collection::vec(
            (
                (0u64..1_200, 0usize..6, any::<bool>(), 0u64..1_200, 0usize..6),
                collection::vec(0u64..1_200, 0..3),
            ),
            0..8,
        ),
    ) {
        let guarded = plan.clone().injector();
        let per_call = plan.injector();
        for (round, probes) in &rounds {
            prop_assert_eq!(
                ring_round(&guarded, true, *round),
                ring_round(&per_call, false, *round)
            );
            prop_assert_eq!(later_state(&guarded, probes), later_state(&per_call, probes));
        }
    }

    /// Gray coding is a bijection on u64.
    #[test]
    fn gray_bijection(v in any::<u64>()) {
        prop_assert_eq!(gray_to_bin(bin_to_gray(v)), v);
    }

    /// Consecutive values have gray codes at Hamming distance 1 — the
    /// property that makes async-FIFO pointer synchronization safe.
    #[test]
    fn gray_hamming_distance_one(v in 0u64..u64::MAX) {
        let d = bin_to_gray(v) ^ bin_to_gray(v + 1);
        prop_assert_eq!(d.count_ones(), 1);
    }

    /// A sync FIFO delivers exactly the accepted items, in order.
    #[test]
    fn sync_fifo_order(cap in 1usize..32, ops in collection::vec(any::<bool>(), 0..200)) {
        let mut f = SyncFifo::new(cap);
        let mut next = 0u32;
        let mut accepted = Vec::new();
        let mut received = Vec::new();
        for push in ops {
            if push {
                if f.push(next).is_ok() {
                    accepted.push(next);
                }
                next += 1;
            } else if let Some(v) = f.pop() {
                received.push(v);
            }
        }
        received.extend(f.drain());
        prop_assert_eq!(received, accepted);
    }

    /// The async FIFO never loses, duplicates or reorders data across
    /// arbitrary frequency ratios and phases.
    #[test]
    fn async_fifo_integrity(
        wfreq in 50u64..500,
        rfreq in 50u64..500,
        phase in 0u64..10_000,
        cap_log2 in 1u32..7,
    ) {
        let cap = 1usize << cap_log2;
        let mut fifo = AsyncFifo::new(cap);
        let mut mc = MultiClock::new();
        let w = mc.add(ClockDomain::new(Freq::mhz(wfreq)));
        let _r = mc.add_with_phase(ClockDomain::new(Freq::mhz(rfreq)), phase);
        let mut next = 0u64;
        let mut received = Vec::new();
        for edge in mc.edges_until(2_000_000) { // 2 µs
            if edge.clock == w {
                fifo.on_write_edge();
                if fifo.can_push() {
                    fifo.try_push(next).unwrap();
                    next += 1;
                }
            } else {
                fifo.on_read_edge();
                if let Some(v) = fifo.try_pop() {
                    received.push(v);
                }
            }
        }
        // Drain what remains.
        for _ in 0..(2 * cap + 4) {
            fifo.on_read_edge();
            if let Some(v) = fifo.try_pop() {
                received.push(v);
            }
        }
        let expected: Vec<u64> = (0..next).collect();
        prop_assert_eq!(received, expected);
    }

    /// Occupancy never exceeds capacity regardless of clock ratio.
    #[test]
    fn async_fifo_never_overflows(
        wfreq in 100u64..1000,
        _rfreq in 10u64..200,
        cap_log2 in 1u32..6,
    ) {
        let cap = 1usize << cap_log2;
        let mut fifo = AsyncFifo::new(cap);
        let mut mc = MultiClock::new();
        let w = mc.add(ClockDomain::new(Freq::mhz(wfreq)));
        for edge in mc.edges_until(1_000_000) {
            if edge.clock == w {
                fifo.on_write_edge();
                let _ = fifo.try_push(edge.cycle);
            } else {
                fifo.on_read_edge();
                let _ = fifo.try_pop();
            }
            prop_assert!(fifo.len() <= cap);
        }
    }

    /// Pipelines preserve order and exact latency under random gaps.
    #[test]
    fn pipeline_latency_exact(lat in 0u64..16, gaps in collection::vec(1u64..5, 1..100)) {
        let mut p = Pipeline::new(lat);
        let mut cycle = 0u64;
        let mut pushed = Vec::new();
        for (i, g) in gaps.iter().enumerate() {
            cycle += g;
            p.push(cycle, (i as u64, cycle)).unwrap();
            pushed.push((i as u64, cycle));
        }
        let mut out = Vec::new();
        while let Some(v) = p.pop(cycle + lat) {
            out.push(v);
        }
        prop_assert_eq!(out, pushed);
    }

    /// A same-or-earlier-cycle push always fails, returning the offending
    /// item and both cycles — the data the host driver surfaces as
    /// `DriverError::ResponsePath` instead of panicking.
    #[test]
    fn pipeline_push_error_reports_both_cycles(
        lat in 0u64..16,
        first in 1u64..1_000_000,
        back in 0u64..1_000,
    ) {
        let mut p = Pipeline::new(lat);
        p.push(first, 7u32).unwrap();
        let offending = first.saturating_sub(back); // <= first, always rejected
        let err = p.push(offending, 9u32).unwrap_err();
        prop_assert_eq!(err.item, 9);
        prop_assert_eq!(err.cycle, offending);
        prop_assert_eq!(err.last_push_cycle, first);
        // The rejected push leaves the pipeline untouched.
        prop_assert_eq!(p.pop(first + lat), Some(7));
        prop_assert_eq!(p.pop(first + lat + 1), None);
    }
}

/// When write bandwidth equals read bandwidth (S×M = R×U in the paper's
/// terms), a sufficiently deep async FIFO sustains full rate: the writer is
/// never back-pressured after warm-up.
#[test]
fn cdc_lossless_bandwidth_when_rates_match() {
    // Writer: 100 MHz × 4 units/beat. Reader: 400 MHz × 1 unit/beat.
    let mut fifo: AsyncFifo<[u64; 4]> = AsyncFifo::new(16);
    let mut mc = MultiClock::new();
    let w = mc.add(ClockDomain::new(Freq::mhz(100)));
    let _r = mc.add(ClockDomain::new(Freq::mhz(400)));
    let mut wstalls = 0u64;
    let mut wattempts = 0u64;
    let mut next = 0u64;
    let mut reader_buf: Vec<u64> = Vec::new();
    let mut received = 0u64;
    for edge in mc.edges_until(100_000_000) {
        // 100 µs
        if edge.clock == w {
            fifo.on_write_edge();
            wattempts += 1;
            if fifo.can_push() {
                fifo.try_push([next, next + 1, next + 2, next + 3]).unwrap();
                next += 4;
            } else {
                wstalls += 1;
            }
        } else {
            fifo.on_read_edge();
            if reader_buf.is_empty() {
                if let Some(words) = fifo.try_pop() {
                    reader_buf.extend_from_slice(&words);
                }
            }
            if !reader_buf.is_empty() {
                let v = reader_buf.remove(0);
                assert_eq!(v, received);
                received += 1;
            }
        }
    }
    assert_eq!(
        wstalls, 0,
        "writer stalled {wstalls}/{wattempts} — CDC not lossless"
    );
    assert!(
        received >= next - 8,
        "reader fell behind: {received} of {next}"
    );
}
