//! Property-based tests for the simulation kernel invariants.

use harmonia_sim::async_fifo::{bin_to_gray, gray_to_bin};
use harmonia_sim::{AsyncFifo, ClockDomain, Freq, MultiClock, Pipeline, SyncFifo};
use harmonia_testkit::prelude::*;

forall! {
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
        received.extend(std::iter::from_fn(|| f.pop()));
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
    /// item and both cycles, so a datapath stage can report the collision
    /// instead of panicking.
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
