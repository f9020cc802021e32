//! Property-based tests for the hardware substrate.

use harmonia_hw::ip::dram::{DramModel, DramTiming, MemOp};
use harmonia_hw::resource::ResourceUsage;
use harmonia_testkit::prelude::*;

forall! {
    /// Resource arithmetic: addition is commutative/associative, and
    /// percentages stay within [0, 100] when usage fits capacity.
    #[test]
    fn resource_arithmetic(
        a in (0u64..1000, 0u64..1000, 0u64..100, 0u64..10, 0u64..100),
        b in (0u64..1000, 0u64..1000, 0u64..100, 0u64..10, 0u64..100),
    ) {
        let ra = ResourceUsage::new(a.0, a.1, a.2, a.3, a.4);
        let rb = ResourceUsage::new(b.0, b.1, b.2, b.3, b.4);
        prop_assert_eq!(ra + rb, rb + ra);
        let cap = ra + rb;
        prop_assert!(ra.fits_in(&cap));
        prop_assert!(ra.max_percent_of(&cap) <= 100.0 + 1e-9);
        prop_assert!(ra.saturating_sub(&cap).is_zero());
        // Retargeting never changes non-URAM fields and always fits a
        // URAM-less capacity when scaled appropriately.
        let no_uram_cap = ResourceUsage::new(u64::MAX, u64::MAX, u64::MAX, 0, u64::MAX);
        let rt = ra.retargeted_for(&no_uram_cap);
        prop_assert_eq!(rt.uram, 0);
        prop_assert_eq!(rt.lut, ra.lut);
        prop_assert_eq!(rt.bram, ra.bram + ra.uram * 8);
    }

    /// DRAM completions are monotone and achieved bandwidth never exceeds
    /// the channel peak.
    #[test]
    fn dram_bandwidth_bounded(seed in any::<u64>(), n in 100usize..2000) {
        let timing = DramTiming::ddr4_2400();
        let mut m = DramModel::new(timing);
        let mut state = seed;
        let mut last = 0;
        let mut bytes = 0u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (state >> 10) % (1 << 31);
            let done = m.access(0, MemOp::read(addr, 64));
            prop_assert!(done >= last, "completion time went backwards");
            last = done;
            bytes += 64;
        }
        let gbs = bytes as f64 / (last as f64 / 1e3);
        prop_assert!(gbs <= timing.peak_gbs() * 1.001, "bw {gbs} exceeds peak");
    }

    /// Row-buffer accounting: hits + misses equals accesses.
    #[test]
    fn dram_hit_accounting(n in 1usize..500, stride in 1u64..4096) {
        let mut m = DramModel::new(DramTiming::hbm2_channel());
        for i in 0..n as u64 {
            m.access(0, MemOp::read(i * stride, 32));
        }
        prop_assert_eq!(m.row_hits() + m.row_misses(), n as u64);
    }
}
