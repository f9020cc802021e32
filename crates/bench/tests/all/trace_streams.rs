//! The streamed trace generator against its collected trace: the paper's
//! Figure 10c table replays a stream straight into the Memory RBB, and
//! must get what a replay of the collected `Vec` gets.

use harmonia::hw::Vendor;
use harmonia::shell::rbb::MemoryRbb;
use harmonia::workloads::{AccessPattern, MemTraceGen};
use harmonia_testkit::prelude::*;

/// A fresh Memory RBB of 1 to 3 DDR4 channels, hot cache on or off.
fn rbb(channels: u32, cache: bool) -> MemoryRbb {
    let mut mem = MemoryRbb::ddr(Vendor::Xilinx, 4, channels);
    mem.set_cache(cache);
    mem
}

forall! {
    /// For every pattern, op size, write flag and count, the stream equals
    /// the collected trace op for op (or fails as it does), and replays
    /// to the same result on a fresh Memory RBB.
    #[test]
    fn streams_match_collected_traces(
        seed in any::<u64>(),
        which in 0usize..3,
        op_bytes in prop_oneof![Just(64u32), Just(0), 1u32..=8192],
        write in any::<bool>(),
        count in 0usize..3000,
        channels in 1u32..=3,
        cache in any::<bool>(),
    ) {
        let pattern = AccessPattern::ALL[which];
        let mut streamed = MemTraceGen::new(seed);
        let stream = streamed.stream(pattern, write, op_bytes, count);
        let trace = MemTraceGen::new(seed).trace(pattern, write, op_bytes, count);
        match (stream, trace) {
            (Ok(stream), Ok(trace)) => {
                let stream: Vec<_> = stream.collect();
                prop_assert_eq!(&stream, &trace, "{pattern}, {count} ops of {op_bytes} B");
                let mut gen = MemTraceGen::new(seed);
                let from_stream = rbb(channels, cache).run_trace(gen.stream(pattern, write, op_bytes, count).unwrap());
                prop_assert_eq!(from_stream, rbb(channels, cache).run_trace(trace), "{pattern}");
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "stream {:?} but trace {:?}", a.is_ok(), b.is_ok()),
        };
    }
}
