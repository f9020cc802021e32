//! The closed loop a child process runs: warm-up, timed ops, output
//! checks, and the process counters read around them.

use crate::trace::Tracer;
use crate::workloads::Workload;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How long a loop runs: at least `seconds` and at least `min_ops` ops,
/// but never past [`LOOP_CAP_S`].
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    pub min_ops: usize,
}

/// No timed loop runs longer than this, whatever its op count, so a run
/// ends well within three minutes even on a slow host.
pub const LOOP_CAP_S: f64 = 120.0;

/// What a loop measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Wall time of every untraced op, seconds.
    pub op_s: Vec<f64>,
    /// Process CPU time of every untraced op, seconds.
    pub op_cpu_s: Vec<f64>,
    /// Wall time of the [`yardstick`] run just before each untraced op.
    pub yardstick_s: Vec<f64>,
    /// Wall time of every traced op, seconds (traced loops only).
    pub traced_op_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs one op; a panic becomes a failed op instead of ending the run.
pub fn run_op(w: &mut dyn Workload, variant: usize, t: &mut Tracer) -> Result<u64, String> {
    let depth = t.depth();
    match catch_unwind(AssertUnwindSafe(|| w.op(variant, t))) {
        Ok(result) => result,
        Err(panic) => {
            t.unwind_to(depth);
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("op panicked: {msg}"))
        }
    }
}

/// The fingerprint each variant must produce. Runs one untimed warm-up op
/// per variant; with a `reference` the expectation is the reference, and
/// otherwise it is the warm-up's own output (`None` if the warm-up broke
/// an invariant, which fails every later op of that variant).
pub fn expectations(w: &mut dyn Workload, reference: Option<&[u64]>) -> Vec<Option<u64>> {
    (0..w.variants())
        .map(|v| {
            let warm = run_op(w, v, &mut Tracer::disabled());
            if let Err(e) = &warm {
                eprintln!("warm-up op (variant {v}) failed: {e}");
            }
            match reference {
                Some(r) => r.get(v).copied(),
                None => warm.ok(),
            }
        })
        .collect()
}

/// The closed loop: one op in flight, op `i` on variant
/// `i % expected.len()`. With `traced`, ops alternate between untraced
/// and traced so both see the same machine state, and each variant runs
/// once each way.
pub fn timed_loop(
    w: &mut dyn Workload,
    expected: &[Option<u64>],
    plan: Plan,
    mut traced: Option<&mut Tracer>,
) -> LoopOutcome {
    let start = Instant::now();
    let mut out = LoopOutcome::default();
    let mut untraced = Tracer::disabled();
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (i >= plan.min_ops && elapsed >= plan.seconds) || elapsed >= LOOP_CAP_S {
            break;
        }
        let use_trace = traced.is_some() && i % 2 == 1;
        let variant = if traced.is_some() { i / 2 } else { i } % expected.len();
        let t = match (&mut traced, use_trace) {
            (Some(t), true) => {
                t.set_op(i as u64);
                &mut **t
            }
            _ => &mut untraced,
        };
        let yardstick_s = time_yardstick();
        let (t0, cpu0) = (Instant::now(), process_cpu_s());
        let result = t.span("op", |t| run_op(w, variant, t));
        let dt = t0.elapsed().as_secs_f64();
        if use_trace {
            out.traced_op_s.push(dt);
        } else {
            out.op_s.push(dt);
            out.op_cpu_s.push(process_cpu_s() - cpu0);
            out.yardstick_s.push(yardstick_s);
        }
        out.attempted += 1;
        match result {
            Ok(fp) if Some(fp) == expected[variant] => {}
            Ok(fp) => {
                out.failed += 1;
                eprintln!("op {i} (variant {variant}): fingerprint {fp:016x} does not match the reference");
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("op {i} (variant {variant}): {e}");
            }
        }
        i += 1;
    }
    out
}

/// The yardstick's wall time on the baseline host (a quiet 2-vCPU VM, see
/// README.md). Reported times are scaled to it: a time measured next to a
/// yardstick run of `y` seconds is reported as `time * YARDSTICK_S / y`.
pub const YARDSTICK_S: f64 = 1.0e-3;

/// Wall time of one [`yardstick`] run, seconds.
pub fn time_yardstick() -> f64 {
    let start = Instant::now();
    yardstick();
    start.elapsed().as_secs_f64()
}

/// A fixed computation of about 1 ms on the baseline host, timed next to
/// every measurement. It is the mix the workloads spend their time in:
/// sorting, ordered and hashed maps, formatting, queues and small
/// allocations, every buffer under the allocator's 128 KiB mmap threshold.
/// Only the benchmark's own code runs in it. The host's speed moves it: on
/// a shared machine that speed drifts by 10-40 % over minutes, and scaling
/// each time by its yardstick cancels most of that drift.
fn yardstick() {
    let mut x = 0u64;
    let mut next = move || {
        // SplitMix64, kept local so the yardstick shares no product code.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut keys: Vec<u64> = (0..8192).map(|_| next()).collect();
    keys.sort_unstable();
    let mut ordered = BTreeMap::new();
    // SipHash with fixed keys, so every process does the same work.
    let mut hashed = HashMap::with_hasher(BuildHasherDefault::<DefaultHasher>::default());
    for _ in 0..2048 {
        ordered.insert(next() % 100_000, next());
        hashed.insert(next() % 4096, next());
    }
    let hits = (0..2048)
        .filter(|_| hashed.contains_key(&(next() % 4096)))
        .count();
    let mut text = String::new();
    for i in 0..800u64 {
        let v = next();
        let f = (v % 10_000) as f64 / 7.0;
        text.push_str(&format!("{i:>6} {v:#018x} {f:.3} {:?}\n", (v % 3, i)));
    }
    let mut queue = VecDeque::new();
    for i in 0..4096u64 {
        queue.push_back(vec![i; 4]);
        if queue.len() > 64 {
            queue.pop_front();
        }
    }
    let small: Vec<Vec<u8>> = (0..1024).map(|i| vec![i as u8; 16 + i % 48]).collect();
    black_box((keys, ordered, hits, text, queue, small));
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads 64-bit Linux process clocks and /proc");

/// User + system CPU seconds this process has used, all threads
/// included, exited pool workers too (`CLOCK_PROCESS_CPUTIME_ID`, read per
/// op: `/proc/self/stat` ticks only every 10 ms).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) for the whole call, and the
    // clock id is a valid constant, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always produces the same output.
    struct Constant;

    impl Workload for Constant {
        fn variants(&self) -> usize {
            2
        }

        fn op(&mut self, variant: usize, _t: &mut Tracer) -> Result<u64, String> {
            Ok(0x1234 + variant as u64)
        }
    }

    /// Breaks an invariant on every third op and panics on every fifth.
    struct Flaky(u32);

    impl Workload for Flaky {
        fn op(&mut self, _variant: usize, _t: &mut Tracer) -> Result<u64, String> {
            self.0 += 1;
            if self.0.is_multiple_of(5) {
                panic!("boom");
            }
            if self.0.is_multiple_of(3) {
                return Err("invariant".into());
            }
            Ok(9)
        }
    }

    const FEW: Plan = Plan {
        seconds: 0.0,
        min_ops: 10,
    };

    #[test]
    fn matching_reference_has_no_errors() {
        let reference =
            crate::workloads::parse_reference("0 0000000000001234\n1 0000000000001235\n", 2)
                .unwrap();
        let expected = expectations(&mut Constant, Some(&reference));
        let out = timed_loop(&mut Constant, &expected, FEW, None);
        assert_eq!((out.attempted, out.failed), (10, 0));
        assert_eq!(out.op_s.len(), 10);
    }

    #[test]
    fn corrupted_reference_raises_error_rate() {
        // One digit of variant 1 flipped: exactly its ops fail.
        let reference =
            crate::workloads::parse_reference("0 0000000000001234\n1 0000000000001236\n", 2)
                .unwrap();
        let expected = expectations(&mut Constant, Some(&reference));
        let out = timed_loop(&mut Constant, &expected, FEW, None);
        assert_eq!((out.attempted, out.failed), (10, 5), "error_rate 0.5");
    }

    #[test]
    fn broken_ops_count_as_failures_without_ending_the_run() {
        let mut w = Flaky(0);
        let expected = expectations(&mut w, None);
        assert_eq!(expected, vec![Some(9)]);
        let out = timed_loop(&mut w, &expected, FEW, None);
        assert_eq!(out.attempted, 10);
        // Ops 2..=11 of the workload: 3, 6, 9 break, 5 and 10 panic.
        assert_eq!(out.failed, 5);
    }

    #[test]
    fn traced_loop_alternates() {
        let mut t = Tracer::enabled(Instant::now());
        let expected = expectations(&mut Constant, None);
        let out = timed_loop(&mut Constant, &expected, FEW, Some(&mut t));
        assert_eq!((out.op_s.len(), out.traced_op_s.len()), (5, 5));
        assert_eq!(t.spans().iter().filter(|s| s.name == "op").count(), 5);
    }

    #[test]
    fn process_counters_read() {
        let before = process_cpu_s();
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(
            spin > 0 && process_cpu_s() > before,
            "CPU clock advances with work"
        );
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
