//! Board Test: infrastructure validation of custom FPGA boards.
//!
//! The infrastructure application of Table 2: before a custom board enters
//! an application cluster it runs pattern tests against every peripheral —
//! memory marching patterns, network loopback, DMA echo — and reports
//! pass/fail plus the measured bandwidths (§5.1).

use crate::common::App;
use harmonia_hw::device::FpgaDevice;
use harmonia_hw::ip::dram::MemOp;
use harmonia_hw::ip::MacIp;
use harmonia_shell::rbb::MemoryRbb;
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::SplitMix64;
use std::fmt;

/// Outcome of one test stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageResult {
    /// Stage name.
    pub name: String,
    /// Whether the stage passed.
    pub passed: bool,
    /// Measured figure of merit (GB/s for memory, Gbps for network, …).
    pub measured: f64,
}

/// The full board-test report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TestReport {
    stages: Vec<StageResult>,
}

impl TestReport {
    /// Whether every stage passed.
    pub fn all_passed(&self) -> bool {
        !self.stages.is_empty() && self.stages.iter().all(|s| s.passed)
    }

    /// The individual stage results.
    pub fn stages(&self) -> &[StageResult] {
        &self.stages
    }

    fn push(&mut self, name: impl Into<String>, passed: bool, measured: f64) {
        self.stages.push(StageResult {
            name: name.into(),
            passed,
            measured,
        });
    }
}

impl fmt::Display for TestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stages {
            writeln!(
                f,
                "{:<24} {}  ({:.2})",
                s.name,
                if s.passed { "PASS" } else { "FAIL" },
                s.measured
            )?;
        }
        Ok(())
    }
}

/// A simple byte-addressable memory image used by the marching tests.
#[derive(Debug)]
struct MemImage {
    words: Vec<u64>,
}

impl MemImage {
    fn new(words: usize) -> Self {
        MemImage {
            words: vec![0; words],
        }
    }

    fn write(&mut self, i: usize, v: u64) {
        self.words[i] = v;
    }

    fn read(&self, i: usize) -> u64 {
        self.words[i]
    }
}

/// The board-test application.
#[derive(Debug)]
pub struct BoardTest {
    seed: u64,
    /// Words covered by each marching pattern.
    test_words: usize,
    /// Injected fault for self-checking (testing the tester).
    inject_memory_fault: bool,
}

impl BoardTest {
    /// Creates a board tester.
    pub fn new(seed: u64) -> Self {
        BoardTest {
            seed,
            test_words: 4096,
            inject_memory_fault: false,
        }
    }

    /// Injects a stuck-at fault into the memory test (verifies the tester
    /// actually detects failures).
    #[cfg(test)]
    fn with_injected_memory_fault(mut self) -> Self {
        self.inject_memory_fault = true;
        self
    }

    /// Marching-ones/zeros plus random-pattern memory test.
    pub(crate) fn memory_pattern_test(&self) -> StageResult {
        let mut img = MemImage::new(self.test_words);
        let mut ok = true;
        // Walking ones.
        for bit in 0..64 {
            let v = 1u64 << bit;
            for i in 0..self.test_words {
                img.write(i, v);
            }
            for i in 0..self.test_words {
                let mut got = img.read(i);
                if self.inject_memory_fault && bit == 17 && i == 1234 {
                    got |= 1 << 3; // stuck-at-1
                }
                if got != v {
                    ok = false;
                }
            }
        }
        // Random pattern with readback.
        let mut rng = SplitMix64::new(self.seed);
        let pattern: Vec<u64> = (0..self.test_words).map(|_| rng.next_u64()).collect();
        for (i, &v) in pattern.iter().enumerate() {
            img.write(i, v);
        }
        for (i, &v) in pattern.iter().enumerate() {
            if img.read(i) != v {
                ok = false;
            }
        }
        StageResult {
            name: "memory-pattern".into(),
            passed: ok,
            measured: (self.test_words * 8) as f64 / 1e3, // KB covered
        }
    }

    /// Memory bandwidth stage against the Memory RBB model.
    pub(crate) fn memory_bandwidth_test(&self, mem: &mut MemoryRbb, min_gbs: f64) -> StageResult {
        // Measure the external memory itself, not the hot cache.
        mem.set_cache(false);
        let ops = (0..100_000u64).map(|i| MemOp::read(i * 64, 64));
        let r = mem.run_trace(ops);
        let bw = r.bandwidth_gbs();
        StageResult {
            name: "memory-bandwidth".into(),
            passed: bw >= min_gbs,
            measured: bw,
        }
    }

    /// Network loopback: frames out and back, count + integrity by size
    /// sweep; measured value is the worst-case goodput.
    pub(crate) fn network_loopback_test(&self, mac: &MacIp) -> StageResult {
        let mut min_goodput = f64::INFINITY;
        let mut ok = true;
        for &size in &[64u32, 256, 1024, 1500] {
            let tpt = mac.throughput_gbps(size);
            min_goodput = min_goodput.min(tpt);
            // Loopback latency must be bounded for the board to pass.
            if mac.loopback_latency_ps(size) > 10_000_000 {
                ok = false;
            }
        }
        StageResult {
            name: format!("network-loopback-{}g", mac.speed_gbps()),
            passed: ok && min_goodput > 0.7 * f64::from(mac.speed_gbps()),
            measured: min_goodput,
        }
    }

    /// DMA echo: write a pattern through the engine model and check the
    /// throughput plateau.
    pub(crate) fn dma_echo_test(&self, dma: &harmonia_hw::ip::PcieDmaIp) -> StageResult {
        let bw = dma.throughput_gbs(16384);
        StageResult {
            name: format!("dma-echo-gen{}x{}", dma.gen(), dma.lanes()),
            passed: bw > 0.7 * dma.raw_gbs(),
            measured: bw,
        }
    }

    /// Runs the full suite appropriate to a device's peripherals.
    pub fn run(&self, device: &FpgaDevice) -> TestReport {
        let mut report = TestReport::default();
        let mem_stage = self.memory_pattern_test();
        report.push(mem_stage.name.clone(), mem_stage.passed, mem_stage.measured);

        let die = device.die_vendor();
        if device.has_ddr() {
            let mut mem = MemoryRbb::ddr(die, 4, 1);
            let s = self.memory_bandwidth_test(&mut mem, 12.0);
            report.push(s.name.clone(), s.passed, s.measured);
        }
        if device.has_hbm() {
            let mut mem = MemoryRbb::hbm(die);
            let s = self.memory_bandwidth_test(&mut mem, 200.0);
            report.push("hbm-bandwidth", s.passed, s.measured);
        }
        for p in device.peripherals() {
            if let harmonia_hw::Peripheral::Qsfp { gbps } | harmonia_hw::Peripheral::Dsfp { gbps } =
                *p
            {
                let mac = MacIp::new(die, gbps.min(400));
                let s = self.network_loopback_test(&mac);
                report.push(s.name.clone(), s.passed, s.measured);
            }
        }
        if let Some((gen, lanes)) = device.pcie() {
            let dma = harmonia_hw::ip::PcieDmaIp::new(die, gen, lanes);
            let s = self.dma_echo_test(&dma);
            report.push(s.name.clone(), s.passed, s.measured);
        }
        report
    }
}

impl App for BoardTest {
    fn name(&self) -> &'static str {
        "Board Test"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("board-test")
            .network_gbps(100)
            .network_ports(2)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .queues(16)
            .build()
    }

    fn role_loc(&self) -> u64 {
        // Figure 3a: the shell is 72 % of the Board Test project.
        14_500
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_hw::Vendor;

    #[test]
    fn healthy_board_passes_everything() {
        let report = BoardTest::new(1).run(&catalog::device_a());
        assert!(report.all_passed(), "\n{report}");
        // A: pattern + ddr-bw + hbm-bw + 2 cages + dma = 6 stages.
        assert_eq!(report.stages().len(), 6);
    }

    #[test]
    fn injected_fault_is_detected() {
        let tester = BoardTest::new(1).with_injected_memory_fault();
        let stage = tester.memory_pattern_test();
        assert!(!stage.passed, "stuck-at fault went undetected");
        let report = tester.run(&catalog::device_d());
        assert!(!report.all_passed());
    }

    #[test]
    fn stages_follow_peripherals() {
        let report_c = BoardTest::new(2).run(&catalog::device_c());
        // C: pattern + 2 cages + dma (no DRAM).
        assert_eq!(report_c.stages().len(), 4);
        assert!(!report_c
            .stages()
            .iter()
            .any(|s| s.name.contains("memory-bandwidth")));
    }

    #[test]
    fn loopback_measures_goodput() {
        let tester = BoardTest::new(3);
        let s = tester.network_loopback_test(&MacIp::new(Vendor::Intel, 100));
        assert!(s.passed);
        // Worst case is 64 B frames: 100 × 64/84.
        assert!((s.measured - 76.19).abs() < 0.5);
    }

    #[test]
    fn empty_report_is_not_a_pass() {
        assert!(!TestReport::default().all_passed());
    }

    #[test]
    fn report_display_lists_stages() {
        let report = BoardTest::new(1).run(&catalog::device_d());
        let text = report.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("dma-echo"));
    }
}
