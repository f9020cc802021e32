//! Campaigns over the batched SQ/CQ submission path.
//!
//! Three contracts:
//!
//! 1. **Serial pinning** — `batch = 1` is byte-identical to the serial
//!    transport's `cmd_raw_resilient` under the same eight-seed fault campaigns
//!    the parallel-equivalence suite runs: same report rendering, same ack
//!    log, same clocks, same response payloads.
//! 2. **Convergence** — batched submission under seeded background fault
//!    rates drives every entry to acked or reported-failed with exact
//!    accounting, replaying only the lost entries.
//!    A give-up on the ring transport leaves the same flight-recorder
//!    post-mortem as one on the serial transport.
//! 3. **Amortization** — with no faults, a batched submit acks everything
//!    with the same payloads as the serial path while finishing on an
//!    earlier simulated clock, and coalesces completion interrupts.

use harmonia_cmd::{CommandCode, UnifiedControlKernel};
use harmonia_host::{CommandDriver, DmaEngine, DriverError};
use harmonia_hw::device::catalog;
use harmonia_hw::ip::PcieDmaIp;
use harmonia_hw::Vendor;
use harmonia_shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia_sim::{FaultKind, FaultPlan, FaultRates, Probe};

fn parts() -> (DmaEngine, UnifiedControlKernel, TailoredShell) {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("batch-campaign")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let (gen, lanes) = dev.pcie().unwrap();
    let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
    (engine, kernel, shell)
}

/// The parallel-equivalence campaign plan: a link flap, a credit stall,
/// and 5% background drop/corrupt/irq-lost rates from `seed`.
fn campaign_plan(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .at(0, FaultKind::LinkDown)
        .at(30_000_000, FaultKind::LinkUp)
        .at(50_000_000, FaultKind::PcieCreditStall { beats: 1_000 })
        .with_rates(
            seed,
            FaultRates {
                cmd_drop: 0.05,
                cmd_corrupt: 0.05,
                irq_lost: 0.05,
                ecc: 0.0,
            },
        )
}

/// The command mix both sides of the differential run: device health
/// polls plus per-module stats reads.
fn mix() -> Vec<(u8, u8, CommandCode, Vec<u32>)> {
    let mut cmds = Vec::new();
    for _ in 0..8 {
        cmds.push((0, 0, CommandCode::HealthRead, Vec::new()));
    }
    for rbb in 1..=3u8 {
        cmds.push((rbb, 0, CommandCode::StatsRead, Vec::new()));
        cmds.push((rbb, 0, CommandCode::ModuleStatusRead, Vec::new()));
    }
    cmds
}

fn render(tag: &str, seed: u64, results: &[Result<Vec<u32>, String>], drv: &CommandDriver) -> String {
    format!(
        "{tag} seed={seed} {} acked={:?} clock={} lat={} results={:?}",
        drv.report(),
        drv.acked_log(),
        drv.clock_ps(),
        drv.total_latency_ps(),
        results,
    )
}

fn squash(r: Result<harmonia_cmd::CommandPacket, DriverError>) -> Result<Vec<u32>, String> {
    r.map(|p| p.data).map_err(|e| e.to_string())
}

/// (1) Batch = 1 pins the serial transport byte-for-byte under the eight-seed
/// fault campaigns: identical fault-RNG consumption, identical retries,
/// identical accounting and payloads.
#[test]
fn batch_one_matches_serial_under_eight_seed_campaigns() {
    for seed in 0..8u64 {
        let (engine, kernel, _shell) = parts();
        let mut serial = CommandDriver::new(engine, kernel);
        serial.set_fault_injector(campaign_plan(seed).injector());
        let serial_results: Vec<_> = mix()
            .into_iter()
            .map(|(rbb, inst, code, args)| squash(serial.cmd_raw_resilient(rbb, inst, code, args)))
            .collect();

        let (engine, kernel, _shell) = parts();
        let mut batched = CommandDriver::with_depth(engine, kernel, 1, 64);
        batched.set_fault_injector(campaign_plan(seed).injector());
        let batched_results: Vec<_> = batched
            .submit(mix())
            .into_iter()
            .map(squash)
            .collect();

        let want = render("campaign", seed, &serial_results, &serial);
        let got = render("campaign", seed, &batched_results, &batched);
        assert_eq!(want, got, "seed {seed}: batch=1 diverged from serial");
        assert!(serial.report().converged(), "seed {seed}: {}", serial.report());
    }
    // The campaigns exercised the fault plane, not a degenerate no-op:
    // at least one seed must have retried.
    let (engine, kernel, _shell) = parts();
    let mut probe = CommandDriver::new(engine, kernel);
    probe.set_fault_injector(campaign_plan(0).injector());
    for (rbb, inst, code, args) in mix() {
        let _ = probe.cmd_raw_resilient(rbb, inst, code, args);
    }
    assert!(probe.report().retries > 0, "campaign observed no fault");
}

/// (2) Batched submission converges under the seeded campaigns: every
/// entry lands acked or reported-failed, the accounting is exact, and
/// only lost entries were replayed (acked ≤ issued, no double-acks).
#[test]
fn batched_campaigns_converge_under_seeded_rates() {
    for seed in 0..8u64 {
        let (engine, kernel, _shell) = parts();
        let mut drv = CommandDriver::with_depth(engine, kernel, 4, 16);
        drv.set_fault_injector(campaign_plan(seed).injector());
        let results = drv.submit(mix());
        let (mut oks, mut gave_ups) = (0u64, 0u64);
        for r in &results {
            match r {
                Ok(_) => oks += 1,
                Err(DriverError::GaveUp { .. }) => gave_ups += 1,
                Err(other) => panic!("seed {seed}: non-converging error: {other}"),
            }
        }
        let report = drv.report().clone();
        assert!(report.converged(), "seed {seed}: {report}");
        assert_eq!(report.issued, oks + gave_ups, "seed {seed}");
        assert_eq!(report.acked, oks, "seed {seed}");
        assert_eq!(report.gave_up, gave_ups, "seed {seed}");
        // Each ack is one distinct idempotency tag: replay recovered lost
        // entries without double-applying any.
        let mut tags = drv.acked_log().to_vec();
        let before = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), before, "seed {seed}: duplicate ack tags");
        assert_eq!(tags.len() as u64, oks, "seed {seed}");
    }
}

/// (2) A permanent link-down exhausts every entry's budget; the give-up
/// names the failing command and dumps its retries.
#[test]
fn batched_give_up_leaves_a_post_mortem() {
    let (engine, kernel, _shell) = parts();
    let mut drv = CommandDriver::with_depth(engine, kernel, 4, 16);
    drv.set_probe(Probe::enabled());
    drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::LinkDown).injector());
    let results = drv.submit(mix());
    assert!(results
        .iter()
        .all(|r| matches!(r, Err(DriverError::GaveUp { .. }))));
    let dump = drv
        .last_post_mortem()
        .expect("a give-up with the recorder on");
    assert!(dump.starts_with("post-mortem: gave up on cmd 0x"), "{dump}");
    assert!(dump.contains("cmd-retry"), "{dump}");
}

/// (3) Fault-free differential: the batched path returns the same
/// payloads as the serial path, acks everything, finishes on an earlier
/// simulated clock, and raises one coalesced interrupt per full batch.
#[test]
fn no_fault_batched_submit_matches_serial_payloads_on_a_faster_clock() {
    let (engine, kernel, _shell) = parts();
    let mut serial = CommandDriver::new(engine, kernel);
    let serial_results: Vec<_> = mix()
        .into_iter()
        .map(|(rbb, inst, code, args)| {
            squash(serial.cmd_raw_resilient(rbb, inst, code, args))
        })
        .collect();

    let (engine, kernel, _shell) = parts();
    let mut batched = CommandDriver::with_depth(engine, kernel, 7, 16);
    let batched_results: Vec<_> = batched.submit(mix()).into_iter().map(squash).collect();

    assert_eq!(serial_results, batched_results, "payloads must match");
    assert!(batched_results.iter().all(|r| r.is_ok()));
    assert_eq!(batched.report().acked, mix().len() as u64);
    assert!(
        batched.clock_ps() < serial.clock_ps(),
        "batched clock {} must beat serial {}",
        batched.clock_ps(),
        serial.clock_ps()
    );
    let irq = batched.irq_report();
    assert_eq!(irq.events, mix().len() as u64);
    assert_eq!(irq.interrupts, 2, "14 completions in 7-batches coalesce twice");
    assert_eq!(irq.coalescing(), 7.0);
}
