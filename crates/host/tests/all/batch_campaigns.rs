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
//! 4. **Observed campaign** — one faulty batched campaign with every
//!    observability plane attached is pinned byte for byte: report,
//!    clock, ack log, text trace, Prometheus export and flight dump.
//! 5. **Exact registry** — the command path publishes its per-command
//!    metrics once per doorbell or per call, so after every public call
//!    each `harmonia_{cmd,kernel,irq,dma}_*` counter equals the count its
//!    component keeps, and the latency series equals the driver's own
//!    histogram.
//! 6. **Lost interrupt inside a drain** — a scheduled `IrqLost` that falls
//!    strictly inside a doorbell's execution window costs that doorbell's
//!    first completion, because the CQ is polled when the drain ends.

use crate::common::{parts, spec};
use harmonia_cmd::CommandCode;
use harmonia_host::{CommandDriver, DriverError};
use harmonia_sim::{FaultKind, FaultPlan, FaultRates, Probe, TraceEventKind};
use harmonia_testkit::fnv1a;
use harmonia_testkit::prelude::*;

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

fn render(
    tag: &str,
    seed: u64,
    results: &[Result<Vec<u32>, String>],
    drv: &CommandDriver,
) -> String {
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
        let batched_results: Vec<_> = batched.submit(mix()).into_iter().map(squash).collect();

        let want = render("campaign", seed, &serial_results, &serial);
        let got = render("campaign", seed, &batched_results, &batched);
        assert_eq!(want, got, "seed {seed}: batch=1 diverged from serial");
        assert!(
            serial.report().converged(),
            "seed {seed}: {}",
            serial.report()
        );
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
    // The whole post-mortem, not just its shape: the order in which the
    // ring round records into the flight recorder is pinned.
    assert_eq!(
        (dump.lines().count(), fnv1a(dump)),
        (66, 0x4f38_f541_a48e_51e2),
        "post-mortem:\n{dump}"
    );
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
        .map(|(rbb, inst, code, args)| squash(serial.cmd_raw_resilient(rbb, inst, code, args)))
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
    assert_eq!(
        irq.interrupts, 2,
        "14 completions in 7-batches coalesce twice"
    );
    assert_eq!(irq.coalescing(), 7.0);
}

/// (4) Six copies of the mix at batch 16 over 64-deep rings under the
/// seed-5 campaign, with every plane attached: the ring rounds' fault
/// draws, retries, spans, counters and flight records are pinned.
#[test]
fn observed_batched_campaign_is_pinned() {
    let (engine, kernel, _shell) = parts();
    let mut drv = CommandDriver::with_depth(engine, kernel, 16, 64);
    drv.set_probe(Probe::enabled());
    drv.set_fault_injector(campaign_plan(5).injector());
    let results = drv.submit((0..6).flat_map(|_| mix()).collect());
    assert_eq!(results.len(), 84);
    let acked = format!("{:?}", drv.acked_log());
    let text = drv.probe().trace.take().export_text();
    let prom = drv.probe().metrics.snapshot().export_prometheus();
    let flight = drv.probe().flight.dump();
    let pin = |s: &str| (s.lines().count(), fnv1a(s));
    assert_eq!(
        drv.report().to_string(),
        "driver[issued=84 acked=84 retries=47 timeouts=42 nacks=5 gave-up=0]",
        "report"
    );
    assert_eq!(drv.clock_ps(), 178_675_225, "clock");
    assert_eq!(
        (drv.acked_log().len(), fnv1a(&acked)),
        (84, 0x3501_9a09_528f_7549),
        "ack log"
    );
    assert_eq!(pin(&text), (429, 0x17ba_6e9d_4120_a996), "text trace");
    assert_eq!(pin(&prom), (43, 0x24d9_1531_46a0_ec76), "Prometheus export");
    assert_eq!(pin(&flight), (65, 0x8c42_7b4a_0da2_2bae), "flight dump");
}

/// Counters the command path publishes with no component-side count to
/// compare against: backoff time, ring drains and credit stalls.
const UNCOUNTED: [&str; 4] = [
    "harmonia_cmd_backoff_ps_total",
    "harmonia_kernel_sq_drained_total",
    "harmonia_dma_credit_stalls_total",
    "harmonia_dma_credit_stall_beats_total",
];

/// Checks the registry against the counts the driver, kernel, interrupt
/// moderator and DMA engine keep themselves.
fn registry_matches_components(drv: &CommandDriver, probe: &Probe) -> Result<(), String> {
    let snap = probe.metrics.snapshot();
    let report = drv.report();
    let kernel = drv.kernel();
    let irq = drv.irq_report();
    let engine = drv.engine_ref();
    let own = [
        ("harmonia_cmd_issued_total", report.issued),
        ("harmonia_cmd_acked_total", report.acked),
        ("harmonia_cmd_retries_total", report.retries),
        ("harmonia_cmd_timeouts_total", report.timeouts),
        ("harmonia_cmd_nacks_total", report.nacks),
        ("harmonia_cmd_gave_up_total", report.gave_up),
        (
            "harmonia_kernel_cmds_executed_total",
            kernel.commands_executed(),
        ),
        ("harmonia_kernel_reg_ops_total", kernel.reg_ops_executed()),
        ("harmonia_kernel_replays_total", kernel.replays()),
        ("harmonia_kernel_nacks_total", kernel.decode_errors()),
        ("harmonia_irq_events_total", irq.events),
        ("harmonia_irq_interrupts_total", irq.interrupts),
        ("harmonia_dma_cmds_total", engine.commands_sent()),
        ("harmonia_dma_bursts_total", engine.doorbells()),
    ];
    for (name, count) in own {
        if snap.counter(name) != count {
            return Err(format!(
                "{name}: registry {} != component {count}",
                snap.counter(name)
            ));
        }
    }
    // Every command-path counter in the export is one of the above, or
    // one that no component counts.
    for line in snap.export_prometheus().lines() {
        let Some(name) = line
            .strip_prefix("# TYPE ")
            .and_then(|l| l.strip_suffix(" counter"))
        else {
            continue;
        };
        let command_path = [
            "harmonia_cmd_",
            "harmonia_kernel_",
            "harmonia_irq_",
            "harmonia_dma_",
        ]
        .iter()
        .any(|p| name.starts_with(p));
        if command_path && !own.iter().any(|(n, _)| *n == name) && !UNCOUNTED.contains(&name) {
            return Err(format!("{name} has no component count to check"));
        }
    }
    if snap.histogram("harmonia_cmd_latency_ps") != *drv.latency_histogram() {
        return Err("harmonia_cmd_latency_ps differs from latency_histogram()".into());
    }
    Ok(())
}

forall! {
    /// (5) Over calls on both transports in a row, under 0–5 % background
    /// drop/corrupt/irq-lost rates, the registry read after each call
    /// matches every component's own count, and the latency series
    /// matches the driver's histogram bucket for bucket.
    #[test]
    fn registry_matches_component_counts_after_every_call(
        seed in any::<u64>(),
        batch in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
        (drop_pct, corrupt_pct, irq_pct) in (0u32..=5, 0u32..=5, 0u32..=5),
        calls in collection::vec((any::<bool>(), collection::vec(0u8..4, 1..12)), 1..5),
    ) {
        let (engine, kernel, _shell) = parts();
        let mut drv = CommandDriver::with_depth(engine, kernel, batch, 64);
        let probe = Probe::enabled();
        drv.set_probe(probe.clone());
        let rates = FaultRates {
            cmd_drop: f64::from(drop_pct) / 100.0,
            cmd_corrupt: f64::from(corrupt_pct) / 100.0,
            irq_lost: f64::from(irq_pct) / 100.0,
            ecc: 0.0,
        };
        drv.set_fault_injector(FaultPlan::new().with_rates(seed, rates).injector());
        for (batched, cmds) in calls {
            if batched {
                drv.submit(cmds.into_iter().map(spec).collect());
                if let Err(e) = registry_matches_components(&drv, &probe) {
                    prop_assert!(false, "after submit: {e}");
                }
            } else {
                for c in cmds {
                    let (rbb, inst, code, data) = spec(c);
                    let _ = drv.cmd_raw_resilient(rbb, inst, code, data);
                    if let Err(e) = registry_matches_components(&drv, &probe) {
                        prop_assert!(false, "after cmd_raw_resilient: {e}");
                    }
                }
            }
        }
    }
}

/// (6) An `IrqLost` scheduled strictly inside the first doorbell's
/// execution window — after the drain starts, before it ends — is drawn
/// when the CQ is polled at the end of that drain. So the first round's
/// first entry (tag 0) times out, its retry rides the front of the second
/// round and replays, and the ack log reads 1, 2, 3, then 0 and the
/// second round.
#[test]
fn irq_lost_inside_a_drain_costs_that_doorbells_first_completion() {
    let cmds = || (0..8).map(|_| spec(0)).collect::<Vec<_>>();
    // The fault-free run's first drain span is the window: faults that
    // have not fired yet move no timing.
    let (engine, kernel, _shell) = parts();
    let mut clean = CommandDriver::with_depth(engine, kernel, 4, 64);
    clean.set_probe(Probe::enabled());
    clean.submit(cmds());
    let trace = clean.probe().trace.take();
    let drain = trace
        .events()
        .iter()
        .find(|e| matches!(e.kind, TraceEventKind::BatchDrain { .. }))
        .expect("the first round drains");
    assert!(drain.dur > 1, "the drain has an inside: {drain:?}");
    let inside = drain.at + drain.dur / 2;
    assert!(drain.at < inside && inside < drain.at + drain.dur);

    let (engine, kernel, _shell) = parts();
    let mut drv = CommandDriver::with_depth(engine, kernel, 4, 64);
    drv.set_fault_injector(FaultPlan::new().at(inside, FaultKind::IrqLost).injector());
    let results = drv.submit(cmds());
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(drv.report().timeouts, 1, "{}", drv.report());
    assert_eq!(drv.kernel().replays(), 1, "the retry replays tag 0");
    assert_eq!(drv.kernel().commands_executed(), 8);
    assert_eq!(drv.acked_log(), [1, 2, 3, 0, 4, 5, 6, 7]);
}
