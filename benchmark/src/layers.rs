//! The per-layer pass of a traced run: component replays that call each
//! crate's public functions with the inputs the workloads use, timed by
//! spans, plus the counts the program itself reports.
//!
//! Every traced run makes the whole pass, whatever its workload, so each
//! per-layer metric is reported on every run.

use crate::results::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    batched_campaign, fleet_campaign, serial_campaign, Observers, CMD_BATCH, CMD_COUNT, CMD_DEPTH,
};
use harmonia::cmd::{
    CommandCode, CommandPacket, CompletionQueue, SqDescriptor, SrcId, SubmissionQueue,
    UnifiedControlKernel,
};
use harmonia::fleet::placement::{migration_matrix, place};
use harmonia::fleet::{standard_catalog, DiurnalTraffic, Inventory, PlacementPolicy};
use harmonia::hw::device::{catalog, DeviceId};
use harmonia::hw::ip::MacIp;
use harmonia::hw::Vendor;
use harmonia::metrics::Table;
use harmonia::shell::rbb::MemoryRbb;
use harmonia::shell::{DatapathSim, TailoredShell, UnifiedShell};
use harmonia::sim::{Freq, LogHistogram, TraceEventKind};
use harmonia::workloads::{AccessMode, VectorDbWorkload};
use harmonia_bench as b;
use std::hint::black_box;

/// Repetitions of the pass; each metric is the median over them.
pub const REPS: u64 = 5;

/// Histogram re-recordings per repetition, so the timed span is long
/// enough to read.
const HISTO_ROUNDS: usize = 50;

type Generator = fn() -> Vec<Table>;

/// Every generator of `all_tables()`, in its order, with its span name.
const GENERATORS: [(&str, Generator); 12] = [
    ("bench.fig03", b::fig03::generate),
    ("bench.fig10", b::fig10::generate),
    ("bench.fig11", b::fig11::generate),
    ("bench.fig12", b::fig12::generate),
    ("bench.fig13", b::fig13::generate),
    ("bench.fig14", b::fig14::generate),
    ("bench.fig15", b::fig15::generate),
    ("bench.fig16", b::fig16::generate),
    ("bench.fig17", b::fig17::generate),
    ("bench.fig18", b::fig18::generate),
    ("bench.tables", b::tables::generate),
    ("bench.ablation", b::ablation::generate),
];

/// Work counts of one repetition, for the rate metrics.
#[derive(Default)]
struct Work {
    memops: u64,
    edges: u64,
    tailor_calls: u64,
    fits_calls: u64,
    ticks: u64,
    histo_samples: u64,
}

/// Runs the pass and returns every per-layer metric but `trace_overhead`.
///
/// Call it before anything else touches the fleet plane: the first
/// repetition times the migration matrix's one-off construction.
pub fn measure(seed: u64, t: &mut Tracer) -> Result<Vec<Metric>, String> {
    let roles = standard_catalog();
    t.set_op(0);
    t.span("fleet.placement.migration_matrix", |_| {
        black_box(migration_matrix(&roles))
    });
    let mut work = Work::default();
    let mut counts = Vec::new();
    for rep in 0..REPS {
        t.set_op(rep);
        counts = t.span("layers", |t| repetition(seed, t, &mut work))?;
    }

    let busy = |name: &str| median(&(0..REPS).map(|r| t.busy_s(name, r)).collect::<Vec<_>>());
    let busy_spans = [
        "shell.memory.run_trace",
        "workloads.vectordb.accesses",
        "shell.datapath.run",
        "fleet.controller.new",
        "fleet.controller.run",
        "fleet.placement.place",
        "fleet.traffic.schedule",
        "fleet.inventory.sample",
        "sim.trace.export_perfetto",
        "sim.metrics.export_prometheus",
    ];
    let mut m: Vec<Metric> = GENERATORS
        .iter()
        .map(|(name, _)| *name)
        .chain(busy_spans)
        .map(|name| Metric::new(&format!("{name}.busy_s"), busy(name), "s"))
        .collect();
    let cmds = CMD_COUNT as u64;
    let rates = [
        ("shell.memory.run_trace", "memops", work.memops),
        ("shell.datapath.run", "edges", work.edges),
        ("shell.tailor", "calls", work.tailor_calls),
        ("host.batch.submit", "cmds", cmds),
        ("cmd.kernel.ring_doorbell", "cmds", cmds),
        ("cmd.kernel.submit_bytes", "cmds", cmds),
        ("host.cmd_driver.cmd_raw_resilient", "cmds", cmds),
    ];
    for (span, unit_of_work, n) in rates {
        let name = format!("{span}.{unit_of_work}_per_s");
        m.push(Metric::new(&name, n as f64 / busy(span), "1/s"));
    }
    let serial_sweep: f64 = GENERATORS.iter().map(|(name, _)| busy(name)).sum();
    let per = |span: &str, scale: f64, n: u64| busy(span) * scale / n as f64;
    m.extend([
        Metric::new(
            "bench.sweep.parallel_speedup",
            serial_sweep / busy("bench.all_tables"),
            "ratio",
        ),
        Metric::new(
            "fleet.controller.run.us_per_tick",
            per("fleet.controller.run", 1e6, work.ticks),
            "us",
        ),
        Metric::new(
            "fleet.catalog.fits.us_per_call",
            per("fleet.catalog.fits", 1e6, work.fits_calls),
            "us",
        ),
        Metric::new(
            "sim.histo.record.ns_per_sample",
            per("sim.histo.record", 1e9, work.histo_samples),
            "ns",
        ),
        // One sample: the matrix is built once per process.
        Metric::new(
            "fleet.placement.migration_matrix.busy_s",
            t.busy_s("fleet.placement.migration_matrix", 0),
            "s",
        ),
    ]);
    m.extend(counts);
    Ok(m)
}

/// One repetition; returns the counts the program reported.
fn repetition(seed: u64, t: &mut Tracer, work: &mut Work) -> Result<Vec<Metric>, String> {
    *work = Work::default();

    // bench: each generator serially, then the pooled sweep.
    for (name, generate) in GENERATORS {
        t.span(name, |_| black_box(generate()));
    }
    t.span("bench.all_tables", |_| {
        black_box(harmonia_bench::all_tables())
    });

    // shell: the fig18c DRAM replay and the datapath edge loop.
    for mode in AccessMode::ALL {
        let ops = t.span("workloads.vectordb.accesses", |_| {
            VectorDbWorkload::new(3, 4_000_000).accesses(mode, 0.2, 60_000)
        });
        work.memops += ops.len() as u64;
        let mut mem = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        mem.set_cache(false);
        t.span("shell.memory.run_trace", |_| black_box(mem.run_trace(ops)));
    }
    for size in [64u32, 256, 1024] {
        let sim = DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::khz(322_265), 512);
        let report = t.span("shell.datapath.run", |_| sim.run(size, 1_500));
        work.edges += report.edges_visited;
    }
    let devices = [
        catalog::device_a(),
        catalog::device_b(),
        catalog::device_c(),
        catalog::device_d(),
    ];
    for (_, role) in harmonia_bench::roles::all() {
        for device in &devices {
            let unified = UnifiedShell::for_device(device);
            t.span("shell.tailor", |_| {
                black_box(TailoredShell::tailor(&unified, &role).is_ok())
            });
            work.tailor_calls += 1;
        }
    }

    // fleet: new()'s components with its inputs, then the op itself.
    let spec = harmonia::fleet::FleetSpec::new(
        crate::workloads::FLEET_DEVICES,
        seed,
        PlacementPolicy::BestFit,
    );
    let roles = standard_catalog();
    let inventory = t.span("fleet.inventory.sample", |_| {
        Inventory::sample(spec.devices, spec.seed)
    });
    let schedule = t.span("fleet.traffic.schedule", |_| {
        DiurnalTraffic::new(spec.users, spec.seed).schedule(spec.ticks, &roles)
    });
    let peaks = DiurnalTraffic::peak_per_role(&schedule, &roles);
    t.span("fleet.placement.place", |_| {
        black_box(place(spec.policy, &inventory, &roles, &peaks, spec.seed))
    })
    .map_err(|e| e.to_string())?;
    for role in &roles {
        for model in DeviceId::ALL {
            t.span("fleet.catalog.fits", |_| black_box(role.fits(model)));
            work.fits_calls += 1;
        }
    }
    let (report, _) = fleet_campaign(seed, t)?;
    work.ticks = u64::from(report.total_ticks);

    // host/cmd: the observed batched op, the serial op, and bare-kernel
    // replays of the same stream.
    let obs = Observers::enabled();
    batched_campaign(seed, 0, &obs, t)?;
    let trace = obs.trace.snapshot();
    t.span("sim.trace.export_perfetto", |_| {
        black_box(trace.export_perfetto())
    });
    let snap = obs.metrics.snapshot();
    t.span("sim.metrics.export_prometheus", |_| {
        black_box(snap.export_prometheus())
    });
    let latencies: Vec<u64> = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::CmdAck { .. }))
        .map(|e| e.dur)
        .collect();
    t.span("sim.histo.record", |_| {
        for _ in 0..HISTO_ROUNDS {
            let mut h = LogHistogram::new();
            for &v in &latencies {
                h.record(v);
            }
            black_box(h);
        }
    });
    work.histo_samples = (HISTO_ROUNDS * latencies.len()) as u64;
    serial_campaign(seed, 0, t)?;
    let stream: Vec<Vec<u8>> = (0..CMD_COUNT as u32)
        .map(|tag| {
            CommandPacket::new(SrcId::Application, 0, 0, CommandCode::HealthRead)
                .with_idempotency_tag(tag)
                .encode()
        })
        .collect();
    ring_replay(&stream, t)?;
    submit_bytes_replay(&stream, t)?;

    let c = |name: &str| snap.counter(name) as f64;
    let counts = [
        (
            "fleet.accounting.injected",
            report.accounting.injected as f64,
        ),
        (
            "fleet.accounting.migrated",
            report.accounting.migrated as f64,
        ),
        ("fleet.controller.ticks", f64::from(report.total_ticks)),
        ("host.cmd.issued", c("harmonia_cmd_issued_total")),
        ("host.cmd.retries", c("harmonia_cmd_retries_total")),
        ("host.cmd.timeouts", c("harmonia_cmd_timeouts_total")),
        ("cmd.kernel.replays", c("harmonia_kernel_replays_total")),
        ("cmd.kernel.nacks", c("harmonia_kernel_nacks_total")),
        ("host.dma.doorbells", c("harmonia_dma_bursts_total")),
        ("host.irq.interrupts", c("harmonia_irq_interrupts_total")),
        ("sim.trace.events", trace.len() as f64),
    ];
    let mut out: Vec<Metric> = counts
        .iter()
        .map(|&(n, v)| Metric::new(n, v, "count"))
        .collect();
    let ratio = |num: &str, den: &str| c(num) / c(den);
    out.push(Metric::new(
        "host.cmd.acked_per_issued",
        ratio("harmonia_cmd_acked_total", "harmonia_cmd_issued_total"),
        "ratio",
    ));
    out.push(Metric::new(
        "host.irq.coalescing",
        ratio("harmonia_irq_events_total", "harmonia_irq_interrupts_total"),
        "ratio",
    ));
    Ok(out)
}

/// The encoded stream through the SQ/CQ rings, 16 descriptors per
/// doorbell, with no driver above the kernel.
fn ring_replay(stream: &[Vec<u8>], t: &mut Tracer) -> Result<(), String> {
    let mut descriptors: Vec<SqDescriptor> = stream
        .iter()
        .enumerate()
        .map(|(tag, bytes)| SqDescriptor {
            tag: tag as u32,
            bytes: bytes.clone(),
        })
        .collect();
    let mut kernel = UnifiedControlKernel::new(CMD_DEPTH);
    let mut sq = SubmissionQueue::new(CMD_DEPTH);
    let mut cq = CompletionQueue::new(CMD_DEPTH);
    let drained = t.span("cmd.kernel.ring_doorbell", |_| {
        let mut drained = 0;
        let mut pending = descriptors.drain(..);
        loop {
            let mut pushed = 0;
            for d in pending.by_ref().take(CMD_BATCH) {
                sq.push(d).expect("the ring is drained every doorbell");
                pushed += 1;
            }
            if pushed == 0 {
                break drained;
            }
            drained += kernel
                .ring_doorbell(&mut sq, &mut cq, CMD_BATCH, SrcId::Application)
                .drained;
            while cq.pop().is_some() {}
        }
    });
    if drained != stream.len() {
        return Err(format!(
            "ring replay drained {drained} of {} descriptors",
            stream.len()
        ));
    }
    Ok(())
}

/// The encoded stream fed byte-wise to a fresh kernel, one command at a
/// time.
fn submit_bytes_replay(stream: &[Vec<u8>], t: &mut Tracer) -> Result<(), String> {
    let mut kernel = UnifiedControlKernel::new(CMD_DEPTH);
    t.span("cmd.kernel.submit_bytes", |_| {
        for bytes in stream {
            kernel.submit_bytes(bytes)?;
            kernel.step()?;
        }
        Ok(())
    })
    .map_err(|e: harmonia::cmd::KernelError| e.to_string())
}
