//! The unified control kernel (§3.3.3, Figure 8).
//!
//! A lightweight software core inside the FPGA (Nios-class) that
//! centralizes command execution: commands arrive through a dedicated
//! control queue, wait in a configurable-depth buffer, and are executed
//! sequentially — "each of which defines its own processing logic (such as
//! register read/write, flash erase, time count, etc.)". Reading responses
//! are encapsulated as command response packets and uploaded back through
//! the same DMA engine.
//!
//! The key portability property: `ModuleInit` executes the *vendor-specific*
//! register program inside the kernel, so migrating from device C to
//! device D changes the kernel's program tables, not the host software.

use crate::codes::{CommandCode, SrcId};
use crate::packet::{CommandPacket, DecodeError, IDEMPOTENCY_FLAG, VERSION};
use crate::queue::{
    CommandBudget, CompletionQueue, CompletionRecord, CompletionStatus, SubmissionQueue,
};
use harmonia_hw::regfile::{RegOp, RegisterFile};
use harmonia_hw::resource::ResourceUsage;
use harmonia_shell::rbb::{instances, Rbb};
use harmonia_sim::{FaultInjector, MetricsRegistry, Picos, Probe, SyncFifo, TraceEventKind};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// One hardware module registered with the kernel: the RBB-level register
/// file plus the vendor instance's register map and init program.
#[derive(Debug)]
pub struct ModuleHandle {
    /// RBB id (Figure 9 routing).
    pub rbb_id: u8,
    /// Instance id within the RBB.
    pub instance_id: u8,
    /// Human-readable module name.
    pub name: String,
    /// The RBB's unified registers (tables, monitors, control).
    pub rbb_regs: RegisterFile,
    /// The vendor IP's native registers.
    pub ip_regs: RegisterFile,
    /// The vendor-specific initialization program.
    pub ip_init: Vec<RegOp>,
}

impl ModuleHandle {
    /// Builds a handle from an RBB (§4's shell-construction step wires the
    /// kernel to every retained RBB).
    pub fn from_rbb(rbb: &dyn Rbb, instance_id: u8) -> Self {
        ModuleHandle {
            rbb_id: rbb.kind().id(),
            instance_id,
            name: format!("{}#{}", rbb.instance().instance_name(), instance_id),
            rbb_regs: rbb.register_file(),
            ip_regs: rbb.instance().register_map(),
            ip_init: rbb.instance().init_sequence(),
        }
    }
}

/// Kernel-side errors, reported in response packets in production and as
/// typed errors here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The packet failed to parse.
    Decode(DecodeError),
    /// The command buffer is full (backpressure to the driver).
    BufferFull,
    /// No module registered at (rbb, instance).
    UnknownModule {
        /// Target RBB id.
        rbb_id: u8,
        /// Target instance id.
        instance_id: u8,
    },
    /// The command code is not implemented by this kernel build.
    Unsupported {
        /// The offending code.
        code: u16,
    },
    /// The payload does not match the command's expected layout.
    BadPayload {
        /// What the command expected.
        expected: &'static str,
    },
    /// A register operation failed during execution.
    RegFault {
        /// The register-file error text.
        detail: String,
    },
    /// An idempotency tag `window` or more tags behind the newest tag
    /// that ran on its ring: its slot may hold a newer response, so the
    /// kernel can neither replay it nor safely run it again.
    StaleTag {
        /// The refused tag.
        tag: u32,
        /// The newest tag that ran on the ring.
        newest: u32,
        /// The ring's window, in tags.
        window: u32,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Decode(e) => write!(f, "decode: {e}"),
            KernelError::BufferFull => f.write_str("command buffer full"),
            KernelError::UnknownModule {
                rbb_id,
                instance_id,
            } => write!(f, "no module at rbb {rbb_id} instance {instance_id}"),
            KernelError::Unsupported { code } => write!(f, "unsupported command {code:#06x}"),
            KernelError::BadPayload { expected } => write!(f, "bad payload: expected {expected}"),
            KernelError::RegFault { detail } => write!(f, "register fault: {detail}"),
            KernelError::StaleTag {
                tag,
                newest,
                window,
            } => write!(
                f,
                "idempotency tag {tag} is behind newest tag {newest} by the \
                 {window}-tag replay window or more"
            ),
        }
    }
}

impl Error for KernelError {}

impl From<DecodeError> for KernelError {
    fn from(e: DecodeError) -> Self {
        KernelError::Decode(e)
    }
}

/// What one [`UnifiedControlKernel::ring_doorbell`] drain produced, in
/// addition to the records posted on the completion ring.
#[derive(Debug, Default)]
pub struct DrainOutcome {
    /// Descriptors consumed from the submission ring.
    pub drained: usize,
    /// Total execution latency of the drained commands, picoseconds
    /// (what the host's clock advances by for the batch).
    pub exec_ps: Picos,
    /// Response packets for [`CompletionStatus::Ok`](crate::queue::CompletionStatus)
    /// records, keyed by descriptor tag, in drain order.
    pub responses: Vec<(u32, CommandPacket)>,
    /// Typed errors for `CompletionStatus::Error` records, keyed by tag.
    pub errors: Vec<(u32, KernelError)>,
}

/// Per-command kernel metrics summed in plain locals over one public
/// call and published once at its end: a doorbell's drain pays the
/// registry once, not once per command.
#[derive(Default)]
struct ExecTally {
    /// Commands executed (idempotent replays not included).
    executed: u64,
    /// Register operations those commands ran.
    reg_ops: u64,
    /// Highest buffer occupancy after an accepted submit, if any was.
    buffer_high_water: Option<u64>,
}

impl ExecTally {
    /// Publishes the sums, touching only the series a per-command
    /// publication would have touched.
    fn publish(&self, metrics: &MetricsRegistry) {
        if let Some(depth) = self.buffer_high_water {
            metrics.gauge_max("harmonia_kernel_buffer_high_water", &[], depth);
        }
        if self.executed > 0 {
            metrics.counter_add("harmonia_kernel_cmds_executed_total", &[], self.executed);
            metrics.counter_add("harmonia_kernel_reg_ops_total", &[], self.reg_ops);
        }
    }
}

/// The ring the serial path (`submit*`/`step`) and the unbudgeted
/// doorbell share: [`CommandBudget::unlimited`]'s tenant.
const SHARED_RING: u32 = u32::MAX;

/// A cached response and the `(src, key)` it answers.
#[derive(Debug)]
struct Cached {
    src: u8,
    key: u32,
    response: CommandPacket,
}

/// One ring's idempotent responses: a power-of-two array of slots
/// indexed by tag modulo its length. A slot holding another `(src, key)`
/// is a miss, so lookup and insert are O(1) and nothing is ever evicted
/// early: a slot is overwritten only by a tag one whole window newer.
#[derive(Debug)]
struct ReplayWindow {
    ring: u32,
    slots: Vec<Option<Cached>>,
    /// The newest tag that ran on the ring (0 before any did).
    newest: u32,
}

impl ReplayWindow {
    fn new(ring: u32, depth: usize) -> ReplayWindow {
        ReplayWindow {
            ring,
            slots: (0..depth).map(|_| None).collect(),
            newest: 0,
        }
    }

    fn slot(&self, key: u32) -> usize {
        key as usize & (self.slots.len() - 1)
    }

    /// Grows the window to `depth` slots; live entries keep their
    /// responses, as distinct tags modulo the old length stay distinct
    /// modulo a multiple of it.
    fn grow(&mut self, depth: usize) {
        if depth <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, (0..depth).map(|_| None).collect());
        for cached in old.into_iter().flatten() {
            let i = self.slot(cached.key);
            self.slots[i] = Some(cached);
        }
    }

    /// The cached response to `(src, key)`, `None` for a tag that has not
    /// run, or [`KernelError::StaleTag`] when the tag is a whole window or
    /// more behind the newest tag that ran here.
    fn lookup(&self, src: u8, key: u32) -> Result<Option<&CommandPacket>, KernelError> {
        let (tag, window) = (key & !IDEMPOTENCY_FLAG, self.slots.len() as u32);
        if tag <= self.newest && self.newest - tag >= window {
            return Err(KernelError::StaleTag {
                tag,
                newest: self.newest,
                window,
            });
        }
        Ok(match &self.slots[self.slot(key)] {
            Some(c) if c.src == src && c.key == key => Some(&c.response),
            _ => None,
        })
    }

    fn insert(&mut self, src: u8, key: u32, response: CommandPacket) {
        self.newest = self.newest.max(key & !IDEMPOTENCY_FLAG);
        let i = self.slot(key);
        self.slots[i] = Some(Cached { src, key, response });
    }
}

/// The unified control kernel.
pub struct UnifiedControlKernel {
    buffer: SyncFifo<CommandPacket>,
    modules: BTreeMap<(u8, u8), ModuleHandle>,
    health: RegisterFile,
    commands_executed: u64,
    reg_ops_executed: u64,
    /// One replay window per ring, looked up once per drain: a handful
    /// of rings (the shared one plus one per tenant).
    windows: Vec<ReplayWindow>,
    decode_errors: u64,
    replays: u64,
    /// Observability planes (disabled by default — zero cost). Purely
    /// observational: recording never feeds back into execution.
    probe: Probe,
    /// Trace-only clock: advanced by executed-command latencies and
    /// synced forward by the driver. Never consulted by execution logic.
    trace_clock_ps: Picos,
}

impl fmt::Debug for UnifiedControlKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnifiedControlKernel")
            .field("pending", &self.buffer.len())
            .field("modules", &self.modules.len())
            .field("commands_executed", &self.commands_executed)
            .finish()
    }
}

impl UnifiedControlKernel {
    /// Soft-core clock: commands execute at Nios-class speed.
    pub(crate) const CORE_CLOCK_MHZ: u64 = 250;
    /// Smallest replay window, in tags. Each ring — every tenant's, plus
    /// one the serial path and the unbudgeted doorbell share — gets its
    /// own window of the next power of two at or above the larger of
    /// this and twice its SQ depth. A retry replays as long as its ring's
    /// tags are dense and it is less than a window behind the newest tag
    /// that ran there; an older tag gets [`KernelError::StaleTag`].
    pub(crate) const IDEM_CACHE_DEPTH: usize = 256;
    /// Fixed per-command overhead in core cycles (parse + dispatch +
    /// encapsulate).
    pub(crate) const CYCLES_PER_COMMAND: u64 = 60;
    /// Core cycles per register operation executed.
    pub(crate) const CYCLES_PER_REG_OP: u64 = 4;

    /// Creates a kernel with the given command-buffer depth.
    pub fn new(buffer_depth: usize) -> Self {
        let mut health = RegisterFile::new("board-health");
        health.define(0x00, "temp_fpga", harmonia_hw::Access::ReadOnly, 41);
        health.define(0x04, "temp_board", harmonia_hw::Access::ReadOnly, 33);
        health.define(0x08, "vccint_mv", harmonia_hw::Access::ReadOnly, 850);
        health.define(0x0C, "vcc12_mv", harmonia_hw::Access::ReadOnly, 12_010);
        health.define(0x10, "time_lo", harmonia_hw::Access::ReadWrite, 0);
        health.define(0x14, "time_hi", harmonia_hw::Access::ReadWrite, 0);
        health.define(0x18, "flash_status", harmonia_hw::Access::ReadOnly, 1);
        UnifiedControlKernel {
            buffer: SyncFifo::new(buffer_depth),
            modules: BTreeMap::new(),
            health,
            commands_executed: 0,
            reg_ops_executed: 0,
            windows: Vec::new(),
            decode_errors: 0,
            replays: 0,
            probe: Probe::disabled(),
            trace_clock_ps: 0,
        }
    }

    /// Attaches an observability probe: the kernel emits
    /// [`TraceEventKind::KernelExec`] spans, replay/NACK instants and
    /// buffer-stall events on its timeline, and bumps
    /// `harmonia_kernel_*` counters (executed, replays, nacks, reg ops,
    /// ring drains) and ring-occupancy high-water gauges in its registry.
    /// Disabled planes cost one branch per hook.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Advances the kernel's trace-only clock to `now` (the driver calls
    /// this with its own clock before submitting, so kernel-side events
    /// line up with driver-side events on one timeline). Never moves
    /// backwards; has no effect on execution.
    pub fn sync_clock(&mut self, now: Picos) {
        self.trace_clock_ps = self.trace_clock_ps.max(now);
    }

    /// Registers a module.
    ///
    /// # Panics
    ///
    /// Panics if the (rbb, instance) slot is already taken — module
    /// addressing must be unambiguous.
    pub fn register_module(&mut self, handle: ModuleHandle) {
        let key = (handle.rbb_id, handle.instance_id);
        let prev = self.modules.insert(key, handle);
        assert!(prev.is_none(), "module slot {key:?} registered twice");
    }

    /// Registers every RBB of a shell, numbering instances per RBB kind.
    pub fn attach_shell<'a, I: IntoIterator<Item = &'a dyn Rbb>>(&mut self, rbbs: I) {
        for (rbb, instance) in instances(rbbs) {
            self.register_module(ModuleHandle::from_rbb(rbb, instance));
        }
    }

    /// Number of registered modules.
    #[cfg(test)]
    fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Enqueues an encoded packet (steps 2–3 of the walkthrough: transfer
    /// into the kernel buffer and parse).
    ///
    /// # Errors
    ///
    /// Decode failures and buffer backpressure.
    pub fn submit_bytes(&mut self, bytes: &[u8]) -> Result<(), KernelError> {
        let packet = CommandPacket::decode(bytes)?;
        self.submit(packet)
    }

    /// Drop/corrupt-aware ingest: bytes that fail to decode produce a
    /// [`CommandCode::Nack`] response packet addressed to `reply_to` (the
    /// controller whose queue the bytes arrived on) instead of an error —
    /// the kernel must survive a corrupted wire, not panic or wedge.
    ///
    /// Returns `Ok(Some(nack))` for undecodable bytes, `Ok(None)` when the
    /// command was accepted into the buffer.
    ///
    /// # Errors
    ///
    /// [`KernelError::BufferFull`] under backpressure (the bytes were
    /// valid; the driver should retry after draining responses).
    pub fn submit_bytes_or_nack(
        &mut self,
        bytes: &[u8],
        reply_to: SrcId,
    ) -> Result<Option<CommandPacket>, KernelError> {
        self.published(|k, tally| k.ingest(bytes, reply_to, tally))
    }

    /// Runs `f` over a fresh [`ExecTally`] and publishes it: a public
    /// call leaves the registry exact.
    fn published<R>(&mut self, f: impl FnOnce(&mut Self, &mut ExecTally) -> R) -> R {
        let mut tally = ExecTally::default();
        let out = f(self, &mut tally);
        tally.publish(&self.probe.metrics);
        out
    }

    /// [`UnifiedControlKernel::submit_bytes_or_nack`], counting into
    /// `tally`.
    fn ingest(
        &mut self,
        bytes: &[u8],
        reply_to: SrcId,
        tally: &mut ExecTally,
    ) -> Result<Option<CommandPacket>, KernelError> {
        match CommandPacket::decode(bytes) {
            Ok(packet) => {
                self.enqueue(packet, tally)?;
                Ok(None)
            }
            Err(e) => {
                self.decode_errors += 1;
                self.probe
                    .metrics
                    .counter_inc("harmonia_kernel_nacks_total", &[]);
                self.probe.trace.instant(
                    self.trace_clock_ps,
                    TraceEventKind::CmdNack {
                        error_code: e.code(),
                    },
                );
                let nack = CommandPacket {
                    version: VERSION,
                    src: reply_to,
                    dst: reply_to.to_u8(),
                    rbb_id: 0,
                    instance_id: 0,
                    code: CommandCode::Nack,
                    options: 0,
                    data: vec![e.code()],
                };
                Ok(Some(nack))
            }
        }
    }

    /// Enqueues a parsed packet.
    ///
    /// # Errors
    ///
    /// [`KernelError::BufferFull`] under backpressure.
    pub fn submit(&mut self, packet: CommandPacket) -> Result<(), KernelError> {
        self.published(|k, tally| k.enqueue(packet, tally))
    }

    /// [`UnifiedControlKernel::submit`], counting into `tally`.
    fn enqueue(&mut self, packet: CommandPacket, tally: &mut ExecTally) -> Result<(), KernelError> {
        // No fault injector here: the command buffer never draws ECC hits.
        self.buffer
            .push_at(
                packet,
                self.trace_clock_ps,
                &FaultInjector::none(),
                &self.probe,
            )
            .map_err(|_| KernelError::BufferFull)?;
        tally.buffer_high_water = tally.buffer_high_water.max(Some(self.buffer.len() as u64));
        Ok(())
    }

    /// Commands waiting in the buffer.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Executes the next buffered command (steps 4–6) and returns its
    /// response packet.
    ///
    /// # Errors
    ///
    /// Execution errors; `Ok(None)` when the buffer is empty.
    pub fn step(&mut self) -> Result<Option<CommandPacket>, KernelError> {
        let window = self.window(SHARED_RING, 0);
        self.published(|k, tally| k.execute_next(window, tally))
    }

    /// The index of `ring`'s replay window, sized for an SQ of
    /// `sq_capacity` slots (made or grown on first need).
    fn window(&mut self, ring: u32, sq_capacity: usize) -> usize {
        let depth = (2 * sq_capacity)
            .max(Self::IDEM_CACHE_DEPTH)
            .next_power_of_two();
        match self.windows.iter().position(|w| w.ring == ring) {
            Some(i) => {
                self.windows[i].grow(depth);
                i
            }
            None => {
                self.windows.push(ReplayWindow::new(ring, depth));
                self.windows.len() - 1
            }
        }
    }

    /// [`UnifiedControlKernel::step`] against replay window `window`,
    /// counting into `tally`.
    fn execute_next(
        &mut self,
        window: usize,
        tally: &mut ExecTally,
    ) -> Result<Option<CommandPacket>, KernelError> {
        let Some(packet) = self.buffer.pop() else {
            return Ok(None);
        };
        // Idempotency-tagged commands replay their cached response: a
        // retried `ModuleInit` whose completion interrupt was lost must
        // not run the vendor init program twice.
        let src = packet.src.to_u8();
        let idem_key = packet.idempotency_key();
        if let Some(key) = idem_key {
            if let Some(cached) = self.windows[window].lookup(src, key)? {
                self.replays += 1;
                self.probe
                    .metrics
                    .counter_inc("harmonia_kernel_replays_total", &[]);
                self.probe.trace.instant(
                    self.trace_clock_ps,
                    TraceEventKind::KernelReplay {
                        code: packet.code.to_u16(),
                    },
                );
                return Ok(Some(cached.clone()));
            }
        }
        let ops_before = self.reg_ops_executed;
        let data = self.execute(&packet)?;
        self.commands_executed += 1;
        tally.executed += 1;
        tally.reg_ops += self.reg_ops_executed - ops_before;
        let exec_ps = Self::command_latency_ps(self.reg_ops_executed - ops_before);
        self.probe.trace.span(
            self.trace_clock_ps,
            exec_ps,
            TraceEventKind::KernelExec {
                code: packet.code.to_u16(),
                reg_ops: self.reg_ops_executed - ops_before,
            },
        );
        self.trace_clock_ps += exec_ps;
        let response = packet.response(data);
        if let Some(key) = idem_key {
            self.windows[window].insert(src, key, response.clone());
        }
        Ok(Some(response))
    }

    /// Doorbell entry for the batched SQ/CQ path: drains up to `n`
    /// descriptors from the submission ring through the normal
    /// decode/idempotency/replay machinery, posting one compact
    /// [`CompletionRecord`] per drained descriptor to the completion
    /// ring.
    ///
    /// Per descriptor, in ring order:
    ///
    /// * undecodable bytes post [`CompletionStatus::Nack`] with the stable
    ///   decode-error code (the NACK packet the single-shot path would
    ///   have returned is collapsed into the record);
    /// * executed (or idempotently replayed) commands post
    ///   [`CompletionStatus::Ok`]; the response packet rides back in
    ///   [`DrainOutcome::responses`] keyed by tag;
    /// * typed execution failures post [`CompletionStatus::Error`] with
    ///   the [`KernelError`] in [`DrainOutcome::errors`] — one bad
    ///   command must not wedge the rest of the batch.
    ///
    /// The drain stops early when the completion ring fills (the host
    /// hasn't polled; posting would overwrite unread completions) —
    /// undrained descriptors stay queued for the next doorbell.
    pub fn ring_doorbell(
        &mut self,
        sq: &mut SubmissionQueue,
        cq: &mut CompletionQueue,
        n: usize,
        reply_to: SrcId,
    ) -> DrainOutcome {
        let mut unlimited = CommandBudget::unlimited();
        self.ring_doorbell_budgeted(sq, cq, n, reply_to, &mut unlimited)
    }

    /// [`UnifiedControlKernel::ring_doorbell`] with a tenant
    /// [`CommandBudget`]: every drained descriptor is charged against
    /// the budget and the drain refuses to start a descriptor past
    /// exhaustion; undrained descriptors stay queued for the next
    /// slice's budget. With `CommandBudget::unlimited` this is
    /// byte-for-byte the unbudgeted path.
    pub fn ring_doorbell_budgeted(
        &mut self,
        sq: &mut SubmissionQueue,
        cq: &mut CompletionQueue,
        n: usize,
        reply_to: SrcId,
        budget: &mut CommandBudget,
    ) -> DrainOutcome {
        let drain_start = self.trace_clock_ps;
        self.probe
            .metrics
            .gauge_max("harmonia_kernel_sq_high_water", &[], sq.len() as u64);
        let mut out = DrainOutcome {
            drained: 0,
            exec_ps: 0,
            responses: Vec::with_capacity(n.min(sq.len())),
            errors: Vec::new(),
        };
        let window = self.window(budget.tenant, sq.capacity());
        let mut tally = ExecTally::default();
        for _ in 0..n {
            if cq.is_full() {
                break;
            }
            if budget.exhausted() {
                break;
            }
            let Some(desc) = sq.pop() else { break };
            budget.charge();
            out.drained += 1;
            let status = match self.ingest(&desc.bytes, reply_to, &mut tally) {
                Ok(Some(nack)) => CompletionStatus::Nack {
                    error_code: nack.data[0],
                },
                Ok(None) => {
                    let before = self.reg_ops_executed;
                    match self.execute_next(window, &mut tally) {
                        Ok(Some(resp)) => {
                            out.exec_ps += Self::command_latency_ps(self.reg_ops_executed - before);
                            out.responses.push((desc.tag, resp));
                            CompletionStatus::Ok
                        }
                        Ok(None) => unreachable!("descriptor was just submitted"),
                        Err(e) => {
                            out.errors.push((desc.tag, e));
                            CompletionStatus::Error
                        }
                    }
                }
                Err(e) => {
                    // Command-buffer backpressure (only reachable with a
                    // degenerate buffer depth: the drain is one-in-one-out).
                    out.errors.push((desc.tag, e));
                    CompletionStatus::Error
                }
            };
            cq.push(CompletionRecord {
                tag: desc.tag,
                status,
                at_ps: self.trace_clock_ps,
            })
            .expect("cq fullness was checked before the pop");
        }
        tally.publish(&self.probe.metrics);
        if out.drained > 0 {
            self.probe.metrics.counter_add(
                "harmonia_kernel_sq_drained_total",
                &[],
                out.drained as u64,
            );
            self.probe.trace.span(
                drain_start,
                out.exec_ps,
                TraceEventKind::BatchDrain {
                    entries: out.drained as u32,
                },
            );
        }
        out
    }

    /// Drains the whole buffer, returning all responses.
    ///
    /// # Errors
    ///
    /// Stops at the first failing command.
    #[cfg(test)]
    fn run_to_idle(&mut self) -> Result<Vec<CommandPacket>, KernelError> {
        let mut out = Vec::new();
        while let Some(resp) = self.step()? {
            out.push(resp);
        }
        Ok(out)
    }

    fn module_mut(
        modules: &mut BTreeMap<(u8, u8), ModuleHandle>,
        rbb_id: u8,
        instance_id: u8,
    ) -> Result<&mut ModuleHandle, KernelError> {
        modules
            .get_mut(&(rbb_id, instance_id))
            .ok_or(KernelError::UnknownModule {
                rbb_id,
                instance_id,
            })
    }

    fn execute(&mut self, packet: &CommandPacket) -> Result<Vec<u32>, KernelError> {
        match packet.code {
            CommandCode::HealthRead => {
                let mut out = Vec::new();
                for addr in [0x00u32, 0x04, 0x08, 0x0C] {
                    out.push(self.reg(|k| k.health.read(addr))?);
                }
                Ok(out)
            }
            CommandCode::TimeSync => {
                let [lo, hi] = packet.data[..] else {
                    return Err(KernelError::BadPayload {
                        expected: "[time_lo, time_hi]",
                    });
                };
                self.reg(|k| k.health.write(0x10, lo))?;
                self.reg(|k| k.health.write(0x14, hi))?;
                Ok(Vec::new())
            }
            CommandCode::FlashErase => {
                // Board-level flash: acknowledge with the flash status.
                self.reg(|k| k.health.read(0x18)).map(|v| vec![v])
            }
            CommandCode::ModuleStatusRead => {
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                let mut out = Vec::new();
                if packet.data.is_empty() {
                    let addr = m
                        .rbb_regs
                        .addr_of("status")
                        .ok_or(KernelError::BadPayload {
                            expected: "addresses (module has no default status reg)",
                        })?;
                    out.push(Self::reg_on(&mut self.reg_ops_executed, || {
                        m.rbb_regs.read(addr)
                    })?);
                } else {
                    for &addr in &packet.data {
                        out.push(Self::reg_on(&mut self.reg_ops_executed, || {
                            m.rbb_regs.read(addr)
                        })?);
                    }
                }
                Ok(out)
            }
            CommandCode::ModuleStatusWrite => {
                if !packet.data.len().is_multiple_of(2) || packet.data.is_empty() {
                    return Err(KernelError::BadPayload {
                        expected: "[addr, value] pairs",
                    });
                }
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                for pair in packet.data.chunks_exact(2) {
                    Self::reg_on(&mut self.reg_ops_executed, || {
                        m.rbb_regs.write(pair[0], pair[1])
                    })?;
                }
                Ok(Vec::new())
            }
            CommandCode::ModuleInit => {
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                let init = m.ip_init.clone();
                for op in &init {
                    // The hardware raises polled status bits as the module
                    // comes up; model that before each wait.
                    if let RegOp::WaitStatus { addr, mask, expect } = *op {
                        let cur =
                            Self::reg_on(&mut self.reg_ops_executed, || m.ip_regs.read(addr))?;
                        m.ip_regs
                            .hw_set(addr, (cur & !mask) | expect)
                            .map_err(|e| KernelError::RegFault {
                                detail: e.to_string(),
                            })?;
                    }
                    Self::reg_on(&mut self.reg_ops_executed, || m.ip_regs.apply(op))?;
                }
                Ok(vec![init.len() as u32])
            }
            CommandCode::ModuleReset => {
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                m.rbb_regs.reset();
                m.ip_regs.reset();
                self.reg_ops_executed += 2;
                Ok(Vec::new())
            }
            CommandCode::TableWrite => {
                let [index, lo, hi] = packet.data[..] else {
                    return Err(KernelError::BadPayload {
                        expected: "[index, value_lo, value_hi]",
                    });
                };
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                for (reg, val) in [
                    ("table_addr", index),
                    ("table_wdata_lo", lo),
                    ("table_wdata_hi", hi),
                    ("table_cmd", 1),
                ] {
                    let addr = m.rbb_regs.addr_of(reg).ok_or(KernelError::BadPayload {
                        expected: "a module with table registers",
                    })?;
                    Self::reg_on(&mut self.reg_ops_executed, || m.rbb_regs.write(addr, val))?;
                }
                Ok(Vec::new())
            }
            CommandCode::TableRead => {
                let [index] = packet.data[..] else {
                    return Err(KernelError::BadPayload {
                        expected: "[index]",
                    });
                };
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                let addr_reg = m
                    .rbb_regs
                    .addr_of("table_addr")
                    .ok_or(KernelError::BadPayload {
                        expected: "a module with table registers",
                    })?;
                Self::reg_on(&mut self.reg_ops_executed, || {
                    m.rbb_regs.write(addr_reg, index)
                })?;
                let lo = m.rbb_regs.addr_of("table_wdata_lo").expect("table regs");
                let hi = m.rbb_regs.addr_of("table_wdata_hi").expect("table regs");
                let vlo = Self::reg_on(&mut self.reg_ops_executed, || m.rbb_regs.read(lo))?;
                let vhi = Self::reg_on(&mut self.reg_ops_executed, || m.rbb_regs.read(hi))?;
                Ok(vec![vlo, vhi])
            }
            CommandCode::StatsRead => {
                let m = Self::module_mut(&mut self.modules, packet.rbb_id, packet.instance_id)?;
                let addrs: Vec<u32> = m
                    .rbb_regs
                    .iter()
                    .filter(|(_, name)| name.starts_with("mon_"))
                    .map(|(a, _)| a)
                    .collect();
                let mut out = Vec::with_capacity(addrs.len());
                for addr in addrs {
                    out.push(Self::reg_on(&mut self.reg_ops_executed, || {
                        m.rbb_regs.read(addr)
                    })?);
                }
                Ok(out)
            }
            // NACK is kernel-originated only; a host submitting one is a
            // protocol violation.
            CommandCode::Nack => Err(KernelError::Unsupported {
                code: CommandCode::Nack.to_u16(),
            }),
            // No extension command has a handler in this kernel.
            CommandCode::Extension(code) => Err(KernelError::Unsupported { code }),
        }
    }

    fn reg<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, harmonia_hw::regfile::RegError>,
    ) -> Result<T, KernelError> {
        self.reg_ops_executed += 1;
        f(self).map_err(|e| KernelError::RegFault {
            detail: e.to_string(),
        })
    }

    fn reg_on<T, E: fmt::Display>(
        counter: &mut u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, KernelError> {
        *counter += 1;
        f().map_err(|e| KernelError::RegFault {
            detail: e.to_string(),
        })
    }

    /// Hardware-side access to a module's RBB register file, so live RBB
    /// state (monitor counters) can be published into the registers the
    /// kernel serves to `StatsRead`.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownModule`] when no module is registered there.
    pub fn module_regs_mut(
        &mut self,
        rbb_id: u8,
        instance_id: u8,
    ) -> Result<&mut RegisterFile, KernelError> {
        self.modules
            .get_mut(&(rbb_id, instance_id))
            .map(|m| &mut m.rbb_regs)
            .ok_or(KernelError::UnknownModule {
                rbb_id,
                instance_id,
            })
    }

    /// Commands executed so far.
    pub fn commands_executed(&self) -> u64 {
        self.commands_executed
    }

    /// Register operations the kernel executed on software's behalf — the
    /// operations host software would otherwise perform itself (Figure 13).
    pub fn reg_ops_executed(&self) -> u64 {
        self.reg_ops_executed
    }

    /// Undecodable submissions turned into NACK responses.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// Idempotent retries served from their ring's replay window (no
    /// re-execution). A retry a whole window or more behind its ring's
    /// newest tag is refused with [`KernelError::StaleTag`] instead, and
    /// is not counted here.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Execution latency of a command that performs `reg_ops` register
    /// operations, in picoseconds.
    pub fn command_latency_ps(reg_ops: u64) -> Picos {
        let cycles = Self::CYCLES_PER_COMMAND + Self::CYCLES_PER_REG_OP * reg_ops;
        cycles * (1_000_000 / Self::CORE_CLOCK_MHZ)
    }

    /// Soft-core resource footprint — bounded by Figure 16's 0.67%.
    pub fn resources() -> ResourceUsage {
        ResourceUsage::new(3_600, 4_800, 8, 2, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::SrcId;
    use harmonia_hw::device::catalog;
    use harmonia_shell::rbb::RbbKind;
    use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};

    fn kernel_on_device_a() -> UnifiedControlKernel {
        let unified = UnifiedShell::for_device(&catalog::device_a());
        let role = RoleSpec::builder("test")
            .network_gbps(100)
            .memory(harmonia_shell::MemoryDemand::Hbm)
            .build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let mut k = UnifiedControlKernel::new(64);
        k.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        k
    }

    fn net_cmd(code: CommandCode) -> CommandPacket {
        CommandPacket::new(SrcId::Application, RbbKind::Network.id(), 0, code)
    }

    #[test]
    fn attach_shell_registers_all_rbbs() {
        let k = kernel_on_device_a();
        assert_eq!(k.module_count(), 4); // 2 net + hbm + host
    }

    #[test]
    fn module_init_executes_vendor_program() {
        let mut k = kernel_on_device_a();
        k.submit(net_cmd(CommandCode::ModuleInit)).unwrap();
        let resp = k.step().unwrap().unwrap();
        let ops = resp.data[0];
        assert!(ops > 5, "init ran only {ops} ops");
        assert!(k.reg_ops_executed() >= u64::from(ops));
        assert_eq!(k.commands_executed(), 1);
    }

    #[test]
    fn status_read_defaults_to_status_register() {
        let mut k = kernel_on_device_a();
        k.submit(net_cmd(CommandCode::ModuleStatusRead)).unwrap();
        let resp = k.step().unwrap().unwrap();
        assert_eq!(resp.data.len(), 1);
        assert_eq!(resp.dst, SrcId::Application.to_u8());
    }

    #[test]
    fn table_write_then_read_round_trip() {
        let mut k = kernel_on_device_a();
        k.submit(net_cmd(CommandCode::TableWrite).with_data(vec![3, 0xAAAA, 0x5555]))
            .unwrap();
        k.submit(net_cmd(CommandCode::TableRead).with_data(vec![3]))
            .unwrap();
        let resps = k.run_to_idle().unwrap();
        assert_eq!(resps[1].data, vec![0xAAAA, 0x5555]);
    }

    #[test]
    fn stats_read_returns_all_monitor_registers() {
        let mut k = kernel_on_device_a();
        k.submit(net_cmd(CommandCode::StatsRead)).unwrap();
        let resp = k.step().unwrap().unwrap();
        assert_eq!(resp.data.len(), 28); // the Network RBB monitor block
    }

    #[test]
    fn unknown_module_reported() {
        let mut k = kernel_on_device_a();
        k.submit(CommandPacket::new(
            SrcId::CtrlTool,
            RbbKind::Memory.id(),
            7,
            CommandCode::ModuleReset,
        ))
        .unwrap();
        assert_eq!(
            k.step(),
            Err(KernelError::UnknownModule {
                rbb_id: 2,
                instance_id: 7
            })
        );
    }

    #[test]
    fn health_and_timesync_are_device_level() {
        let mut k = kernel_on_device_a();
        k.submit(CommandPacket::new(
            SrcId::Bmc,
            0,
            0,
            CommandCode::HealthRead,
        ))
        .unwrap();
        let resp = k.step().unwrap().unwrap();
        assert_eq!(resp.data.len(), 4);
        assert_eq!(resp.data[0], 41); // temp
        k.submit(
            CommandPacket::new(SrcId::Bmc, 0, 0, CommandCode::TimeSync).with_data(vec![99, 1]),
        )
        .unwrap();
        assert!(k.step().unwrap().is_some());
    }

    #[test]
    fn buffer_backpressure() {
        let mut k = UnifiedControlKernel::new(2);
        k.submit(net_cmd(CommandCode::HealthRead)).unwrap();
        k.submit(net_cmd(CommandCode::HealthRead)).unwrap();
        assert_eq!(
            k.submit(net_cmd(CommandCode::HealthRead)),
            Err(KernelError::BufferFull)
        );
    }

    #[test]
    fn bad_payload_reported() {
        let mut k = kernel_on_device_a();
        k.submit(net_cmd(CommandCode::TableWrite).with_data(vec![1]))
            .unwrap();
        assert!(matches!(k.step(), Err(KernelError::BadPayload { .. })));
    }

    #[test]
    fn submit_bytes_decodes_first() {
        let mut k = kernel_on_device_a();
        let good = net_cmd(CommandCode::ModuleStatusRead).encode();
        k.submit_bytes(&good).unwrap();
        let mut bad = good.clone();
        bad[15] ^= 0xFF;
        assert!(matches!(k.submit_bytes(&bad), Err(KernelError::Decode(_))));
    }

    #[test]
    fn reset_restores_module_registers() {
        let mut k = kernel_on_device_a();
        k.submit(net_cmd(CommandCode::ModuleStatusWrite).with_data(vec![0x000, 0]))
            .unwrap(); // filter_ctrl := 0
        k.submit(net_cmd(CommandCode::ModuleStatusRead).with_data(vec![0x000]))
            .unwrap();
        k.submit(net_cmd(CommandCode::ModuleReset)).unwrap();
        k.submit(net_cmd(CommandCode::ModuleStatusRead).with_data(vec![0x000]))
            .unwrap();
        let resps = k.run_to_idle().unwrap();
        assert_eq!(resps[1].data, vec![0]);
        assert_eq!(resps[3].data, vec![1]); // reset value
    }

    #[test]
    fn kernel_overhead_below_fig16_bound() {
        for dev in catalog::all() {
            let pct = UnifiedControlKernel::resources().max_percent_of(dev.capacity());
            assert!(pct < 0.67, "{}: UCK at {pct:.3}%", dev.name());
        }
    }

    #[test]
    fn command_latency_is_sub_microsecond() {
        let ps = UnifiedControlKernel::command_latency_ps(40);
        assert!(ps < 1_000_000, "command latency {ps} ps");
    }

    #[test]
    fn extension_codes_are_unsupported() {
        let mut k = kernel_on_device_a();
        for code in [0x0010, 0x0099] {
            k.submit(CommandPacket::new(
                SrcId::Bmc,
                0,
                0,
                CommandCode::Extension(code),
            ))
            .unwrap();
            assert_eq!(k.step(), Err(KernelError::Unsupported { code }));
        }
    }

    #[test]
    fn corrupt_bytes_become_a_nack_not_a_panic() {
        let mut k = kernel_on_device_a();
        let mut bytes = net_cmd(CommandCode::ModuleStatusRead).encode();
        bytes[15] ^= 0xFF;
        let nack = k
            .submit_bytes_or_nack(&bytes, SrcId::Application)
            .unwrap()
            .expect("corrupt bytes must NACK");
        assert_eq!(nack.code, CommandCode::Nack);
        assert_eq!(nack.dst, SrcId::Application.to_u8());
        assert_eq!(
            nack.data,
            vec![CommandPacket::decode(&bytes).unwrap_err().code()]
        );
        assert_eq!(k.decode_errors(), 1);
        assert_eq!(k.pending(), 0);
        // Valid bytes still go through the same entry point.
        let good = net_cmd(CommandCode::ModuleStatusRead).encode();
        assert_eq!(k.submit_bytes_or_nack(&good, SrcId::Application), Ok(None));
        assert_eq!(k.pending(), 1);
    }

    #[test]
    fn idempotent_module_init_replays_without_double_apply() {
        let mut k = kernel_on_device_a();
        let cmd = net_cmd(CommandCode::ModuleInit).with_idempotency_tag(7);
        k.submit(cmd.clone()).unwrap();
        let first = k.step().unwrap().unwrap();
        let (execs, reg_ops) = (k.commands_executed(), k.reg_ops_executed());
        // The driver retries the identical tagged command (e.g. its
        // completion interrupt was lost).
        k.submit(cmd).unwrap();
        let replay = k.step().unwrap().unwrap();
        assert_eq!(replay, first);
        assert_eq!(k.commands_executed(), execs, "init must not run twice");
        assert_eq!(k.reg_ops_executed(), reg_ops);
        assert_eq!(k.replays(), 1);
        // A different tag executes fresh.
        k.submit(net_cmd(CommandCode::ModuleInit).with_idempotency_tag(8))
            .unwrap();
        k.step().unwrap().unwrap();
        assert_eq!(k.commands_executed(), execs + 1);
    }

    #[test]
    fn idempotency_cache_is_bounded() {
        // The serial path's window holds one response per tag modulo its
        // depth: after tags 0..W+8, tag 8 (W-1 behind the newest) still
        // replays, and tag 7 (a whole window behind) is refused.
        let mut k = kernel_on_device_a();
        let depth = UnifiedControlKernel::IDEM_CACHE_DEPTH as u32;
        for tag in 0..depth + 8 {
            k.submit(net_cmd(CommandCode::ModuleStatusRead).with_idempotency_tag(tag))
                .unwrap();
            k.step().unwrap().unwrap();
        }
        let execs = k.commands_executed();
        k.submit(net_cmd(CommandCode::ModuleStatusRead).with_idempotency_tag(8))
            .unwrap();
        k.step().unwrap().unwrap();
        assert_eq!((k.commands_executed(), k.replays()), (execs, 1));
        k.submit(net_cmd(CommandCode::ModuleStatusRead).with_idempotency_tag(7))
            .unwrap();
        assert_eq!(
            k.step(),
            Err(KernelError::StaleTag {
                tag: 7,
                newest: depth + 7,
                window: depth,
            })
        );
        assert_eq!((k.commands_executed(), k.replays()), (execs, 1));
    }

    #[test]
    fn stale_tag_on_a_ring_is_an_error_record_not_a_second_run() {
        let mut k = kernel_on_device_a();
        let mut sq = SubmissionQueue::new(128);
        let mut cq = CompletionQueue::new(128);
        let mut budget = CommandBudget::new(2, u64::MAX);
        // A 128-slot SQ gets a 256-tag window.
        for tag in [0, 255, 256] {
            sq.push(health_desc(tag)).unwrap();
        }
        k.ring_doorbell_budgeted(&mut sq, &mut cq, 8, SrcId::Application, &mut budget);
        while cq.pop().is_some() {}
        let execs = k.commands_executed();
        sq.push(health_desc(0)).unwrap();
        let out = k.ring_doorbell_budgeted(&mut sq, &mut cq, 8, SrcId::Application, &mut budget);
        assert_eq!(cq.pop().map(|r| r.status), Some(CompletionStatus::Error));
        let stale = KernelError::StaleTag {
            tag: 0,
            newest: 256,
            window: 256,
        };
        assert_eq!(out.errors, vec![(0, stale.clone())]);
        assert_eq!(k.commands_executed(), execs, "a stale tag never runs again");
        assert!(
            stale.to_string().contains("256-tag replay window"),
            "{stale}"
        );
    }

    #[test]
    fn each_ring_has_its_own_window() {
        // Tenants number their tags from 0: the same tag on two rings is
        // two commands, and a retry replays only on its own ring.
        let mut k = kernel_on_device_a();
        let mut sq = SubmissionQueue::new(8);
        let mut cq = CompletionQueue::new(8);
        for ring in [0, 1, 0] {
            sq.push(health_desc(5)).unwrap();
            let mut budget = CommandBudget::new(ring, 8);
            k.ring_doorbell_budgeted(&mut sq, &mut cq, 8, SrcId::Application, &mut budget);
            assert_eq!(cq.pop().map(|r| r.status), Some(CompletionStatus::Ok));
        }
        assert_eq!((k.commands_executed(), k.replays()), (2, 1));
        // The serial path's window is a third one.
        k.submit(
            CommandPacket::new(SrcId::Application, 0, 0, CommandCode::HealthRead)
                .with_idempotency_tag(5),
        )
        .unwrap();
        k.step().unwrap().unwrap();
        assert_eq!((k.commands_executed(), k.replays()), (3, 1));
    }

    #[test]
    fn traced_kernel_emits_exec_replay_and_nack_events() {
        use harmonia_sim::TraceEventKind;
        let mut k = kernel_on_device_a();
        let probe = Probe::enabled();
        k.set_probe(probe.clone());
        // Normal execution → one KernelExec span.
        k.submit(net_cmd(CommandCode::ModuleStatusRead)).unwrap();
        k.step().unwrap().unwrap();
        // Replay of an idempotent retry → KernelReplay instant.
        let tagged = net_cmd(CommandCode::ModuleInit).with_idempotency_tag(1);
        k.submit(tagged.clone()).unwrap();
        k.step().unwrap().unwrap();
        k.submit(tagged).unwrap();
        k.step().unwrap().unwrap();
        // Corrupt bytes → CmdNack instant.
        let mut bytes = net_cmd(CommandCode::ModuleStatusRead).encode();
        bytes[15] ^= 0xFF;
        k.submit_bytes_or_nack(&bytes, SrcId::Application).unwrap();
        let trace = probe.trace.take();
        let names: Vec<&str> = trace.events().iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"kernel-exec"));
        assert!(names.contains(&"kernel-replay"));
        assert!(names.contains(&"cmd-nack"));
        let execs = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::KernelExec { .. }))
            .count();
        assert_eq!(execs, 2, "status read + first init");
    }

    #[test]
    fn untraced_kernel_behaves_identically() {
        // Execution, an idempotent replay, a NACK and a ring drain: every
        // result and counter must match with all three planes on or off.
        let run = |probe: Probe| {
            let mut k = kernel_on_device_a();
            k.set_probe(probe);
            k.submit(net_cmd(CommandCode::ModuleInit)).unwrap();
            let first = k.step().unwrap().unwrap();
            let tagged = net_cmd(CommandCode::ModuleInit).with_idempotency_tag(9);
            k.submit(tagged.clone()).unwrap();
            let executed = k.step().unwrap().unwrap();
            k.submit(tagged).unwrap();
            let replayed = k.step().unwrap().unwrap();
            let mut bytes = net_cmd(CommandCode::ModuleStatusRead).encode();
            bytes[15] ^= 0xFF;
            let nack = k.submit_bytes_or_nack(&bytes, SrcId::Application).unwrap();
            let mut sq = SubmissionQueue::new(8);
            let mut cq = CompletionQueue::new(8);
            for tag in 0..5 {
                sq.push(health_desc(tag)).unwrap();
            }
            let out = k.ring_doorbell(&mut sq, &mut cq, 8, SrcId::Application);
            let mut recs = Vec::new();
            while let Some(r) = cq.pop() {
                recs.push(r);
            }
            let counters = (
                k.commands_executed(),
                k.reg_ops_executed(),
                k.replays(),
                k.decode_errors(),
            );
            let drain = (out.drained, out.exec_ps, out.responses, recs);
            (first, executed, replayed, nack, drain, counters)
        };
        assert_eq!(run(Probe::disabled()), run(Probe::enabled()));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_module_slot_panics() {
        let unified = UnifiedShell::for_device(&catalog::device_a());
        let role = RoleSpec::builder("t").network_gbps(100).build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let mut k = UnifiedControlKernel::new(8);
        let rbb = shell.rbbs()[0].as_ref();
        k.register_module(ModuleHandle::from_rbb(rbb, 0));
        k.register_module(ModuleHandle::from_rbb(rbb, 0));
    }

    fn health_desc(tag: u32) -> crate::queue::SqDescriptor {
        let pkt = CommandPacket::new(SrcId::Application, 0, 0, CommandCode::HealthRead)
            .with_idempotency_tag(tag);
        crate::queue::SqDescriptor {
            tag,
            bytes: pkt.encode(),
        }
    }

    #[test]
    fn budgeted_drain_stops_at_quota_and_flags_it() {
        let mut k = kernel_on_device_a();
        let mut sq = SubmissionQueue::new(16);
        let mut cq = CompletionQueue::new(16);
        for tag in 0..8 {
            sq.push(health_desc(tag)).unwrap();
        }
        let mut budget = CommandBudget::new(3, 5);
        let out = k.ring_doorbell_budgeted(&mut sq, &mut cq, 16, SrcId::Application, &mut budget);
        assert_eq!(out.drained, 5);
        assert!(budget.exhausted());
        assert_eq!(budget.remaining(), 0);
        assert_eq!(sq.len(), 3, "undrained descriptors stay queued");
        // A fresh slice budget picks the backlog up where it stopped.
        let mut next = CommandBudget::new(3, 5);
        let out = k.ring_doorbell_budgeted(&mut sq, &mut cq, 16, SrcId::Application, &mut next);
        assert_eq!(out.drained, 3);
        assert!(sq.is_empty(), "queue emptied before the budget");
        assert_eq!(next.remaining(), 2);
    }

    #[test]
    fn exact_budget_is_not_flagged_exhausted() {
        let mut k = kernel_on_device_a();
        let mut sq = SubmissionQueue::new(8);
        let mut cq = CompletionQueue::new(8);
        for tag in 0..4 {
            sq.push(health_desc(tag)).unwrap();
        }
        let mut budget = CommandBudget::new(0, 4);
        let out = k.ring_doorbell_budgeted(&mut sq, &mut cq, 8, SrcId::Application, &mut budget);
        assert_eq!(out.drained, 4);
        assert!(
            budget.exhausted() && sq.is_empty(),
            "an empty SQ is a finished slice, not a preemption"
        );
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_doorbell() {
        let run = |budgeted: bool| {
            let mut k = kernel_on_device_a();
            let probe = Probe::enabled();
            k.set_probe(probe.clone());
            let mut sq = SubmissionQueue::new(16);
            let mut cq = CompletionQueue::new(16);
            for tag in 0..10 {
                sq.push(health_desc(tag)).unwrap();
            }
            let out = if budgeted {
                let mut b = CommandBudget::unlimited();
                k.ring_doorbell_budgeted(&mut sq, &mut cq, 16, SrcId::Application, &mut b)
            } else {
                k.ring_doorbell(&mut sq, &mut cq, 16, SrcId::Application)
            };
            let mut recs = Vec::new();
            while let Some(r) = cq.pop() {
                recs.push(r);
            }
            let trace: Vec<String> = probe
                .trace
                .take()
                .events()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            (out.drained, out.exec_ps, recs, trace)
        };
        assert_eq!(run(false), run(true));
    }
}
