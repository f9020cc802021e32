//! Deterministic picosecond event tracing for the simulation substrate.
//!
//! The fault plane (PR 4) made failure *behaviour* reproducible; this
//! module makes failure (and fast-path) *timing* observable. A
//! [`TraceCollector`] is a cheap cloneable handle the hot paths consult —
//! the unified control kernel, the command driver, the DMA engine, the
//! MAC model — recording typed [`TraceEvent`]s at absolute
//! [`Picos`] timestamps. A frozen [`Trace`] exports to the Chrome/Perfetto
//! `trace.json` format ([`Trace::export_perfetto`]) or a plain-text
//! timeline ([`Trace::export_text`]).
//!
//! Three contracts every consumer can rely on:
//!
//! 1. **Disabled tracing is zero-cost.** [`TraceCollector::disabled`]
//!    holds no state and every hook collapses to one branch on an
//!    `Option` — identical to the [`crate::fault::FaultPlan::none`]
//!    contract, and pinned the same way (the `paper_snapshot` test runs
//!    with tracing off and must stay byte-identical).
//! 2. **Tracing is observational.** Recording events never changes
//!    simulated timing, fault draws or results; attaching an enabled
//!    collector (usually inside a [`crate::Probe`]) alters *only* what
//!    can be exported afterwards.
//! 3. **Merged traces are deterministic.** Each scenario owns a
//!    collector with a stable `lane`; [`Trace::merge`] orders events by
//!    `(Picos, lane, seq)`, so the exports of a merged capture depend
//!    only on its inputs.
//!
//! `seq` is the record order within a lane: every hook appends one event
//! at the moment it is called, so the numbering is the call order. A
//! collector is single-threaded by construction (`Rc<RefCell<…>>`, so
//! `!Send`): one scenario's command stream runs on one thread, and a
//! fan-out gives each scenario its own collector and merges the frozen
//! traces.
//!
//! # Example: capture → export → assert ordering
//!
//! ```
//! use harmonia_sim::trace::{TraceCollector, TraceEventKind, Trace};
//!
//! let tc = TraceCollector::enabled();
//! tc.instant(2_000, TraceEventKind::KernelReplay { code: 0 });
//! tc.span(0, 1_500, TraceEventKind::MacFrame { bytes: 64, lost: false });
//! let trace = tc.take();
//!
//! // Events come back ordered by time, regardless of record order.
//! let times: Vec<u64> = trace.events().iter().map(|e| e.at).collect();
//! assert_eq!(times, vec![0, 2_000]);
//!
//! // Both exporters are deterministic.
//! let json = trace.export_perfetto();
//! assert!(json.starts_with("{\"displayTimeUnit\""));
//! assert!(json.contains("\"mac-frame\""));
//! let text = trace.export_text();
//! assert!(text.lines().count() == 2);
//! ```

use crate::fault::FaultKind;
use crate::time::Picos;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The typed event taxonomy — one variant per hot-path phenomenon worth
/// seeing on a timeline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// The driver transmitted (or retransmitted) a command.
    CmdIssue {
        /// Command code.
        code: u16,
        /// Target RBB id.
        rbb_id: u8,
        /// Target instance.
        instance_id: u8,
    },
    /// The DMA control queue carried (or lost) a command packet.
    CmdDelivery {
        /// Packet size on the wire.
        bytes: u32,
        /// Whether the packet was lost in flight.
        lost: bool,
    },
    /// The kernel rejected undecodable bytes with a NACK.
    CmdNack {
        /// The decode-error code carried in the NACK payload.
        error_code: u32,
    },
    /// An attempt burned its response deadline.
    CmdTimeout {
        /// Command code.
        code: u16,
    },
    /// The driver scheduled a retransmission after backoff.
    CmdRetry {
        /// Command code.
        code: u16,
        /// 1-based retry number.
        attempt: u32,
    },
    /// A command converged with a response (span: issue → ack).
    CmdAck {
        /// Command code.
        code: u16,
        /// Transmissions performed.
        attempts: u32,
    },
    /// The retry budget ran out.
    CmdGiveUp {
        /// Command code.
        code: u16,
        /// Transmissions performed.
        attempts: u32,
    },
    /// The unified control kernel executed a command (span).
    KernelExec {
        /// Command code.
        code: u16,
        /// Register operations performed on software's behalf.
        reg_ops: u64,
    },
    /// An idempotent retry was served from its ring's replay window.
    KernelReplay {
        /// Command code.
        code: u16,
    },
    /// A FIFO rejected a beat (backpressure to the producer).
    FifoStall {
        /// Occupancy at the moment of rejection.
        occupancy: u32,
    },
    /// A MAC frame crossed the datapath (span), or was lost on the wire.
    MacFrame {
        /// Frame size.
        bytes: u32,
        /// Whether the link dropped the frame.
        lost: bool,
    },
    /// The fault plane delivered a fault to a consult.
    FaultInjected {
        /// What fired.
        kind: FaultKind,
    },
    /// The host took a module out of service.
    ModuleDegraded {
        /// RBB id.
        rbb_id: u8,
        /// Instance id.
        instance_id: u8,
    },
    /// The batched driver rang the submission doorbell (span: one DMA
    /// burst carrying the whole descriptor chunk).
    BatchSubmit {
        /// Descriptors in the burst.
        entries: u32,
        /// Total wire bytes of the burst.
        bytes: u32,
    },
    /// The kernel drained a doorbell's descriptors through the
    /// decode/idempotency/replay machinery (span: total execution time).
    BatchDrain {
        /// Descriptors drained from the submission ring.
        entries: u32,
    },
    /// The host observed a batch's completion records; interrupts were
    /// coalesced per batch instead of per command.
    BatchComplete {
        /// Completion records observed.
        entries: u32,
        /// Coalesced interrupts this batch cost the host.
        interrupts: u32,
    },
}

impl TraceEventKind {
    /// Stable short name (Perfetto `name`, text-timeline column).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::CmdIssue { .. } => "cmd-issue",
            TraceEventKind::CmdDelivery { .. } => "cmd-delivery",
            TraceEventKind::CmdNack { .. } => "cmd-nack",
            TraceEventKind::CmdTimeout { .. } => "cmd-timeout",
            TraceEventKind::CmdRetry { .. } => "cmd-retry",
            TraceEventKind::CmdAck { .. } => "cmd-ack",
            TraceEventKind::CmdGiveUp { .. } => "cmd-give-up",
            TraceEventKind::KernelExec { .. } => "kernel-exec",
            TraceEventKind::KernelReplay { .. } => "kernel-replay",
            TraceEventKind::FifoStall { .. } => "fifo-stall",
            TraceEventKind::MacFrame { .. } => "mac-frame",
            TraceEventKind::FaultInjected { .. } => "fault-injected",
            TraceEventKind::ModuleDegraded { .. } => "module-degraded",
            TraceEventKind::BatchSubmit { .. } => "batch-submit",
            TraceEventKind::BatchDrain { .. } => "batch-drain",
            TraceEventKind::BatchComplete { .. } => "batch-complete",
        }
    }

    /// Stable category (Perfetto `cat`): which layer emitted the event.
    pub(crate) fn category(&self) -> &'static str {
        match self {
            TraceEventKind::CmdIssue { .. }
            | TraceEventKind::CmdDelivery { .. }
            | TraceEventKind::CmdNack { .. }
            | TraceEventKind::CmdTimeout { .. }
            | TraceEventKind::CmdRetry { .. }
            | TraceEventKind::CmdAck { .. }
            | TraceEventKind::CmdGiveUp { .. } => "cmd",
            TraceEventKind::KernelExec { .. } | TraceEventKind::KernelReplay { .. } => "kernel",
            TraceEventKind::FifoStall { .. } => "mem",
            TraceEventKind::MacFrame { .. } => "net",
            TraceEventKind::FaultInjected { .. } | TraceEventKind::ModuleDegraded { .. } => "fault",
            TraceEventKind::BatchSubmit { .. } | TraceEventKind::BatchComplete { .. } => "cmd",
            TraceEventKind::BatchDrain { .. } => "kernel",
        }
    }

    /// The event's arguments as deterministic `(key, value)` pairs, in a
    /// fixed order (drives both exporters).
    pub(crate) fn args(&self) -> Vec<(&'static str, String)> {
        match *self {
            TraceEventKind::CmdIssue {
                code,
                rbb_id,
                instance_id,
            } => vec![
                ("code", format!("{code:#06x}")),
                ("rbb", rbb_id.to_string()),
                ("inst", instance_id.to_string()),
            ],
            TraceEventKind::CmdDelivery { bytes, lost } => {
                vec![("bytes", bytes.to_string()), ("lost", lost.to_string())]
            }
            TraceEventKind::CmdNack { error_code } => {
                vec![("error_code", error_code.to_string())]
            }
            TraceEventKind::CmdTimeout { code } => vec![("code", format!("{code:#06x}"))],
            TraceEventKind::CmdRetry { code, attempt } => vec![
                ("code", format!("{code:#06x}")),
                ("attempt", attempt.to_string()),
            ],
            TraceEventKind::CmdAck { code, attempts } => vec![
                ("code", format!("{code:#06x}")),
                ("attempts", attempts.to_string()),
            ],
            TraceEventKind::CmdGiveUp { code, attempts } => vec![
                ("code", format!("{code:#06x}")),
                ("attempts", attempts.to_string()),
            ],
            TraceEventKind::KernelExec { code, reg_ops } => vec![
                ("code", format!("{code:#06x}")),
                ("reg_ops", reg_ops.to_string()),
            ],
            TraceEventKind::KernelReplay { code } => vec![("code", format!("{code:#06x}"))],
            TraceEventKind::FifoStall { occupancy } => {
                vec![("occupancy", occupancy.to_string())]
            }
            TraceEventKind::MacFrame { bytes, lost } => {
                vec![("bytes", bytes.to_string()), ("lost", lost.to_string())]
            }
            TraceEventKind::FaultInjected { kind } => vec![("kind", kind.to_string())],
            TraceEventKind::ModuleDegraded {
                rbb_id,
                instance_id,
            } => vec![
                ("rbb", rbb_id.to_string()),
                ("inst", instance_id.to_string()),
            ],
            TraceEventKind::BatchSubmit { entries, bytes } => vec![
                ("entries", entries.to_string()),
                ("bytes", bytes.to_string()),
            ],
            TraceEventKind::BatchDrain { entries } => {
                vec![("entries", entries.to_string())]
            }
            TraceEventKind::BatchComplete {
                entries,
                interrupts,
            } => vec![
                ("entries", entries.to_string()),
                ("interrupts", interrupts.to_string()),
            ],
        }
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        for (k, v) in self.args() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// One recorded event: an instant (`dur == 0`) or a span.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Absolute simulation time the event starts.
    pub at: Picos,
    /// Span duration; `0` for instants.
    pub dur: Picos,
    /// Emitting lane (scenario/worker index in fan-outs; `0` otherwise).
    pub lane: u32,
    /// Per-lane record sequence number — the stable tie-break that makes
    /// merged ordering total.
    pub seq: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// One line of the text timeline: the format of [`Trace::export_text`]
/// and of [`crate::metrics::FlightRecorder::dump`].
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>17} ps] lane {:<3} +{:<9} {}",
            self.at, self.lane, self.dur, self.kind
        )
    }
}

/// Events per [`TraceBuf`] chunk: a long recording grows by whole
/// chunks and never copies what it already holds.
const CHUNK_EVENTS: usize = 2048;

#[derive(Debug, Default)]
struct TraceBuf {
    lane: u32,
    seq: u64,
    /// Events in record order, in chunks of [`CHUNK_EVENTS`].
    chunks: Vec<Vec<TraceEvent>>,
}

impl TraceBuf {
    #[inline]
    fn push(&mut self, event: TraceEvent) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_EVENTS => chunk.push(event),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
                chunk.push(event);
                self.chunks.push(chunk);
            }
        }
    }

    fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| {
            (self.chunks.len() - 1) * CHUNK_EVENTS + last.len()
        })
    }
}

/// The cheap cloneable handle hot paths record into. Clones share the
/// underlying buffer, so one scenario's kernel, driver and DMA engine all
/// append to the same lane.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

impl TraceCollector {
    /// The no-op collector (what `Default` also gives): every hook is one
    /// branch, nothing is ever allocated or recorded.
    pub fn disabled() -> TraceCollector {
        TraceCollector { inner: None }
    }

    /// An enabled collector on lane 0.
    pub fn enabled() -> TraceCollector {
        Self::with_lane(0)
    }

    /// An enabled collector with a stable lane id (use the scenario/job
    /// index when fanning out, so merges are thread-count independent).
    pub fn with_lane(lane: u32) -> TraceCollector {
        TraceCollector {
            inner: Some(Rc::new(RefCell::new(TraceBuf {
                lane,
                seq: 0,
                chunks: Vec::new(),
            }))),
        }
    }

    /// Whether this handle records anything. Inlined, so a hot loop in
    /// another crate can skip a disabled hook without a call.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an instant event at `at`.
    #[inline]
    pub fn instant(&self, at: Picos, kind: TraceEventKind) {
        self.span(at, 0, kind);
    }

    /// Records a span starting at `at` lasting `dur` picoseconds.
    #[inline]
    pub fn span(&self, at: Picos, dur: Picos, kind: TraceEventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.borrow_mut();
        let seq = buf.seq;
        buf.seq += 1;
        let lane = buf.lane;
        buf.push(TraceEvent {
            at,
            dur,
            lane,
            seq,
            kind,
        });
    }

    /// Number of events recorded so far (0 when disabled).
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().len(),
            None => 0,
        }
    }

    /// Whether nothing was recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the recorded events into a frozen, time-ordered [`Trace`].
    /// The collector stays usable (and keeps its lane and sequence
    /// counter) afterwards.
    pub fn take(&self) -> Trace {
        let events = match &self.inner {
            Some(inner) => std::mem::take(&mut inner.borrow_mut().chunks).concat(),
            None => Vec::new(),
        };
        Trace::from_events(events)
    }

    /// Clones the recorded events into a frozen [`Trace`] without
    /// draining them.
    pub fn snapshot(&self) -> Trace {
        let events = match &self.inner {
            Some(inner) => inner.borrow().chunks.concat(),
            None => Vec::new(),
        };
        Trace::from_events(events)
    }
}

/// A frozen, totally ordered set of trace events.
///
/// Ordering is `(at, lane, seq)` — time first, then the stable tie-break —
/// which is what makes the exporters byte-deterministic across thread
/// counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    fn from_events(mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by_key(|e| (e.at, e.lane, e.seq));
        Trace { events }
    }

    /// Merges traces from many lanes into one totally ordered trace.
    pub fn merge<I: IntoIterator<Item = Trace>>(traces: I) -> Trace {
        let mut events = Vec::new();
        for t in traces {
            events.extend(t.events);
        }
        Trace::from_events(events)
    }

    /// The events, in `(at, lane, seq)` order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Exports the Chrome/Perfetto `trace.json` format (load in
    /// `ui.perfetto.dev` or `chrome://tracing`). Spans become complete
    /// (`"X"`) events, instants thread-scoped (`"i"`) events; `ts`/`dur`
    /// are microseconds with the full picosecond precision kept in six
    /// fixed decimal places, so output is byte-deterministic.
    pub fn export_perfetto(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            out.push_str(ev.kind.name());
            out.push_str("\",\"cat\":\"");
            out.push_str(ev.kind.category());
            if ev.dur > 0 {
                out.push_str("\",\"ph\":\"X\",\"ts\":");
                out.push_str(&fmt_us(ev.at));
                out.push_str(",\"dur\":");
                out.push_str(&fmt_us(ev.dur));
            } else {
                out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                out.push_str(&fmt_us(ev.at));
            }
            out.push_str(",\"pid\":0,\"tid\":");
            out.push_str(&ev.lane.to_string());
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.kind.args().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":\"");
                out.push_str(v);
                out.push('"');
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Exports a plain-text timeline, one event per line:
    ///
    /// ```text
    /// [          1234567 ps] lane 0  +240000  kernel-exec code=0x0002 reg_ops=34
    /// ```
    pub fn export_text(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!("{ev}\n"));
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.export_text())
    }
}

/// Formats picoseconds as microseconds with six fixed decimals (exact:
/// 1 ps = 1e-6 µs), via integer math only.
fn fmt_us(ps: Picos) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_is_inert() {
        let tc = TraceCollector::disabled();
        assert!(!tc.is_enabled());
        tc.instant(100, TraceEventKind::KernelReplay { code: 0 });
        tc.span(
            0,
            50,
            TraceEventKind::KernelExec {
                code: 2,
                reg_ops: 4,
            },
        );
        assert!(tc.is_empty());
        assert!(tc.take().is_empty());
        assert_eq!(
            tc.take().export_perfetto(),
            Trace::default().export_perfetto()
        );
    }

    #[test]
    fn clones_share_one_lane_buffer() {
        let tc = TraceCollector::with_lane(7);
        let other = tc.clone();
        tc.instant(10, TraceEventKind::KernelReplay { code: 0 });
        other.instant(20, TraceEventKind::KernelReplay { code: 0 });
        let trace = tc.take();
        assert_eq!(trace.len(), 2);
        assert!(trace.events().iter().all(|e| e.lane == 7));
        assert_eq!(trace.events()[0].seq, 0);
        assert_eq!(trace.events()[1].seq, 1);
        assert!(other.is_empty(), "take drains the shared buffer");
    }

    #[test]
    fn events_sort_by_time_then_lane_then_seq() {
        let a = TraceCollector::with_lane(1);
        let b = TraceCollector::with_lane(0);
        a.instant(100, TraceEventKind::KernelReplay { code: 0 });
        a.instant(100, TraceEventKind::FifoStall { occupancy: 3 });
        b.instant(100, TraceEventKind::KernelReplay { code: 0 });
        b.instant(50, TraceEventKind::KernelReplay { code: 0 });
        let m = Trace::merge([a.take(), b.take()]);
        let key: Vec<(Picos, u32, u64)> =
            m.events().iter().map(|e| (e.at, e.lane, e.seq)).collect();
        assert_eq!(key, vec![(50, 0, 1), (100, 0, 0), (100, 1, 0), (100, 1, 1)]);
    }

    #[test]
    fn perfetto_export_is_valid_shape_and_deterministic() {
        let tc = TraceCollector::enabled();
        tc.span(
            1_234_567,
            240_000,
            TraceEventKind::KernelExec {
                code: 2,
                reg_ops: 34,
            },
        );
        tc.instant(2_000_000, TraceEventKind::CmdNack { error_code: 3 });
        let t = tc.take();
        let json = t.export_perfetto();
        assert_eq!(json, t.export_perfetto());
        assert!(json.contains("\"ts\":1.234567"));
        assert!(json.contains("\"dur\":0.240000"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"error_code\":\"3\""));
        assert!(json.ends_with("]}\n"));
        // Braces balance (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn text_export_lists_args() {
        let tc = TraceCollector::enabled();
        tc.instant(
            5,
            TraceEventKind::CmdIssue {
                code: 0x0002,
                rbb_id: 1,
                instance_id: 0,
            },
        );
        let s = tc.take().export_text();
        assert!(s.contains("cmd-issue"));
        assert!(s.contains("code=0x0002"));
        assert!(s.contains("rbb=1"));
    }

    #[test]
    fn snapshot_keeps_events() {
        let tc = TraceCollector::enabled();
        tc.instant(1, TraceEventKind::KernelReplay { code: 0 });
        assert_eq!(tc.snapshot().len(), 1);
        assert_eq!(tc.len(), 1, "snapshot must not drain");
        assert_eq!(tc.take().len(), 1);
        assert_eq!(tc.len(), 0);
    }

    #[test]
    fn events_across_chunks_keep_record_order() {
        let tc = TraceCollector::enabled();
        let n = 2 * CHUNK_EVENTS + 5;
        for i in 0..n as u64 {
            tc.instant(i / 3, TraceEventKind::KernelReplay { code: 0 });
        }
        assert_eq!(tc.len(), n);
        let snap = tc.snapshot();
        let taken = tc.take();
        assert_eq!(snap, taken);
        let seqs: Vec<u64> = taken.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(tc.len(), 0);
        tc.instant(0, TraceEventKind::KernelReplay { code: 0 });
        assert_eq!(tc.take().events()[0].seq, n as u64);
    }

    #[test]
    fn trace_lanes_merge_is_reproducible_and_lane_ordered() {
        let run = || {
            Trace::merge((0..16u64).map(|i| {
                let tc = TraceCollector::with_lane(i as u32);
                // Deliberately colliding timestamps across lanes.
                tc.instant(
                    i % 4,
                    TraceEventKind::FifoStall {
                        occupancy: i as u32,
                    },
                );
                tc.span(i % 4, 10, TraceEventKind::KernelReplay { code: 0 });
                tc.take()
            }))
        };
        let trace = run();
        let a = trace.export_perfetto();
        assert_eq!(a, run().export_perfetto());
        assert!(a.contains("fifo-stall"));
        // Events sharing a timestamp come out by lane, then by sequence.
        let keys: Vec<_> = trace
            .events()
            .iter()
            .map(|e| (e.at, e.lane, e.seq))
            .collect();
        assert_eq!(keys.len(), 32);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn fmt_us_is_exact() {
        assert_eq!(fmt_us(0), "0.000000");
        assert_eq!(fmt_us(1), "0.000001");
        assert_eq!(fmt_us(1_000_000), "1.000000");
        assert_eq!(fmt_us(1_234_567), "1.234567");
    }

    #[test]
    fn every_kind_renders() {
        let kinds = [
            TraceEventKind::CmdIssue {
                code: 1,
                rbb_id: 0,
                instance_id: 0,
            },
            TraceEventKind::CmdDelivery {
                bytes: 64,
                lost: true,
            },
            TraceEventKind::CmdNack { error_code: 2 },
            TraceEventKind::CmdTimeout { code: 1 },
            TraceEventKind::CmdRetry {
                code: 1,
                attempt: 1,
            },
            TraceEventKind::CmdAck {
                code: 1,
                attempts: 2,
            },
            TraceEventKind::CmdGiveUp {
                code: 1,
                attempts: 5,
            },
            TraceEventKind::KernelExec {
                code: 1,
                reg_ops: 3,
            },
            TraceEventKind::KernelReplay { code: 1 },
            TraceEventKind::FifoStall { occupancy: 64 },
            TraceEventKind::MacFrame {
                bytes: 1500,
                lost: false,
            },
            TraceEventKind::FaultInjected {
                kind: FaultKind::LinkDown,
            },
            TraceEventKind::ModuleDegraded {
                rbb_id: 1,
                instance_id: 0,
            },
            TraceEventKind::BatchSubmit {
                entries: 16,
                bytes: 256,
            },
            TraceEventKind::BatchDrain { entries: 16 },
            TraceEventKind::BatchComplete {
                entries: 16,
                interrupts: 1,
            },
        ];
        for k in kinds {
            assert!(!k.name().is_empty());
            assert!(!k.category().is_empty());
            let shown = k.to_string();
            assert!(shown.starts_with(k.name()), "{shown}");
        }
    }

    #[test]
    fn merge_orders_lanes_by_time() {
        let a = TraceCollector::with_lane(0);
        let b = TraceCollector::with_lane(1);
        a.instant(500, TraceEventKind::KernelReplay { code: 0 });
        b.instant(100, TraceEventKind::KernelReplay { code: 0 });
        let merged = Trace::merge([a.take(), b.take()]);
        let order: Vec<(u64, u32)> = merged.events().iter().map(|e| (e.at, e.lane)).collect();
        assert_eq!(order, vec![(100, 1), (500, 0)]);
    }
}
