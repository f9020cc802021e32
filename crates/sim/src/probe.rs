//! One observational handle per component.
//!
//! A [`Probe`] bundles the three observability planes — the
//! [`TraceCollector`], the [`MetricsRegistry`] and the
//! [`FlightRecorder`] — so an instrumented component holds one `probe`
//! field and exposes one `set_probe`, and a composite forwards one value
//! to its parts in one place. Each plane keeps its own contracts (see
//! [`crate::trace`] and [`crate::metrics`]); the bundle pins one more:
//! **attaching a probe never moves a simulated result.**
//!
//! # Staged recording
//!
//! A hot emitter that records several events per round — the command
//! driver per doorbell, the kernel per drain — stages them in a
//! [`ProbeStage`] it keeps across rounds ([`Probe::stage`],
//! [`Probe::stage_trace`], [`Probe::stage_flight`]) and commits them with
//! [`Probe::commit`], one lock per plane, instead of one lock per event.
//! A stage holds `(at, dur, kind, planes)` only for enabled planes, so a
//! disabled probe still costs one branch per hook and stages nothing.
//!
//! Each plane numbers its events in commit order, so the **order rule**
//! keeps every `seq` where per-event recording put it: an emitter commits
//! before control passes to anything else that records into the same
//! probe, before anything reads a plane (the give-up post-mortem dumps
//! the flight recorder), and at the end of every public call. The
//! command driver commits after a round's transmit loop (the DMA engine
//! records the delivery next), before the kernel doorbell, after the
//! completion loop and its `BatchComplete`, before a give-up's dump, and
//! when `submit` or a serial call returns; the kernel commits once at
//! the end of each public call, so a doorbell's drain, its `BatchDrain`
//! span and any `QuotaExhausted` go in one commit.
//!
//! The [`crate::fault::FaultInjector`] stays out of the bundle on
//! purpose: fault draws change results and share plan state, so an
//! injector is attached only where a component consults it, and
//! forwarding a probe can never start a fault draw.
//!
//! ```
//! use harmonia_sim::Probe;
//!
//! let off = Probe::disabled();
//! assert!(!off.trace.is_enabled() && !off.metrics.is_enabled() && !off.flight.is_enabled());
//!
//! // Clones share every plane's store, so one probe forwarded to a
//! // driver's parts lands in one timeline and one registry.
//! let on = Probe::enabled();
//! on.clone().metrics.counter_inc("demo_total", &[]);
//! assert_eq!(on.metrics.snapshot().counter("demo_total"), 1);
//! ```

use crate::metrics::{FlightRecorder, MetricsRegistry};
use crate::time::Picos;
use crate::trace::{TraceCollector, TraceEventKind};

/// The observability planes one component records into. `Default` is
/// [`Probe::disabled`]: every hook costs one branch and nothing is kept.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Typed, timestamped events for the Perfetto/text timeline.
    pub trace: TraceCollector,
    /// Counters, gauges and latency histograms.
    pub metrics: MetricsRegistry,
    /// Ring of recent command-path events, dumped as a post-mortem.
    pub flight: FlightRecorder,
}

impl Probe {
    /// Every plane off.
    pub fn disabled() -> Probe {
        Probe::default()
    }

    /// Every plane on: lane-0 trace, an empty registry and a flight
    /// recorder of default depth.
    pub fn enabled() -> Probe {
        Probe {
            trace: TraceCollector::enabled(),
            metrics: MetricsRegistry::enabled(),
            flight: FlightRecorder::enabled(),
        }
    }

    /// Stages `kind` for both the timeline and the flight recorder (an
    /// instant when `dur == 0`, a span otherwise).
    #[inline]
    pub fn stage(&self, stage: &mut ProbeStage, at: Picos, dur: Picos, kind: TraceEventKind) {
        let trace = if self.trace.is_enabled() { TRACE } else { 0 };
        let flight = if self.flight.is_enabled() { FLIGHT } else { 0 };
        stage.push(trace | flight, at, dur, kind);
    }

    /// Stages `kind` for the timeline only.
    #[inline]
    pub fn stage_trace(&self, stage: &mut ProbeStage, at: Picos, dur: Picos, kind: TraceEventKind) {
        if self.trace.is_enabled() {
            stage.push(TRACE, at, dur, kind);
        }
    }

    /// Stages `kind` for the flight recorder only.
    #[inline]
    pub fn stage_flight(
        &self,
        stage: &mut ProbeStage,
        at: Picos,
        dur: Picos,
        kind: TraceEventKind,
    ) {
        if self.flight.is_enabled() {
            stage.push(FLIGHT, at, dur, kind);
        }
    }

    /// Records everything `stage` holds, in staging order, with one lock
    /// per plane, and empties it for the next round. Each plane gets the
    /// events and `seq` numbers the same calls made one by one would
    /// have given it. An empty stage costs one inlined branch.
    #[inline]
    pub fn commit(&self, stage: &mut ProbeStage) {
        if !stage.events.is_empty() {
            self.commit_staged(stage);
        }
    }

    fn commit_staged(&self, stage: &mut ProbeStage) {
        let on = |plane: u8| {
            let events = &stage.events;
            events
                .iter()
                .filter(move |e| e.planes & plane != 0)
                .map(|e| (e.at, e.dur, e.kind))
        };
        self.trace.extend(on(TRACE));
        self.flight.extend(on(FLIGHT));
        stage.events.clear();
    }
}

/// The timeline's bit in [`Staged::planes`].
const TRACE: u8 = 1;
/// The flight recorder's bit in [`Staged::planes`].
const FLIGHT: u8 = 2;

/// One staged event and the planes it is bound for.
#[derive(Debug)]
struct Staged {
    at: Picos,
    dur: Picos,
    kind: TraceEventKind,
    planes: u8,
}

/// Events a component has staged since its last [`Probe::commit`]. A
/// component keeps one across rounds, so staging reuses its storage; an
/// event bound for no enabled plane is never staged.
#[derive(Debug, Default)]
pub struct ProbeStage {
    events: Vec<Staged>,
}

impl ProbeStage {
    #[inline]
    fn push(&mut self, planes: u8, at: Picos, dur: Picos, kind: TraceEventKind) {
        if planes != 0 {
            self.events.push(Staged {
                at,
                dur,
                kind,
                planes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FlightRecorder;
    use harmonia_testkit::prelude::*;

    forall! {
        /// Staging events for random planes and committing them leaves
        /// each enabled plane what the per-call records leave; a probe
        /// with both planes off stages nothing.
        #[test]
        fn commit_equals_the_per_call_records(
            trace_on in any::<bool>(),
            flight_on in any::<bool>(),
            events in crate::trace::arb_events(40),
            planes in collection::vec(0u8..3, 40),
        ) {
            let probe = || {
                let mut p = Probe::disabled();
                if trace_on {
                    p.trace = TraceCollector::enabled();
                }
                if flight_on {
                    p.flight = FlightRecorder::with_capacity(16);
                }
                p
            };
            let (staged, direct) = (probe(), probe());
            let mut stage = ProbeStage::default();
            for (&(at, dur, kind), plane) in events.iter().zip(&planes) {
                match plane {
                    0 => {
                        staged.stage(&mut stage, at, dur, kind);
                        direct.flight.record(at, dur, kind);
                        direct.trace.span(at, dur, kind);
                    }
                    1 => {
                        staged.stage_trace(&mut stage, at, dur, kind);
                        direct.trace.span(at, dur, kind);
                    }
                    _ => {
                        staged.stage_flight(&mut stage, at, dur, kind);
                        direct.flight.record(at, dur, kind);
                    }
                }
            }
            if !trace_on && !flight_on {
                prop_assert!(stage.events.is_empty());
            }
            staged.commit(&mut stage);
            prop_assert!(stage.events.is_empty());
            for p in [&staged, &direct] {
                p.trace.instant(0, TraceEventKind::EccScrub);
                p.flight.record(0, 0, TraceEventKind::EccScrub);
            }
            prop_assert_eq!(staged.trace.take(), direct.trace.take());
            prop_assert_eq!(staged.flight.dump(), direct.flight.dump());
        }
    }
}
