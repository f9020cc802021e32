//! One observational handle per component.
//!
//! A [`Probe`] bundles the three observability planes — the
//! [`TraceCollector`], the [`MetricsRegistry`] and the
//! [`FlightRecorder`] — so an instrumented component holds one `probe`
//! field and exposes one `set_probe`, and a composite forwards one value
//! to its parts in one place. The parts record trace and flight events
//! through their hooks; the registry is written only by the composite,
//! which publishes the counts its parts keep (see [`crate::metrics`]).
//! Each plane keeps its own contracts (see [`crate::trace`] and
//! [`crate::metrics`]); the bundle pins one more: **attaching a probe
//! never moves a simulated result.**
//!
//! # One thread, no locks
//!
//! Every plane is an `Rc<RefCell<…>>`: a scenario's command stream —
//! driver, DMA engine, kernel — runs on one thread, so each hook borrows
//! its plane, appends one event or sets one series, and returns. A
//! probe is not `Send`, so the compiler proves no plane is shared across
//! threads; the parallel paper sweep attaches none. A reentrant use of a
//! plane panics on the `RefCell` borrow instead of deadlocking.
//!
//! The [`crate::fault::FaultInjector`] stays out of the bundle on
//! purpose: fault draws change results and share plan state, so an
//! injector is attached only where a component consults it, and
//! forwarding a probe can never start a fault draw.
//!
//! ```
//! use harmonia_sim::{Probe, TraceEventKind};
//!
//! let off = Probe::disabled();
//! assert!(!off.trace.is_enabled() && !off.metrics.is_enabled() && !off.flight.is_enabled());
//!
//! // Clones share every plane's store, so one probe forwarded to a
//! // driver's parts lands in one timeline and one registry.
//! let on = Probe::enabled();
//! on.clone().record(5, 0, TraceEventKind::KernelReplay { code: 0 });
//! assert_eq!((on.trace.len(), on.flight.len()), (1, 1));
//! ```

use crate::metrics::{FlightRecorder, MetricsRegistry};
use crate::time::Picos;
use crate::trace::{TraceCollector, TraceEventKind};

/// The observability planes one component records into. `Default` is
/// [`Probe::disabled`]: every hook costs one branch and nothing is kept.
///
/// A probe stays on the thread that made it: moving one into another
/// thread does not compile.
///
/// ```compile_fail
/// use harmonia_sim::Probe;
///
/// let probe = Probe::enabled();
/// std::thread::spawn(move || probe.metrics.is_enabled());
/// ```
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

    /// Records `kind` on both the timeline and the flight recorder (an
    /// instant when `dur == 0`, a span otherwise).
    #[inline]
    pub fn record(&self, at: Picos, dur: Picos, kind: TraceEventKind) {
        self.flight.record(at, dur, kind);
        self.trace.span(at, dur, kind);
    }
}
