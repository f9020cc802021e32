//! Deterministic metrics plane: counters, gauges and latency histograms
//! on the simulated picosecond timeline.
//!
//! The trace plane ([`crate::trace`]) answers "what happened at
//! picosecond X"; this module answers the operator questions — how many
//! commands retried, how full the SQ rings ran, whether the p99 latency
//! SLO is burning. A [`MetricsRegistry`] is a cheap cloneable handle hot
//! paths bump typed metrics into; a frozen [`MetricsSnapshot`] exports to
//! the Prometheus text exposition format or a compact JSON document, a
//! [`MetricsScraper`] samples a registry on the *simulated* clock so
//! rates come from simulated time, a [`FlightRecorder`] keeps the last N
//! trace events for post-mortems, and [`evaluate_slos`] grades a snapshot
//! against declarative objectives.
//!
//! The plane inherits every contract of the trace plane:
//!
//! 1. **Disabled metrics are zero-cost.** [`MetricsRegistry::disabled`]
//!    holds no state; every hook collapses to one branch on an `Option`.
//!    The disabled path is the pinned one (paper snapshot, trace exports
//!    and committed bench medians are bit-identical).
//! 2. **Metrics are observational.** Recording never changes simulated
//!    timing, fault draws or results; attaching an enabled registry
//!    (usually inside a [`crate::Probe`]) alters only what can be
//!    exported afterwards.
//! 3. **Merged snapshots are deterministic.** Each lane owns a
//!    registry; [`MetricsSnapshot::merge`] folds counters by sum, gauges
//!    by max (high-water semantics) and histograms by
//!    [`LogHistogram::merge`] — all order-independent — and
//!    [`meter_lanes`] merges in lane order, the same discipline as
//!    [`crate::trace::trace_lanes`].
//!
//! # Example: record → snapshot → export → grade
//!
//! ```
//! use harmonia_sim::metrics::{evaluate_slos, MetricsRegistry, Slo, SloObjective};
//!
//! let m = MetricsRegistry::enabled();
//! m.counter_add("demo_cmds_total", &[], 100);
//! m.counter_add("demo_retries_total", &[], 3);
//! m.observe("demo_latency_ps", &[], 1_500);
//!
//! let snap = m.snapshot();
//! assert!(snap.export_prometheus().contains("demo_cmds_total 100"));
//!
//! let report = evaluate_slos(&snap, &[Slo {
//!     name: "retry-ratio",
//!     objective: SloObjective::RatioMaxPpm {
//!         numerator: "demo_retries_total",
//!         denominator: "demo_cmds_total",
//!         max_ppm: 50_000,
//!     },
//! }]);
//! assert!(report.pass());
//! ```

use crate::histo::LogHistogram;
use crate::time::Picos;
use crate::trace::{TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Default scrape period: 10 µs of simulated time.
pub const DEFAULT_METRICS_PERIOD_PS: Picos = 10_000_000;

/// Default [`FlightRecorder`] ring capacity (events retained per lane).
pub const DEFAULT_FLIGHT_DEPTH: usize = 64;

/// A metric's identity: a static name plus structured labels, rendered
/// `name{key="value",...}` in the Prometheus export. Ordering (name
/// first, then labels) drives the deterministic export order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Static metric name (`harmonia_<layer>_<what>[_total]`).
    pub name: &'static str,
    /// Label pairs in call-site order (call sites must use one fixed
    /// order per name, which keeps keys canonical).
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
        MetricKey {
            name,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        }
    }

    /// Renders `name` or `name{k="v",...}` (the Prometheus series name).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Label rendering without quotes (`name{k=v}`) — the JSON export's
    /// key format, so keys need no escaping.
    fn render_plain(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct RegistryBuf {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
}

/// The cheap cloneable handle hot paths bump metrics into. Clones share
/// the underlying store, so one scenario's kernel, driver, DMA engine and
/// IRQ moderator all feed a single registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<RegistryBuf>>>,
}

impl MetricsRegistry {
    /// The no-op registry (what `Default` also gives): every hook is one
    /// branch, nothing is ever allocated or recorded.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// An enabled, empty registry.
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Arc::new(Mutex::new(RegistryBuf::default()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a counter (created at zero on first touch).
    pub fn counter_add(&self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("metrics registry poisoned");
        *buf.counters.entry(MetricKey::new(name, labels)).or_insert(0) += delta;
    }

    /// Increments a counter by one.
    pub fn counter_inc(&self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Sets a gauge to `value`.
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("metrics registry poisoned");
        buf.gauges.insert(MetricKey::new(name, labels), value);
    }

    /// Raises a gauge to `value` if it is below it (high-water tracking:
    /// ring occupancy, buffer depth).
    pub fn gauge_max(&self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("metrics registry poisoned");
        let g = buf.gauges.entry(MetricKey::new(name, labels)).or_insert(0);
        *g = (*g).max(value);
    }

    /// Records one sample into a [`LogHistogram`]-backed metric.
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], sample: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("metrics registry poisoned");
        buf.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
            .record(sample);
    }

    /// Folds a pre-built [`LogHistogram`] into a histogram-backed metric
    /// in one lock acquisition. Aggregate planes (the fleet controller's
    /// per-device latency histograms) publish through this instead of
    /// replaying millions of `observe` calls.
    pub fn observe_histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        histogram: &LogHistogram,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("metrics registry poisoned");
        buf.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
            .merge(histogram);
    }

    /// Clones the current state into a frozen [`MetricsSnapshot`]
    /// (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let buf = inner.lock().expect("metrics registry poisoned");
                MetricsSnapshot {
                    counters: buf.counters.clone(),
                    gauges: buf.gauges.clone(),
                    histograms: buf.histograms.clone(),
                }
            }
            None => MetricsSnapshot::default(),
        }
    }
}

/// A frozen, totally ordered view of a registry: what the exporters, the
/// scraper and the SLO evaluator consume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
}

impl MetricsSnapshot {
    /// Merges per-lane snapshots into one fleet view: counters add,
    /// gauges take the maximum (high-water semantics survive the merge),
    /// histograms fold with [`LogHistogram::merge`]. Every fold is
    /// commutative and associative, so the result is independent of merge
    /// order — [`meter_lanes`] still merges in lane order, the same
    /// discipline as [`crate::trace::trace_lanes`].
    ///
    /// ```
    /// use harmonia_sim::metrics::{MetricsRegistry, MetricsSnapshot};
    /// let a = MetricsRegistry::enabled();
    /// let b = MetricsRegistry::enabled();
    /// a.counter_add("x_total", &[], 2);
    /// b.counter_add("x_total", &[], 3);
    /// let merged = MetricsSnapshot::merge([a.snapshot(), b.snapshot()]);
    /// assert_eq!(merged.counter("x_total"), 5);
    /// ```
    pub fn merge<I: IntoIterator<Item = MetricsSnapshot>>(snapshots: I) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in snapshots {
            for (k, v) in s.counters {
                *out.counters.entry(k).or_insert(0) += v;
            }
            for (k, v) in s.gauges {
                let g = out.gauges.entry(k).or_insert(0);
                *g = (*g).max(v);
            }
            for (k, h) in s.histograms {
                out.histograms.entry(k).or_default().merge(&h);
            }
        }
        out
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Sum of a counter across all of its label sets (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Maximum of a gauge across all of its label sets (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    }

    /// A histogram metric merged across all of its label sets (empty
    /// when absent).
    pub fn histogram(&self, name: &str) -> LogHistogram {
        let mut out = LogHistogram::new();
        for (_, h) in self.histograms.iter().filter(|(k, _)| k.name == name) {
            out.merge(h);
        }
        out
    }

    /// Exports the Prometheus text exposition format: one `# TYPE` line
    /// per metric name, series in `(name, labels)` order, histograms as
    /// summaries (`quantile="0.5"`/`"0.99"` plus `_sum`/`_count`).
    /// Integer values only — byte-deterministic by construction.
    pub fn export_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last: &str = "";
        for (k, v) in &self.counters {
            if k.name != last {
                out.push_str("# TYPE ");
                out.push_str(k.name);
                out.push_str(" counter\n");
                last = k.name;
            }
            out.push_str(&k.render());
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        last = "";
        for (k, v) in &self.gauges {
            if k.name != last {
                out.push_str("# TYPE ");
                out.push_str(k.name);
                out.push_str(" gauge\n");
                last = k.name;
            }
            out.push_str(&k.render());
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (k, h) in &self.histograms {
            out.push_str("# TYPE ");
            out.push_str(k.name);
            out.push_str(" summary\n");
            let mut quantile = |q: &str, v: u64| {
                out.push_str(k.name);
                out.push_str("{quantile=\"");
                out.push_str(q);
                out.push_str("\"} ");
                out.push_str(&v.to_string());
                out.push('\n');
            };
            quantile("0.5", h.p50());
            quantile("0.99", h.p99());
            out.push_str(k.name);
            out.push_str("_sum ");
            out.push_str(&h.sum().to_string());
            out.push('\n');
            out.push_str(k.name);
            out.push_str("_count ");
            out.push_str(&h.count().to_string());
            out.push('\n');
        }
        out
    }

    /// Exports a compact single-line JSON document. Series keys use the
    /// quote-free `name{k=v}` form, so no escaping is ever needed;
    /// values are integers only — byte-deterministic by construction.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&k.render_plain());
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&k.render_plain());
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&k.render_plain());
            out.push_str("\":{\"count\":");
            out.push_str(&h.count().to_string());
            out.push_str(",\"min\":");
            out.push_str(&h.min().to_string());
            out.push_str(",\"mean\":");
            out.push_str(&h.mean().to_string());
            out.push_str(",\"p50\":");
            out.push_str(&h.p50().to_string());
            out.push_str(",\"p99\":");
            out.push_str(&h.p99().to_string());
            out.push_str(",\"max\":");
            out.push_str(&h.max().to_string());
            out.push('}');
        }
        out.push_str("}}\n");
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.export_prometheus())
    }
}

/// One time-series sample: a snapshot stamped on the simulated timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSample {
    /// Simulated time of the scrape boundary this sample belongs to.
    pub at_ps: Picos,
    /// The registry state when the boundary was crossed.
    pub snapshot: MetricsSnapshot,
}

/// Samples a registry every `period_ps` of *simulated* time into an
/// append-only series, so rates (cmds/sec, doorbells/sec) come from
/// simulated time, never the wall clock. Drive it with
/// [`MetricsScraper::tick`] from the loop that owns the simulation clock.
///
/// ```
/// use harmonia_sim::metrics::{MetricsRegistry, MetricsScraper};
///
/// let m = MetricsRegistry::enabled();
/// let mut scraper = MetricsScraper::new(1_000_000); // 1 µs period
/// for step in 1..=5u64 {
///     m.counter_add("cmds_total", &[], 200);
///     scraper.tick(&m, step * 1_000_000);
/// }
/// assert_eq!(scraper.samples().len(), 5);
/// // 1000 cmds over 4 µs of simulated time between first and last sample.
/// assert_eq!(scraper.rate_per_sec("cmds_total").round() as u64, 200_000_000);
/// ```
#[derive(Clone, Debug)]
pub struct MetricsScraper {
    period_ps: Picos,
    next_ps: Picos,
    samples: Vec<MetricsSample>,
}

impl MetricsScraper {
    /// Creates a scraper with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    pub fn new(period_ps: Picos) -> MetricsScraper {
        assert!(period_ps > 0, "scrape period must be positive");
        MetricsScraper {
            period_ps,
            next_ps: period_ps,
            samples: Vec::new(),
        }
    }

    /// The configured sampling period.
    pub fn period_ps(&self) -> Picos {
        self.period_ps
    }

    /// Advances the scraper to simulated time `now_ps`: if one or more
    /// period boundaries were crossed since the last tick, appends one
    /// sample stamped at the *latest* crossed boundary (intermediate
    /// boundaries would carry the identical snapshot — the simulation
    /// paused for them — so they are collapsed).
    pub fn tick(&mut self, registry: &MetricsRegistry, now_ps: Picos) {
        if now_ps < self.next_ps {
            return;
        }
        let boundary = now_ps - (now_ps % self.period_ps);
        self.samples.push(MetricsSample {
            at_ps: boundary,
            snapshot: registry.snapshot(),
        });
        self.next_ps = boundary + self.period_ps;
    }

    /// The series so far, in strictly increasing `at_ps` order.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// Rate of a counter in events per second of *simulated* time,
    /// computed between the first and last sample (0.0 with fewer than
    /// two samples or no elapsed time).
    pub fn rate_per_sec(&self, counter: &str) -> f64 {
        let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) else {
            return 0.0;
        };
        if last.at_ps <= first.at_ps {
            return 0.0;
        }
        let delta = last.snapshot.counter(counter) - first.snapshot.counter(counter);
        delta as f64 / ((last.at_ps - first.at_ps) as f64 * 1e-12)
    }
}

#[derive(Debug)]
struct FlightBuf {
    lane: u32,
    seq: u64,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
}

/// A bounded ring of the last N trace events — the post-mortem buffer
/// drivers dump when a command exhausts its retry budget
/// (`DriverError::GaveUp`) and the control tool dumps on demand. Unlike
/// the unbounded [`crate::trace::TraceCollector`], memory stays constant
/// no matter how long the run: old events fall off the front.
///
/// ```
/// use harmonia_sim::metrics::FlightRecorder;
/// use harmonia_sim::trace::TraceEventKind;
///
/// let fr = FlightRecorder::with_capacity(2);
/// fr.record(100, 0, TraceEventKind::EccScrub);
/// fr.record(200, 0, TraceEventKind::EccScrub);
/// fr.record(300, 0, TraceEventKind::EccScrub);
/// let dump = fr.dump();
/// assert!(!dump.contains(&format!("[{:>17} ps]", 100)), "oldest evicted");
/// assert!(dump.contains(&format!("[{:>17} ps]", 300)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<FlightBuf>>>,
}

impl FlightRecorder {
    /// The no-op recorder: one branch per hook, nothing retained.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// An enabled recorder on lane 0 with [`DEFAULT_FLIGHT_DEPTH`]
    /// capacity.
    pub fn enabled() -> FlightRecorder {
        Self::with_capacity(DEFAULT_FLIGHT_DEPTH)
    }

    /// An enabled recorder with an explicit ring capacity (minimum 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        Self::with_lane_capacity(0, capacity)
    }

    /// An enabled recorder with a stable lane id (use the scenario index
    /// when fanning out) and explicit capacity.
    pub fn with_lane_capacity(lane: u32, capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(FlightBuf {
                lane,
                seq: 0,
                capacity,
                ring: VecDeque::with_capacity(capacity),
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (span when `dur > 0`, instant otherwise),
    /// evicting the oldest once the ring is full.
    pub fn record(&self, at: Picos, dur: Picos, kind: TraceEventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.lock().expect("flight recorder poisoned");
        if buf.ring.len() == buf.capacity {
            buf.ring.pop_front();
        }
        let seq = buf.seq;
        buf.seq += 1;
        let lane = buf.lane;
        buf.ring.push_back(TraceEvent {
            at,
            dur,
            lane,
            seq,
            kind,
        });
    }

    /// Events currently retained (0 when disabled).
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().expect("flight recorder poisoned").ring.len(),
            None => 0,
        }
    }

    /// Whether nothing is retained (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the retained events as a readable post-mortem, oldest
    /// first, in the text-timeline format of
    /// [`crate::trace::Trace::export_text`].
    pub fn dump(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::from("(flight recorder disabled — attach an enabled FlightRecorder)\n");
        };
        let buf = inner.lock().expect("flight recorder poisoned");
        let mut out = format!(
            "flight recorder: last {} event(s) of lane {} (capacity {}):\n",
            buf.ring.len(),
            buf.lane,
            buf.capacity
        );
        for ev in &buf.ring {
            out.push_str(&format!(
                "[{:>17} ps] lane {:<3} +{:<9} {}\n",
                ev.at, ev.lane, ev.dur, ev.kind
            ));
        }
        out
    }
}

/// A declarative service-level objective over a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum SloObjective {
    /// `percentile(histogram) <= max_ps`: a latency objective read off a
    /// [`LogHistogram`]-backed metric (e.g. `cmd_latency_p99 <= T ps`).
    PercentileMaxPs {
        /// Histogram metric name.
        histogram: &'static str,
        /// Percentile in `(0, 100]`, e.g. `99.0`.
        percentile: f64,
        /// Inclusive bound in picoseconds.
        max_ps: u64,
    },
    /// `numerator / denominator <= max_ppm / 1e6`: a ratio objective over
    /// two counters (e.g. `replays / cmds <= r`), evaluated in integer
    /// parts-per-million so reports stay byte-deterministic.
    RatioMaxPpm {
        /// Counter whose rate is bounded.
        numerator: &'static str,
        /// Counter it is normalized by (an empty denominator passes
        /// only when the numerator is also zero).
        denominator: &'static str,
        /// Inclusive bound in parts per million.
        max_ppm: u64,
    },
}

/// One named objective.
#[derive(Clone, Debug, PartialEq)]
pub struct Slo {
    /// Objective name (the report line's key).
    pub name: &'static str,
    /// What must hold.
    pub objective: SloObjective,
}

/// The graded outcome of one [`Slo`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloResult {
    /// Objective name.
    pub name: &'static str,
    /// Whether the objective held.
    pub pass: bool,
    /// Measured value (ps or ppm, per the objective).
    pub actual: u64,
    /// The bound (same unit as `actual`).
    pub limit: u64,
    /// Error-budget burn in percent: `actual * 100 / limit` (how much of
    /// the allowance the measurement consumed; >100 means blown).
    pub budget_burn_pct: u64,
    /// Human-readable `what = actual unit <=|> limit unit` fragment.
    detail: String,
}

/// Pass/fail report over a set of objectives. `render()` is pinned by
/// tests — integer math end to end keeps it byte-deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloReport {
    /// Per-objective outcomes, in evaluation order.
    pub results: Vec<SloResult>,
}

impl SloReport {
    /// Whether every objective held.
    pub fn pass(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    /// Renders one line per objective plus a verdict footer:
    ///
    /// ```text
    /// PASS cmd-latency-p99: p99(harmonia_cmd_latency_ps) = 1023 ps <= 200000 ps (budget burn 0%)
    /// FAIL replay-ratio: harmonia_kernel_replays_total / harmonia_cmd_issued_total = 500000 ppm > 1000 ppm (budget burn 50000%)
    /// slo: 1/2 objectives met
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(if r.pass { "PASS " } else { "FAIL " });
            out.push_str(r.name);
            out.push_str(": ");
            out.push_str(&r.detail);
            out.push_str(&format!(" (budget burn {}%)\n", r.budget_burn_pct));
        }
        let met = self.results.iter().filter(|r| r.pass).count();
        out.push_str(&format!("slo: {}/{} objectives met\n", met, self.results.len()));
        out
    }
}

impl fmt::Display for SloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Grades a snapshot against a set of objectives.
pub fn evaluate_slos(snapshot: &MetricsSnapshot, slos: &[Slo]) -> SloReport {
    let results = slos
        .iter()
        .map(|slo| {
            let (actual, limit, detail) = match slo.objective {
                SloObjective::PercentileMaxPs {
                    histogram,
                    percentile,
                    max_ps,
                } => {
                    let actual = snapshot.histogram(histogram).percentile(percentile);
                    let cmp = if actual <= max_ps { "<=" } else { ">" };
                    (
                        actual,
                        max_ps,
                        format!("p{percentile}({histogram}) = {actual} ps {cmp} {max_ps} ps"),
                    )
                }
                SloObjective::RatioMaxPpm {
                    numerator,
                    denominator,
                    max_ppm,
                } => {
                    let num = snapshot.counter(numerator);
                    let den = snapshot.counter(denominator);
                    let actual = if den == 0 {
                        // No traffic: a zero numerator is a clean pass, a
                        // nonzero one an unconditional failure.
                        if num == 0 {
                            0
                        } else {
                            u64::MAX
                        }
                    } else {
                        ((num as u128 * 1_000_000) / den as u128) as u64
                    };
                    let cmp = if actual <= max_ppm { "<=" } else { ">" };
                    (
                        actual,
                        max_ppm,
                        format!("{numerator} / {denominator} = {actual} ppm {cmp} {max_ppm} ppm"),
                    )
                }
            };
            let budget_burn_pct = if limit == 0 {
                if actual == 0 {
                    0
                } else {
                    u64::MAX
                }
            } else {
                actual.saturating_mul(100) / limit
            };
            SloResult {
                name: slo.name,
                pass: actual <= limit,
                actual,
                limit,
                budget_burn_pct,
                detail,
            }
        })
        .collect();
    SloReport { results }
}

/// Runs `f` over `items` in order, giving each item its own
/// [`MetricsRegistry`], and merges the per-item snapshots in item order —
/// the same discipline as [`crate::trace::trace_lanes`].
///
/// ```
/// use harmonia_sim::metrics::meter_lanes;
///
/// let (sums, snap) = meter_lanes(vec![10u64, 20, 30], |&v, m| {
///     m.counter_add("work_total", &[], v);
///     v * 2
/// });
/// assert_eq!(sums, vec![20, 40, 60]);
/// assert_eq!(snap.counter("work_total"), 60);
/// ```
pub fn meter_lanes<T, R, F>(items: Vec<T>, f: F) -> (Vec<R>, MetricsSnapshot)
where
    F: Fn(&T, &MetricsRegistry) -> R,
{
    let mut out = Vec::with_capacity(items.len());
    let mut snapshots = Vec::with_capacity(items.len());
    for item in &items {
        let m = MetricsRegistry::enabled();
        out.push(f(item, &m));
        snapshots.push(m.snapshot());
    }
    (out, MetricsSnapshot::merge(snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let m = MetricsRegistry::disabled();
        assert!(!m.is_enabled());
        m.counter_inc("x_total", &[]);
        m.gauge_set("g", &[], 7);
        m.observe("h_ps", &[], 100);
        let snap = m.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.export_prometheus(), "");
        assert_eq!(snap.export_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n");
    }

    #[test]
    fn clones_share_one_store() {
        let m = MetricsRegistry::enabled();
        let other = m.clone();
        m.counter_inc("x_total", &[]);
        other.counter_inc("x_total", &[]);
        assert_eq!(m.snapshot().counter("x_total"), 2);
    }

    #[test]
    fn labels_split_series_and_counter_sums_across_them() {
        let m = MetricsRegistry::enabled();
        m.counter_add("cmds_total", &[("rbb", "1")], 3);
        m.counter_add("cmds_total", &[("rbb", "2")], 4);
        let snap = m.snapshot();
        assert_eq!(snap.counter("cmds_total"), 7);
        let prom = snap.export_prometheus();
        assert!(prom.contains("cmds_total{rbb=\"1\"} 3"));
        assert!(prom.contains("cmds_total{rbb=\"2\"} 4"));
        // One TYPE header covers both series.
        assert_eq!(prom.matches("# TYPE cmds_total counter").count(), 1);
    }

    #[test]
    fn observe_histogram_merges_like_individual_observes() {
        let mut pre = LogHistogram::new();
        pre.record_n(1_000, 5);
        pre.record(64_000);
        let bulk = MetricsRegistry::enabled();
        bulk.observe("lat_ps", &[], 10); // pre-existing content survives
        bulk.observe_histogram("lat_ps", &[], &pre);
        let looped = MetricsRegistry::enabled();
        looped.observe("lat_ps", &[], 10);
        for _ in 0..5 {
            looped.observe("lat_ps", &[], 1_000);
        }
        looped.observe("lat_ps", &[], 64_000);
        assert_eq!(bulk.snapshot(), looped.snapshot());
        // Disabled registries stay inert.
        let off = MetricsRegistry::disabled();
        off.observe_histogram("lat_ps", &[], &pre);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let m = MetricsRegistry::enabled();
        m.gauge_max("occupancy", &[], 5);
        m.gauge_max("occupancy", &[], 3);
        m.gauge_max("occupancy", &[], 9);
        assert_eq!(m.snapshot().gauge("occupancy"), 9);
    }

    #[test]
    fn prometheus_export_shape() {
        let m = MetricsRegistry::enabled();
        m.counter_add("a_total", &[], 1);
        m.gauge_set("b", &[], 2);
        m.observe("c_ps", &[], 1000);
        m.observe("c_ps", &[], 3000);
        let prom = m.snapshot().export_prometheus();
        assert!(prom.contains("# TYPE a_total counter\na_total 1\n"));
        assert!(prom.contains("# TYPE b gauge\nb 2\n"));
        assert!(prom.contains("# TYPE c_ps summary\n"));
        assert!(prom.contains("c_ps{quantile=\"0.5\"} "));
        assert!(prom.contains("c_ps{quantile=\"0.99\"} "));
        assert!(prom.contains("c_ps_sum 4000\n"));
        assert!(prom.contains("c_ps_count 2\n"));
    }

    #[test]
    fn json_export_is_well_formed_and_deterministic() {
        let m = MetricsRegistry::enabled();
        m.counter_add("a_total", &[("k", "v")], 1);
        m.gauge_set("b", &[], 2);
        m.observe("c_ps", &[], 512);
        let snap = m.snapshot();
        let json = snap.export_json();
        assert_eq!(json, snap.export_json());
        assert!(json.contains("\"a_total{k=v}\":1"));
        assert!(json.contains("\"b\":2"));
        assert!(json.contains("\"c_ps\":{\"count\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_folds_histograms() {
        let a = MetricsRegistry::enabled();
        let b = MetricsRegistry::enabled();
        a.counter_add("c_total", &[], 2);
        b.counter_add("c_total", &[], 5);
        a.gauge_max("hw", &[], 10);
        b.gauge_max("hw", &[], 4);
        a.observe("lat_ps", &[], 100);
        b.observe("lat_ps", &[], 200);
        let ab = MetricsSnapshot::merge([a.snapshot(), b.snapshot()]);
        let ba = MetricsSnapshot::merge([b.snapshot(), a.snapshot()]);
        assert_eq!(ab, ba, "merge is order-independent");
        assert_eq!(ab.counter("c_total"), 7);
        assert_eq!(ab.gauge("hw"), 10);
        assert_eq!(ab.histogram("lat_ps").count(), 2);
    }

    #[test]
    fn scraper_samples_on_simulated_boundaries() {
        let m = MetricsRegistry::enabled();
        let mut s = MetricsScraper::new(1_000);
        s.tick(&m, 500); // before the first boundary: nothing
        assert!(s.samples().is_empty());
        m.counter_add("c_total", &[], 1);
        s.tick(&m, 1_200);
        m.counter_add("c_total", &[], 9);
        s.tick(&m, 1_900); // same window: nothing
        s.tick(&m, 4_400); // crossed 2000/3000/4000: one collapsed sample
        let at: Vec<Picos> = s.samples().iter().map(|x| x.at_ps).collect();
        assert_eq!(at, vec![1_000, 4_000]);
        assert_eq!(s.samples()[0].snapshot.counter("c_total"), 1);
        assert_eq!(s.samples()[1].snapshot.counter("c_total"), 10);
        // 9 events over 3 ns of simulated time = 3e9/sec.
        assert_eq!(s.rate_per_sec("c_total").round() as u64, 3_000_000_000);
    }

    #[test]
    fn scraper_rate_is_zero_without_two_samples() {
        let m = MetricsRegistry::enabled();
        let mut s = MetricsScraper::new(1_000);
        assert_eq!(s.rate_per_sec("c_total"), 0.0);
        s.tick(&m, 1_000);
        assert_eq!(s.rate_per_sec("c_total"), 0.0);
    }

    #[test]
    fn flight_recorder_bounds_memory_and_dumps_readably() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..10u64 {
            fr.record(i * 100, 0, TraceEventKind::EccScrub);
        }
        assert_eq!(fr.len(), 3);
        let dump = fr.dump();
        assert!(dump.starts_with("flight recorder: last 3 event(s)"));
        assert!(dump.contains("ecc-scrub"));
        assert!(dump.contains(&format!("[{:>17} ps]", 900)), "{dump}");
        assert!(!dump.contains(&format!("[{:>17} ps]", 0)), "oldest evicted");
    }

    #[test]
    fn disabled_flight_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        fr.record(1, 0, TraceEventKind::EccScrub);
        assert!(fr.is_empty());
        assert!(fr.dump().contains("disabled"));
    }

    #[test]
    fn slo_report_pass_and_fail_render_is_pinned() {
        let m = MetricsRegistry::enabled();
        m.counter_add("harmonia_cmd_issued_total", &[], 1_000);
        m.counter_add("harmonia_kernel_replays_total", &[], 500);
        for _ in 0..99 {
            m.observe("harmonia_cmd_latency_ps", &[], 1_000);
        }
        m.observe("harmonia_cmd_latency_ps", &[], 100_000);
        let report = evaluate_slos(
            &m.snapshot(),
            &[
                Slo {
                    name: "cmd-latency-p99",
                    objective: SloObjective::PercentileMaxPs {
                        histogram: "harmonia_cmd_latency_ps",
                        percentile: 99.0,
                        max_ps: 200_000,
                    },
                },
                Slo {
                    name: "replay-ratio",
                    objective: SloObjective::RatioMaxPpm {
                        numerator: "harmonia_kernel_replays_total",
                        denominator: "harmonia_cmd_issued_total",
                        max_ppm: 1_000,
                    },
                },
            ],
        );
        assert!(!report.pass());
        // p99 over 100 samples ranks into the 1000-ps bucket (upper 1023).
        assert_eq!(
            report.render(),
            "PASS cmd-latency-p99: p99(harmonia_cmd_latency_ps) = 1023 ps <= 200000 ps (budget burn 0%)\n\
             FAIL replay-ratio: harmonia_kernel_replays_total / harmonia_cmd_issued_total = 500000 ppm > 1000 ppm (budget burn 50000%)\n\
             slo: 1/2 objectives met\n"
        );
    }

    #[test]
    fn slo_zero_denominator_passes_only_when_numerator_is_zero() {
        let quiet = MetricsRegistry::enabled().snapshot();
        let slo = [Slo {
            name: "r",
            objective: SloObjective::RatioMaxPpm {
                numerator: "n_total",
                denominator: "d_total",
                max_ppm: 10,
            },
        }];
        assert!(evaluate_slos(&quiet, &slo).pass());
        let noisy = MetricsRegistry::enabled();
        noisy.counter_inc("n_total", &[]);
        assert!(!evaluate_slos(&noisy.snapshot(), &slo).pass());
    }

    #[test]
    fn meter_lanes_merge_is_reproducible() {
        let run = || {
            let (_, snap) = meter_lanes((0..16u64).collect(), |&i, m| {
                m.counter_add("c_total", &[], i);
                m.gauge_max("hw", &[], i);
                m.observe("lat_ps", &[], i * 10 + 1);
            });
            (snap.export_prometheus(), snap.export_json())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.0.contains("c_total 120"));
        assert!(a.0.contains("hw 15"));
    }
}
