//! Deterministic metrics plane: counters, gauges and latency histograms
//! on the simulated picosecond timeline.
//!
//! The trace plane ([`crate::trace`]) answers "what happened at
//! picosecond X"; this module answers the operator questions — how many
//! commands retried, how full the SQ rings ran, whether the p99 latency
//! SLO is burning. A [`MetricsRegistry`] is a cheap cloneable handle a
//! publisher writes its components' counts into; a frozen
//! [`MetricsSnapshot`] exports to the Prometheus text exposition format
//! or a compact JSON document, a [`FlightRecorder`] keeps the last N
//! trace events for post-mortems, and [`evaluate_slos`] grades a snapshot
//! against declarative objectives.
//!
//! Components keep their own counts, as the paper's RBBs keep their
//! monitoring counters; nothing on a hot path writes here. A publisher
//! reads those counts and writes absolute totals through three setters
//! ([`MetricsRegistry::counter_set`], [`MetricsRegistry::gauge_set`],
//! [`MetricsRegistry::histogram_set`]), so publishing twice changes
//! nothing. The command driver publishes at the end of every public
//! call; a fleet campaign report publishes once.
//!
//! The plane inherits every contract of the trace plane:
//!
//! 1. **Disabled metrics are zero-cost.** [`MetricsRegistry::disabled`]
//!    holds no state; a publish collapses to one branch on an `Option`.
//!    The disabled path is the pinned one (paper snapshot, trace exports
//!    and committed bench medians are bit-identical).
//! 2. **Metrics are observational.** Recording never changes simulated
//!    timing, fault draws or results; attaching an enabled registry
//!    (usually inside a [`crate::Probe`]) alters only what can be
//!    exported afterwards.
//! 3. **Merged snapshots are deterministic.** Each lane owns a
//!    registry; [`MetricsSnapshot::merge`] folds counters by sum, gauges
//!    by max (high-water semantics) and histograms by
//!    [`LogHistogram::merge`] — all order-independent — and callers
//!    merge in lane order, as they do for [`crate::Trace::merge`].
//!
//! # Example: publish → snapshot → export → grade
//!
//! ```
//! use harmonia_sim::metrics::{evaluate_slos, MetricsRegistry, Slo, SloObjective};
//! use harmonia_sim::LogHistogram;
//!
//! let mut latency = LogHistogram::new();
//! latency.record(1_500);
//! let m = MetricsRegistry::enabled();
//! m.counter_set("demo_cmds_total", &[], 100);
//! m.counter_set("demo_retries_total", &[], 3);
//! m.histogram_set("demo_latency_ps", &[], &latency);
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
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Default [`FlightRecorder`] ring capacity (events retained per lane).
pub(crate) const DEFAULT_FLIGHT_DEPTH: usize = 64;

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

/// The cheap cloneable handle a publisher writes totals into. Clones
/// share the underlying store, so the clone a `CommandDriver` holds and
/// the one its caller snapshots are one registry.
///
/// Every write is an absolute set, so a registry holds one publisher's
/// view: two drivers attached to one registry would overwrite each
/// other's series. Give each driver its own registry and merge the
/// snapshots with [`MetricsSnapshot::merge`], as the observed fault
/// campaign does per scenario.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Option<Rc<RefCell<RegistryBuf>>>,
}

impl MetricsRegistry {
    /// The no-op registry (what `Default` also gives): every write is one
    /// branch, nothing is ever allocated or recorded.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// An enabled, empty registry.
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Rc::new(RefCell::new(RegistryBuf::default()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets a counter to `total` (created on first write). A publisher
    /// writes its component's running total, so writing again with the
    /// same count changes nothing.
    #[inline]
    pub fn counter_set(&self, name: &'static str, labels: &[(&'static str, &str)], total: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.borrow_mut();
        buf.counters.insert(MetricKey::new(name, labels), total);
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &str)], value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.borrow_mut();
        buf.gauges.insert(MetricKey::new(name, labels), value);
    }

    /// Sets a histogram-backed metric to a copy of `histogram`, the
    /// [`LogHistogram`] its component keeps.
    #[inline]
    pub fn histogram_set(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        histogram: &LogHistogram,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.borrow_mut();
        buf.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
            .clone_from(histogram);
    }

    /// Clones the current state into a frozen [`MetricsSnapshot`]
    /// (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let buf = inner.borrow();
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

/// A frozen, totally ordered view of a registry: what the exporters and
/// the SLO evaluator consume.
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
    /// order; callers still merge in lane order, as for
    /// [`crate::Trace::merge`].
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

/// Scrapes a run takes when its clock, read after each public call, is
/// `clocks`: one for each reading in a later `period_ps` window than the
/// last scrape's. A call that crosses several boundaries scrapes once.
/// Nothing keeps the boundary times; `SLO_report.txt` prints the count.
pub fn scrapes(clocks: &[Picos], period_ps: Picos) -> usize {
    let mut window = 0;
    clocks
        .iter()
        .filter(|&&now| {
            let crossed = now / period_ps > window;
            window = window.max(now / period_ps);
            crossed
        })
        .count()
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
/// (`DriverError::GaveUp`), or that anyone holding it dumps on demand. Unlike
/// the unbounded [`crate::trace::TraceCollector`], memory stays constant
/// no matter how long the run: old events fall off the front.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    inner: Option<Rc<RefCell<FlightBuf>>>,
}

impl FlightRecorder {
    /// The no-op recorder: one branch per hook, nothing retained.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// An enabled recorder on lane 0 with `DEFAULT_FLIGHT_DEPTH`
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
    pub(crate) fn with_lane_capacity(lane: u32, capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Rc::new(RefCell::new(FlightBuf {
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
    #[inline]
    pub fn record(&self, at: Picos, dur: Picos, kind: TraceEventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = inner.borrow_mut();
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
            Some(inner) => inner.borrow().ring.len(),
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
        let buf = inner.borrow();
        let mut out = format!(
            "flight recorder: last {} event(s) of lane {} (capacity {}):\n",
            buf.ring.len(),
            buf.lane,
            buf.capacity
        );
        for ev in &buf.ring {
            out.push_str(&format!("{ev}\n"));
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
        out.push_str(&format!(
            "slo: {}/{} objectives met\n",
            met,
            self.results.len()
        ));
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
            let budget_burn_pct = match actual.saturating_mul(100).checked_div(limit) {
                Some(pct) => pct,
                // A zero limit: no miss burns nothing, any miss all of it.
                None if actual == 0 => 0,
                None => u64::MAX,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram holding `samples`.
    fn histo(samples: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn disabled_registry_is_inert() {
        let m = MetricsRegistry::disabled();
        assert!(!m.is_enabled());
        m.counter_set("x_total", &[], 1);
        m.gauge_set("g", &[], 7);
        m.histogram_set("h_ps", &[], &histo(&[100]));
        let snap = m.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.export_prometheus(), "");
        assert_eq!(
            snap.export_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n"
        );
    }

    #[test]
    fn clones_share_one_store() {
        let m = MetricsRegistry::enabled();
        let other = m.clone();
        other.counter_set("x_total", &[], 2);
        assert_eq!(m.snapshot().counter("x_total"), 2);
    }

    #[test]
    fn labels_split_series_and_counter_sums_across_them() {
        let m = MetricsRegistry::enabled();
        m.counter_set("cmds_total", &[("rbb", "1")], 3);
        m.counter_set("cmds_total", &[("rbb", "2")], 4);
        let snap = m.snapshot();
        assert_eq!(snap.counter("cmds_total"), 7);
        let prom = snap.export_prometheus();
        assert!(prom.contains("cmds_total{rbb=\"1\"} 3"));
        assert!(prom.contains("cmds_total{rbb=\"2\"} 4"));
        // One TYPE header covers both series.
        assert_eq!(prom.matches("# TYPE cmds_total counter").count(), 1);
    }

    #[test]
    fn setters_write_totals_so_publishing_twice_changes_nothing() {
        let m = MetricsRegistry::enabled();
        let publish = |count: u64, depth: u64, lat: &[u64]| {
            m.counter_set("cmds_total", &[], count);
            m.gauge_set("depth", &[], depth);
            m.histogram_set("lat_ps", &[], &histo(lat));
        };
        publish(3, 9, &[10, 1_000]);
        let once = m.snapshot();
        publish(3, 9, &[10, 1_000]);
        assert_eq!(m.snapshot(), once, "a repeated publish is a no-op");
        // Later totals replace earlier ones rather than adding to them.
        publish(5, 4, &[64_000]);
        let snap = m.snapshot();
        assert_eq!(snap.counter("cmds_total"), 5);
        assert_eq!(snap.gauge("depth"), 4);
        assert_eq!(snap.histogram("lat_ps"), histo(&[64_000]));
    }

    #[test]
    fn observe_histogram_merges_like_individual_observes() {
        let mut pre = LogHistogram::new();
        pre.record_n(1_000, 5);
        pre.record(64_000);
        // A bulk-recorded histogram, set once and merged after a lane that
        // already holds a sample, equals every sample recorded one by one.
        let bulk = MetricsRegistry::enabled();
        bulk.histogram_set("lat_ps", &[], &pre);
        let earlier = MetricsRegistry::enabled();
        earlier.histogram_set("lat_ps", &[], &histo(&[10]));
        let looped = MetricsRegistry::enabled();
        looped.histogram_set(
            "lat_ps",
            &[],
            &histo(&[10, 1_000, 1_000, 1_000, 1_000, 1_000, 64_000]),
        );
        assert_eq!(
            MetricsSnapshot::merge([earlier.snapshot(), bulk.snapshot()]),
            looped.snapshot()
        );
        // Disabled registries stay inert.
        let off = MetricsRegistry::disabled();
        off.histogram_set("lat_ps", &[], &pre);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        // A gauge published at 5, 3 and 9: merging the three snapshots, in
        // any order, keeps the high-water mark, not the last value.
        let m = MetricsRegistry::enabled();
        let readings: Vec<MetricsSnapshot> = [5, 3, 9]
            .into_iter()
            .map(|v| {
                m.gauge_set("occupancy", &[], v);
                m.snapshot()
            })
            .collect();
        assert_eq!(
            MetricsSnapshot::merge(readings.clone()).gauge("occupancy"),
            9
        );
        assert_eq!(
            MetricsSnapshot::merge(readings.into_iter().rev()).gauge("occupancy"),
            9
        );
    }

    #[test]
    fn prometheus_export_shape() {
        let m = MetricsRegistry::enabled();
        m.counter_set("a_total", &[], 1);
        m.gauge_set("b", &[], 2);
        m.histogram_set("c_ps", &[], &histo(&[1000, 3000]));
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
        m.counter_set("a_total", &[("k", "v")], 1);
        m.gauge_set("b", &[], 2);
        m.histogram_set("c_ps", &[], &histo(&[512]));
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
        a.counter_set("c_total", &[], 2);
        b.counter_set("c_total", &[], 5);
        a.gauge_set("hw", &[], 10);
        b.gauge_set("hw", &[], 4);
        a.histogram_set("lat_ps", &[], &histo(&[100]));
        b.histogram_set("lat_ps", &[], &histo(&[200]));
        let ab = MetricsSnapshot::merge([a.snapshot(), b.snapshot()]);
        let ba = MetricsSnapshot::merge([b.snapshot(), a.snapshot()]);
        assert_eq!(ab, ba, "merge is order-independent");
        assert_eq!(ab.counter("c_total"), 7);
        assert_eq!(ab.gauge("hw"), 10);
        assert_eq!(ab.histogram("lat_ps").count(), 2);
    }

    #[test]
    fn scraper_samples_on_simulated_boundaries() {
        // Before the first boundary: nothing. Two readings in one window:
        // one scrape. A jump across 2000/3000/4000: one collapsed scrape.
        assert_eq!(scrapes(&[500], 1_000), 0);
        assert_eq!(scrapes(&[500, 1_200, 1_900], 1_000), 1);
        assert_eq!(scrapes(&[500, 1_200, 1_900, 4_400], 1_000), 2);
        assert_eq!(scrapes(&[], 1_000), 0);
    }

    #[test]
    fn flight_recorder_bounds_memory_and_dumps_readably() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..10u64 {
            fr.record(i * 100, 0, TraceEventKind::KernelReplay { code: 0 });
        }
        assert_eq!(fr.len(), 3);
        let dump = fr.dump();
        assert!(dump.starts_with("flight recorder: last 3 event(s)"));
        assert!(dump.contains("kernel-replay"));
        assert!(dump.contains(&format!("[{:>17} ps]", 900)), "{dump}");
        assert!(!dump.contains(&format!("[{:>17} ps]", 0)), "oldest evicted");
    }

    #[test]
    fn disabled_flight_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        fr.record(1, 0, TraceEventKind::KernelReplay { code: 0 });
        assert!(fr.is_empty());
        assert!(fr.dump().contains("disabled"));
    }

    #[test]
    fn slo_report_pass_and_fail_render_is_pinned() {
        let m = MetricsRegistry::enabled();
        m.counter_set("harmonia_cmd_issued_total", &[], 1_000);
        m.counter_set("harmonia_kernel_replays_total", &[], 500);
        let mut latency = histo(&[100_000]);
        latency.record_n(1_000, 99);
        m.histogram_set("harmonia_cmd_latency_ps", &[], &latency);
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
        noisy.counter_set("n_total", &[], 1);
        assert!(!evaluate_slos(&noisy.snapshot(), &slo).pass());
    }

    #[test]
    fn meter_lanes_merge_is_reproducible() {
        let run = || {
            let snap = MetricsSnapshot::merge((0..16u64).map(|i| {
                let m = MetricsRegistry::enabled();
                m.counter_set("c_total", &[], i);
                m.gauge_set("hw", &[], i);
                m.histogram_set("lat_ps", &[], &histo(&[i * 10 + 1]));
                m.snapshot()
            }));
            (snap.export_prometheus(), snap.export_json())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.0.contains("c_total 120"));
        assert!(a.0.contains("hw 15"));
    }

    #[test]
    fn snapshot_merge_sums_counters() {
        let a = MetricsRegistry::enabled();
        let b = MetricsRegistry::enabled();
        a.counter_set("x_total", &[], 2);
        b.counter_set("x_total", &[], 3);
        let merged = MetricsSnapshot::merge([a.snapshot(), b.snapshot()]);
        assert_eq!(merged.counter("x_total"), 5);
    }

    #[test]
    fn scraper_keeps_one_sample_per_period() {
        // One reading per 1 µs period scrapes every period.
        let every: Vec<Picos> = (1..=5).map(|us| us * 1_000_000).collect();
        assert_eq!(scrapes(&every, 1_000_000), 5);
        assert_eq!(scrapes(&every[..4], 1_000_000), 4);
    }

    #[test]
    fn flight_recorder_evicts_the_oldest_event() {
        let fr = FlightRecorder::with_capacity(2);
        fr.record(100, 0, TraceEventKind::KernelReplay { code: 0 });
        fr.record(200, 0, TraceEventKind::KernelReplay { code: 0 });
        fr.record(300, 0, TraceEventKind::KernelReplay { code: 0 });
        let dump = fr.dump();
        assert!(
            !dump.contains(&format!("[{:>17} ps]", 100)),
            "oldest evicted"
        );
        assert!(dump.contains(&format!("[{:>17} ps]", 300)));
    }
}
