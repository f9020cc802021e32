//! The results format and the `compare` report.
//!
//! A run prints one [`RunResult`] as the last line of its standard output.
//! A results file holds one [`Record`] per line: the run's workload, seed
//! and mode around its result.

use crate::json::{quote, Json};
use crate::stats::{median, spread};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One JSON line with exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(&m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or(format!("result has no {k:?}"));
        let mut metrics = Vec::new();
        for (name, m) in field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
        {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => metrics.push(Metric::new(name, value, unit)),
                _ => return Err(format!("metric {name:?} needs a numeric value and a unit")),
            }
        }
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("correct is not a boolean")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics,
        })
    }
}

/// One line of a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub result: RunResult,
}

impl Record {
    pub fn to_json(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {}}}",
            quote(&self.workload),
            self.seed,
            u8::from(self.trace),
            self.result.to_json()?
        ))
    }

    pub fn from_json(v: &Json) -> Result<Record, String> {
        Ok(Record {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("record has no workload")?
                .into(),
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("record has no seed")?,
            trace: v
                .get("trace")
                .and_then(Json::as_u64)
                .ok_or("record has no trace flag")?
                == 1,
            result: RunResult::from_json(v.get("result").ok_or("record has no result")?)?,
        })
    }
}

/// Reads a results file (one [`Record`] per non-empty line).
pub fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            Json::parse(l)
                .and_then(|v| Record::from_json(&v))
                .map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
}

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` rules of a `BENCHMARK.json` document.
pub fn read_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: s("name")?.into(),
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// Verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The head's median is within the bound of the base's.
    Ok,
    /// The head's median is worse than the base's by more than the bound.
    Regressed,
    /// A side's run-to-run spread is wider than the bound, so the bound
    /// cannot be resolved.
    Unresolved,
}

/// Compares two sets of runs metric by metric and workload by workload.
/// Returns the report and whether any metric regressed.
pub fn compare(base: &[Record], head: &[Record], bounds: &[Bound]) -> (String, bool) {
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = format!(
        "{:<12} {:<13} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "head", "worse", "bound", "spreadB", "spreadH"
    );
    let mut regressed = false;
    for w in workloads {
        let runs = |side: &[Record]| -> Vec<RunResult> {
            side.iter()
                .filter(|r| r.workload == w && !r.trace)
                .map(|r| r.result.clone())
                .collect()
        };
        let (b, h) = (runs(base), runs(head));
        if b.is_empty() || h.is_empty() {
            out.push_str(&format!("{w:<12} (runs on one side only)\n"));
            continue;
        }
        for bound in bounds {
            let values = |rs: &[RunResult]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.metric(&bound.name)).collect()
            };
            let (bv, hv) = (values(&b), values(&h));
            if bv.is_empty() || hv.is_empty() {
                out.push_str(&format!("{w:<12} {:<13} missing on one side\n", bound.name));
                continue;
            }
            let (bm, hm) = (median(&bv), median(&hv));
            let worse = if bound.lower_is_better {
                hm / bm - 1.0
            } else {
                1.0 - hm / bm
            };
            let (sb, sh) = (spread(&bv), spread(&hv));
            let verdict = if [sb, sh].into_iter().flatten().any(|s| s > bound.bound) {
                Verdict::Unresolved
            } else if worse > bound.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            regressed |= verdict == Verdict::Regressed;
            let pct =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s));
            out.push_str(&format!(
                "{w:<12} {:<13} {bm:>12.6} {hm:>12.6} {:>7.1}% {:>6.1}% {:>7} {:>7}  {verdict:?}\n",
                bound.name,
                100.0 * worse,
                100.0 * bound.bound,
                pct(sb),
                pct(sh),
            ));
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(p50: f64) -> RunResult {
        RunResult {
            correct: true,
            attempted: 120,
            failed: 0,
            metrics: vec![
                Metric::new("op_s_p50", p50, "s"),
                Metric::new("setup_s", 0.1234567890123, "s"),
            ],
        }
    }

    fn record(workload: &str, p50: f64) -> Record {
        Record {
            workload: workload.into(),
            seed: 7,
            trace: false,
            result: result(p50),
        }
    }

    #[test]
    fn results_round_trip_exactly() {
        let r = record("fleet_day", 0.000123456789);
        let line = r.to_json().unwrap();
        assert_eq!(
            Record::from_json(&Json::parse(&line).unwrap()),
            Ok(r.clone())
        );
        // The run's own last line carries exactly the four contract keys.
        let inner = Json::parse(&r.result.to_json().unwrap()).unwrap();
        let keys: Vec<&str> = inner
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let mut bad = r.result;
        bad.metrics[0].value = f64::NAN;
        assert!(bad.to_json().is_err());
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound() {
        let bounds = read_bounds(
            r#"{"end_to_end": [{"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let base: Vec<Record> = [1.00, 1.01, 0.99, 1.00]
            .iter()
            .map(|&v| record("w", v))
            .collect();
        let same: Vec<Record> = [1.02, 1.00, 1.01, 0.99]
            .iter()
            .map(|&v| record("w", v))
            .collect();
        let slow: Vec<Record> = [1.20, 1.21, 1.19, 1.20]
            .iter()
            .map(|&v| record("w", v))
            .collect();
        let noisy: Vec<Record> = [0.5, 1.5, 0.7, 1.3]
            .iter()
            .map(|&v| record("w", v))
            .collect();
        let (report, regressed) = compare(&base, &same, &bounds);
        assert!(!regressed && report.contains(" Ok"), "{report}");
        let (report, regressed) = compare(&base, &slow, &bounds);
        assert!(regressed && report.contains("Regressed"), "{report}");
        let (report, regressed) = compare(&base, &noisy, &bounds);
        assert!(!regressed && report.contains("Unresolved"), "{report}");
    }
}
