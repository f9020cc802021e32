//! Wall-clock spans recorded by the benchmark around its calls into each
//! crate (the library itself is not instrumented).
//!
//! Spans stay in memory and are written out once, at exit, in Chrome
//! trace-event format so they open in Perfetto next to the simulated-time
//! traces of `--bin trace`.

use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `crate.module.function` of the call.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or layer-pass repetition) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans; a disabled recorder only runs the closures.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn disabled() -> Tracer {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recorder timing spans from `origin`; recorders sharing an origin
    /// share a timeline.
    pub fn enabled(origin: Instant) -> Tracer {
        Tracer {
            origin: Some(origin),
            ..Tracer::disabled()
        }
    }

    /// Tags the spans recorded from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: nanos_since(origin),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = nanos_since(origin);
        out
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Ends the spans a panic left open above `depth`, so later spans nest
    /// correctly.
    pub fn unwind_to(&mut self, depth: usize) {
        let Some(origin) = self.origin else { return };
        let now = nanos_since(origin);
        while self.open.len() > depth {
            let id = self.open.pop().expect("length checked");
            self.spans[id].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name` in `op`, in seconds.
    pub fn busy_s(&self, name: &str, op: u64) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Named lanes of spans as a Chrome trace-event document: one thread per
/// lane, complete `X` events, microsecond timestamps.
pub fn chrome_json(lanes: &[(&str, &[Span])]) -> String {
    let mut events = Vec::new();
    for (tid, (lane, spans)) in lanes.iter().enumerate() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": {}}}}}",
            crate::json::quote(lane)
        ));
        for (i, (s, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \
                 \"self_us\": {:.3}}}}}",
                crate::json::quote(s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
                own as f64 / 1e3,
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            // Overlaps `b` (children on other threads can): counted once.
            span("c", 60, 80, Some(0)),
            // Leaks past its parent's end: clipped to the parent.
            span("d", 90, 120, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // root: 100 − [10,30] − [40,80] − [90,100] = 100 − 20 − 40 − 10.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 8);
        assert_eq!(own[4], 20);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut t = Tracer::enabled(Instant::now());
        t.set_op(3);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.busy_s("outer", 3) >= t.busy_s("inner", 3));
        assert_eq!(t.busy_s("outer", 4), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |t| t.span("y", |_| 1)), 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn recovers_from_a_panic_inside_a_span() {
        let mut t = Tracer::enabled(Instant::now());
        t.span("outer", |t| {
            let depth = t.depth();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.span("inner", |_| panic!("boom"))
            }));
            assert!(caught.is_err());
            t.unwind_to(depth);
            t.span("after", |_| ());
        });
        let s = t.spans();
        assert_eq!(s[2].name, "after");
        assert_eq!(s[2].parent, Some(0), "nests under the still-open span");
        assert!(s[1].end_ns >= s[1].start_ns);
    }

    #[test]
    fn chrome_export_parses() {
        let spans = vec![
            span("root", 0, 2_000, None),
            span("kid", 500, 1_500, Some(0)),
        ];
        let doc = crate::json::Json::parse(&chrome_json(&[("lane", &spans)])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3, "lane name plus two spans");
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("self_us")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }
}
