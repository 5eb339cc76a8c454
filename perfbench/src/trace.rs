//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into a layer's
//! public functions; nothing inside the program is instrumented. A span has
//! a name, a start and end offset from a shared origin, a parent and a trace
//! id (one per setup or measured operation). When the recorder is disabled
//! every call is a branch and nothing is stored.

use serde_json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace_id: u32,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace_id: u32,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            trace_id: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new trace id: the spans of one setup or one operation share it.
    pub fn set_trace_id(&mut self, trace_id: u32) {
        self.trace_id = trace_id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            trace_id: self.trace_id,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
        }
    }

    /// Records `f` as one leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// A disabled-or-enabled twin for a companion thread: same origin,
    /// same trace id, its own span list (merged back with [`Tracer::absorb`]).
    pub fn companion(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            trace_id: self.trace_id,
        }
    }

    /// Appends the spans a companion recorded; its roots stay roots.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus that of its direct children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_s[parent] -= span.duration_s();
            }
        }
        self_s
    }

    /// Self times of every span named `name`, in recording order.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let self_s = self.self_times();
        self.spans
            .iter()
            .zip(self_s)
            .filter(|(span, _)| span.name == name)
            .map(|(_, s)| s)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|span| {
                    Value::Object(vec![
                        ("name".into(), span.name.into()),
                        ("start_ns".into(), span.start_ns.into()),
                        ("end_ns".into(), span.end_ns.into()),
                        (
                            "parent".into(),
                            span.parent.map_or(Value::Null, Value::from),
                        ),
                        ("trace_id".into(), span.trace_id.into()),
                    ])
                })
                .collect(),
        )
    }
}
