//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only in benchmark code, around calls into the
//! library's public functions. Each span has a name, start and end (µs
//! since the run's epoch), its parent, the workload and the operation
//! index. Spans stay in memory and are written out when the run ends; a
//! span's self time is its duration minus the durations of its direct
//! children (children of one span never overlap, because each recorder
//! belongs to one thread).

use serde_json::{json, Value};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `linalg.eigensolve`.
    pub name: &'static str,
    /// Start in µs since the recorder's epoch.
    pub start_us: f64,
    /// End in µs since the recorder's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation index within the run (partition, epoch or query).
    pub op: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A per-thread recorder. When disabled, [`Tracer::span`] only runs its
/// closure, so untraced runs share the traced code path at no cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    /// Time spent inside the recorder itself.
    overhead: Duration,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            overhead: Duration::ZERO,
        }
    }

    /// Sets the operation index stamped on spans opened from now on.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let entered = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: 0.0,
            end_us: 0.0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let span = &mut self.spans[id];
        span.start_us = micros(start - self.epoch);
        span.end_us = micros(end - self.epoch);
        self.overhead += (start - entered) + end.elapsed();
        out
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time spent recording, excluding the traced work.
    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    /// Appends another thread's recorder, re-basing its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.overhead += other.overhead;
    }

    /// `(op, total ms)` of the spans called `name`, per operation in
    /// recording order; operations without such a span are absent.
    pub fn per_op_ms(&self, name: &str) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((op, total)) if *op == s.op => *total += s.ms(),
                _ => out.push((s.op, s.ms())),
            }
        }
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// The spans as JSON records, self time included.
    pub fn to_json(&self, workload: &str) -> Value {
        let own = self.self_ms();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ms)| {
                json!({
                    "name": s.name,
                    "workload": workload,
                    "op": s.op,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "parent": s.parent,
                    "self_ms": self_ms,
                })
            })
            .collect();
        Value::Array(spans)
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.set_op(3);
        let v = tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            7
        });
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].ms() >= spans[1].ms());
        let own = tr.self_ms();
        assert!(own[0] >= 0.0 && own[0] < spans[0].ms());
        assert_eq!(tr.per_op_ms("inner").len(), 1);
        assert_eq!(tr.per_op_ms("inner")[0].0, 3);
        assert_eq!(tr.durations_ms("outer").len(), 1);
    }

    #[test]
    fn disabled_recorder_only_runs_the_closure() {
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(tr.span("x", |_| 1), 1);
        assert!(tr.spans().is_empty());
    }
}
