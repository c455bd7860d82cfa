//! Spans recorded from outside the product: one around each call into a
//! layer's public function. Kept in memory; written out when the replay
//! of a workload is over.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use bench_ops::json::Value;
use bench_ops::stats::median;
use bench_ops::traffic::Class;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function`, e.g. `sparql.union_eval`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request this span belongs to; spans of one request share it.
    pub op: usize,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// What the tracer knows about one replayed request.
#[derive(Debug, Clone, Copy)]
pub struct OpInfo {
    pub cycle: usize,
    pub class: Class,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub ops: Vec<OpInfo>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request; spans entered from here on belong to it.
    pub fn begin_op(&mut self, cycle: usize, class: Class) {
        self.ops.push(OpInfo { cycle, class });
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.ops.len().saturating_sub(1),
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        let end = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close in the order they opened");
        self.spans[open.0].end_ns = end;
    }

    /// Times `f` as a span. (Nested spans need `enter`/`exit`.)
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Durations (µs) of every span called `name`, optionally of one class.
    pub fn durations(&self, name: &str, class: Option<Class>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && class.is_none_or(|c| self.ops[s.op].class == c))
            .map(Span::us)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`; 0 when the layer
    /// was never called.
    pub fn median_us(&self, name: &str, class: Option<Class>) -> f64 {
        let d = self.durations(name, class);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// A span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-op figure summed over the spans `pick` selects, as the class's
    /// p50 within each cycle, then the fastest cycle — the estimator the
    /// socket benchmark uses (its fast decile is the minimum for the few
    /// cycles replayed here).
    pub fn class_us(&self, class: Class, pick: impl Fn(&Span) -> bool) -> f64 {
        let mut per_op = vec![0.0; self.ops.len()];
        for s in self.spans.iter().filter(|s| pick(s)) {
            per_op[s.op] += s.us();
        }
        let mut per_cycle: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (op, info) in self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, i)| i.class == class)
        {
            per_cycle.entry(info.cycle).or_default().push(per_op[op]);
        }
        per_cycle
            .values()
            .map(|v| median(v))
            .fold(f64::INFINITY, f64::min)
    }

    /// Writes the spans (with parent links and op ids) and the self-time
    /// table to `path`.
    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        let own = self.self_ns();
        let mut table: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(&own) {
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.end_ns - s.start_ns;
            row.2 += own_ns;
        }
        let doc = Value::object([
            ("workload", Value::from(workload)),
            (
                "self_time",
                Value::Arr(
                    table
                        .iter()
                        .map(|(name, (calls, total, own))| {
                            Value::object([
                                ("name", Value::from(*name)),
                                ("calls", Value::from(*calls)),
                                ("total_us", Value::from(*total as f64 / 1e3)),
                                ("self_us", Value::from(*own as f64 / 1e3)),
                                ("median_us", Value::from(self.median_us(name, None))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Value::object([
                                ("id", Value::from(id as u64)),
                                ("name", Value::from(s.name)),
                                ("start_ns", Value::from(s.start_ns)),
                                ("end_ns", Value::from(s.end_ns)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                                ),
                                ("op", Value::from(s.op as u64)),
                                ("cycle", Value::from(self.ops[s.op].cycle as u64)),
                                (
                                    "class",
                                    Value::from(match self.ops[s.op].class {
                                        Class::Light => "light",
                                        Class::Heavy => "heavy",
                                    }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.begin_op(0, Class::Light);
        let root = t.enter("op");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let own = t.self_ns();
        let children =
            (t.spans[1].end_ns - t.spans[1].start_ns) + (t.spans[2].end_ns - t.spans[2].start_ns);
        assert_eq!(own[0], (t.spans[0].end_ns - t.spans[0].start_ns) - children);
        assert!(t.median_us("a", None) >= 2000.0);
        assert_eq!(t.median_us("missing", None), 0.0);
    }
}
