//! Spans recorded around the benchmark's calls into each layer's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span has a name (the layer), a start and end on a monotonic clock, the
//! span it was opened under, and the id of the op (serve call, search
//! round, training stage) it belongs to. Each op has one root span; a
//! span's self time is its duration minus the part its children cover, so
//! the self times of one op's spans add up to the op's wall time exactly,
//! and the root's own self time is the op time no layer span covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::quote;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one run. Caller threads build each op's spans in an
/// [`OpTrace`] of their own and hand them over once, when the op ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The nanosecond timestamp of `t` on this tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts op `op` with a root span named `name`.
    pub fn op(&self, op: u64, name: &'static str) -> OpTrace<'_> {
        let mut t = OpTrace {
            tracer: self,
            op,
            spans: Vec::with_capacity(8),
            open: Vec::with_capacity(4),
        };
        t.begin(name);
        t
    }

    /// Hands over an op whose spans were timed by other means.
    pub fn add(&self, mut spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span list lock")
            .append(&mut spans);
    }

    /// Every span handed over so far, in op order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| (s.op, s.id));
        v
    }
}

/// The spans of one op while it runs.
pub struct OpTrace<'a> {
    tracer: &'a Tracer,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl OpTrace<'_> {
    fn begin(&mut self, name: &'static str) {
        let now = self.tracer.now();
        self.push(name, now, now);
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let i = self.open.pop().expect("a span is open");
        self.spans[i].end_ns = self.tracer.now();
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Closes the root span and hands the op's spans to the tracer.
    pub fn finish(mut self) {
        while !self.open.is_empty() {
            self.end();
        }
        self.tracer
            .spans
            .lock()
            .expect("span list lock")
            .append(&mut self.spans);
    }
}

/// Runs `f` inside a span named `name` when the op is traced, or just
/// runs it when it is not.
pub fn maybe<R>(t: &mut Option<OpTrace<'_>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u64, usize), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.op, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&(s.op, s.id)) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Per-layer totals over a set of ops.
pub struct LayerSplit {
    /// Layer name → (self time in ns, span count); op roots are folded
    /// into [`UNATTRIBUTED`].
    pub layers: BTreeMap<&'static str, (u64, usize)>,
    /// Summed wall time of the op roots.
    pub op_ns: u64,
    pub ops: usize,
}

/// The row holding root self time: op time no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

impl LayerSplit {
    /// Splits the ops whose root span is named `root`.
    pub fn of(spans: &[Span], root: &str) -> LayerSplit {
        let selfs = self_times(spans);
        let ops: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.op)
            .collect();
        let mut layers: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        let mut op_ns = 0;
        for (s, &own) in spans.iter().zip(&selfs) {
            if !ops.contains(&s.op) {
                continue;
            }
            let name = if s.parent.is_none() {
                op_ns += s.end_ns - s.start_ns;
                UNATTRIBUTED
            } else {
                s.name
            };
            let e = layers.entry(name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        LayerSplit {
            layers,
            op_ns,
            ops: ops.len(),
        }
    }

    /// Self time of `layer` in ms per op (0 when the layer never ran).
    pub fn ms_per_op(&self, layer: &str) -> f64 {
        match (self.layers.get(layer), self.ops) {
            (Some(&(ns, _)), n) if n > 0 => ns as f64 / 1e6 / n as f64,
            _ => 0.0,
        }
    }

    /// The per-layer table: self time, span count and share of op time.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!(
            "{title}: {} ops, {:.3} ms per op\n{:<22} {:>12} {:>10} {:>8} {:>7}\n",
            self.ops,
            self.op_ns as f64 / 1e6 / self.ops.max(1) as f64,
            "layer",
            "self ms/op",
            "total ms",
            "count",
            "share"
        );
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by_key(|(_, &(ns, _))| std::cmp::Reverse(ns));
        for (name, &(ns, count)) in rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12.4} {:>10.2} {:>8} {:>6.1}%",
                name,
                ns as f64 / 1e6 / self.ops.max(1) as f64,
                ns as f64 / 1e6,
                count,
                100.0 * ns as f64 / self.op_ns.max(1) as f64
            );
        }
        out
    }
}

/// Checks that every op's span self times add up to its root span's wall
/// time, i.e. that layer spans plus the unattributed remainder account for
/// the whole op. Children must nest inside their parents for this to hold.
pub fn check_accounting(spans: &[Span]) -> Result<(), String> {
    let selfs = self_times(spans);
    let by_id: std::collections::HashMap<(u64, usize), &Span> =
        spans.iter().map(|s| ((s.op, s.id), s)).collect();
    let mut per_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = per_op.entry(s.op).or_default();
        e.0 += own;
        if s.parent.is_none() {
            e.1 += s.end_ns - s.start_ns;
        }
        if let Some(p) = s.parent {
            let parent = by_id
                .get(&(s.op, p))
                .ok_or_else(|| format!("span {} of op {} has no parent", s.name, s.op))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} of op {} leaves its parent {}",
                    s.name, s.op, parent.name
                ));
            }
        }
    }
    for (op, (sum, wall)) in per_op {
        if sum != wall {
            return Err(format!(
                "op {op}: span self times sum to {sum} ns, op wall time is {wall} ns"
            ));
        }
    }
    Ok(())
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":{},\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            quote(s.name),
            s.op,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: usize, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            op: 1,
            id,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("b", 2, Some(0), 30, 60),
            span("c", 3, Some(1), 20, 25),
        ];
        // Root: 100 − |[10, 60]| = 50; a: 30 − 5 = 25.
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
        let split = LayerSplit::of(&spans, "root");
        assert_eq!(split.layers[UNATTRIBUTED], (50, 1));
        assert_eq!(split.ms_per_op("a"), 25e-6);
    }

    #[test]
    fn accounting_holds_for_nested_spans_and_catches_escapes() {
        let tracer = Tracer::new();
        let mut t = tracer.op(7, "root");
        t.span("outer", |t| t.span("inner", |_| std::hint::black_box(3)));
        t.span("second", |_| ());
        t.finish();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        check_accounting(&spans).unwrap();
        let mut bad = spans.clone();
        bad[1].end_ns = bad[0].end_ns + 10;
        assert!(check_accounting(&bad).is_err());
    }
}
