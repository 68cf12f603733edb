//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions — nothing inside the program is instrumented.
//! A span carries its name, start, end, the span that caused it and the op
//! it belongs to; the whole list is written out once, when the run ends.
//! With tracing off every call here is a branch and nothing else, so the
//! untraced run pays no clock reads.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one op.
    pub op: u32,
    /// Worker lane the span ran on; 0 is the caller's thread.
    pub lane: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans recorded on a worker thread, merged into the tracer afterwards.
#[derive(Debug)]
pub struct LaneTrace {
    on: bool,
    epoch: Instant,
    spans: Vec<(&'static str, u64, u64)>,
}

impl LaneTrace {
    /// Runs `f` under a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = f();
        self.spans.push((name, start, self.epoch.elapsed().as_nanos() as u64));
        result
    }

    /// Renames the span recorded last, for a caller that learns what a call
    /// was only after making it.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(last) = self.spans.last_mut() {
            last.0 = name;
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording between ops; no span may be open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts a new op: later spans carry the returned identifier.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
            lane: 0,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes span `id`, and with it any child left open by an early return.
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                return;
            }
        }
        panic!("end of a span that is not open");
    }

    /// Runs `f` under a span named `name`; `f` may open child spans.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let result = f(self);
        self.end(id);
        result
    }

    /// A recorder for one worker thread, on this tracer's clock.
    pub fn lane(&self) -> LaneTrace {
        LaneTrace { on: self.on, epoch: self.epoch, spans: Vec::new() }
    }

    /// Adopts a worker's spans as children of the innermost open span.
    pub fn adopt(&mut self, lane: u32, trace: LaneTrace) {
        let parent = self.stack.last().copied();
        for (name, start_ns, end_ns) in trace.spans {
            self.spans.push(Span { name, start_ns, end_ns, parent, op: self.op, lane });
        }
    }

    /// The duration in ms of every span named `name` in `ops`.
    pub fn span_ms(&self, name: &str, ops: &Range<u32>) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name && ops.contains(&s.op)).map(Span::ms).collect()
    }

    /// The id the next [`Tracer::next_op`] returns; marks phase boundaries.
    pub fn upcoming_op(&self) -> u32 {
        self.op + 1
    }

    /// Per op in `ops`, the summed duration in ms of the spans named `name`;
    /// ops without such a span are left out.
    pub fn ms_per_op(&self, name: &str, ops: &Range<u32>) -> Vec<f64> {
        let mut by_op: Vec<(u32, f64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.name == name && ops.contains(&s.op)) {
            match by_op.last_mut() {
                Some((op, total)) if *op == span.op => *total += span.ms(),
                _ => by_op.push((span.op, span.ms())),
            }
        }
        by_op.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Per op in `ops`, the length in ms of the union of the op's spans other
    /// than those named in `parents` — the part of the op the layer spans
    /// cover. Spans on different lanes overlap in time, so this is a union,
    /// not a sum.
    pub fn covered_ms_per_op(&self, parents: &[&str], ops: &Range<u32>) -> Vec<f64> {
        ops.clone()
            .map(|op| {
                let mut intervals: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|s| s.op == op && !parents.contains(&s.name))
                    .map(|s| (s.start_ns, s.end_ns))
                    .collect();
                intervals.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (start, end) in intervals {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                covered as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"lane\":{},\"parent\":{parent},\
                 \"start\":{},\"end\":{}}}{comma}",
                s.name, s.op, s.lane, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_op();
        t.scope("a", |t| t.scope("b", |_| ()));
        let mut lane = t.lane();
        lane.scope("c", || ());
        t.adopt(1, lane);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_cover() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.scope("op", |t| {
            t.scope("x", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.scope("x", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let x = t.ms_per_op("x", &(1..2));
        assert_eq!(x.len(), 1);
        assert!(x[0] >= 4.0);
        let covered = t.covered_ms_per_op(&["op"], &(1..2));
        assert!((covered[0] - x[0]).abs() < 1e-9);
        assert!(t.ms_per_op("op", &(1..2))[0] >= covered[0]);
        assert!(t.ms_per_op("x", &(2..3)).is_empty());
        assert_eq!(t.upcoming_op(), 2);
    }

    #[test]
    fn overlapping_lanes_are_counted_once() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.begin("op");
        let mut a = t.lane();
        let mut b = t.lane();
        a.spans.push(("w", 100, 300));
        b.spans.push(("w", 200, 500));
        t.adopt(1, a);
        t.adopt(2, b);
        t.end(root);
        assert_eq!(t.covered_ms_per_op(&["op"], &(1..2)), vec![400.0 / 1e6]);
        assert_eq!(t.ms_per_op("w", &(1..2)), vec![500.0 / 1e6]);
    }
}
