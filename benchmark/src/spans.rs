//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<call>`. Calls that interleave at block
//! granularity (the functional simulator's `next_block` and the timing
//! consumer's `feed`) are folded into one aggregate span per operation, so a
//! traced run keeps a few spans per operation instead of one per basic block.
//! Spans live in memory and are written as JSON lines only when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call (or aggregate of calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The timed operation this span belongs to; 0 for set-up and
    /// verification work outside the measured window.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Time inside the span's calls: `end - start` for one call, the sum of
    /// the call durations for an aggregate.
    pub busy_ns: u64,
    /// Calls folded into the span.
    pub calls: u64,
    /// Simulated instructions the calls executed or consumed.
    pub insts: u64,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Interleaved calls of one kind within one operation, folded into a span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    first: Option<u64>,
    last: u64,
    busy: u64,
    calls: u64,
    insts: u64,
}

impl Agg {
    /// Adds one call that ran from `start` to `end`.
    pub fn add(&mut self, start: u64, end: u64, insts: u64) {
        self.first.get_or_insert(start);
        self.last = end;
        self.busy += end - start;
        self.calls += 1;
        self.insts += insts;
    }
}

/// The span recorder. When off, every method is a no-op apart from `now`.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Recorded spans, parents before children.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records one finished call; returns its index (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
        insts: u64,
    ) -> usize {
        if self.on {
            self.spans.push(Span {
                name,
                op,
                parent,
                start_ns: start,
                end_ns: end,
                busy_ns: end - start,
                calls: 1,
                insts,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Records an aggregate of interleaved calls (nothing if it is empty).
    pub fn push_agg(&mut self, name: &'static str, op: u64, parent: Option<usize>, a: &Agg) {
        if let (true, Some(first)) = (self.on, a.first) {
            self.spans.push(Span {
                name,
                op,
                parent,
                start_ns: first,
                end_ns: a.last,
                busy_ns: a.busy,
                calls: a.calls,
                insts: a.insts,
            });
        }
    }

    /// Closes a span opened with `push(.., start, start, 0)` before its
    /// children were known.
    pub fn close(&mut self, id: usize, end: u64, insts: u64) {
        if let (true, Some(s)) = (self.on, self.spans.get_mut(id)) {
            s.end_ns = end;
            s.busy_ns = end - s.start_ns;
            s.insts = insts;
        }
    }

    /// Appends spans recorded elsewhere (a client thread) against this
    /// tracer's clock.
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    /// Self time of every span: its busy time minus the busy time of its
    /// direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    /// A clock origin other threads can time against.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Writes every span as one JSON line tagged with `workload`.
    pub fn write_jsonl(&self, workload: &str, mut w: impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = lis_core::JsonObj::new();
            o.str("workload", workload).u64("id", id as u64);
            match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o.u64("op", s.op)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("busy_ns", s.busy_ns)
                .u64("calls", s.calls)
                .u64("insts", s.insts);
            writeln!(w, "{}", o.finish())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let root = t.push("bench.op", 1, None, 0, 100, 0);
        let child = t.push("runtime.run", 1, Some(root), 10, 40, 7);
        t.push("asm.assemble", 1, Some(child), 12, 20, 0);
        let mut agg = Agg::default();
        agg.add(50, 60, 3);
        agg.add(70, 80, 4);
        t.push_agg("timing.feed", 1, Some(root), &agg);
        assert_eq!(t.self_ns(), vec![100 - 30 - 20, 30 - 8, 8, 20]);
        assert_eq!(t.spans[3].calls, 2);
        assert_eq!(t.spans[3].insts, 7);
        assert_eq!((t.spans[3].start_ns, t.spans[3].end_ns), (50, 80));
        assert_eq!(t.spans[1].layer(), "runtime");
    }

    #[test]
    fn opened_spans_close_with_their_duration() {
        let mut t = Tracer::new(true);
        let id = t.push("serve.request", 2, None, 5, 5, 0);
        t.close(id, 25, 9);
        assert_eq!((t.spans[0].busy_ns, t.spans[0].insts), (20, 9));
    }

    #[test]
    fn an_off_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.push("bench.op", 1, None, 0, 1, 0);
        t.push_agg("timing.feed", 1, None, &Agg::default());
        assert!(t.spans.is_empty());
        let mut out = Vec::new();
        t.write_jsonl("x", &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn spans_serialize_one_line_each() {
        let mut t = Tracer::new(true);
        let r = t.push("bench.op", 1, None, 0, 9, 0);
        t.push("runtime.run", 1, Some(r), 1, 8, 4);
        let mut out = Vec::new();
        t.write_jsonl("ladder", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"insts\":4"));
    }
}
