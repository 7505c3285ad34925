//! In-memory span recording for the traced run.
//!
//! A span wraps one call (or one timed batch of calls) the benchmark
//! makes into a layer: name, start, end, the span that caused it and the
//! workload id. Spans stay in memory until the run ends, are written out
//! as JSON lines, and the per-layer metrics are derived from them. With
//! tracing off, [`Tracer::open`] and [`Tracer::close`] record nothing.

use crate::clock::{self, Stamp};
use std::io::Write;

/// One recorded span. Ids start at 1; parent 0 means a root.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id.
    pub id: u32,
    /// Id of the causing span (0 = root).
    pub parent: u32,
    /// Layer call name, e.g. `wire.encode`.
    pub name: &'static str,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// End, ns after the tracer was created (0 while open).
    pub end_ns: u64,
    /// Operations the span covers (1 for a single call).
    pub ops: u64,
}

/// The span recorder of one benchmark process.
pub struct Tracer {
    on: bool,
    workload: &'static str,
    origin: Stamp,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `workload`; records only when `on`.
    pub fn new(on: bool, workload: &'static str) -> Tracer {
        Tracer {
            on,
            workload,
            origin: clock::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (the traced run measures a stretch
    /// untraced first, to report the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span; returns its id (0 when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: clock::now().ns_since(self.origin),
            end_ns: 0,
            ops: 1,
        });
        id
    }

    /// Closes span `id`, covering `ops` operations.
    pub fn close(&mut self, id: u32, ops: u64) {
        let end = clock::now().ns_since(self.origin);
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = end;
            span.ops = ops;
        }
    }

    /// Runs `f` inside a span named `name` covering `ops` operations.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        ops: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, ops);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the part covered by child spans) and
    /// operation count, summed over every span named `name`.
    pub fn self_time(&self, name: &str) -> (u64, u64) {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, ops), s| {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                let own = dur.saturating_sub(child_ns[s.id as usize]);
                (ns + own, ops + s.ops)
            })
    }

    /// Self nanoseconds per operation of `name` (0 when never recorded).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        match self.self_time(name) {
            (_, 0) => 0.0,
            (ns, ops) => ns as f64 / ops as f64,
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{},\"workload\":\"{}\"}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.ops, self.workload
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, "w");
        let id = t.open("a", 0);
        t.close(id, 3);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
        assert_eq!(t.ns_per_op("a"), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, "w");
        let root = t.open("root", 0);
        let child = t.open("child", root);
        t.close(child, 2);
        t.close(root, 1);
        // Pin the times so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 70;
        assert_eq!(t.self_time("root"), (40, 1));
        assert_eq!(t.self_time("child"), (60, 2));
        assert_eq!(t.ns_per_op("child"), 30.0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":1,\"name\":\"child\""));
        assert!(text.contains("\"workload\":\"w\""));
    }
}
