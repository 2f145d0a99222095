//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Each span records its name, start,
//! end, parent span and the operation it belongs to; nothing leaves memory
//! until [`write_jsonl`] runs at exit. A layer's self time is its span's
//! duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"vet"` or `"grid.preps"`.
    pub name: &'static str,
    /// The operation (query, sweep, request, run) this span belongs to.
    pub op: u64,
    /// The client thread that recorded it.
    pub thread: u32,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Microseconds since the run's clock origin.
    pub start_us: f64,
    /// Microseconds since the run's clock origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder of one thread.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    labels: Vec<(u64, String)>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, thread: u32) -> Self {
        Tracer { origin, thread, op: 0, spans: Vec::new(), open: Vec::new(), labels: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Starts operation `op`; later spans carry its id. `label` describes
    /// the operation in the written trace.
    pub fn begin_op(&mut self, op: u64, label: String) {
        self.op = op;
        self.labels.push((op, label));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op: self.op,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Records stage durations (seconds) a call reported for itself as
    /// back-to-back children of the innermost open span, from its start.
    pub fn stages(&mut self, stages: &[(&'static str, f64)]) {
        let parent = *self.open.last().expect("stages need an open span");
        let mut at = self.spans[parent].start_us;
        for &(name, secs) in stages {
            let end = at + secs * 1e6;
            self.spans.push(Span {
                name,
                op: self.op,
                thread: self.thread,
                parent: Some(parent),
                start_us: at,
                end_us: end,
            });
            at = end;
        }
    }

    /// Duration of the most recent span named `name`, in milliseconds.
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.dur_us() / 1e3)
    }
}

/// All spans and operation labels of a traced pass, merged across threads.
#[derive(Default)]
pub struct Trace {
    /// Spans, parents re-indexed into this list.
    pub spans: Vec<Span>,
    /// `(op, description)` per traced operation.
    pub labels: Vec<(u64, String)>,
}

impl Trace {
    /// Appends one thread's recording.
    pub fn absorb(&mut self, tracer: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.labels.extend(tracer.labels);
    }

    /// Self time (µs) and span count per layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            let entry = out.entry(s.name).or_default();
            entry.0 += s.dur_us() - children;
            entry.1 += 1;
        }
        out
    }

    /// Self time of `name` in milliseconds, summed over its spans.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |&(us, _)| us / 1e3)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Writes the trace as JSON lines: one `op` line per operation label, then
/// one `span` line per span.
pub fn write_jsonl(path: &Path, trace: &Trace) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (op, label) in &trace.labels {
        writeln!(out, "{{\"op\":{op},\"label\":{:?}}}", label)?;
    }
    for (i, s) in trace.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"thread\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name, s.op, s.thread, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.begin_op(0, "op".into());
        t.span("root", |t| {
            t.span("child", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.stages(&[("stage", 0.001)]);
        });
        let mut trace = Trace::default();
        trace.absorb(t);
        let times = trace.self_times();
        let root = trace.spans[0].dur_us();
        let child = trace.spans[1].dur_us();
        assert!((times["root"].0 - (root - child - 1000.0)).abs() < 1e-6);
        assert_eq!(times["stage"], (1000.0, 1));
        assert_eq!(trace.count("child"), 1);
    }
}
