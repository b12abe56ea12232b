//! In-memory span recorder for the traced runs.
//!
//! Each span is one public call the benchmark makes into a layer: name,
//! start, end, parent span and operation id. Spans stay in memory until the
//! process ends and are then handed to `run.py` in the report, which writes
//! them once as Chrome-trace JSON. A span's self time is its duration minus
//! the time its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced code path carries no recording cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds. Every nanosecond of a root
    /// span is attributed to exactly one name, so the values sum to the
    /// roots' total duration.
    pub fn self_ns_by_name(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns) - child_ns[i];
            *out.entry(s.name.clone()).or_insert(0) += own;
        }
        out
    }

    /// The recorded spans, for the report.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.set_op(1);
        let root = t.enter("root");
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let total: u64 = t.self_ns_by_name().values().sum();
        let s = &t.spans()[0];
        assert_eq!(total, s.end_ns - s.start_ns);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x");
        t.exit(o);
        assert!(t.into_spans().is_empty());
    }
}
