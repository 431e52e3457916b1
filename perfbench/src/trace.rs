//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced client opens one operation at a time on its own thread; spans
//! opened while it runs nest by call order. When the operation ends its
//! spans fold into per-name totals (count, time, self time), so memory
//! stays bounded however long the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span of the current operation, times in ns from its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span measures, e.g. `db.read`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns after the operation began.
    pub start: u64,
    /// End, ns after the operation began.
    pub end: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration not covered by child spans, ns.
    pub self_ns: u64,
}

/// Per-name span totals.
pub type SpanTable = BTreeMap<&'static str, SpanTotals>;

#[derive(Default)]
struct Recorder {
    /// Start of the current operation; `None` while not tracing.
    op_start: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: SpanTable,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start tracing one operation on this thread.
pub fn begin_op() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans.clear();
        r.open.clear();
        r.op_start = Some(Instant::now());
    });
}

/// End the current operation and fold its spans into the thread's totals.
pub fn end_op() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.op_start = None;
        let spans = std::mem::take(&mut r.spans);
        for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
            let t = r.totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end - span.start;
            t.self_ns += self_ns;
        }
        r.spans = spans;
    });
}

/// Take this thread's accumulated totals, leaving them empty.
pub fn take_totals() -> SpanTable {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().totals))
}

/// Add the totals of `other` into `total`.
pub fn merge(total: &mut SpanTable, other: &SpanTable) {
    for (name, t) in other {
        let sum = total.entry(name).or_default();
        sum.count += t.count;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
    }
}

/// Run `f` inside a span named `name`. Outside a traced operation this is
/// one thread-local check.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start = r.op_start?.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span { name, parent, start, end: start });
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(op_start) = r.op_start {
                r.spans[idx].end = op_start.elapsed().as_nanos() as u64;
                r.open.pop();
            }
        });
    }
    out
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            sp("tm.execute", None, 0, 100),
            sp("db.attempt", Some(0), 10, 70),
            sp("db.read", Some(1), 15, 25),
            sp("db.write", Some(1), 30, 50),
            sp("db.read", Some(1), 40, 60), // overlaps the write: 50..60 is new
            sp("db.attempt", Some(0), 80, 95),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 15, 60 - 10 - 30, 10, 20, 20, 15]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [sp("a", None, 10, 20), sp("b", Some(0), 5, 15), sp("c", Some(0), 18, 30)];
        assert_eq!(self_times(&spans), vec![10 - 5 - 2, 10, 12]);
        assert_eq!(self_times(&[sp("x", None, 3, 3)]), vec![0]);
    }

    #[test]
    fn recorder_nests_spans_by_call_order_and_ignores_untraced_calls() {
        let _ = take_totals();
        assert_eq!(span("untraced", || 7), 7);
        begin_op();
        span("outer", || {
            span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            span("inner", || ());
        });
        end_op();
        span("after", || ());
        let totals = take_totals();
        assert_eq!(totals.keys().copied().collect::<Vec<_>>(), vec!["inner", "outer"]);
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(take_totals().is_empty());
    }
}
