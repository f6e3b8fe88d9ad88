//! The harness's own span recorder for the traced run.
//!
//! Spans are recorded from outside the crates under test, around the
//! public calls that form each layer boundary, kept in memory, and
//! written as `trace.json` when the run ends. A span's *self time* is
//! its duration minus the part of that interval its children cover, so
//! the self times of a tree add up to the root's wall time and show
//! where it went.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `name` is `layer.operation`; the layer is the
/// crate whose public function the span wraps (`harness` for the roots).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `format.read`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one replayed operation.
    pub op: u64,
    /// Units of work done inside the span (records, rows, batches…).
    pub count: u64,
}

/// In-memory span recorder. Disabled, it runs the closures and records
/// nothing — the untraced twin of each replay uses that.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` returns its result and
    /// the work count to store on the span. A span opened with no
    /// parent starts a new operation id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> (R, u64)) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            count: 0,
        });
        self.stack.push(id);
        let (out, count) = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].count = count;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span (children may overlap one another
/// when they ran on different threads; the overlap is covered once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per span name, over the trees whose root span is
/// called `root`.
pub fn self_time_by_name(spans: &[Span], root: &str) -> BTreeMap<&'static str, u64> {
    let selfs = self_times_ns(spans);
    let in_tree = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) => i = p,
            None => return spans[i].name == root,
        }
    };
    let mut by_name = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if in_tree(i) {
            *by_name.entry(s.name).or_insert(0) += selfs[i];
        }
    }
    by_name
}

/// Render the trace as JSON: every span, then self time and work count
/// summed per span name.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"count\":{},\"self_ns\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.count, selfs[i]
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"by_name\":{\n");
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let t = totals.entry(s.name).or_default();
        t.0 += 1;
        t.1 += self_ns;
        t.2 += s.count;
    }
    let n = totals.len();
    for (i, (name, (calls, self_ns, count))) in totals.into_iter().enumerate() {
        let _ = write!(
            out,
            "\"{name}\":{{\"spans\":{calls},\"self_ns\":{self_ns},\"count\":{count}}}"
        );
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 > a 10..60 > b 20..30; root also > c 70..90.
        let spans = [
            span("harness.root", 0, 100, None),
            span("x.a", 10, 60, Some(0)),
            span("x.b", 20, 30, Some(1)),
            span("x.c", 70, 90, Some(0)),
        ];
        // A grandchild is subtracted from its parent, not from the root.
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children 10..50 and 30..70 overlap on 30..50; a third, 90..130,
        // runs past its parent's end and is clipped to 90..100; a fourth
        // lies wholly inside the first.
        let spans = [
            span("harness.root", 0, 100, None),
            span("x.a", 10, 50, Some(0)),
            span("x.b", 30, 70, Some(0)),
            span("x.c", 90, 130, Some(0)),
            span("x.d", 15, 20, Some(0)),
        ];
        // Covered: 10..70 (60) + 90..100 (10) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_counts_and_numbers_operations() {
        let mut rec = Recorder::new(true);
        let out = rec.span("harness.one", |rec| {
            let inner = rec.span("x.inner", |_| (7, 3));
            (inner + 1, 1)
        });
        assert_eq!(out, 8);
        rec.span("harness.two", |_| ((), 0));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert_eq!((spans[0].count, spans[1].count), (1, 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = self_time_by_name(spans, "harness.one");
        assert!(by_name.contains_key("x.inner") && !by_name.contains_key("harness.two"));
        assert!(caliper_format::parse_json(&to_json(spans)).is_ok());

        let mut off = Recorder::new(false);
        assert_eq!(off.span("harness.off", |_| (5, 0)), 5);
        assert!(off.spans().is_empty());
    }
}
