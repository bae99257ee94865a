//! The benchmark's span recorder. Spans are taken from the benchmark's own
//! code around calls into each crate's public functions: name, start, end,
//! parent, and the iteration or request id they belong to. They stay in
//! memory until the run ends and are then written out as JSON lines.
//!
//! A span is named `<layer>.<step>`; the layer is the crate the timed call
//! belongs to (`matching`, `dupdetect`, `fusion`, `query`, `server`,
//! `delta`, `store`, `engine`), or `core` for a span that only composes
//! others.

use hummer_server::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `<layer>.<step>`.
    pub name: &'static str,
    /// Iteration or request id; every span of one operation shares it.
    pub id: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (`start` while the span is open).
    pub end: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder; one per thread, merged with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (share one origin across
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Recorder::end`] and as the
    /// `parent` of nested spans.
    pub fn start(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(SpanRecord {
            name,
            id,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Close the span `index`; returns its duration in milliseconds.
    pub fn end(&mut self, index: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[index];
        span.end = now;
        span.duration() as f64 / 1e6
    }

    /// Run `f` inside a span with no children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.start(name, id, parent);
        let out = f();
        self.end(s);
        out
    }

    /// Move `other`'s spans into this recorder, re-pointing their parents.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans, in start order per thread.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Write every span as one JSON line tagged with `kind`.
    pub fn write_jsonl(&self, out: &mut impl Write, kind: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let mut doc = Json::object()
                .with("kind", kind)
                .with("index", i)
                .with("name", s.name)
                .with("id", s.id as i64)
                .with("start_ns", s.start as i64)
                .with("end_ns", s.end as i64);
            doc.push(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            );
            writeln!(out, "{}", doc.to_string_compact())?;
        }
        Ok(())
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval that the union of its children's intervals covers.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-id sums of self time (ms), grouped by `key` of each span.
fn self_ms_by(
    spans: &[SpanRecord],
    key: impl Fn(&SpanRecord) -> &'static str,
) -> BTreeMap<&'static str, PerId> {
    let mut ns: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *ns.entry(key(s)).or_default().entry(s.id).or_default() += t;
    }
    ns.into_iter()
        .map(|(k, ids)| {
            (
                k,
                ids.into_iter()
                    .map(|(id, t)| (id, t as f64 / 1e6))
                    .collect(),
            )
        })
        .collect()
}

/// Per-id sums of self time (ms) for each span name: `name -> id -> ms`.
pub fn self_ms_by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, PerId> {
    self_ms_by(spans, |s| s.name)
}

/// Per-id sums of self time (ms) for each layer: `layer -> id -> ms`.
pub fn self_ms_by_layer(spans: &[SpanRecord]) -> BTreeMap<&'static str, PerId> {
    self_ms_by(spans, SpanRecord::layer)
}

/// Per-id self times of one name, as [`self_ms_by_name`] returns them.
pub type PerId = BTreeMap<u64, f64>;

/// The per-id self times of `name` in `by_name` (empty when absent).
pub fn per_id(by_name: &BTreeMap<&'static str, PerId>, name: &str) -> PerId {
    by_name.get(name).cloned().unwrap_or_default()
}

/// `a − b` for every id of `a` (a missing `b` counts as 0): the self time
/// of a call minus a probe of work it does inside.
pub fn minus(a: &PerId, b: &PerId) -> Vec<f64> {
    a.iter()
        .map(|(id, ms)| ms - b.get(id).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent,
            start,
            end,
        }
    }

    /// root [0,100) with children a [10,30) and b [25,60) (overlapping:
    /// together they cover [10,60) = 50), and a grandchild c [40,50)
    /// inside b.
    fn tree() -> Vec<SpanRecord> {
        vec![
            span("core.root", 7, None, 0, 100),
            span("matching.a", 7, Some(0), 10, 30),
            span("dupdetect.b", 7, Some(0), 25, 60),
            span("dupdetect.c", 7, Some(2), 40, 50),
        ]
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        assert_eq!(self_times(&tree()), vec![50, 20, 25, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("core.root", 1, None, 10, 20),
            span("query.x", 1, Some(0), 5, 15),
            span("query.y", 1, Some(0), 18, 40),
        ];
        assert_eq!(self_times(&spans), vec![3, 10, 22]);
    }

    #[test]
    fn disjoint_self_times_sum_to_root_duration() {
        let mut t = tree();
        t[2].start = 30;
        assert_eq!(self_times(&t), vec![50, 20, 20, 10]);
        assert_eq!(self_times(&t).iter().sum::<u64>(), t[0].duration());
    }

    #[test]
    fn layer_sums_group_by_prefix_and_id() {
        let mut t = tree();
        t.push(span("dupdetect.b", 8, None, 200, 210));
        let by_layer = self_ms_by_layer(&t);
        assert_eq!(by_layer["dupdetect"][&7], 35.0 / 1e6);
        assert_eq!(by_layer["dupdetect"][&8], 10.0 / 1e6);
        assert_eq!(by_layer["core"][&7], 50.0 / 1e6);
        let by_name = self_ms_by_name(&t);
        assert_eq!(by_name["matching.a"][&7], 20.0 / 1e6);
        let b = per_id(&by_name, "dupdetect.b");
        assert_eq!(
            minus(&b, &per_id(&by_name, "dupdetect.c")),
            vec![15.0 / 1e6, 10.0 / 1e6]
        );
        assert!(per_id(&by_name, "absent").is_empty());
    }

    #[test]
    fn absorb_repoints_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let r = a.start("core.root", 1, None);
        a.end(r);
        let mut b = Recorder::new(origin);
        let p = b.start("core.other", 2, None);
        let c = b.start("query.child", 2, Some(p));
        b.end(c);
        b.end(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
