//! Per-query tracing: trace IDs, nested stage spans, and a bounded ring
//! of completed span records with query-time tree assembly.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A completed span, as stored in the tracer's ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: u64,
    /// Span id, unique within the tracer.
    pub id: u64,
    /// Parent span id; `None` for a trace root.
    pub parent: Option<u64>,
    /// Stage name, e.g. `"detect"`.
    pub name: Cow<'static, str>,
    /// Start offset from the trace root's start, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub duration_us: u64,
    /// Counters attached while the span was live, in attachment order.
    pub counters: Vec<(Cow<'static, str>, u64)>,
    /// Node label naming where the span ran: `None` for local spans,
    /// `Some(worker_addr)` for spans spliced in from a remote worker.
    pub node: Option<String>,
}

#[derive(Debug)]
struct Ring {
    records: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    /// Append one record, evicting (and counting) the oldest when full.
    fn push(&mut self, record: SpanRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

#[derive(Debug)]
struct Shared {
    next_id: AtomicU64,
    ring: Mutex<Ring>,
}

/// Destination for spans. Cloning is cheap (an `Arc`); the default tracer
/// is disabled and makes every span a no-op.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// A disabled tracer: spans read the clock once and skip allocation
    /// and locking.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer whose ring retains the most recent `capacity`
    /// completed spans (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            shared: Some(Arc::new(Shared {
                next_id: AtomicU64::new(1),
                ring: Mutex::new(Ring {
                    records: VecDeque::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether spans from this tracer record anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Start a new trace; the returned root span carries a fresh trace id.
    pub fn trace(&self, name: impl Into<Cow<'static, str>>) -> Span {
        Span::open(self.shared.as_ref(), None, None, name)
    }

    /// Allocate a bare trace id without creating a span — for tagging
    /// requests that are rejected before any span-producing work runs
    /// (admission 503s, read-timeout 408s). Returns `None` when disabled.
    pub fn allocate_trace_id(&self) -> Option<u64> {
        self.shared
            .as_ref()
            .map(|s| s.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Adopt a remote trace context: start a span that belongs to `trace`
    /// and hangs under the remote `parent` span id, as a worker does when a
    /// coordinator propagates `(trace_id, parent_span_id)` in a shard
    /// request. Local span ids are advanced past `parent` first so ids
    /// allocated under the adopted root can never collide with it — the
    /// coordinator's splice relies on that to tell intra-subtree parent
    /// links (remapped) apart from the adopted parent (reattached).
    pub fn adopt_remote(
        &self,
        trace: u64,
        parent: u64,
        name: impl Into<Cow<'static, str>>,
    ) -> Span {
        if let Some(shared) = &self.shared {
            shared
                .next_id
                .fetch_max(parent.saturating_add(1), Ordering::Relaxed);
        }
        Span::open(self.shared.as_ref(), Some((trace, parent)), None, name)
    }

    /// Apply `f` to the ring, or return `T::default()` when disabled.
    fn with_ring<T: Default>(&self, f: impl FnOnce(&mut Ring) -> T) -> T {
        match &self.shared {
            None => T::default(),
            Some(shared) => f(&mut shared.ring.lock().expect("obs ring poisoned")),
        }
    }

    /// Take every retained record out of the ring, oldest first. Used by
    /// workers to harvest the span subtree of one shard batch from a
    /// dedicated capture tracer before shipping it back to the coordinator.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.with_ring(|ring| ring.records.drain(..).collect())
    }

    /// Completed spans currently retained in the ring.
    pub fn span_count(&self) -> usize {
        self.with_ring(|ring| ring.records.len())
    }

    /// Spans evicted from the ring since the tracer was created.
    pub fn dropped_spans(&self) -> u64 {
        self.with_ring(|ring| ring.dropped)
    }

    /// All retained records for one trace, in completion order.
    pub fn trace_spans(&self, trace: u64) -> Vec<SpanRecord> {
        self.with_ring(|ring| {
            let records = ring.records.iter().filter(|r| r.trace == trace);
            records.cloned().collect()
        })
    }

    /// Assemble the span tree for one trace, or `None` if no spans for it
    /// remain in the ring. Children are ordered by start offset. Spans
    /// whose parent was evicted ("orphans") surface as extra roots so
    /// partial traces stay inspectable.
    pub fn trace_tree(&self, trace: u64) -> Option<TraceTree> {
        let records = self.trace_spans(trace);
        if records.is_empty() {
            return None;
        }
        let present: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
        let mut children: std::collections::HashMap<u64, Vec<SpanRecord>> =
            std::collections::HashMap::new();
        let mut roots = Vec::new();
        let mut orphans = 0usize;
        for r in records {
            match r.parent {
                Some(p) if present.contains(&p) => children.entry(p).or_default().push(r),
                Some(_) => {
                    orphans += 1;
                    roots.push(r);
                }
                None => roots.push(r),
            }
        }
        fn build(
            record: SpanRecord,
            children: &mut std::collections::HashMap<u64, Vec<SpanRecord>>,
        ) -> TraceNode {
            let mut kids = children.remove(&record.id).unwrap_or_default();
            kids.sort_by_key(|r| (r.start_us, r.id));
            TraceNode {
                record,
                children: kids.into_iter().map(|r| build(r, children)).collect(),
            }
        }
        roots.sort_by_key(|r| (r.start_us, r.id));
        let roots = roots.into_iter().map(|r| build(r, &mut children)).collect();
        Some(TraceTree {
            trace,
            roots,
            orphans,
        })
    }

    /// Trace ids of the most recently completed root spans, newest first,
    /// up to `limit`.
    pub fn recent_traces(&self, limit: usize) -> Vec<u64> {
        self.with_ring(|ring| {
            let mut out = Vec::new();
            for r in ring.records.iter().rev() {
                if r.parent.is_none() && !out.contains(&r.trace) {
                    out.push(r.trace);
                    if out.len() == limit {
                        break;
                    }
                }
            }
            out
        })
    }
}

#[derive(Debug)]
struct SpanInner {
    shared: Arc<Shared>,
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    /// Start instant of the trace root, for computing start offsets.
    epoch: Instant,
    counters: Vec<(Cow<'static, str>, u64)>,
    node: Option<String>,
}

/// An in-flight span: measures from construction to [`Span::finish`] (or
/// drop), then pushes one [`SpanRecord`] into its tracer's ring. Create
/// nested stage spans with [`Span::child`]; attach counters with
/// [`Span::count`].
#[derive(Debug)]
pub struct Span {
    start: Instant,
    inner: Option<SpanInner>,
}

impl Default for Span {
    fn default() -> Self {
        Span::noop()
    }
}

impl Span {
    /// A span that records nothing — the unit for untraced call sites.
    pub fn noop() -> Span {
        Span::open(None, None, None, "")
    }

    /// Start a span on `shared` (`None`: disabled), under `(trace, parent)`
    /// or as a new trace root, offset from `epoch` or its own start.
    fn open(
        shared: Option<&Arc<Shared>>,
        link: Option<(u64, u64)>,
        epoch: Option<Instant>,
        name: impl Into<Cow<'static, str>>,
    ) -> Span {
        let start = Instant::now();
        let inner = shared.map(|shared| {
            let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
            SpanInner {
                shared: Arc::clone(shared),
                trace: link.map_or(id, |(trace, _)| trace),
                id,
                parent: link.map(|(_, parent)| parent),
                name: name.into(),
                epoch: epoch.unwrap_or(start),
                counters: Vec::new(),
                node: None,
            }
        });
        Span { start, inner }
    }

    /// Whether this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The owning trace id, or `None` for a no-op span.
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.trace)
    }

    /// This span's own id, or `None` for a no-op span. Propagated to
    /// workers as the remote `parent_span_id`.
    pub fn span_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Tag this span with a node label (e.g. the worker address a call
    /// went to). No-op on a disabled span.
    pub fn set_node(&mut self, node: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.node = Some(node.into());
        }
    }

    /// Start a child span (a no-op under a no-op span).
    pub fn child(&self, name: impl Into<Cow<'static, str>>) -> Span {
        let inner = self.inner.as_ref();
        Span::open(
            inner.map(|i| &i.shared),
            inner.map(|i| (i.trace, i.id)),
            inner.map(|i| i.epoch),
            name,
        )
    }

    /// End the span and return its wall time: one end instant serves the
    /// recorded `duration_us` and the returned duration, so stage timings
    /// and span records read one clock. Disabled spans measure too.
    pub fn finish(mut self) -> Duration {
        let end = Instant::now();
        self.record(end);
        end.saturating_duration_since(self.start)
    }

    /// Push this span's record, ended at `end`, into the ring (once).
    fn record(&mut self, end: Instant) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let record = SpanRecord {
            trace: inner.trace,
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            start_us: duration_us(self.start.saturating_duration_since(inner.epoch)),
            duration_us: duration_us(end.saturating_duration_since(self.start)),
            counters: inner.counters,
            node: inner.node,
        };
        // Mutex held only for the push/evict — a handful of pointer
        // moves, ~10 times per traced query.
        if let Ok(mut ring) = inner.shared.ring.lock() {
            ring.push(record);
        };
    }

    /// Splice a remote span subtree under this span: every record is
    /// re-keyed to a fresh local id (remote ids come from the worker's own
    /// counter and would collide with local ones), intra-subtree parent
    /// links are remapped through the same table, and records whose parent
    /// is not part of the batch — the adopted roots — are reattached to
    /// this span. Every record is tagged with `node` (unless the worker
    /// already tagged it from a deeper splice) and its start offset is
    /// shifted to this span's start, so the stitched tree orders worker
    /// stages inside the call that produced them. No-op on a no-op span.
    pub fn splice_remote(&self, node: &str, records: &[SpanRecord]) {
        let Some(inner) = &self.inner else { return };
        if records.is_empty() {
            return;
        }
        let mut remap = std::collections::HashMap::with_capacity(records.len());
        for r in records {
            remap.insert(r.id, inner.shared.next_id.fetch_add(1, Ordering::Relaxed));
        }
        let offset = duration_us(self.start.saturating_duration_since(inner.epoch));
        let mut ring = inner.shared.ring.lock().expect("obs ring poisoned");
        for r in records {
            let parent = match r.parent.and_then(|p| remap.get(&p)) {
                Some(&p) => Some(p),
                None => Some(inner.id),
            };
            ring.push(SpanRecord {
                trace: inner.trace,
                id: remap[&r.id],
                parent,
                name: r.name.clone(),
                start_us: offset.saturating_add(r.start_us),
                duration_us: r.duration_us,
                counters: r.counters.clone(),
                node: r.node.clone().or_else(|| Some(node.to_string())),
            });
        }
    }

    /// Add `value` to the named counter on this span (counters with the
    /// same name accumulate). No-op on a disabled span.
    pub fn count(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        if let Some(inner) = &mut self.inner {
            let name = name.into();
            match inner.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => inner.counters.push((name, value)),
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.record(Instant::now());
        }
    }
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// One node of an assembled trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// The completed span at this node.
    pub record: SpanRecord,
    /// Child spans, ordered by start offset.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total number of spans in this subtree.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::span_count)
            .sum::<usize>()
    }
}

/// The assembled span tree of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// The trace id.
    pub trace: u64,
    /// Root spans: normally one (the request span), plus any orphans
    /// whose parents were evicted from the ring.
    pub roots: Vec<TraceNode>,
    /// Number of retained spans whose parent record was evicted.
    pub orphans: usize,
}

impl TraceTree {
    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(TraceNode::span_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_spans_are_noops() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut root = tracer.trace("query");
        assert!(!root.is_recording());
        assert_eq!(root.trace_id(), None);
        root.count("x", 1);
        let child = root.child("stage");
        assert!(!child.is_recording());
        drop(child);
        drop(root);
        assert_eq!(tracer.span_count(), 0);
    }

    #[test]
    fn finish_returns_the_recorded_duration() {
        let tracer = Tracer::with_capacity(8);
        let (on, off) = (tracer.trace("stage"), Tracer::disabled().trace("stage"));
        std::thread::sleep(Duration::from_millis(2));
        let d = on.finish();
        // Recorded once (finish, not also drop), with the returned duration.
        let records = tracer.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].duration_us, d.as_micros() as u64);
        assert!(d >= Duration::from_millis(2));
        assert!(
            off.finish() >= Duration::from_millis(2),
            "disabled spans measure too"
        );
    }

    #[test]
    fn spans_nest_and_assemble() {
        let tracer = Tracer::with_capacity(64);
        let trace_id;
        {
            let mut root = tracer.trace("query");
            trace_id = root.trace_id().unwrap();
            {
                let mut a = root.child("prepare");
                {
                    let mut m = a.child("match");
                    m.count("tables", 3);
                    m.count("tables", 2);
                }
                let _d = a.child("detect");
                a.count("rows", 10);
            }
            root.count("status", 200);
        }
        let tree = tracer.trace_tree(trace_id).expect("trace present");
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.orphans, 0);
        assert_eq!(tree.span_count(), 4);
        let root = &tree.roots[0];
        assert_eq!(root.record.name, "query");
        assert_eq!(root.children.len(), 1);
        let prepare = &root.children[0];
        assert_eq!(prepare.record.name, "prepare");
        let names: Vec<_> = prepare
            .children
            .iter()
            .map(|c| c.record.name.clone())
            .collect();
        assert_eq!(names, ["match", "detect"]);
        assert_eq!(prepare.children[0].record.counters, [("tables".into(), 5)]);
        // Children start no earlier than their parent.
        assert!(prepare.children[0].record.start_us >= prepare.record.start_us);
    }

    #[test]
    fn ring_evicts_oldest_and_reports_orphans() {
        let tracer = Tracer::with_capacity(2);
        let trace_id;
        {
            let root = tracer.trace("query");
            trace_id = root.trace_id().unwrap();
            drop(root.child("a"));
            drop(root.child("b"));
            drop(root.child("c"));
        }
        // Capacity 2: "a" and "b" evicted; "c" and the root survive.
        assert_eq!(tracer.span_count(), 2);
        assert_eq!(tracer.dropped_spans(), 2);
        let tree = tracer.trace_tree(trace_id).expect("trace present");
        assert_eq!(tree.span_count(), 2);
        assert_eq!(tree.orphans, 0);
        // Evict the root too: the remaining child becomes an orphan root.
        {
            let other = tracer.trace("other");
            drop(other.child("x"));
            drop(other.child("y"));
        }
        match tracer.trace_tree(trace_id) {
            None => {}
            Some(t) => assert_eq!(t.orphans, t.roots.len()),
        }
    }

    #[test]
    fn splice_remaps_ids_and_reattaches_roots() {
        // Worker side: a capture tracer adopts a remote context and records
        // a small stage subtree.
        let capture = Tracer::with_capacity(16);
        let remote_trace = 77;
        let remote_parent = 3; // deliberately small: must not collide
        {
            let batch = capture.adopt_remote(remote_trace, remote_parent, "worker_batch");
            let shard = batch.child("shard");
            drop(shard.child("score"));
            drop(shard.child("cluster"));
        }
        let shipped = capture.drain();
        assert_eq!(shipped.len(), 4);
        assert_eq!(capture.span_count(), 0);
        assert!(
            shipped.iter().all(|r| r.id > remote_parent),
            "local ids must clear the adopted parent id: {shipped:?}"
        );

        // Coordinator side: splice under a live worker_call span.
        let tracer = Tracer::with_capacity(64);
        let trace_id;
        {
            let root = tracer.trace("query");
            trace_id = root.trace_id().unwrap();
            let call = root.child("worker_call");
            call.splice_remote("w1:7788", &shipped);
        }
        let tree = tracer.trace_tree(trace_id).expect("trace present");
        assert_eq!(tree.orphans, 0, "splice must not create dangling parents");
        assert_eq!(tree.span_count(), 6);
        let call = &tree.roots[0].children[0];
        assert_eq!(call.record.name, "worker_call");
        let batch = &call.children[0];
        assert_eq!(batch.record.name, "worker_batch");
        assert_eq!(batch.record.node.as_deref(), Some("w1:7788"));
        let shard = &batch.children[0];
        let names: Vec<_> = shard
            .children
            .iter()
            .map(|c| c.record.name.clone())
            .collect();
        assert_eq!(names, ["score", "cluster"]);
        assert!(shard
            .children
            .iter()
            .all(|c| c.record.node.as_deref() == Some("w1:7788")));
    }

    #[test]
    fn adopt_remote_on_disabled_tracer_is_noop() {
        let tracer = Tracer::disabled();
        let span = tracer.adopt_remote(9, 1, "x");
        assert!(!span.is_recording());
        assert_eq!(tracer.allocate_trace_id(), None);
        span.splice_remote("w", &[]);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn recent_traces_returns_roots_newest_first() {
        let tracer = Tracer::with_capacity(16);
        let a = {
            let s = tracer.trace("a");
            s.trace_id().unwrap()
        };
        let b = {
            let s = tracer.trace("b");
            s.trace_id().unwrap()
        };
        assert_eq!(tracer.recent_traces(10), vec![b, a]);
        assert_eq!(tracer.recent_traces(1), vec![b]);
    }
}
