//! The global registry behind the crate's free functions.
//!
//! Spans are tracked with a per-thread path stack (so nesting needs no
//! explicit parent handles) and merged into one global tree keyed by span
//! name path. Counters, histograms, and the trace log live beside it under
//! a single mutex; hot call sites are expected to accumulate locally and
//! flush per pass, so the lock is taken at per-pass granularity.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::snapshot::{BucketCount, HistogramSnapshot, Snapshot, SpanNode};

/// Aggregated timing for one span path.
#[derive(Debug, Default)]
pub(crate) struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// One node of the global span tree.
#[derive(Debug, Default)]
pub(crate) struct Node {
    pub stats: SpanStats,
    pub children: BTreeMap<String, Node>,
}

/// Histogram with power-of-two buckets.
#[derive(Debug)]
pub(crate) struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// `buckets[i]` counts values whose bit length is `i` (i.e. value 0 in
    /// bucket 0, 1 in bucket 1, 2..=3 in bucket 2, 4..=7 in bucket 3, ...).
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            // Sentinel until the first sample; snapshots normalize a
            // zero-count histogram's min/max to 0 so the sentinel never
            // leaks into rendered or serialized output.
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
    }

    /// Freezes into the serializable snapshot form (non-empty buckets only,
    /// zero-count min/max normalized to 0 so the sentinel never leaks).
    fn freeze(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| BucketCount {
                le: match i {
                    0 => 0,
                    1..=63 => (1u64 << i) - 1,
                    _ => u64::MAX,
                },
                count: c,
            })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: if self.count == 0 { 0 } else { self.max },
            buckets,
        }
    }
}

/// A standalone power-of-two histogram, independent of the global registry
/// and of the telemetry enable flag. Long-running components (the analysis
/// service, the load generator) embed one when they must *always* measure —
/// e.g. request latency feeding the `metrics` command — regardless of
/// whether `--profile`/`--metrics-json` turned global telemetry on.
pub struct LocalHistogram {
    inner: Mutex<Histogram>,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.
    pub fn new() -> LocalHistogram {
        LocalHistogram {
            inner: Mutex::new(Histogram::default()),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(value);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).count
    }

    /// Freezes the current contents into a serializable snapshot (with
    /// quantile accessors).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .freeze()
    }
}

/// One entry of the trace event log.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// The rendered event text.
    pub message: String,
}

/// One timestamped entry of the span-event log, gathered while tracing is
/// on. `phase` follows the Chrome trace-event convention: `B` (span begin),
/// `E` (span end), `i` (instant event). Timestamps are microseconds since
/// the process-wide trace epoch (the first traced event), which is exactly
/// the `ts` scale `chrome://tracing`/Perfetto expect.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Span name (for `B`/`E`) or the rendered message (for `i`).
    pub name: String,
    /// `'B'`, `'E'`, or `'i'`.
    pub phase: char,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

/// Bound on the in-memory trace log; past it, newest events are counted but
/// not stored so a long interpreter run cannot exhaust memory.
const MAX_EVENTS: usize = 65_536;

/// Bound on the span-event log: spans open and close, so give B/E pairs
/// twice the message-log headroom.
const MAX_SPAN_EVENTS: usize = 2 * MAX_EVENTS;

#[derive(Default)]
struct Registry {
    root: Node,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    span_events: Vec<SpanEvent>,
    span_events_dropped: u64,
}

/// The instant the first traced event was recorded; all `ts_us` values are
/// relative to it. Deliberately never reset: Chrome traces only need a
/// consistent monotonic origin within one process.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

fn trace_ts_us() -> u64 {
    TRACE_EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense per-thread id for trace events (thread 1 is whichever
    /// thread traces first).
    static TRACE_TID: Cell<u64> = const { Cell::new(0) };
}

fn trace_tid() -> u64 {
    TRACE_TID.with(|tid| {
        let mut t = tid.get();
        if t == 0 {
            t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            tid.set(t);
        }
        t
    })
}

fn push_span_event(name: &str, phase: char) {
    let seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_us = trace_ts_us();
    let tid = trace_tid();
    let mut reg = lock();
    if reg.span_events.len() >= MAX_SPAN_EVENTS {
        reg.span_events_dropped += 1;
        return;
    }
    reg.span_events.push(SpanEvent {
        seq,
        name: name.to_owned(),
        phase,
        ts_us,
        tid,
    });
}

/// The span-event log gathered so far (plus how many events overflowed the
/// in-memory bound).
pub(crate) fn span_events() -> (Vec<SpanEvent>, u64) {
    let reg = lock();
    (reg.span_events.clone(), reg.span_events_dropped)
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    root: Node {
        stats: SpanStats {
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
        },
        children: BTreeMap::new(),
    },
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
    events: Vec::new(),
    events_dropped: 0,
    span_events: Vec::new(),
    span_events_dropped: 0,
});

static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard returned by [`crate::span`].
#[must_use = "a span is timed until the guard drops"]
pub struct SpanGuard {
    start: Option<Instant>,
    /// Whether a `B` span event was emitted at open (so the matching `E`
    /// is emitted at drop even if tracing toggles off in between).
    traced: bool,
}

impl SpanGuard {
    pub(crate) fn noop() -> SpanGuard {
        SpanGuard {
            start: None,
            traced: false,
        }
    }
}

pub(crate) fn open_span(name: &str) -> SpanGuard {
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name.to_owned()));
    let traced = crate::tracing();
    if traced {
        push_span_event(name, 'B');
    }
    SpanGuard {
        start: Some(Instant::now()),
        traced,
    }
}

impl SpanStats {
    /// Merges one closing of `elapsed_ns` into the aggregate.
    fn merge_closing(&mut self, elapsed_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path: Vec<String> = stack.clone();
            stack.pop();
            path
        });
        if self.traced {
            // Emit the matching `E` even when tracing was toggled off while
            // the span was open, so B/E pairs always balance.
            push_span_event(path.last().map_or("?", |s| s.as_str()), 'E');
        }
        if path.is_empty() {
            // Unbalanced guard (e.g. dropped after a `reset` raced the
            // stack); nothing sensible to record.
            return;
        }
        let mut reg = lock();
        let mut node = &mut reg.root;
        for name in &path {
            node = node.children.entry(name.clone()).or_default();
        }
        node.stats.merge_closing(elapsed_ns);
    }
}

/// Registers an empty histogram so it shows up in snapshots (with
/// `count == 0` and zeroed min/max) even if nothing is ever recorded.
pub(crate) fn declare_histogram(name: &str) {
    let mut reg = lock();
    reg.histograms.entry(name.to_owned()).or_default();
}

pub(crate) fn add_counter(name: &str, delta: u64) {
    let mut reg = lock();
    match reg.counters.get_mut(name) {
        Some(v) => *v = v.saturating_add(delta),
        None => {
            reg.counters.insert(name.to_owned(), delta);
        }
    }
}

pub(crate) fn record_histogram(name: &str, value: u64) {
    let mut reg = lock();
    match reg.histograms.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::default();
            h.record(value);
            reg.histograms.insert(name.to_owned(), h);
        }
    }
}

pub(crate) fn push_event(message: String) {
    let seq = EVENT_SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_us = trace_ts_us();
    let tid = trace_tid();
    let mut reg = lock();
    // Mirror the message into the span-event log as a Chrome `i` (instant)
    // event so exported timelines carry the discrete markers too.
    if reg.span_events.len() >= MAX_SPAN_EVENTS {
        reg.span_events_dropped += 1;
    } else {
        reg.span_events.push(SpanEvent {
            seq,
            name: message.clone(),
            phase: 'i',
            ts_us,
            tid,
        });
    }
    if reg.events.len() >= MAX_EVENTS {
        reg.events_dropped += 1;
        return;
    }
    reg.events.push(TraceEvent { seq, message });
}

pub(crate) fn reset() {
    let mut reg = lock();
    reg.root = Node::default();
    reg.counters.clear();
    reg.histograms.clear();
    reg.events.clear();
    reg.events_dropped = 0;
    reg.span_events.clear();
    reg.span_events_dropped = 0;
}

pub(crate) fn snapshot() -> Snapshot {
    let reg = lock();
    Snapshot {
        spans: freeze_children(&reg.root),
        counters: reg.counters.clone(),
        histograms: reg
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.freeze()))
            .collect(),
        events: reg.events.clone(),
        events_dropped: reg.events_dropped,
    }
}

fn freeze_children(node: &Node) -> Vec<SpanNode> {
    node.children
        .iter()
        .map(|(name, child)| SpanNode {
            name: name.clone(),
            count: child.stats.count,
            total_ns: child.stats.total_ns,
            min_ns: child.stats.min_ns,
            max_ns: child.stats.max_ns,
            children: freeze_children(child),
        })
        .collect()
}
