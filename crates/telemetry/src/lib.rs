//! Workspace-wide instrumentation for the safety-study toolchain.
//!
//! The paper's headline claims are quantitative — detector precision and
//! analysis cost — so every hot layer of this reproduction (detectors,
//! dataflow engines, the interpreter, the unsafe scanner) reports where its
//! time goes through this crate:
//!
//! * **Spans** — hierarchical wall-clock timing. [`span`] returns an RAII
//!   guard; nesting follows the per-thread call structure automatically.
//! * **Counters** — monotonic event counts ([`counter`]).
//! * **Histograms** — value distributions with power-of-two buckets
//!   ([`record`]).
//! * **Trace events** — an ordered in-memory event log for `--trace`
//!   ([`trace`]), built lazily so disabled tracing costs one atomic load.
//!
//! Everything funnels into one global [`Registry`]. When telemetry is
//! disabled (the default) every entry point reduces to a relaxed atomic
//! load and an early return, so instrumented code is safe to ship in hot
//! paths. [`snapshot`] freezes the registry into a serializable
//! [`Snapshot`] for `--profile` text rendering or `--metrics-json` export.
//!
//! ```
//! rstudy_telemetry::reset();
//! rstudy_telemetry::enable();
//! {
//!     let _outer = rstudy_telemetry::span("check");
//!     let _inner = rstudy_telemetry::span("detector.use-after-free");
//!     rstudy_telemetry::counter("findings", 2);
//! }
//! let snap = rstudy_telemetry::snapshot();
//! assert_eq!(snap.counters["findings"], 2);
//! assert_eq!(snap.spans[0].children[0].name, "detector.use-after-free");
//! ```

mod registry;
mod snapshot;

pub use registry::{LocalHistogram, SpanGuard, TraceEvent};
pub use snapshot::{
    prometheus_name, write_histogram_series, HistogramSnapshot, Snapshot, SpanNode,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns metric collection off (guards already open still record on drop).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether metric collection is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the trace event log on or off. Tracing implies metrics: trace
/// events are only gathered while telemetry is [`enabled`].
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether the trace event log is on.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed) && enabled()
}

/// Opens a timing span. The returned guard records the span's wall-clock
/// duration into the global registry when dropped; spans opened while this
/// one is live (on the same thread) become its children.
///
/// When telemetry is disabled this is a no-op costing one atomic load.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if enabled() {
        registry::open_span(name)
    } else {
        SpanGuard::noop()
    }
}

/// Like [`span`], but builds the name lazily: `build` only runs when
/// telemetry is enabled, so hot call sites with dynamic names (e.g.
/// `format!("detector.{name}")`) allocate nothing while disabled.
#[inline]
pub fn span_with<F: FnOnce() -> String>(build: F) -> SpanGuard {
    if enabled() {
        registry::open_span(&build())
    } else {
        SpanGuard::noop()
    }
}

/// Adds `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if enabled() && delta > 0 {
        registry::add_counter(name, delta);
    }
}

/// Like [`counter`], but builds the name lazily: `build` only runs when
/// telemetry is enabled and `delta > 0`.
#[inline]
pub fn counter_with<F: FnOnce() -> String>(build: F, delta: u64) {
    if enabled() && delta > 0 {
        registry::add_counter(&build(), delta);
    }
}

/// Records one observation into the named histogram.
#[inline]
pub fn record(name: &str, value: u64) {
    if enabled() {
        registry::record_histogram(name, value);
    }
}

/// Like [`record`], but builds the name lazily: `build` only runs when
/// telemetry is enabled.
#[inline]
pub fn record_with<F: FnOnce() -> String>(build: F, value: u64) {
    if enabled() {
        registry::record_histogram(&build(), value);
    }
}

/// Registers the named histogram so it appears in snapshots even when no
/// sample is ever recorded (count 0, min/max serialized as 0).
#[inline]
pub fn declare_histogram(name: &str) {
    if enabled() {
        registry::declare_histogram(name);
    }
}

/// Appends a trace event; `build` runs only when tracing is on.
#[inline]
pub fn trace<F: FnOnce() -> String>(build: F) {
    if tracing() {
        registry::push_event(build());
    }
}

/// Clears all recorded metrics and trace events (the enabled/tracing flags
/// are left as-is).
pub fn reset() {
    registry::reset();
}

/// Freezes the current registry contents into a serializable snapshot.
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

/// Renders the current registry as the human-readable `--profile` report.
pub fn render_profile() -> String {
    snapshot().render()
}

/// Serializes the current registry as pretty-printed JSON (the
/// `--metrics-json` payload).
pub fn to_json() -> String {
    serde_json::to_string_pretty(&snapshot()).expect("metrics serialization cannot fail")
}

/// Serializes the span-event log gathered while tracing was on as a Chrome
/// trace-event JSON array (the `--trace-out` payload): one `B`/`E` pair per
/// span closing, one `i` event per trace message, with microsecond
/// timestamps and per-thread lanes. The file opens directly in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json() -> String {
    let (events, _dropped) = registry::span_events();
    snapshot::chrome_trace(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Duration;

    /// The registry is global, so tests serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fresh() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        set_tracing(false);
        guard
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let _lock = fresh();
        disable();
        {
            let _g = span("ignored");
            counter("ignored", 5);
            record("ignored", 1);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn span_nesting_follows_call_structure() {
        let _lock = fresh();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 1);
        let outer = &snap.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].count, 2);
    }

    #[test]
    fn span_timing_is_monotonic_and_bounded() {
        let _lock = fresh();
        {
            let _outer = span("timed");
            {
                let _inner = span("sleep");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let snap = snapshot();
        let outer = &snap.spans[0];
        let inner = &outer.children[0];
        assert!(
            inner.total_ns >= 5_000_000,
            "inner {} < 5ms",
            inner.total_ns
        );
        assert!(
            outer.total_ns >= inner.total_ns,
            "parent {} < child {}",
            outer.total_ns,
            inner.total_ns
        );
        assert!(inner.min_ns <= inner.max_ns);
        assert!(inner.max_ns <= inner.total_ns);
    }

    #[test]
    fn counters_accumulate_atomically_across_threads() {
        let _lock = fresh();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter("threads.increments", 1);
                    }
                });
            }
        });
        assert_eq!(snapshot().counters["threads.increments"], 8000);
    }

    #[test]
    fn spans_from_other_threads_attach_at_root() {
        let _lock = fresh();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span("worker");
                });
            }
        });
        let snap = snapshot();
        let worker = snap.spans.iter().find(|n| n.name == "worker").unwrap();
        assert_eq!(worker.count, 4);
    }

    #[test]
    fn histograms_track_distribution() {
        let _lock = fresh();
        for v in [1u64, 2, 3, 100] {
            record("hist", v);
        }
        let snap = snapshot();
        let h = &snap.histograms["hist"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 106);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), 4);
    }

    #[test]
    fn trace_events_preserve_order_and_laziness() {
        let _lock = fresh();
        let mut built = 0;
        trace(|| {
            built += 1;
            String::from("dropped: tracing off")
        });
        assert_eq!(built, 0);
        set_tracing(true);
        trace(|| String::from("first"));
        trace(|| String::from("second"));
        set_tracing(false);
        let snap = snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].message, "first");
        assert_eq!(snap.events[1].message, "second");
        assert!(snap.events[0].seq < snap.events[1].seq);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let _lock = fresh();
        {
            let _g = span("roundtrip");
            counter("roundtrip.count", 3);
            record("roundtrip.hist", 42);
        }
        let json = to_json();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters["roundtrip.count"], 3);
        assert_eq!(back.spans[0].name, "roundtrip");
        assert_eq!(back.histograms["roundtrip.hist"].count, 1);
    }

    #[test]
    fn render_mentions_all_sections() {
        let _lock = fresh();
        {
            let _g = span("rendered");
            counter("rendered.counter", 1);
        }
        let text = render_profile();
        assert!(text.contains("rendered"));
        assert!(text.contains("counters"));
    }

    #[test]
    fn lazy_name_builders_never_run_while_disabled() {
        let _lock = fresh();
        disable();
        let mut built = 0;
        {
            let _g = span_with(|| {
                built += 1;
                String::from("lazy.span")
            });
        }
        counter_with(
            || {
                built += 1;
                String::from("lazy.counter")
            },
            7,
        );
        record_with(
            || {
                built += 1;
                String::from("lazy.hist")
            },
            7,
        );
        assert_eq!(built, 0, "no name may be built while disabled");
        enable();
        // A zero delta also skips the counter name build.
        counter_with(
            || {
                built += 1;
                String::from("lazy.counter")
            },
            0,
        );
        assert_eq!(built, 0);
        counter_with(|| String::from("lazy.counter"), 2);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.counters["lazy.counter"], 2);
    }

    #[test]
    fn zero_sample_histogram_serializes_without_sentinels() {
        let _lock = fresh();
        declare_histogram("declared.but.empty");
        let snap = snapshot();
        let h = &snap.histograms["declared.but.empty"];
        assert_eq!(h.count, 0);
        assert_eq!(h.min, 0, "zero-count min must not leak a sentinel");
        assert_eq!(h.max, 0);
        assert!(h.buckets.is_empty());
        let back: Snapshot = serde_json::from_str(&to_json()).unwrap();
        assert_eq!(back.histograms["declared.but.empty"].min, 0);
        // Declaring is idempotent and does not clobber samples.
        record("declared.but.empty", 9);
        declare_histogram("declared.but.empty");
        let h = snapshot().histograms["declared.but.empty"].clone();
        assert_eq!((h.count, h.min, h.max), (1, 9, 9));
    }

    #[test]
    fn zero_sample_histogram_quantiles_are_zero() {
        let h = LocalHistogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(1.0), 0);
        assert_eq!(snap.mean(), 0);
    }

    #[test]
    fn one_shot_histogram_quantiles_answer_the_observation() {
        // A single sample lands in one bucket; min==max clamps the bucket
        // midpoint to exactly the observed value.
        for v in [0u64, 1, 7, 900, u64::MAX] {
            let h = LocalHistogram::new();
            h.record(v);
            let snap = h.snapshot();
            assert_eq!(snap.p50(), v, "p50 of one-shot {v}");
            assert_eq!(snap.p99(), v, "p99 of one-shot {v}");
        }
    }

    #[test]
    fn saturated_single_bucket_histogram_stays_within_bounds() {
        // Many samples, all in the `le=1023` bucket (values 512..=1023).
        let h = LocalHistogram::new();
        for i in 0..1000u64 {
            h.record(512 + (i % 512));
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), 1, "expected a single bucket");
        let mid = snap.p50();
        assert!((512..=1023).contains(&mid), "p50 {mid} left the bucket");
        assert_eq!(snap.p50(), snap.p99(), "one bucket -> one estimate");
        assert!(snap.p99() >= snap.min && snap.p99() <= snap.max);
    }

    #[test]
    fn quantiles_are_monotone_across_buckets() {
        let h = LocalHistogram::new();
        for _ in 0..89 {
            h.record(10); // le=15 bucket holds ranks 1..=89
        }
        for _ in 0..9 {
            h.record(1000); // le=1023 bucket holds ranks 90..=98
        }
        for _ in 0..2 {
            h.record(1_000_000); // le=2^20-1 bucket holds ranks 99..=100
        }
        let snap = h.snapshot();
        let (p50, p90, p99) = (snap.p50(), snap.p90(), snap.p99());
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!((8..=15).contains(&p50), "p50 {p50} should sit in 8..=15");
        assert!(
            (512..=1023).contains(&p90),
            "p90 {p90} should sit in 512..=1023"
        );
        assert!(p99 >= 524_288, "p99 {p99} should reach the top bucket");
        // The global-registry path produces the same estimates.
        let _lock = fresh();
        for _ in 0..89 {
            record("quant", 10);
        }
        for _ in 0..9 {
            record("quant", 1000);
        }
        for _ in 0..2 {
            record("quant", 1_000_000);
        }
        let g = &snapshot().histograms["quant"];
        assert_eq!((g.p50(), g.p90(), g.p99()), (p50, p90, p99));
    }

    #[test]
    fn local_histogram_counts_across_threads() {
        let h = LocalHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..100 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 400);
        let snap = h.snapshot();
        assert_eq!(snap.count, 400);
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 400);
    }

    #[test]
    fn chrome_trace_has_balanced_b_e_pairs_and_instants() {
        let _lock = fresh();
        set_tracing(true);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            trace(|| String::from("marker"));
        }
        set_tracing(false);
        let json = chrome_trace_json();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let events = v.as_array().expect("chrome trace is a JSON array");
        let ph = |e: &serde::Value| {
            e.get("ph")
                .and_then(serde::Value::as_str)
                .unwrap()
                .to_owned()
        };
        let begins = events.iter().filter(|e| ph(e) == "B").count();
        let ends = events.iter().filter(|e| ph(e) == "E").count();
        let instants = events.iter().filter(|e| ph(e) == "i").count();
        assert_eq!(begins, 2, "{json}");
        assert_eq!(ends, 2, "{json}");
        assert_eq!(instants, 1, "{json}");
        for e in events {
            assert!(e.get("name").and_then(serde::Value::as_str).is_some());
            assert!(e.get("ts").and_then(serde::Value::as_u64).is_some());
            assert!(e.get("tid").and_then(serde::Value::as_u64).is_some());
            assert!(e.get("pid").and_then(serde::Value::as_u64).is_some());
        }
        // Nesting: inner closes before outer.
        let names: Vec<(String, String)> = events
            .iter()
            .filter(|e| ph(e) != "i")
            .map(|e| {
                (
                    ph(e),
                    e.get("name")
                        .and_then(serde::Value::as_str)
                        .unwrap()
                        .to_owned(),
                )
            })
            .collect();
        assert_eq!(
            names,
            [
                ("B".to_owned(), "outer".to_owned()),
                ("B".to_owned(), "inner".to_owned()),
                ("E".to_owned(), "inner".to_owned()),
                ("E".to_owned(), "outer".to_owned()),
            ]
        );
    }

    #[test]
    fn spans_opened_while_tracing_off_emit_no_chrome_events() {
        let _lock = fresh();
        {
            let _g = span("untraced");
        }
        let json = chrome_trace_json();
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.as_array().map(Vec::len), Some(0), "{json}");
    }

    #[test]
    fn reset_clears_everything() {
        let _lock = fresh();
        {
            let _g = span("gone");
            counter("gone", 1);
        }
        reset();
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
    }
}
