//! Frozen, serializable views of the registry, plus the `--profile` text
//! rendering.
//!
//! The JSON schema (via `serde_json::to_string_pretty`):
//!
//! ```json
//! {
//!   "spans": [
//!     { "name": "check", "count": 1, "total_ns": 123, "min_ns": 123,
//!       "max_ns": 123, "children": [ ... ] }
//!   ],
//!   "counters": { "detector.use-after-free.findings": 4 },
//!   "histograms": {
//!     "interp.run.steps": { "count": 1, "sum": 900, "min": 900, "max": 900,
//!                            "buckets": [ { "le": 1023, "count": 1 } ] }
//!   },
//!   "events": [ { "seq": 0, "message": "..." } ],
//!   "events_dropped": 0
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::registry::TraceEvent;

/// Aggregated timings of one span name at one tree position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name as passed to [`crate::span`].
    pub name: String,
    /// Times the span closed.
    pub count: u64,
    /// Summed wall-clock nanoseconds across closings.
    pub total_ns: u64,
    /// Fastest single closing, in nanoseconds.
    pub min_ns: u64,
    /// Slowest single closing, in nanoseconds.
    pub max_ns: u64,
    /// Spans opened while this one was live (same thread), sorted by name.
    pub children: Vec<SpanNode>,
}

/// One histogram bucket: values `<= le` (and greater than the prior
/// bucket's `le`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Frozen histogram contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty power-of-two buckets in increasing `le` order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the power-of-two
    /// buckets.
    ///
    /// The estimate is the midpoint of the bucket containing the target
    /// rank, clamped to the observed `[min, max]` — so an empty histogram
    /// answers 0, a single-observation histogram answers exactly that
    /// observation, and no estimate can fall outside what was measured.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= target {
                // Bucket `le = 2^i - 1` spans `[2^(i-1), 2^i - 1]`; the
                // `le/2 + 1` form avoids overflow at `le == u64::MAX`.
                let lo = if b.le == 0 { 0 } else { b.le / 2 + 1 };
                let mid = lo + (b.le - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A frozen copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Root spans (each thread's outermost spans), sorted by name.
    pub spans: Vec<SpanNode>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Trace event log in global order (empty unless tracing was on).
    pub events: Vec<TraceEvent>,
    /// Events discarded after the log reached its in-memory bound.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Renders the human-readable `--profile` report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("── telemetry ──────────────────────────────────────────\n");
        if self.spans.is_empty() {
            out.push_str("spans: (none recorded)\n");
        } else {
            out.push_str("spans:\n");
            for node in &self.spans {
                render_span(&mut out, node, 1);
            }
        }
        out.push_str("counters:\n");
        if self.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<48} {value}");
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {name:<48} n={} min={} mean={} max={}",
                    h.count, h.min, mean, h.max
                );
            }
        }
        if !self.events.is_empty() || self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "trace events: {} recorded, {} dropped",
                self.events.len(),
                self.events_dropped
            );
        }
        out
    }

    /// Flattens the span tree to `(depth, node)` pairs, preorder.
    pub fn iter_spans(&self) -> Vec<(usize, &SpanNode)> {
        let mut out = Vec::new();
        fn walk<'a>(nodes: &'a [SpanNode], depth: usize, out: &mut Vec<(usize, &'a SpanNode)>) {
            for n in nodes {
                out.push((depth, n));
                walk(&n.children, depth + 1, out);
            }
        }
        walk(&self.spans, 0, &mut out);
        out
    }

    /// Looks up a span node by slash-separated path (e.g. `"check/detector.heap"`).
    pub fn span_at(&self, path: &str) -> Option<&SpanNode> {
        let mut nodes = &self.spans;
        let mut found = None;
        for part in path.split('/') {
            let node = nodes.iter().find(|n| n.name == part)?;
            nodes = &node.children;
            found = Some(node);
        }
        found
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (format version 0.0.4)
// ---------------------------------------------------------------------------

/// Converts a dotted registry metric name (`serve.queue_depth`) into a
/// Prometheus-legal one under `prefix` (`rstudy_serve_queue_depth`): every
/// character outside `[a-zA-Z0-9_:]` becomes `_`.
pub fn prometheus_name(prefix: &str, raw: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + raw.len());
    out.push_str(prefix);
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Appends one histogram's `_bucket`/`_sum`/`_count` series to `out`.
///
/// The registry's power-of-two buckets are sparse per-bucket counts; the
/// exposition format wants cumulative counts per `le` upper bound, closed
/// by a `+Inf` bucket equal to `_count`. `labels` is either empty or a
/// comma-joined `key="value"` list without braces (the `le` label is
/// appended after it). Emits no `# TYPE` header — the caller owns that,
/// since a family with several label sets must declare its type once.
pub fn write_histogram_series(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let with = |extra: String| {
        if labels.is_empty() {
            format!("{{{extra}}}")
        } else {
            format!("{{{labels},{extra}}}")
        }
    };
    let plain = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let mut cumulative = 0u64;
    for b in &h.buckets {
        cumulative += b.count;
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            with(format!("le=\"{}\"", b.le))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        with("le=\"+Inf\"".into()),
        h.count
    );
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
}

impl Snapshot {
    /// Renders counters and histograms in the Prometheus text exposition
    /// format, every metric name sanitized under `prefix`. Counters gain
    /// the conventional `_total` suffix; histograms become cumulative
    /// `_bucket`/`_sum`/`_count` series. Spans and trace events have no
    /// exposition-format equivalent and are omitted.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = format!("{}_total", prometheus_name(prefix, name));
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, h) in &self.histograms {
            let metric = prometheus_name(prefix, name);
            let _ = writeln!(out, "# TYPE {metric} histogram");
            write_histogram_series(&mut out, &metric, "", h);
        }
        out
    }
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "{label:<50} {:>10}  ×{}",
        format_ns(node.total_ns),
        node.count
    );
    for child in &node.children {
        render_span(out, child, depth + 1);
    }
}

/// Renders span events as a Chrome trace-event JSON array — the format
/// `chrome://tracing` and Perfetto open directly. Durations are `B`/`E`
/// pairs; instant trace messages become `i` events with thread scope.
pub(crate) fn chrome_trace(events: &[crate::registry::SpanEvent]) -> String {
    use serde::Value;
    let arr: Vec<Value> = events
        .iter()
        .map(|e| {
            let mut m = vec![
                ("name".to_owned(), Value::Str(e.name.clone())),
                ("cat".to_owned(), Value::Str("rstudy".to_owned())),
                ("ph".to_owned(), Value::Str(e.phase.to_string())),
                ("ts".to_owned(), Value::UInt(e.ts_us)),
                ("pid".to_owned(), Value::UInt(1)),
                ("tid".to_owned(), Value::UInt(e.tid)),
            ];
            if e.phase == 'i' {
                m.push(("s".to_owned(), Value::Str("t".to_owned())));
            }
            Value::Map(m)
        })
        .collect();
    serde_json::to_string(&Value::Seq(arr)).expect("chrome trace serialization cannot fail")
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_histogram() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 7,
            sum: 100,
            min: 1,
            max: 40,
            buckets: vec![
                BucketCount { le: 1, count: 2 },
                BucketCount { le: 15, count: 4 },
                BucketCount { le: 63, count: 1 },
            ],
        }
    }

    #[test]
    fn prometheus_names_are_sanitized_under_the_prefix() {
        assert_eq!(
            prometheus_name("rstudy_", "serve.cache-hits"),
            "rstudy_serve_cache_hits"
        );
        assert_eq!(prometheus_name("", "a:b_c9"), "a:b_c9");
    }

    #[test]
    fn histogram_series_are_cumulative_and_closed_by_inf() {
        let mut out = String::new();
        write_histogram_series(&mut out, "m", "", &sample_histogram());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "m_bucket{le=\"1\"} 2");
        assert_eq!(lines[1], "m_bucket{le=\"15\"} 6");
        assert_eq!(lines[2], "m_bucket{le=\"63\"} 7");
        assert_eq!(lines[3], "m_bucket{le=\"+Inf\"} 7");
        assert_eq!(lines[4], "m_sum 100");
        assert_eq!(lines[5], "m_count 7");
    }

    #[test]
    fn labeled_series_put_le_after_the_caller_labels() {
        let mut out = String::new();
        write_histogram_series(&mut out, "m", "detector=\"uaf\"", &sample_histogram());
        assert!(
            out.contains("m_bucket{detector=\"uaf\",le=\"+Inf\"} 7"),
            "{out}"
        );
        assert!(out.contains("m_sum{detector=\"uaf\"} 100"), "{out}");
    }

    #[test]
    fn snapshot_exposition_declares_each_family_once() {
        let snap = Snapshot {
            spans: Vec::new(),
            counters: [("serve.requests".to_owned(), 3u64)].into_iter().collect(),
            histograms: [("serve.request_ns".to_owned(), sample_histogram())]
                .into_iter()
                .collect(),
            events: Vec::new(),
            events_dropped: 0,
        };
        let text = snap.to_prometheus("rstudy_");
        assert!(text.contains("# TYPE rstudy_serve_requests_total counter"));
        assert!(text.contains("rstudy_serve_requests_total 3"));
        assert!(text.contains("# TYPE rstudy_serve_request_ns histogram"));
        assert!(text.contains("rstudy_serve_request_ns_count 7"));
        assert_eq!(text.matches("# TYPE").count(), 2);
    }
}
