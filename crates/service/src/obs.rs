//! The service's continuous observability plane.
//!
//! Three always-on mechanisms, all designed to stay off the request hot
//! path:
//!
//! * [`AccessLog`] — one JSON line per completed check request, written
//!   by a dedicated logger thread behind a bounded channel. The hot path
//!   only `try_send`s; a full channel drops the line and counts the drop
//!   instead of blocking a worker or the event loop. `sample` keeps every
//!   Nth request for high-traffic deployments. The channel is closed and
//!   the writer joined (hence flushed) during graceful drain.
//! * [`FlightRecorder`] — a bounded incident buffer. A request whose
//!   total latency exceeds `--slow-ms`, or that timed out or panicked, is
//!   promoted into it with its span timeline and can be dumped as
//!   Chrome-trace JSON (`{"cmd":"incidents"}`, and at shutdown) — the
//!   postmortem view of exactly the p99 outliers scrape-time snapshots
//!   miss. Requests that are not promoted leave nothing behind.
//! * [`DetectorStats`] — per-detector latency histograms and finding
//!   counters, recorded from the suite's timed runs whether or not global
//!   telemetry is enabled. Exposed identically by the `metrics` NDJSON
//!   command and the Prometheus `/metrics` families so the two surfaces
//!   cannot drift.
//!
//! Every admitted check carries one [`CheckRecord`]: minted at admission,
//! completed with the stages its worker timed, and settled once. The
//! response's `timing` and `trace`, the access-log line, the incident
//! timeline and the latency-histogram sample all render from that record
//! and one `total_ns`. Status counters (`rstudy_responses_total`) count
//! answers, once per admitted check; the work histograms count work done,
//! discarded work included. The module also holds the scrape endpoint's minimal HTTP/1.0
//! plumbing: head parsing and response framing, no dependencies.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime};

use rstudy_telemetry::{HistogramSnapshot, LocalHistogram};
use serde::Value;

// ---------------------------------------------------------------------------
// Access log
// ---------------------------------------------------------------------------

/// Bound of the logger channel. Deep enough to absorb bursts; beyond it
/// lines are dropped (and counted) rather than backpressuring workers.
const ACCESS_LOG_QUEUE: usize = 4096;

/// The structured access log: a bounded channel in front of a dedicated
/// writer thread appending JSON lines to a file.
pub(crate) struct AccessLog {
    tx: Mutex<Option<mpsc::SyncSender<String>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    sample: u64,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl AccessLog {
    /// Opens (append mode) the log file and starts the writer thread.
    /// `sample` keeps every Nth completed request (1 = all).
    pub fn open(path: &Path, sample: u64) -> io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let (tx, rx) = mpsc::sync_channel::<String>(ACCESS_LOG_QUEUE);
        let writer = std::thread::spawn(move || {
            let mut out = BufWriter::new(file);
            while let Ok(line) = rx.recv() {
                let _ = out.write_all(line.as_bytes());
            }
            let _ = out.flush();
        });
        Ok(AccessLog {
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
            sample: sample.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Logs one completed request. The sampling decision happens before
    /// `build` runs (an unsampled request never serializes anything), and
    /// a full channel drops the line — the hot path never blocks.
    pub fn record(&self, build: impl FnOnce() -> String) {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample) {
            return;
        }
        let line = build();
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            return;
        };
        if tx.try_send(line).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lines dropped because the channel was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Closes the channel and joins the writer, flushing every accepted
    /// line — the drain-time guarantee. Idempotent.
    pub fn shutdown(&self) {
        self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
        let handle = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// Serializes one access-log line (with trailing newline) from a settled
/// check: wall-clock timestamp, trace id, status, cache disposition, the
/// record's derived stage nanoseconds and `total_ns`, the canonical
/// detector set, and the connection token.
pub(crate) fn access_line(conn: u64, record: &CheckRecord, status: &str, total_ns: u64) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let cache = match record.cache {
        Some(c) => Value::Str(c.to_owned()),
        None => Value::Null,
    };
    let mut line = serde_json::to_string(&Value::Map(vec![
        ("ts_ms".to_owned(), Value::UInt(ts_ms)),
        ("trace_id".to_owned(), Value::UInt(record.trace_id)),
        ("cmd".to_owned(), Value::Str("check".to_owned())),
        ("status".to_owned(), Value::Str(status.to_owned())),
        ("cache".to_owned(), cache),
        ("queue_ns".to_owned(), Value::UInt(record.queue_ns())),
        ("analysis_ns".to_owned(), Value::UInt(record.analysis_ns())),
        ("total_ns".to_owned(), Value::UInt(total_ns)),
        (
            "detectors".to_owned(),
            Value::Seq(record.detectors.iter().cloned().map(Value::Str).collect()),
        ),
        ("conn".to_owned(), Value::UInt(conn)),
    ]))
    .expect("access line serialization cannot fail");
    line.push('\n');
    line
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Bound of the promoted-incident buffer; promotions beyond it are
/// counted but not retained.
pub(crate) const INCIDENT_CAP: usize = 32;

/// One stage of a request's lifecycle; offsets are nanoseconds from
/// admission.
#[derive(Debug, Clone)]
pub(crate) struct Stage {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the service records about one admitted check. The front end
/// mints it at admission and fills in what it resolves (detector set,
/// cache disposition); the worker's completion adds the stages it timed.
/// `settle_check` measures `total_ns` once and renders the response, the
/// access-log line and the incident timeline from the record.
pub(crate) struct CheckRecord {
    pub trace_id: u64,
    /// Admission instant: `total_ns` and every stage offset start here.
    pub admitted: Instant,
    /// The canonical detector set; empty until it is resolved.
    pub detectors: Vec<String>,
    /// The cache lookup's outcome, `"hit"` or `"miss"`; `None` only when
    /// the check failed before the lookup.
    pub cache: Option<&'static str>,
    /// The stages the worker timed: `queue`, then `delay`, `parse` and
    /// `check` as far as the job got.
    pub stages: Vec<Stage>,
}

impl CheckRecord {
    /// A freshly admitted check: nothing resolved, nothing timed.
    pub fn new(trace_id: u64, admitted: Instant) -> CheckRecord {
        CheckRecord {
            trace_id,
            admitted,
            detectors: Vec::new(),
            cache: None,
            stages: Vec::new(),
        }
    }

    /// Nanoseconds spent in the named stage (0 if it never ran).
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end_ns.saturating_sub(s.start_ns))
    }

    /// Time the job waited in the bounded queue.
    pub fn queue_ns(&self) -> u64 {
        self.stage_ns("queue")
    }

    /// Parse + validate + detector-suite time.
    pub fn analysis_ns(&self) -> u64 {
        self.stage_ns("parse") + self.stage_ns("check")
    }
}

/// The per-stage trace of one promoted request.
#[derive(Debug, Clone)]
pub(crate) struct RequestTimeline {
    pub trace_id: u64,
    pub status: &'static str,
    /// Why the timeline was promoted: `slow`, `timeout` or `panic`.
    pub reason: &'static str,
    pub total_ns: u64,
    pub stages: Vec<Stage>,
}

/// The bounded incident buffer slow, timed-out and panicked requests are
/// promoted into.
pub(crate) struct FlightRecorder {
    slow_ns: Option<u64>,
    incidents: Mutex<Vec<RequestTimeline>>,
    promoted: AtomicU64,
}

impl FlightRecorder {
    /// `slow_ms` is the promotion threshold (`--slow-ms`); `None` promotes
    /// only timeouts and panics.
    pub fn new(slow_ms: Option<u64>) -> FlightRecorder {
        FlightRecorder {
            slow_ns: slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            incidents: Mutex::new(Vec::new()),
            promoted: AtomicU64::new(0),
        }
    }

    fn promotion_reason(
        &self,
        status: &str,
        panicked: bool,
        total_ns: u64,
    ) -> Option<&'static str> {
        if panicked {
            return Some("panic");
        }
        if status == "timeout" {
            return Some("timeout");
        }
        match self.slow_ns {
            Some(limit) if total_ns > limit => Some("slow"),
            _ => None,
        }
    }

    /// Promotes one settled check to the incident buffer when it is slow,
    /// timed out, or panicked.
    pub fn record(
        &self,
        record: &CheckRecord,
        status: &'static str,
        panicked: bool,
        total_ns: u64,
    ) {
        let Some(reason) = self.promotion_reason(status, panicked, total_ns) else {
            return;
        };
        self.promoted.fetch_add(1, Ordering::Relaxed);
        let mut incidents = self.incidents.lock().unwrap_or_else(|e| e.into_inner());
        if incidents.len() < INCIDENT_CAP {
            incidents.push(RequestTimeline {
                trace_id: record.trace_id,
                status,
                reason,
                total_ns,
                stages: record.stages.clone(),
            });
        }
    }

    /// Incidents currently retained in the buffer.
    pub fn incident_count(&self) -> usize {
        self.incidents
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Total promotions, including those dropped past [`INCIDENT_CAP`].
    pub fn promoted(&self) -> u64 {
        self.promoted.load(Ordering::Relaxed)
    }

    /// The incident buffer as a Chrome trace-event array: one `tid` lane
    /// per request, an outer B/E pair spanning the whole latency, nested
    /// B/E pairs per stage (timestamps in microseconds, Chrome's unit).
    pub fn chrome_trace(&self) -> Value {
        let incidents = self.incidents.lock().unwrap_or_else(|e| e.into_inner());
        let mut events = Vec::new();
        for t in incidents.iter() {
            let label = format!("request #{}: {} ({})", t.trace_id, t.status, t.reason);
            push_span(&mut events, &label, t.trace_id, 0, t.total_ns);
            for s in &t.stages {
                push_span(&mut events, s.name, t.trace_id, s.start_ns, s.end_ns);
            }
        }
        Value::Seq(events)
    }
}

/// Appends a balanced B/E pair for one span.
fn push_span(events: &mut Vec<Value>, name: &str, tid: u64, start_ns: u64, end_ns: u64) {
    let event = |ph: &str, ts_ns: u64| {
        Value::Map(vec![
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("cat".to_owned(), Value::Str("rstudy-serve".to_owned())),
            ("ph".to_owned(), Value::Str(ph.to_owned())),
            ("ts".to_owned(), Value::UInt(ts_ns / 1_000)),
            ("pid".to_owned(), Value::UInt(1)),
            ("tid".to_owned(), Value::UInt(tid)),
        ])
    };
    events.push(event("B", start_ns));
    events.push(event("E", end_ns.max(start_ns)));
}

// ---------------------------------------------------------------------------
// Per-detector statistics
// ---------------------------------------------------------------------------

#[derive(Default)]
struct DetectorStat {
    runs: u64,
    findings: u64,
    latency: LocalHistogram,
}

/// One detector's frozen row in a [`DetectorStats::snapshot`].
pub(crate) struct DetectorStatSnapshot {
    pub name: String,
    pub runs: u64,
    pub findings: u64,
    pub latency_ns: HistogramSnapshot,
}

/// Always-on per-detector latency histograms and finding counters,
/// recorded from the suite's timed runs. Both the `metrics` NDJSON
/// command and the Prometheus families render from the same snapshot.
#[derive(Default)]
pub(crate) struct DetectorStats {
    inner: Mutex<BTreeMap<String, DetectorStat>>,
}

impl DetectorStats {
    /// Records one detector's contribution to one analysis run.
    pub fn record(&self, name: &str, wall_ns: u64, findings: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let stat = inner.entry(name.to_owned()).or_default();
        stat.runs += 1;
        stat.findings += findings;
        stat.latency.record(wall_ns);
    }

    /// Frozen per-detector rows in name order.
    pub fn snapshot(&self) -> Vec<DetectorStatSnapshot> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .iter()
            .map(|(name, s)| DetectorStatSnapshot {
                name: name.clone(),
                runs: s.runs,
                findings: s.findings,
                latency_ns: s.latency.snapshot(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.0 plumbing for /metrics and /healthz
// ---------------------------------------------------------------------------

/// Whether `buf` holds a complete HTTP request head. Bodies are never
/// read: the endpoints are GET-only.
pub(crate) fn http_head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// The request line (first line) of a buffered HTTP head.
pub(crate) fn http_head_line(buf: &[u8]) -> String {
    let end = buf
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

/// Builds the full HTTP/1.0 response for one request line. `healthy`
/// turns false once the server begins draining, flipping `/healthz` to
/// 503 so load balancers stop routing here; `metrics` renders the
/// exposition body lazily, only for `GET /metrics`.
pub(crate) fn http_response(
    head: &str,
    healthy: bool,
    metrics: impl FnOnce() -> String,
) -> Vec<u8> {
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let plain = "text/plain; charset=utf-8";
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            plain,
            "only GET is supported\n".to_owned(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                metrics(),
            ),
            "/healthz" => {
                if healthy {
                    ("200 OK", plain, "ok\n".to_owned())
                } else {
                    ("503 Service Unavailable", plain, "draining\n".to_owned())
                }
            }
            _ => ("404 Not Found", plain, format!("no such path {path}\n")),
        }
    };
    let mut response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_log_samples_and_flushes_on_shutdown() {
        let dir = std::env::temp_dir().join(format!("rstudy-obs-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("access.log");
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&path, 3).unwrap();
        for i in 0..9u64 {
            log.record(|| format!("{{\"n\":{i}}}\n"));
        }
        log.shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["{\"n\":0}", "{\"n\":3}", "{\"n\":6}"]);
        assert_eq!(log.dropped(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flight_recorder_promotes_slow_timeout_and_panic() {
        let rec = FlightRecorder::new(Some(10)); // 10 ms threshold
        let check = |trace_id| CheckRecord::new(trace_id, Instant::now());
        rec.record(&check(1), "ok", false, 1_000_000); // fast: not kept
        rec.record(&check(2), "ok", false, 50_000_000); // slow
        rec.record(&check(3), "timeout", false, 1_000);
        rec.record(&check(4), "error", true, 1_000);
        assert_eq!(rec.incident_count(), 3);
        assert_eq!(rec.promoted(), 3);
        let trace = rec.chrome_trace();
        let events = trace.as_array().unwrap();
        let phase = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap().to_owned();
        let b = events.iter().filter(|e| phase(e) == "B").count();
        let e = events.iter().filter(|e| phase(e) == "E").count();
        assert_eq!(b, e);
        assert!(b >= 3, "one outer span per incident: {b}");
    }

    #[test]
    fn http_responses_cover_paths_and_drain() {
        let ok = http_response("GET /healthz HTTP/1.0", true, String::new);
        assert!(String::from_utf8_lossy(&ok).starts_with("HTTP/1.0 200 OK"));
        let draining = http_response("GET /healthz HTTP/1.0", false, String::new);
        assert!(String::from_utf8_lossy(&draining).contains("503"));
        let metrics = http_response("GET /metrics HTTP/1.1", true, || "a_total 1\n".to_owned());
        let text = String::from_utf8_lossy(&metrics).into_owned();
        assert!(text.contains("Content-Length: 10"), "{text}");
        assert!(text.ends_with("a_total 1\n"), "{text}");
        let missing = http_response("GET /nope HTTP/1.0", true, String::new);
        assert!(String::from_utf8_lossy(&missing).contains("404"));
        let post = http_response("POST /metrics HTTP/1.0", true, String::new);
        assert!(String::from_utf8_lossy(&post).contains("405"));
    }

    #[test]
    fn http_head_parsing_handles_both_line_endings() {
        assert!(http_head_complete(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(http_head_complete(b"GET / HTTP/1.0\n\n"));
        assert!(!http_head_complete(b"GET / HTTP/1.0\r\n"));
        assert_eq!(
            http_head_line(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n"),
            "GET /metrics HTTP/1.0"
        );
    }
}
