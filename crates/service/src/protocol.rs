//! The newline-delimited JSON wire protocol.
//!
//! One request per line in, one response per line out, in order. The same
//! frames travel over TCP connections and over stdin/stdout (`serve
//! --stdin`), so a pipe and a socket client see identical bytes.
//!
//! # Requests
//!
//! ```json
//! {"id": "r1", "program": "fn main() -> int { ... }"}
//! {"id": "r2", "path": "examples/mir/serve_smoke_clean.mir", "detectors": ["use-after-free"]}
//! {"cmd": "stats"}
//! {"cmd": "metrics"}
//! {"cmd": "shutdown"}
//! ```
//!
//! * `cmd` — `"check"` (the default), `"stats"`, `"metrics"`,
//!   `"incidents"`, or `"shutdown"`.
//! * `id` — any JSON value; echoed verbatim in the response so pipelined
//!   clients can correlate.
//! * `program` / `path` — the MIR source text, or a file to read it from.
//!   Exactly one of `program`, `path`, or `manifest` must be present on a
//!   `check`.
//! * `manifest` + `entry` — analyze a lowered program out of an
//!   `rstudy-ingest/v1` corpus manifest: `manifest` is the manifest JSON's
//!   path, `entry` the root-relative source-file path of the lowered unit
//!   (e.g. `{"manifest": "out/manifest.json", "entry": "scan/src/lexer.rs"}`).
//! * `detectors` — detector names to run (default: the full suite). The
//!   run order is always canonical, so the detector *set* alone determines
//!   the report.
//! * `naive` — use the paper's unoptimized interprocedural mode.
//! * `trace` — attach per-request timing (`parse_ns`, `check_ns` on a
//!   cache miss, and `total_ns`) to the response. Timings are measured,
//!   hence non-deterministic; they are never part of the cached report.
//! * `delay_ms` — artificial work injected before the analysis. A testing
//!   aid for exercising timeout, backpressure, and drain paths
//!   deterministically; harmless in production (default 0).
//!
//! # Responses
//!
//! Every response carries a `status`: `ok`, `error`, `timeout`,
//! `overloaded`, `stats`, `metrics`, or `shutdown`. `ok` responses embed
//! the report under `"report"` — byte-identical to `check --json` output
//! for the same program — plus `"cached"` saying whether the result came
//! from the content-hash cache. Degraded statuses (`error`, `timeout`,
//! `overloaded`) carry a human-readable `"error"` and never terminate the
//! connection, let alone the server.
//!
//! # Request observability
//!
//! Every `check` is assigned a server-unique `trace_id` (a monotonically
//! increasing integer), echoed in `ok`, `timeout`, and `overloaded`
//! responses and threaded through the telemetry trace log, so one request
//! can be followed from queue admission to response serialization. `ok`
//! responses additionally carry a `"timing"` object with per-stage
//! wall-clock fields:
//!
//! * `queue_ns` — time the job waited in the bounded queue (0 on a cache
//!   hit: hits never queue);
//! * `analysis_ns` — parse + validate + detector-suite time (0 on a cache
//!   hit);
//! * `total_ns` — request admission to settle, when the answer is ready
//!   to send. It is measured once per check and is the same number in
//!   `timing`, in `trace`, in the access log, in an incident's outer span
//!   and in the request-latency histogram;
//! * `cache` — `"hit"` or `"miss"`.
//!
//! Timings are measured, hence non-deterministic; like the `trace` field
//! they live *outside* `"report"`, which stays byte-identical to
//! `check --json` (and to itself across tracing on/off).
//!
//! `stats` reports the service counters plus `uptime_ms`, `queue_depth`,
//! and `inflight`; `metrics` adds cache hit ratios,
//! p50/p90/p99 request-latency quantiles estimated from power-of-two
//! histograms, and per-detector latency/finding breakdowns. `incidents`
//! dumps the flight recorder's incident buffer — the per-stage timelines
//! of requests that were slow, timed out, or panicked — as a Chrome
//! trace-event array under `"trace"`.

use serde::Value;
use serde_json::to_string;

/// Where a check request's program text comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSource {
    /// Inline MIR source text.
    Text(String),
    /// A path to read MIR source from, resolved on the server.
    Path(String),
    /// A lowered program inside an ingest manifest, resolved on the server.
    Manifest {
        /// Path to the `rstudy-ingest/v1` manifest JSON.
        path: String,
        /// Root-relative source-file path of the lowered unit to analyze.
        entry: String,
    },
}

/// A parsed `check` request.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRequest {
    /// The program to analyze.
    pub source: ProgramSource,
    /// Detector subset (`None` = full suite).
    pub detectors: Option<Vec<String>>,
    /// Run the naive interprocedural mode.
    pub naive: bool,
    /// Attach per-request timing to the response.
    pub trace: bool,
    /// Artificial pre-analysis delay (testing aid).
    pub delay_ms: u64,
}

/// What a request line asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Analyze a program.
    Check(CheckRequest),
    /// Report service counters.
    Stats,
    /// Report service metrics: uptime, queue depth, in-flight count, cache
    /// hit ratios, and request-latency quantiles.
    Metrics,
    /// Dump the flight recorder's incident buffer as Chrome-trace JSON.
    Incidents,
    /// Begin graceful shutdown: drain in-flight work, flush, exit.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id, echoed in the response.
    pub id: Option<Value>,
    /// The requested operation.
    pub command: Command,
}

/// A malformed request: the extracted id (when the line parsed far enough
/// to have one) plus what was wrong.
#[derive(Debug, Clone)]
pub struct RequestError {
    /// Correlation id to echo, if one was recoverable.
    pub id: Option<Value>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<Value>, message: impl Into<String>) -> RequestError {
        RequestError {
            id,
            message: message.into(),
        }
    }
}

const KNOWN_FIELDS: &[&str] = &[
    "cmd",
    "id",
    "program",
    "path",
    "manifest",
    "entry",
    "detectors",
    "naive",
    "trace",
    "delay_ms",
];

/// Parses one request line. Never panics; every malformation becomes a
/// [`RequestError`] the caller turns into an `error` response.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| RequestError::new(None, format!("malformed request: {e}")))?;
    let Some(entries) = value.as_object() else {
        return Err(RequestError::new(
            None,
            format!(
                "malformed request: expected a JSON object, got {}",
                value.kind()
            ),
        ));
    };
    let id = value.get("id").cloned();
    for (key, _) in entries {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(RequestError::new(
                id,
                format!("unknown field `{key}` (known: {})", KNOWN_FIELDS.join(", ")),
            ));
        }
    }
    let cmd = match value.get("cmd") {
        None => "check",
        Some(Value::Str(s)) => s.as_str(),
        Some(other) => {
            return Err(RequestError::new(
                id,
                format!("`cmd` must be a string, got {}", other.kind()),
            ))
        }
    };
    match cmd {
        "shutdown" => Ok(Request {
            id,
            command: Command::Shutdown,
        }),
        "stats" => Ok(Request {
            id,
            command: Command::Stats,
        }),
        "metrics" => Ok(Request {
            id,
            command: Command::Metrics,
        }),
        "incidents" => Ok(Request {
            id,
            command: Command::Incidents,
        }),
        "check" => parse_check(&value, id),
        other => Err(RequestError::new(
            id,
            format!("unknown cmd `{other}` (known: check, stats, metrics, incidents, shutdown)"),
        )),
    }
}

fn parse_check(value: &Value, id: Option<Value>) -> Result<Request, RequestError> {
    let text = opt_string(value, "program", &id)?;
    let path = opt_string(value, "path", &id)?;
    let manifest = opt_string(value, "manifest", &id)?;
    let entry = opt_string(value, "entry", &id)?;
    if entry.is_some() && manifest.is_none() {
        return Err(RequestError::new(id, "`entry` requires `manifest`"));
    }
    let source = match (text, path, manifest) {
        (Some(text), None, None) => ProgramSource::Text(text),
        (None, Some(path), None) => ProgramSource::Path(path),
        (None, None, Some(path)) => {
            let Some(entry) = entry else {
                return Err(RequestError::new(
                    id,
                    "`manifest` requires `entry` (the lowered file to analyze)",
                ));
            };
            ProgramSource::Manifest { path, entry }
        }
        (None, None, None) => {
            return Err(RequestError::new(
                id,
                "a check request needs `program` (inline MIR), `path` (file to \
                 read), or `manifest` + `entry` (an ingested corpus)",
            ))
        }
        _ => {
            return Err(RequestError::new(
                id,
                "`program`, `path`, and `manifest` are mutually exclusive",
            ))
        }
    };
    let detectors = match value.get("detectors") {
        None | Some(Value::Null) => None,
        Some(Value::Seq(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => names.push(s.to_owned()),
                    None => {
                        return Err(RequestError::new(
                            id,
                            format!("`detectors` entries must be strings, got {}", item.kind()),
                        ))
                    }
                }
            }
            Some(names)
        }
        Some(other) => {
            return Err(RequestError::new(
                id,
                format!(
                    "`detectors` must be an array of names, got {}",
                    other.kind()
                ),
            ))
        }
    };
    let naive = opt_bool(value, "naive", &id)?;
    let trace = opt_bool(value, "trace", &id)?;
    let delay_ms = match value.get("delay_ms") {
        None | Some(Value::Null) => 0,
        Some(v) => v.as_u64().ok_or_else(|| {
            RequestError::new(
                id.clone(),
                format!(
                    "`delay_ms`: expected a non-negative integer, got {}",
                    v.kind()
                ),
            )
        })?,
    };
    Ok(Request {
        id,
        command: Command::Check(CheckRequest {
            source,
            detectors,
            naive,
            trace,
            delay_ms,
        }),
    })
}

fn opt_string(
    value: &Value,
    field: &str,
    id: &Option<Value>,
) -> Result<Option<String>, RequestError> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(RequestError::new(
            id.clone(),
            format!("`{field}` must be a string, got {}", other.kind()),
        )),
    }
}

fn opt_bool(value: &Value, field: &str, id: &Option<Value>) -> Result<bool, RequestError> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(other) => Err(RequestError::new(
            id.clone(),
            format!("`{field}` must be a boolean, got {}", other.kind()),
        )),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Builds one response line (without the trailing newline). Field order is
/// fixed — `id`, `status`, then status-specific payload — so responses are
/// deterministic byte streams for deterministic inputs.
pub struct ResponseBuilder {
    entries: Vec<(String, Value)>,
}

impl ResponseBuilder {
    /// Starts a response with the given status, echoing `id` when present.
    pub fn new(id: &Option<Value>, status: &str) -> ResponseBuilder {
        let mut entries = Vec::with_capacity(4);
        if let Some(id) = id {
            entries.push(("id".to_owned(), id.clone()));
        }
        entries.push(("status".to_owned(), Value::Str(status.to_owned())));
        ResponseBuilder { entries }
    }

    /// Appends one field.
    pub fn field(mut self, name: &str, value: Value) -> ResponseBuilder {
        self.entries.push((name.to_owned(), value));
        self
    }

    /// Serializes to one compact JSON line.
    pub fn finish(self) -> String {
        to_string(&Value::Map(self.entries)).expect("response serialization cannot fail")
    }

    /// Serializes to one compact JSON line whose last field is `name` with
    /// `raw`, an already-encoded compact JSON value, spliced in verbatim.
    pub fn finish_with_raw(self, name: &str, raw: &str) -> String {
        let name = to_string(&Value::Str(name.to_owned())).expect("a string always serializes");
        let mut line = self.finish();
        line.pop(); // the map's closing brace
        line.reserve(name.len() + raw.len() + 3);
        line.push(',');
        line.push_str(&name);
        line.push(':');
        line.push_str(raw);
        line.push('}');
        line
    }
}

/// An `error` response.
pub fn error_response(id: &Option<Value>, message: &str) -> String {
    ResponseBuilder::new(id, "error")
        .field("error", Value::Str(message.to_owned()))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_check() {
        let r = parse_request(r#"{"program":"fn main() -> int {}"}"#).unwrap();
        assert!(r.id.is_none());
        let Command::Check(c) = r.command else {
            panic!("expected check");
        };
        assert_eq!(c.source, ProgramSource::Text("fn main() -> int {}".into()));
        assert_eq!(c.detectors, None);
        assert!(!c.naive && !c.trace);
        assert_eq!(c.delay_ms, 0);
    }

    #[test]
    fn parses_full_check() {
        let r = parse_request(
            r#"{"id":7,"cmd":"check","path":"a.mir","detectors":["double-lock"],"naive":true,"trace":true,"delay_ms":5}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(Value::Int(7)));
        let Command::Check(c) = r.command else {
            panic!("expected check");
        };
        assert_eq!(c.source, ProgramSource::Path("a.mir".into()));
        assert_eq!(
            c.detectors.as_deref(),
            Some(&["double-lock".to_owned()][..])
        );
        assert!(c.naive && c.trace);
        assert_eq!(c.delay_ms, 5);
    }

    #[test]
    fn parses_manifest_check() {
        let r = parse_request(r#"{"manifest":"out/manifest.json","entry":"src/lib.rs"}"#).unwrap();
        let Command::Check(c) = r.command else {
            panic!("expected check");
        };
        assert_eq!(
            c.source,
            ProgramSource::Manifest {
                path: "out/manifest.json".into(),
                entry: "src/lib.rs".into(),
            }
        );
    }

    #[test]
    fn manifest_and_entry_come_together_and_exclude_other_sources() {
        assert!(parse_request(r#"{"manifest":"m.json"}"#).is_err());
        assert!(parse_request(r#"{"entry":"src/lib.rs"}"#).is_err());
        assert!(parse_request(r#"{"program":"x","manifest":"m.json","entry":"a.rs"}"#).is_err());
        assert!(parse_request(r#"{"path":"a.mir","manifest":"m.json","entry":"a.rs"}"#).is_err());
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap().command,
            Command::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"cmd":"stats","id":"s"}"#)
                .unwrap()
                .command,
            Command::Stats
        );
        assert_eq!(
            parse_request(r#"{"cmd":"metrics","id":"m"}"#)
                .unwrap()
                .command,
            Command::Metrics
        );
        assert_eq!(
            parse_request(r#"{"cmd":"incidents","id":"i"}"#)
                .unwrap()
                .command,
            Command::Incidents
        );
    }

    #[test]
    fn rejects_malformed_lines_and_bad_shapes() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"program":"x","path":"y"}"#).is_err());
        assert!(parse_request(r#"{}"#).is_err());
        assert!(parse_request(r#"{"program":"x","detectors":"all"}"#).is_err());
        assert!(parse_request(r#"{"program":"x","typo":1}"#).is_err());
        // The suite runs inline on its worker: there is no `jobs` field.
        assert!(parse_request(r#"{"program":"x","jobs":1}"#).is_err());
    }

    #[test]
    fn error_responses_echo_the_id_first() {
        let id = Some(Value::Str("r9".into()));
        let line = error_response(&id, "boom");
        assert_eq!(line, r#"{"id":"r9","status":"error","error":"boom"}"#);
        let anon = error_response(&None, "boom");
        assert_eq!(anon, r#"{"status":"error","error":"boom"}"#);
    }
}
