//! Integration tests of the observability plane: the Prometheus scrape
//! endpoint (`/metrics` + `/healthz`), the structured access log, the
//! flight recorder's incident buffer, and the `metrics`-vs-exposition
//! equivalence.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::Duration;

use rust_safety_study::serve::{ServeConfig, Server, ServerHandle};
use serde::Value;

/// A fresh scratch directory under the temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rstudy-obs-test-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Boots a server with the scrape endpoint on; returns (ndjson addr,
/// metrics addr, handle, join).
fn boot_obs(
    mut config: ServeConfig,
) -> (SocketAddr, SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    config.metrics_port = Some(0);
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let maddr = server.metrics_addr().expect("metrics addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("server run"));
    (addr, maddr, handle, join)
}

/// One NDJSON client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn round_trip(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(_) if line.ends_with('\n') => break,
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("read response: {e} (got {line:?})"),
            }
        }
        serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("<none>")
}

/// A tiny clean program parameterized by a constant, so tests can mint
/// distinct-content (hence distinct-cache-key) programs at will.
fn clean_program(seed: u32) -> String {
    format!(
        "fn main() -> int {{\n    let _1 as x: int;\n\n    bb0: {{\n        StorageLive(_1);\n        _1 = const {seed};\n        _0 = _1;\n        StorageDead(_1);\n        return;\n    }}\n}}\n"
    )
}

fn check_request(id: &str, program: &str, extra: &str) -> String {
    let prog = serde_json::to_string(&Value::Str(program.to_owned())).unwrap();
    format!(r#"{{"id":"{id}","program":{prog}{extra}}}"#)
}

/// One-shot HTTP/1.0 GET against the scrape endpoint; returns the status
/// line and the body.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete HTTP response");
    let status_line = head.lines().next().unwrap_or_default().to_owned();
    (status_line, body.to_owned())
}

fn scrape(addr: SocketAddr) -> String {
    let (status_line, body) = http_get(addr, "/metrics");
    assert!(status_line.contains("200"), "scrape failed: {status_line}");
    body
}

/// The value of an unlabeled series (`name value`).
fn prom_value(body: &str, name: &str) -> u64 {
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(value) = rest.strip_prefix(' ') {
                return value
                    .trim()
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("series {name} has a non-numeric value: {line}"))
                    as u64;
            }
        }
    }
    panic!("series {name} not found in exposition:\n{body}");
}

/// All labeled series of one family, as `labels -> value`.
fn prom_series(body: &str, name: &str) -> BTreeMap<String, u64> {
    let mut series = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(rest) = rest.strip_prefix('{') {
                if let Some((labels, value)) = rest.split_once("} ") {
                    let value = value.trim().parse::<f64>().unwrap_or_else(|_| {
                        panic!("series {name}{{{labels}}} has a non-numeric value")
                    });
                    series.insert(labels.to_owned(), value as u64);
                }
            }
        }
    }
    series
}

/// Every check answered `timeout` is counted as one, in `stats` and in
/// the exposition alike, also when the worker notices the expired
/// deadline before the I/O thread's timer does. With `delay_ms` equal to
/// the deadline, that is the usual order.
#[test]
fn every_timed_out_check_counts_one_timeout() {
    const CHECKS: u64 = 5;
    let (addr, maddr, handle, join) = boot_obs(ServeConfig {
        workers: 2,
        timeout_ms: Some(50),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    for i in 0..CHECKS {
        let program = clean_program(9000 + i as u32);
        let resp = client.round_trip(&check_request(
            &format!("t{i}"),
            &program,
            r#","delay_ms":50"#,
        ));
        assert_eq!(status(&resp), "timeout", "{resp:?}");
    }

    let reply = client.round_trip(r#"{"id":"s","cmd":"stats"}"#);
    let stats = reply.get("stats").expect("stats object");
    let count = |name: &str| stats.get(name).and_then(Value::as_u64).unwrap_or(u64::MAX);
    assert_eq!(count("requests"), CHECKS, "{reply:?}");
    assert_eq!(count("timeouts"), CHECKS, "{reply:?}");
    let answered: u64 = ["ok", "errors", "timeouts", "overloaded"]
        .into_iter()
        .map(count)
        .sum();
    assert_eq!(answered, CHECKS, "each check answered once: {reply:?}");

    let responses = prom_series(&scrape(maddr), "rstudy_responses_total");
    assert_eq!(
        responses.get("status=\"timeout\""),
        Some(&CHECKS),
        "{responses:?}"
    );
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn scrape_exposes_request_counters_and_histograms() {
    let (addr, maddr, handle, join) = boot_obs(ServeConfig::default());
    let mut client = Client::connect(addr);
    for i in 0..5 {
        let resp = client.round_trip(&check_request(&format!("r{i}"), &clean_program(i), ""));
        assert_eq!(status(&resp), "ok");
    }
    // A repeat of the last program: a cache hit, still one settled request.
    let resp = client.round_trip(&check_request("r5", &clean_program(4), ""));
    assert_eq!(status(&resp), "ok");

    let body = scrape(maddr);
    assert_eq!(prom_value(&body, "rstudy_requests_total"), 6);
    assert_eq!(prom_value(&body, "rstudy_request_latency_ns_count"), 6);
    let responses = prom_series(&body, "rstudy_responses_total");
    assert_eq!(responses.get("status=\"ok\""), Some(&6));
    assert_eq!(responses.get("status=\"error\""), Some(&0));
    let hits = prom_series(&body, "rstudy_cache_hits_total");
    assert_eq!(hits.values().sum::<u64>(), 1, "one warm repeat: {hits:?}");

    // Latency buckets must be cumulative (non-decreasing) and end with a
    // `+Inf` bucket equal to the series count.
    let buckets: Vec<(String, u64)> = body
        .lines()
        .filter_map(|l| l.strip_prefix("rstudy_request_latency_ns_bucket{le=\""))
        .map(|rest| {
            let (le, value) = rest.split_once("\"} ").expect("bucket line shape");
            (le.to_owned(), value.trim().parse::<u64>().unwrap())
        })
        .collect();
    assert!(!buckets.is_empty(), "no latency buckets in:\n{body}");
    for pair in buckets.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "buckets not cumulative: {pair:?}");
    }
    let (last_le, last_count) = buckets.last().unwrap();
    assert_eq!(last_le, "+Inf");
    assert_eq!(*last_count, 6);

    // Per-detector families exist and saw the analyzed (non-cached) runs.
    let runs = prom_series(&body, "rstudy_detector_runs_total");
    assert!(!runs.is_empty(), "no detector families in:\n{body}");
    assert!(runs.values().all(|v| *v == 5), "5 analyses each: {runs:?}");

    // Liveness endpoint answers while serving.
    let (health, health_body) = http_get(maddr, "/healthz");
    assert!(health.contains("200"), "{health}");
    assert_eq!(health_body, "ok\n");
    let (missing, _) = http_get(maddr, "/nope");
    assert!(missing.contains("404"), "{missing}");

    handle.begin_shutdown();
    drop(client);
    join.join().unwrap();
}

#[test]
fn counters_never_decrease_across_scrapes() {
    let (addr, maddr, handle, join) = boot_obs(ServeConfig::default());
    let mut client = Client::connect(addr);
    client.round_trip(&check_request("a", &clean_program(100), ""));
    let first = scrape(maddr);
    client.round_trip(&check_request("b", &clean_program(101), ""));
    client.round_trip(&check_request("c", &clean_program(102), ""));
    let second = scrape(maddr);

    for name in [
        "rstudy_requests_total",
        "rstudy_request_latency_ns_count",
        "rstudy_cache_misses_total",
    ] {
        let (before, after) = (prom_value(&first, name), prom_value(&second, name));
        assert!(before <= after, "{name} decreased: {before} -> {after}");
    }
    assert_eq!(prom_value(&second, "rstudy_requests_total"), 3);
    for (labels, before) in prom_series(&first, "rstudy_responses_total") {
        let after = prom_series(&second, "rstudy_responses_total")[&labels];
        assert!(
            before <= after,
            "responses{{{labels}}}: {before} -> {after}"
        );
    }

    handle.begin_shutdown();
    drop(client);
    join.join().unwrap();
}

/// `/healthz` flips to 503 while the event loop drains in-flight work, so
/// load balancers stop routing to an instance that is going away.
#[cfg(target_os = "linux")]
#[test]
fn healthz_flips_to_draining_during_drain() {
    let (addr, maddr, handle, join) = boot_obs(ServeConfig::default());
    let mut client = Client::connect(addr);

    let (health, _) = http_get(maddr, "/healthz");
    assert!(health.contains("200"), "{health}");

    // Park a slow request so the drain has something to wait for, then
    // begin shutdown while it is still in flight.
    client
        .writer
        .write_all(check_request("slow", &clean_program(7), r#","delay_ms":400"#).as_bytes())
        .unwrap();
    client.writer.write_all(b"\n").unwrap();
    client.writer.flush().unwrap();
    thread::sleep(Duration::from_millis(50));
    handle.begin_shutdown();
    thread::sleep(Duration::from_millis(50));

    let (health, body) = http_get(maddr, "/healthz");
    assert!(health.contains("503"), "expected draining, got {health}");
    assert_eq!(body, "draining\n");

    let mut line = String::new();
    client.reader.read_line(&mut line).unwrap();
    let resp: Value = serde_json::from_str(line.trim()).expect("drained response");
    assert_eq!(status(&resp), "ok");
    join.join().unwrap();
}

/// One record per check: every surface reports the same `total_ns` for a
/// check, and the access log keeps what the front end resolved (cache
/// disposition, detector set) also when the answer is an error or a
/// front-end `timeout`.
#[test]
fn access_log_schema_and_sampling() {
    let dir = scratch_dir("access-log");
    let log = dir.join("access.ndjson");
    let (addr, _maddr, handle, join) = boot_obs(ServeConfig {
        access_log: Some(log.clone()),
        timeout_ms: Some(200),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    let mut answers = Vec::new();
    for i in 0..3 {
        let trace = if i == 0 { r#","trace":true"# } else { "" };
        answers.push(client.round_trip(&check_request(
            &format!("r{i}"),
            &clean_program(200 + i),
            trace,
        )));
    }
    answers.push(client.round_trip(&check_request(
        "warm",
        &clean_program(200),
        r#","trace":true"#,
    )));
    let parse_error = client.round_trip(&check_request("bad", "fn main( {", ""));
    assert_eq!(status(&parse_error), "error", "{parse_error:?}");
    // The deadline passes while the worker still sleeps: the front end
    // answers `timeout` after the lookup and the queueing.
    let timed_out = client.round_trip(&check_request(
        "slow",
        &clean_program(203),
        r#","detectors":["double-lock"],"delay_ms":800"#,
    ));
    assert_eq!(status(&timed_out), "timeout", "{timed_out:?}");
    let incidents = client.round_trip(r#"{"cmd":"incidents","id":"dump"}"#);
    handle.begin_shutdown();
    drop(client);
    join.join().unwrap();

    let text = std::fs::read_to_string(&log).expect("access log written");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad log line {l:?}: {e}")))
        .collect();
    assert_eq!(lines.len(), 6, "one line per completed request");
    let by_trace_id: BTreeMap<u64, &Value> = lines
        .iter()
        .map(|l| (l.get("trace_id").and_then(Value::as_u64).unwrap(), l))
        .collect();
    let mut caches = Vec::new();
    for line in &lines {
        for key in [
            "ts_ms",
            "trace_id",
            "cmd",
            "status",
            "cache",
            "queue_ns",
            "analysis_ns",
            "total_ns",
            "detectors",
            "conn",
        ] {
            assert!(line.get(key).is_some(), "line missing `{key}`: {line:?}");
        }
        assert_eq!(line.get("cmd").and_then(Value::as_str), Some("check"));
        assert!(line.get("total_ns").and_then(Value::as_u64).unwrap() > 0);
        caches.push(match line.get("cache") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("cache disposition should be a string, got {other:?}"),
        });
    }
    assert_eq!(caches.iter().filter(|c| *c == "hit").count(), 1);
    assert_eq!(caches.iter().filter(|c| *c == "miss").count(), 5);

    let u64_at = |v: &Value, path: &[&str]| {
        let mut v = v;
        for key in path {
            v = v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v:?}"));
        }
        v.as_u64().unwrap()
    };
    let line_of = |answer: &Value| by_trace_id[&u64_at(answer, &["trace_id"])];
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(status(answer), "ok", "{answer:?}");
        let line = line_of(answer);
        assert_eq!(
            line.get("status").and_then(Value::as_str),
            Some("ok"),
            "{line:?}"
        );
        let cache = if i == 3 { "hit" } else { "miss" };
        assert_eq!(
            line.get("cache").and_then(Value::as_str),
            Some(cache),
            "{line:?}"
        );
        let logged = u64_at(line, &["total_ns"]);
        assert_eq!(
            logged,
            u64_at(answer, &["timing", "total_ns"]),
            "{answer:?}"
        );
        if i == 0 || i == 3 {
            assert_eq!(logged, u64_at(answer, &["trace", "total_ns"]), "{answer:?}");
        }
    }

    let line = line_of(&timed_out);
    assert_eq!(line.get("status").and_then(Value::as_str), Some("timeout"));
    assert_eq!(line.get("cache").and_then(Value::as_str), Some("miss"));
    let detectors: Vec<&str> = line
        .get("detectors")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(detectors, ["double-lock"], "{line:?}");
    // The incident's outer span is the check's whole latency, in µs.
    let label = format!("request #{}: timeout", u64_at(&timed_out, &["trace_id"]));
    let outer: Vec<u64> = incidents
        .get("trace")
        .and_then(Value::as_array)
        .expect("trace events")
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.starts_with(&label))
        })
        .map(|e| u64_at(e, &["ts"]))
        .collect();
    assert_eq!(
        outer.len(),
        2,
        "one B/E pair for the timeout: {incidents:?}"
    );
    assert_eq!(u64_at(line, &["total_ns"]) / 1_000, outer[1] - outer[0]);

    let errors: Vec<&Value> = lines
        .iter()
        .filter(|l| l.get("status").and_then(Value::as_str) == Some("error"))
        .collect();
    assert_eq!(errors.len(), 1, "{lines:?}");
    assert_eq!(errors[0].get("cache").and_then(Value::as_str), Some("miss"));

    // Sampling keeps every Nth request: 9 requests at 1-in-3 -> 3 lines.
    let sampled = dir.join("sampled.ndjson");
    let (addr, _maddr, handle, join) = boot_obs(ServeConfig {
        access_log: Some(sampled.clone()),
        access_log_sample: 3,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    for i in 0..9 {
        client.round_trip(&check_request(
            &format!("s{i}"),
            &clean_program(300 + i),
            "",
        ));
    }
    handle.begin_shutdown();
    drop(client);
    join.join().unwrap();
    let text = std::fs::read_to_string(&sampled).expect("sampled log written");
    assert_eq!(text.lines().count(), 3, "1-in-3 sampling of 9 requests");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_requests_promote_into_incident_buffer() {
    let (addr, _maddr, handle, join) = boot_obs(ServeConfig {
        slow_ms: Some(50),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    // Fast request: not promoted.
    client.round_trip(&check_request("fast", &clean_program(400), ""));
    // 120 ms of injected delay against a 50 ms threshold: an incident.
    let resp = client.round_trip(&check_request(
        "slow",
        &clean_program(401),
        r#","delay_ms":120"#,
    ));
    assert_eq!(status(&resp), "ok");

    let incidents = client.round_trip(r#"{"cmd":"incidents","id":"dump"}"#);
    assert_eq!(status(&incidents), "incidents");
    let count = incidents.get("count").and_then(Value::as_u64).unwrap();
    assert!(
        count >= 1,
        "the slow request must be promoted: {incidents:?}"
    );
    assert!(incidents.get("promoted").and_then(Value::as_u64).unwrap() >= 1);

    // The dump is a Chrome trace: balanced B/E events, the outer span
    // labeled with the request and its promotion reason.
    let events = incidents
        .get("trace")
        .and_then(Value::as_array)
        .expect("trace events");
    assert!(!events.is_empty());
    let phase_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            .count()
    };
    assert_eq!(phase_count("B"), phase_count("E"));
    assert_eq!(phase_count("B") * 2, events.len());
    assert!(
        events.iter().any(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.contains("slow") && n.starts_with("request #"))
        }),
        "no slow-labeled outer span in {events:?}"
    );

    handle.begin_shutdown();
    drop(client);
    join.join().unwrap();
}

/// The `metrics` NDJSON command and the Prometheus exposition must tell
/// the same story about the per-detector families.
#[test]
fn metrics_ndjson_matches_prometheus_detector_families() {
    let (addr, maddr, handle, join) = boot_obs(ServeConfig::default());
    let mut client = Client::connect(addr);
    for i in 0..3 {
        client.round_trip(&check_request(
            &format!("r{i}"),
            &clean_program(500 + i),
            "",
        ));
    }

    let ndjson = client.round_trip(r#"{"cmd":"metrics","id":"m"}"#);
    let detectors = ndjson
        .get("metrics")
        .and_then(|m| m.get("detectors"))
        .and_then(Value::as_object)
        .expect("metrics.detectors map");
    assert!(!detectors.is_empty());

    let body = scrape(maddr);
    let runs = prom_series(&body, "rstudy_detector_runs_total");
    let findings = prom_series(&body, "rstudy_detector_findings_total");
    let latency_counts = prom_series(&body, "rstudy_detector_latency_ns_count");
    assert_eq!(runs.len(), detectors.len());

    for (name, stats) in detectors {
        let label = format!("detector=\"{name}\"");
        assert_eq!(
            stats.get("runs").and_then(Value::as_u64),
            runs.get(&label).copied(),
            "runs disagree for {name}"
        );
        assert_eq!(
            stats.get("findings").and_then(Value::as_u64),
            findings.get(&label).copied(),
            "findings disagree for {name}"
        );
        assert_eq!(
            stats
                .get("latency_ns")
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            latency_counts.get(&label).copied(),
            "latency sample count disagrees for {name}"
        );
    }

    handle.begin_shutdown();
    drop(client);
    join.join().unwrap();
}
