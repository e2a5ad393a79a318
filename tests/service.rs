//! Integration tests of the `rstudy-serve` analysis service: concurrency
//! isolation, the content-hash cache (both tiers), structured degradation
//! (timeout, overload, malformed input), graceful drain, and byte-for-byte
//! agreement with `check --json`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::Duration;

use rust_safety_study::serve::{serve_stream, ServeConfig, Server, ServerHandle};
use rust_safety_study::telemetry;
use serde::Value;

fn mir_path(name: &str) -> String {
    format!("{}/examples/mir/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory under the target-adjacent temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rstudy-serve-test-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots a server on an ephemeral port; returns its address, a control
/// handle, and the join handle of the serving thread.
fn boot(config: ServeConfig) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind(0, config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
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

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Value {
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

    fn round_trip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("<none>")
}

fn findings(v: &Value) -> u64 {
    v.get("findings")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX)
}

fn cached(v: &Value) -> bool {
    matches!(v.get("cached"), Some(Value::Bool(true)))
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

#[test]
fn concurrent_clients_get_isolated_correct_responses() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let buggy = std::fs::read_to_string(mir_path("serve_smoke_buggy.mir")).unwrap();
    let mut threads = Vec::new();
    for i in 0..4u32 {
        let buggy = buggy.clone();
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(addr);
            for round in 0..3u32 {
                // Even clients submit clean programs (unique per client),
                // odd clients submit the buggy fixture.
                let id = format!("c{i}-r{round}");
                let (program, expected) = if i % 2 == 0 {
                    (clean_program(1000 + i), 0)
                } else {
                    (buggy.clone(), 1)
                };
                let resp = Client::round_trip(&mut client, &check_request(&id, &program, ""));
                assert_eq!(status(&resp), "ok", "{resp:?}");
                assert_eq!(
                    resp.get("id").and_then(Value::as_str),
                    Some(id.as_str()),
                    "response correlated to the wrong request: {resp:?}"
                );
                assert_eq!(findings(&resp), expected, "{resp:?}");
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn resubmission_hits_the_cache_and_bumps_the_counter() {
    telemetry::enable();
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    let program = clean_program(7001);

    let first = client.round_trip(&check_request("cold", &program, ""));
    assert_eq!(status(&first), "ok", "{first:?}");
    assert!(!cached(&first), "{first:?}");

    let hits_before = telemetry::snapshot()
        .counters
        .get("serve.cache.hits")
        .copied()
        .unwrap_or(0);
    let second = client.round_trip(&check_request("warm", &program, ""));
    assert_eq!(status(&second), "ok", "{second:?}");
    assert!(cached(&second), "{second:?}");
    assert_eq!(handle.cache_hits(), 1);
    let hits_after = telemetry::snapshot().counters["serve.cache.hits"];
    assert!(
        hits_after > hits_before,
        "serve.cache.hits did not grow: {hits_before} -> {hits_after}"
    );

    // The cached report is byte-identical to the computed one.
    let as_json = |v: &Value| serde_json::to_string(v.get("report").unwrap()).unwrap();
    assert_eq!(as_json(&first), as_json(&second));
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn hot_entry_survives_two_hundred_fresh_inserts() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    for seed in 0..200 {
        let fresh = client.round_trip(&check_request("f", &clean_program(8000 + seed), ""));
        assert_eq!(status(&fresh), "ok", "{fresh:?}");
        assert!(!cached(&fresh), "{fresh:?}");
    }
    let repeat = client.round_trip(&check_request("r", &clean_program(8000), ""));
    assert_eq!(status(&repeat), "ok", "{repeat:?}");
    assert!(cached(&repeat), "the first report was evicted: {repeat:?}");
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn served_report_is_byte_identical_to_check_json() {
    let (addr, handle, join) = boot(ServeConfig::default());
    let path = mir_path("serve_smoke_buggy.mir");
    let out = Command::new(env!("CARGO_BIN_EXE_rust-safety-study"))
        .args(["check", &path, "--json"])
        .output()
        .expect("binary runs");
    let cli_line = String::from_utf8(out.stdout).unwrap().trim().to_owned();
    assert!(cli_line.starts_with('{'), "{cli_line}");

    let mut client = Client::connect(addr);
    let resp = client.round_trip(&format!(r#"{{"id":"x","path":{path:?}}}"#));
    assert_eq!(status(&resp), "ok", "{resp:?}");
    let served = serde_json::to_string(resp.get("report").unwrap()).unwrap();
    assert_eq!(served, cli_line, "service and CLI disagree byte-for-byte");
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn timeout_answers_structured_response_and_server_keeps_serving() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 2,
        timeout_ms: Some(80),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    // The artificial 500 ms of work blows the 80 ms deadline.
    let slow = client.round_trip(&check_request(
        "slow",
        &clean_program(7100),
        r#","delay_ms":500"#,
    ));
    assert_eq!(status(&slow), "timeout", "{slow:?}");
    assert!(
        slow.get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("80 ms"),
        "{slow:?}"
    );
    // The same connection and a fresh one both still get served.
    let next = client.round_trip(&check_request("next", &clean_program(7101), ""));
    assert_eq!(status(&next), "ok", "{next:?}");
    let mut other = Client::connect(addr);
    let fresh = other.round_trip(&check_request("fresh", &clean_program(7102), ""));
    assert_eq!(status(&fresh), "ok", "{fresh:?}");
    handle.begin_shutdown();
    join.join().unwrap();
}

/// A reverse-ordered chain of `links` raw-pointer copies, one per block,
/// with the blocks laid out opposite to their execution order: the
/// points-to solver then needs a pass per link, so analysis time grows
/// with the square of `links`.
fn reverse_pointer_chain(links: usize) -> String {
    use std::fmt::Write as _;
    let mut text = String::from("fn main() -> int {\n    let _1 as x: int;\n");
    for k in 0..=links {
        let _ = writeln!(text, "    let _{}: *const int;", k + 2);
    }
    let r = links + 3;
    let _ = writeln!(text, "    let _{r} as r: int;");
    // Block 0 is the entry, link `i` sits in block `links - i`, and block
    // `links + 1` is the exit.
    let mut blocks = vec![Vec::new(); links + 2];
    blocks[0] = vec![
        "StorageLive(_1)".to_owned(),
        "_1 = const 7".to_owned(),
        "_2 = &raw const _1".to_owned(),
        format!("goto -> bb{links}"),
    ];
    for i in 0..links {
        let next = if i + 1 < links {
            links - i - 1
        } else {
            links + 1
        };
        blocks[links - i] = vec![
            format!("_{} = _{}", i + 3, i + 2),
            format!("goto -> bb{next}"),
        ];
    }
    blocks[links + 1] = vec![
        format!("unsafe _{r} = (*_{})", links + 2),
        format!("_0 = _{r}"),
        "return".to_owned(),
    ];
    for (b, stmts) in blocks.iter().enumerate() {
        let _ = writeln!(text, "\n    bb{b}: {{");
        for stmt in stmts {
            let _ = writeln!(text, "        {stmt};");
        }
        text.push_str("    }\n");
    }
    text.push_str("}\n");
    text
}

/// Drives one check whose analysis outlives its 20 ms deadline through
/// `round_trip` (either front end): it is answered `timeout` and counted
/// once as such, and its late report is cached but never counted `ok`.
fn late_analysis_counts_only_the_timeout(mut round_trip: impl FnMut(&str) -> Value) {
    // 2,000 links take about a second unoptimized and 0.1 s optimized:
    // far past the deadline either way.
    let late = round_trip(&check_request("late", &reverse_pointer_chain(2000), ""));
    assert_eq!(status(&late), "timeout", "{late:?}");
    let mut stats = || {
        let reply = round_trip(r#"{"id":"s","cmd":"stats"}"#);
        reply.get("stats").cloned().expect("stats object")
    };
    let count = |stats: &Value, name: &str| stats.get(name).and_then(Value::as_u64);
    let give_up = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let now = stats();
        if count(&now, "cache_mem_entries") == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "the late report never reached the cache: {now:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
    // Give the stale completion time to reach the front end.
    thread::sleep(Duration::from_millis(50));
    let last = stats();
    assert_eq!(count(&last, "requests"), Some(1), "{last:?}");
    assert_eq!(count(&last, "timeouts"), Some(1), "{last:?}");
    assert_eq!(count(&last, "ok"), Some(0), "{last:?}");
}

#[test]
fn late_analysis_counts_only_the_timeout_over_tcp() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        timeout_ms: Some(20),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    late_analysis_counts_only_the_timeout(|line| client.round_trip(line));
    drop(client);
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn late_analysis_counts_only_the_timeout_over_stdin() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rust-safety-study"))
        .args(["serve", "--stdin", "--timeout-ms", "20", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve --stdin");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    late_analysis_counts_only_the_timeout(|line| {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let mut reply = String::new();
        stdout.read_line(&mut reply).expect("read response");
        serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("bad response {reply:?}: {e}"))
    });
    drop(stdin); // EOF = graceful drain
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "{status:?}");
}

#[test]
fn malformed_and_invalid_requests_get_error_responses() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    let garbage = client.round_trip("this is not json");
    assert_eq!(status(&garbage), "error", "{garbage:?}");

    let no_source = client.round_trip(r#"{"id":"n"}"#);
    assert_eq!(status(&no_source), "error", "{no_source:?}");

    let bad_detector = client.round_trip(&check_request(
        "d",
        &clean_program(7200),
        r#","detectors":["not-a-detector"]"#,
    ));
    assert_eq!(status(&bad_detector), "error", "{bad_detector:?}");
    assert!(
        bad_detector
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("use-after-free"),
        "error should list valid detectors: {bad_detector:?}"
    );

    // `jobs` is not a request field: the suite runs inline on its worker.
    let jobs_zero = client.round_trip(&check_request("j0", &clean_program(7201), r#","jobs":0"#));
    assert_eq!(status(&jobs_zero), "error", "{jobs_zero:?}");
    assert!(
        jobs_zero
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown field `jobs`"),
        "{jobs_zero:?}"
    );

    let unparsable_mir = client.round_trip(&format!(
        r#"{{"id":"m","path":{:?}}}"#,
        mir_path("serve_smoke_malformed.mir")
    ));
    assert_eq!(status(&unparsable_mir), "error", "{unparsable_mir:?}");

    // Non-ASCII program text is a parse error, and the single worker
    // survives it to answer the next request.
    for (id, program) in [("u1", "é"), ("u2", "fn main() -> int { é }")] {
        let non_ascii = client.round_trip(&check_request(id, program, ""));
        assert_eq!(status(&non_ascii), "error", "{non_ascii:?}");
    }

    // Nesting past the decoder's depth limit is an error, not a stack
    // overflow that takes the server down.
    let deep = client.round_trip(&"[".repeat(200_000));
    assert_eq!(status(&deep), "error", "{deep:?}");

    // The connection (and the server) survived all of the above.
    let alive = client.round_trip(&check_request("ok", &clean_program(7202), ""));
    assert_eq!(status(&alive), "ok", "{alive:?}");
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn full_queue_answers_overloaded() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    // Occupy the single worker...
    let mut busy = Client::connect(addr);
    busy.send(&check_request(
        "busy",
        &clean_program(7300),
        r#","delay_ms":400"#,
    ));
    thread::sleep(Duration::from_millis(150)); // worker has surely dequeued it
                                               // ...fill the queue...
    let mut queued = Client::connect(addr);
    queued.send(&check_request(
        "queued",
        &clean_program(7301),
        r#","delay_ms":400"#,
    ));
    thread::sleep(Duration::from_millis(50));
    // ...and the next submission is shed immediately.
    let mut shed = Client::connect(addr);
    let resp = shed.round_trip(&check_request("shed", &clean_program(7302), ""));
    assert_eq!(status(&resp), "overloaded", "{resp:?}");

    assert_eq!(status(&busy.recv()), "ok");
    assert_eq!(status(&queued.recv()), "ok");
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let (addr, _handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut worker_bound = Client::connect(addr);
    worker_bound.send(&check_request(
        "inflight",
        &clean_program(7400),
        r#","delay_ms":300"#,
    ));
    thread::sleep(Duration::from_millis(100));

    let mut controller = Client::connect(addr);
    let bye = controller.round_trip(r#"{"id":"bye","cmd":"shutdown"}"#);
    assert_eq!(status(&bye), "shutdown", "{bye:?}");

    // The in-flight job still completes and its response is delivered.
    let resp = worker_bound.recv();
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("id").and_then(Value::as_str), Some("inflight"));
    join.join().unwrap();

    // The server is really gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn disk_cache_round_trips_across_a_server_restart() {
    let dir = scratch_dir("disk");
    let program = clean_program(7500);
    let config = || ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Cold server: computes, persists.
    let (addr, handle, join) = boot(config());
    let mut client = Client::connect(addr);
    let cold = client.round_trip(&check_request("cold", &program, ""));
    assert_eq!(status(&cold), "ok", "{cold:?}");
    assert!(!cached(&cold), "{cold:?}");
    handle.begin_shutdown();
    join.join().unwrap();

    // Warm restart: a brand-new server answers the same program from the
    // disk tier without running a detector.
    let (addr, handle, join) = boot(config());
    let mut client = Client::connect(addr);
    let warm = client.round_trip(&check_request("warm", &program, ""));
    assert_eq!(status(&warm), "ok", "{warm:?}");
    assert!(cached(&warm), "disk tier missed after restart: {warm:?}");
    assert_eq!(handle.cache_hits(), 1);
    let as_json = |v: &Value| serde_json::to_string(v.get("report").unwrap()).unwrap();
    assert_eq!(as_json(&cold), as_json(&warm));
    handle.begin_shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detector_subset_and_trace_options_are_honored() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let buggy = std::fs::read_to_string(mir_path("serve_smoke_buggy.mir")).unwrap();
    let mut client = Client::connect(addr);
    // Restricted to double-lock only, the UAF fixture comes back clean.
    let resp = client.round_trip(&check_request(
        "subset",
        &buggy,
        r#","detectors":["double-lock"],"trace":true"#,
    ));
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(findings(&resp), 0, "{resp:?}");
    let trace = resp.get("trace").expect("trace requested");
    assert!(
        trace.get("total_ns").and_then(Value::as_u64).is_some(),
        "{resp:?}"
    );
    // Same set spelled differently (dup + different order) is a cache hit.
    let resp2 = client.round_trip(&check_request(
        "subset2",
        &buggy,
        r#","detectors":["double-lock","double-lock"]"#,
    ));
    assert!(cached(&resp2), "{resp2:?}");
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn every_ok_response_carries_trace_id_and_stage_timings() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    let program = clean_program(7700);

    let miss = client.round_trip(&check_request("miss", &program, ""));
    assert_eq!(status(&miss), "ok", "{miss:?}");
    let miss_trace_id = miss.get("trace_id").and_then(Value::as_u64).unwrap();
    let timing = miss.get("timing").expect("timing on every ok response");
    assert_eq!(
        timing.get("cache").and_then(Value::as_str),
        Some("miss"),
        "{miss:?}"
    );
    let total = timing.get("total_ns").and_then(Value::as_u64).unwrap();
    let queue = timing.get("queue_ns").and_then(Value::as_u64).unwrap();
    let analysis = timing.get("analysis_ns").and_then(Value::as_u64).unwrap();
    assert!(total > 0 && analysis > 0, "{miss:?}");
    assert!(queue <= total && analysis <= total, "{miss:?}");

    // A cache hit skips queue and analysis entirely, and the timing says so.
    let hit = client.round_trip(&check_request("hit", &program, ""));
    assert!(cached(&hit), "{hit:?}");
    let timing = hit.get("timing").unwrap();
    assert_eq!(timing.get("cache").and_then(Value::as_str), Some("hit"));
    assert_eq!(timing.get("queue_ns").and_then(Value::as_u64), Some(0));
    assert_eq!(timing.get("analysis_ns").and_then(Value::as_u64), Some(0));
    let hit_trace_id = hit.get("trace_id").and_then(Value::as_u64).unwrap();
    assert!(
        hit_trace_id > miss_trace_id,
        "trace ids must be distinct and increasing: {miss_trace_id} then {hit_trace_id}"
    );

    // The report bytes are unaffected by the timing envelope.
    let as_json = |v: &Value| serde_json::to_string(v.get("report").unwrap()).unwrap();
    assert_eq!(as_json(&miss), as_json(&hit));
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn stats_reports_uptime_queue_depth_and_inflight_monotonically() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    let first = client.round_trip(r#"{"id":"s1","cmd":"stats"}"#);
    assert_eq!(status(&first), "stats", "{first:?}");
    let stats = first.get("stats").unwrap();
    let uptime1 = stats.get("uptime_ms").and_then(Value::as_u64).unwrap();
    assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("inflight").and_then(Value::as_u64), Some(0));

    let _ = client.round_trip(&check_request("work", &clean_program(7800), ""));
    thread::sleep(Duration::from_millis(5));
    let second = client.round_trip(r#"{"id":"s2","cmd":"stats"}"#);
    let stats = second.get("stats").unwrap();
    let uptime2 = stats.get("uptime_ms").and_then(Value::as_u64).unwrap();
    assert!(
        uptime2 > uptime1,
        "uptime must be monotone: {uptime1} then {uptime2}"
    );
    assert_eq!(
        stats.get("inflight").and_then(Value::as_u64),
        Some(0),
        "no requests in flight when stats is answered: {second:?}"
    );
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_command_reports_latency_quantiles_and_cache_ratio() {
    let (addr, handle, join) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr);
    let program = clean_program(7900);
    for id in ["m1", "m2", "m3"] {
        let resp = client.round_trip(&check_request(id, &program, ""));
        assert_eq!(status(&resp), "ok", "{resp:?}");
    }

    let resp = client.round_trip(r#"{"id":"m","cmd":"metrics"}"#);
    assert_eq!(status(&resp), "metrics", "{resp:?}");
    let metrics = resp.get("metrics").expect("metrics payload");
    assert_eq!(metrics.get("requests").and_then(Value::as_u64), Some(3));
    assert_eq!(metrics.get("ok").and_then(Value::as_u64), Some(3));
    assert!(metrics.get("uptime_ms").and_then(Value::as_u64).is_some());
    assert_eq!(metrics.get("inflight").and_then(Value::as_u64), Some(0));

    let cache = metrics.get("cache").expect("cache submap");
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
    let ratio = cache.get("hit_ratio").and_then(Value::as_f64).unwrap();
    assert!((ratio - 2.0 / 3.0).abs() < 1e-9, "{resp:?}");

    let latency = metrics.get("latency_ns").expect("latency histogram");
    assert_eq!(latency.get("count").and_then(Value::as_u64), Some(3));
    for q in ["p50", "p90", "p99", "mean", "min", "max"] {
        let v = latency.get(q).and_then(Value::as_u64);
        assert!(v.is_some(), "latency_ns missing {q}: {resp:?}");
    }
    let p50 = latency.get("p50").and_then(Value::as_u64).unwrap();
    let p99 = latency.get("p99").and_then(Value::as_u64).unwrap();
    let max = latency.get("max").and_then(Value::as_u64).unwrap();
    assert!(p50 <= p99 && p99 <= max, "{resp:?}");

    // Only the analysis path (one miss) feeds the stage histograms.
    let queue = metrics.get("queue_ns").unwrap();
    assert_eq!(queue.get("count").and_then(Value::as_u64), Some(1));
    let analysis = metrics.get("analysis_ns").unwrap();
    assert_eq!(analysis.get("count").and_then(Value::as_u64), Some(1));
    handle.begin_shutdown();
    join.join().unwrap();
}

#[test]
fn loadgen_smoke_answers_every_request_and_reports_a_valid_bench() {
    use rust_safety_study::serve::loadgen::{run, LoadgenConfig};
    let report = run(&LoadgenConfig {
        requests: 12,
        connections: 3,
        ..LoadgenConfig::default()
    })
    .expect("in-process loadgen");
    assert_eq!(report.requests, 12);
    assert_eq!(report.ok, 12);
    assert_eq!(report.errors, 0);
    assert_eq!(
        report.latency_ns.count, 12,
        "every request must be measured exactly once"
    );
    assert!(
        report.cache_hits >= 6,
        "12 requests over a 6-program mix revisit each program"
    );

    // The BENCH_serve.json payload round-trips through JSON with the
    // stable schema keys downstream diffing relies on.
    let json = serde_json::to_string_pretty(&report.to_value()).unwrap();
    let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(Value::as_str),
        Some("rstudy-bench-serve/v1")
    );
    for key in [
        "requests",
        "ok",
        "errors",
        "cache_hits",
        "statuses",
        "latency_ns",
        "queue_ns",
        "analysis_ns",
        "duration_ms",
        "achieved_rps",
        "mix",
    ] {
        assert!(parsed.get(key).is_some(), "BENCH_serve.json missing {key}");
    }
    let latency = parsed.get("latency_ns").unwrap();
    assert_eq!(latency.get("count").and_then(Value::as_u64), Some(12));
    for q in ["p50", "p90", "p99"] {
        assert!(latency.get(q).and_then(Value::as_u64).is_some(), "{json}");
    }
}

#[test]
fn stdin_mode_pipes_requests_through_the_binary() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rust-safety-study"))
        .args(["serve", "--stdin", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve --stdin");
    let mut stdin = child.stdin.take().unwrap();
    let req = format!(
        "{}\n{}\n",
        check_request("p1", &clean_program(7600), ""),
        check_request("p2", &clean_program(7600), "")
    );
    stdin.write_all(req.as_bytes()).unwrap();
    drop(stdin); // EOF = graceful drain
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains(r#""cached":false"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""cached":true"#), "{}", lines[1]);
}

/// A stdin stream that is not UTF-8 ends `serve --stdin` with an error,
/// after closing the queue so the workers exit instead of waiting on it.
#[test]
fn stdin_mode_ends_with_an_error_on_invalid_utf8() {
    let mut input = std::io::Cursor::new(b"\xff\xfe\n".to_vec());
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let err = serve_stream(config, &mut input, &mut Vec::new())
        .expect_err("a line that is not UTF-8 is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}
