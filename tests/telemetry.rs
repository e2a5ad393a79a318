//! End-to-end tests of the telemetry CLI surface: `--profile`,
//! `--metrics-json`, and `--trace`.

use std::process::Command;

use rust_safety_study::core::suite::DetectorSuite;
use rust_safety_study::telemetry::Snapshot;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rust-safety-study"))
}

fn mir_path(name: &str) -> String {
    format!("{}/examples/mir/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn metrics_json_contains_one_span_per_detector() {
    let json_path =
        std::env::temp_dir().join(format!("rstudy-metrics-{}.json", std::process::id()));
    let out = bin()
        .args([
            "check",
            &mir_path("use_after_free.mir"),
            "--metrics-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    // `check` on a buggy input fails, but must still write the metrics.
    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    let _ = std::fs::remove_file(&json_path);
    let snap: Snapshot = serde_json::from_str(&json).unwrap_or_else(|e| {
        panic!("metrics must parse as a Snapshot: {e} in {json}");
    });

    let suite = snap
        .span_at("suite")
        .expect("the detector suite records a root span");
    for name in DetectorSuite::new().detector_names() {
        let child = format!("detector.{name}");
        let node = suite
            .children
            .iter()
            .find(|n| n.name == child)
            .unwrap_or_else(|| panic!("missing span {child} in {json}"));
        assert_eq!(node.count, 1, "{child} must run exactly once");
    }
    // Per-detector wall time and finding counts are present.
    assert!(suite.children.iter().all(|n| n.max_ns >= n.min_ns));
    assert_eq!(snap.counters["detector.use-after-free.findings"], 1);
    // The engines underneath report fixpoint iteration counts.
    assert!(
        snap.histograms.keys().any(|k| k.ends_with(".iterations")),
        "expected a fixpoint iteration histogram, got {:?}",
        snap.histograms.keys().collect::<Vec<_>>()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn served_detector_spans_nest_under_serve_check() {
    use std::io::Write;
    use std::process::Stdio;
    let json_path =
        std::env::temp_dir().join(format!("rstudy-serve-spans-{}.json", std::process::id()));
    let mut child = bin()
        .args([
            "serve",
            "--stdin",
            "--workers",
            "1",
            "--metrics-json",
            json_path.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve --stdin");
    let request = format!(
        r#"{{"id":"s1","path":{:?}}}"#,
        mir_path("serve_smoke_buggy.mir")
    );
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "{request}").unwrap();
    drop(stdin); // EOF = graceful drain, then the metrics are written
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    let _ = std::fs::remove_file(&json_path);
    let snap: Snapshot = serde_json::from_str(&json).expect("metrics parse as a Snapshot");

    assert!(
        snap.span_at("suite").is_none(),
        "no root suite node: {json}"
    );
    let suite = snap
        .span_at("serve.worker/serve.request/serve.check/suite")
        .unwrap_or_else(|| panic!("the suite runs inside serve.check: {json}"));
    assert_eq!(suite.count, 1);
    for name in DetectorSuite::new().detector_names() {
        let child = format!("detector.{name}");
        let node = suite
            .children
            .iter()
            .find(|n| n.name == child)
            .unwrap_or_else(|| panic!("missing span {child} under serve.check/suite"));
        assert_eq!(node.count, 1, "{child}");
    }
    let detectors: u64 = suite.children.iter().map(|n| n.total_ns).sum();
    assert!(
        detectors <= suite.total_ns,
        "{detectors} > {}",
        suite.total_ns
    );
}

#[test]
fn trace_out_has_a_span_pair_per_detector() {
    use serde::Value;
    let trace_path =
        std::env::temp_dir().join(format!("rstudy-detector-trace-{}.json", std::process::id()));
    bin()
        .args([
            "check",
            &mir_path("use_after_free.mir"),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    let events: Value = serde_json::from_str(&json).expect("valid JSON");
    let events = events.as_array().expect("a Chrome trace is a JSON array");
    for name in DetectorSuite::new().detector_names() {
        let span = format!("detector.{name}");
        let count = |phase: &str| {
            events
                .iter()
                .filter(|e| {
                    e.get("name").and_then(Value::as_str) == Some(span.as_str())
                        && e.get("ph").and_then(Value::as_str) == Some(phase)
                })
                .count()
        };
        assert_eq!((count("B"), count("E")), (1, 1), "{span} in {json}");
    }
}

#[test]
fn profile_prints_the_span_tree() {
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir"), "--profile"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("── telemetry ──"), "{stdout}");
    for name in DetectorSuite::new().detector_names() {
        assert!(stdout.contains(&format!("detector.{name}")), "{stdout}");
    }
    assert!(stdout.contains("counters:"), "{stdout}");
}

#[test]
fn each_cached_fact_is_timed_under_the_detector_that_needs_it_first() {
    let json_path =
        std::env::temp_dir().join(format!("rstudy-fact-spans-{}.json", std::process::id()));
    bin()
        .args([
            "check",
            &mir_path("use_after_free.mir"),
            "--metrics-json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    let _ = std::fs::remove_file(&json_path);
    let snap: Snapshot = serde_json::from_str(&json).expect("metrics parse as a Snapshot");

    // Use-after-free runs first and seeks storage liveness and maybe-freed
    // at its dereference; invalid-free is the first to seek maybe-invalid.
    for path in [
        "suite/detector.use-after-free/analysis.points_to",
        "suite/detector.use-after-free/analysis.storage_dead",
        "suite/detector.use-after-free/analysis.maybe_freed",
        "suite/detector.invalid-free/analysis.maybe_invalid",
    ] {
        let node = snap
            .span_at(path)
            .unwrap_or_else(|| panic!("missing span {path} in {json}"));
        assert_eq!(node.count, 1, "{path} is computed once for one body");
    }
    // Each fact is computed once, so it is timed under one detector only,
    // and a fact no detector seeks (constants: nothing is indexed) is never
    // computed at all.
    let facts: Vec<&str> = snap
        .iter_spans()
        .into_iter()
        .map(|(_, node)| node.name.as_str())
        .filter(|name| name.starts_with("analysis."))
        .collect();
    let mut distinct = facts.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(facts.len(), distinct.len(), "{facts:?}");
    assert!(!facts.contains(&"analysis.const_prop"), "{facts:?}");
}

#[test]
fn run_profile_reports_interpreter_metrics() {
    let out = bin()
        .args([
            "run",
            &mir_path("channel_pipeline.mir"),
            "--seed",
            "3",
            "--profile",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interp.run"), "{stdout}");
    assert!(stdout.contains("interp.sync_events"), "{stdout}");
    assert!(stdout.contains("interp.context_switches"), "{stdout}");
}

#[test]
fn check_trace_lists_every_detector() {
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir"), "--trace"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in DetectorSuite::new().detector_names() {
        assert!(
            stdout.contains(&format!("check: detector {name} finished")),
            "{stdout}"
        );
    }
}

#[test]
fn telemetry_stays_silent_without_flags() {
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("telemetry"), "{stdout}");
    assert!(!stdout.contains("check: detector"), "{stdout}");
}
