//! End-to-end tests of the `rust-safety-study` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rust-safety-study"))
}

fn mir_path(name: &str) -> String {
    format!("{}/examples/mir/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_reports_the_seeded_uaf_and_fails() {
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("use-after-free"), "{stdout}");
}

#[test]
fn run_detects_the_double_lock_dynamically() {
    let out = bin()
        .args(["run", &mir_path("double_lock.mir")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lock it already holds"), "{stdout}");
}

#[test]
fn run_completes_the_channel_pipeline() {
    let out = bin()
        .args(["run", &mir_path("channel_pipeline.mir"), "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("returned"), "{stdout}");
    assert!(stdout.contains("99"), "{stdout}");
}

#[test]
fn run_reports_the_data_race() {
    let out = bin()
        .args(["run", &mir_path("data_race.mir")])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("data race"), "{stdout}");
}

#[test]
fn lint_prints_implicit_unlock_locations() {
    let out = bin()
        .args(["lint", &mir_path("double_lock.mir")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Unlock points print as `bbN[i]`, like the acquire site.
    assert!(
        stdout.contains("implicit unlock at bb4[0], bb5[2]"),
        "{stdout}"
    );
    assert!(!stdout.contains("Location {"), "{stdout}");
}

#[test]
fn report_emits_tables_and_json() {
    let out = bin().args(["report"]).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Servo"), "{stdout}");
    assert!(stdout.contains("4990"), "{stdout}");

    let out = bin()
        .args(["report", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
}

#[test]
fn corpus_lists_and_prints_entries() {
    let out = bin().args(["corpus"]).output().expect("binary runs");
    assert!(out.status.success());
    let list = String::from_utf8_lossy(&out.stdout);
    assert!(list.contains("uaf_fig7_drop"), "{list}");

    let out = bin()
        .args(["corpus", "double_lock_fig8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let src = String::from_utf8_lossy(&out.stdout);
    assert!(src.contains("rwlock::read"), "{src}");

    let out = bin()
        .args(["corpus", "no_such_entry"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn unknown_command_prints_usage_and_fails() {
    let out = bin().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn check_rejects_malformed_input() {
    let dir = std::env::temp_dir().join("rstudy-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.mir");
    std::fs::write(&path, "fn broken( -> unit {}").unwrap();
    let out = bin()
        .args(["check", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

/// A loop that shifts a chain of `k` constants down one link per trip
/// (`_2 = _3; …; _k = _{k+1}; _{k+1} = _{k+1} + const 1`), so constant
/// propagation forgets one more of them on each pass around the loop.
fn loop_chain_mir(k: usize) -> String {
    use std::fmt::Write;
    let mut s = String::from("fn main() -> unit {\n");
    for i in 1..=k + 1 {
        writeln!(s, "    let _{i}: int;").unwrap();
    }
    s.push_str("\n    bb0: {\n");
    for i in 1..=k + 1 {
        writeln!(s, "        _{i} = const 0;").unwrap();
    }
    s.push_str("        goto -> bb1;\n    }\n\n");
    s.push_str("    bb1: {\n        switchInt(_1) -> [0: bb3, otherwise: bb2];\n    }\n\n");
    s.push_str("    bb2: {\n");
    for i in 2..=k {
        writeln!(s, "        _{i} = _{};", i + 1).unwrap();
    }
    let last = k + 1;
    writeln!(s, "        _{last} = _{last} + const 1;").unwrap();
    s.push_str("        goto -> bb1;\n    }\n\n    bb3: {\n        return;\n    }\n}\n");
    s
}

#[test]
fn check_converges_on_a_long_constant_chain_around_a_loop() {
    let dir = std::env::temp_dir().join("rstudy-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("loop-chain-{}.mir", std::process::id()));
    std::fs::write(&path, loop_chain_mir(40)).unwrap();
    let out = bin()
        .args(["check", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no findings"), "{stdout}");
}

#[test]
fn run_with_trace_prints_the_step_tail() {
    let out = bin()
        .args(["run", &mir_path("use_after_free.mir"), "--trace"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace (last"), "{stdout}");
    assert!(stdout.contains("main::bb0[0]"), "{stdout}");
}

/// `use_after_free.mir` behind a 40,000-iteration counting loop: 160,012
/// steps, more than the telemetry event log keeps. The printed tail must
/// still be the run's last steps, ending at the faulting read in `bb4`.
#[test]
fn run_trace_tail_ends_at_the_fault_on_long_runs() {
    const PROGRAM: &str = "\
fn main() -> int {
    let _1 as bio: BioSlice;
    let _2 as p: *const BioSlice;
    let _3 as i: int;
    let _4 as more: bool;

    bb0: {
        StorageLive(_3);
        StorageLive(_4);
        _3 = const 0;
        goto -> bb1;
    }

    bb1: {
        _4 = _3 < const 40000;
        switchInt(_4) -> [0: bb3, otherwise: bb2];
    }

    bb2: {
        _3 = _3 + const 1;
        goto -> bb1;
    }

    bb3: {
        StorageLive(_1);
        _1 = const 7;
        StorageLive(_2);
        _2 = &raw const _1;
        drop(_1) -> bb4;
    }

    bb4: {
        unsafe _0 = (*_2);
        return;
    }
}
";
    let path = std::env::temp_dir().join(format!("rstudy-long-trace-{}.mir", std::process::id()));
    std::fs::write(&path, PROGRAM).unwrap();
    let out = bin()
        .args(["run", path.to_str().unwrap(), "--trace"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("steps: 160012"), "{stdout}");
    assert!(stdout.contains("trace (last 32 steps):"), "{stdout}");
    let steps: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  interp: "))
        .collect();
    assert_eq!(steps.len(), 32, "{stdout}");
    assert_eq!(steps.last(), Some(&"t0 main::bb4[0]"), "{stdout}");
}

#[test]
fn metrics_json_without_a_value_is_a_usage_error() {
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir"), "--metrics-json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--metrics-json: missing value"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn metrics_json_accepts_the_equals_form() {
    let json_path =
        std::env::temp_dir().join(format!("rstudy-metrics-eq-{}.json", std::process::id()));
    let out = bin()
        .args([
            "check",
            &mir_path("use_after_free.mir"),
            &format!("--metrics-json={}", json_path.display()),
        ])
        .output()
        .expect("binary runs");
    // `check` on a buggy input fails, but the metrics must still be written.
    assert_eq!(out.status.code(), Some(1));
    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    std::fs::remove_file(&json_path).ok();
    assert!(json.contains("\"suite\""), "{json}");
}

#[test]
fn metrics_json_with_an_empty_equals_value_is_a_usage_error() {
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir"), "--metrics-json="])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--metrics-json: missing value"), "{stderr}");
}

/// Writes a small Rust tree with several lowerable files and ingests it;
/// returns the manifest path.
fn ingested_manifest(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rstudy-cli-ingest")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    for (file, source) in [
        ("math.rs", "fn double(x: i32) -> i32 { x * 2 }\nfn quad(x: i32) -> i32 { double(double(x)) }\n"),
        ("raw.rs", "unsafe fn read(p: *const u8) -> u8 { *p }\nfn write_one(p: *mut i32) { unsafe { *p = 1; } }\n"),
        ("sum.rs", "fn add(x: i32, y: i32) -> i32 { x + y }\nfn add3(x: i32) -> i32 { add(add(x, x), x) }\n"),
        ("id.rs", "fn id(x: u8) -> u8 { x }\n"),
    ] {
        std::fs::write(dir.join("src").join(file), source).unwrap();
    }
    let manifest = dir.join("manifest.json");
    rust_safety_study::ingest::ingest(&dir, "cli-jobs")
        .unwrap()
        .save(&manifest)
        .unwrap();
    manifest
}

#[test]
fn jobs_does_not_change_check_output() {
    let manifest = ingested_manifest("jobs");
    let manifest = manifest.to_str().unwrap();
    for extra in [&[][..], &["--json"][..]] {
        let run = |jobs: &str| {
            bin()
                .args(["check", "--manifest", manifest, "--jobs", jobs])
                .args(extra)
                .output()
                .expect("binary runs")
        };
        let base = run("1");
        let parallel = run("4");
        assert_eq!(base.status.code(), parallel.status.code());
        assert_eq!(
            base.stdout, parallel.stdout,
            "reports must be byte-identical"
        );
        let stdout = String::from_utf8_lossy(&base.stdout);
        assert!(
            stdout.contains("4 program(s)") || stdout.contains(r#""programs":4"#),
            "every lowered file is checked: {stdout}"
        );
    }
}

#[test]
fn invalid_jobs_values_are_usage_errors() {
    for bad in ["0", "-2", "many"] {
        let out = bin()
            .args(["check", &mir_path("use_after_free.mir"), "--jobs", bad])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--jobs {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--jobs"), "{stderr}");
    }
    let out = bin()
        .args(["check", &mir_path("use_after_free.mir"), "--jobs"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs: missing value"), "{stderr}");
}

#[test]
fn every_command_rejects_arguments_it_does_not_take() {
    let uaf = &mir_path("use_after_free.mir")[..];
    let lock = &mir_path("double_lock.mir")[..];
    let examples = &mir_path("")[..];
    // Each row: the arguments, and what the first line of stderr must name.
    for (args, names) in [
        (&["run", uaf, "--seed", "abc"][..], "--seed"),
        (&["run", uaf, "--seed"][..], "--seed: missing value"),
        (&["run", uaf, "--max-steps", "lots"][..], "--max-steps"),
        (
            &["run", uaf, "--max-steps"][..],
            "--max-steps: missing value",
        ),
        // A typo of `--naive` must not run the precise analysis instead.
        (&["check", uaf, "--nave"][..], "--nave"),
        (&["check", uaf, "extra.mir"][..], "extra.mir"),
        // Arguments are rejected before the manifest is read.
        (&["check", "--manifest", "manifest.json", uaf][..], uaf),
        (&["lint", lock, "--bogus"][..], "--bogus"),
        (&["lint", lock, "extra.mir"][..], "extra.mir"),
        // A typo'd path is not a tree without unsafe code.
        (&["scan", "no/such/dir"][..], "no/such/dir"),
        (&["scan", examples, "--bogus"][..], "--bogus"),
        // A typo of `--json` must not print the text tables instead.
        (&["report", "--jsn"][..], "--jsn"),
        (&["corpus", "uaf_heap", "extra"][..], "extra"),
        (&["ingest", examples, "--bogus"][..], "--bogus"),
        (&["serve", "--stdin", "--bogus"][..], "--bogus"),
    ] {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.contains(names), "{args:?}: {error}");
    }
}

#[test]
fn check_json_is_deterministic_and_machine_readable() {
    let run = || {
        bin()
            .args(["check", &mir_path("serve_smoke_buggy.mir"), "--json"])
            .output()
            .expect("binary runs")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.status.code(), Some(1), "findings keep the failure exit");
    assert_eq!(a.stdout, b.stdout, "JSON report must be deterministic");
    let text = String::from_utf8(a.stdout).unwrap();
    assert!(text.starts_with("{\"diagnostics\":["), "{text}");
    assert!(text.contains("use-after-free"), "{text}");
    assert_eq!(text.lines().count(), 1, "one compact line: {text}");
}

#[test]
fn check_json_on_a_clean_program_succeeds_with_empty_diagnostics() {
    let out = bin()
        .args(["check", &mir_path("serve_smoke_clean.mir"), "--json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.trim(), "{\"diagnostics\":[]}");
}

#[test]
fn trace_out_writes_a_chrome_trace_with_balanced_span_pairs() {
    use serde::Value;
    let trace_path =
        std::env::temp_dir().join(format!("rstudy-chrome-trace-{}.json", std::process::id()));
    let out = bin()
        .args([
            "check",
            &mir_path("serve_smoke_buggy.mir"),
            "--json",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "findings keep the failure exit");
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    std::fs::remove_file(&trace_path).ok();

    let events: Value = serde_json::from_str(&json).expect("valid JSON");
    let events = events.as_array().expect("a Chrome trace is a JSON array");
    assert!(!events.is_empty(), "{json}");
    let mut begins = std::collections::BTreeMap::new();
    let mut ends = std::collections::BTreeMap::new();
    for e in events {
        for key in ["name", "ph", "ts", "pid", "tid", "cat"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        let name = e.get("name").and_then(Value::as_str).unwrap().to_owned();
        match e.get("ph").and_then(Value::as_str).unwrap() {
            "B" => *begins.entry(name).or_insert(0u64) += 1,
            "E" => *ends.entry(name).or_insert(0u64) += 1,
            "i" => {
                assert_eq!(e.get("s").and_then(Value::as_str), Some("t"), "{e:?}");
            }
            other => panic!("unexpected phase {other}: {e:?}"),
        }
    }
    assert!(!begins.is_empty(), "no duration spans recorded: {json}");
    assert_eq!(begins, ends, "every B needs a matching E per span name");
    assert!(begins.contains_key("suite"), "{begins:?}");
}

#[test]
fn check_json_is_byte_identical_with_tracing_enabled() {
    let trace_path =
        std::env::temp_dir().join(format!("rstudy-trace-identity-{}.json", std::process::id()));
    let plain = bin()
        .args(["check", &mir_path("serve_smoke_buggy.mir"), "--json"])
        .output()
        .expect("binary runs");
    let traced = bin()
        .args([
            "check",
            &mir_path("serve_smoke_buggy.mir"),
            "--json",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&trace_path).ok();
    assert_eq!(plain.status.code(), traced.status.code());
    assert_eq!(
        plain.stdout, traced.stdout,
        "tracing must not perturb report bytes"
    );
}

#[test]
fn serve_stdin_flushes_metrics_json_on_graceful_shutdown() {
    use std::io::Write;
    use std::process::Stdio;
    let json_path =
        std::env::temp_dir().join(format!("rstudy-serve-metrics-{}.json", std::process::id()));
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
    let program = std::fs::read_to_string(mir_path("serve_smoke_clean.mir")).unwrap();
    let request = format!(
        r#"{{"id":"m1","program":{}}}"#,
        serde_json::to_string(&serde::Value::Str(program)).unwrap()
    );
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(request.as_bytes()).unwrap();
    stdin.write_all(b"\n").unwrap();
    drop(stdin); // EOF = graceful drain, then main flushes the metrics
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&json_path).expect("metrics file written");
    std::fs::remove_file(&json_path).ok();
    let snap: rust_safety_study::telemetry::Snapshot =
        serde_json::from_str(&json).expect("metrics parse as a Snapshot");
    let check = snap
        .span_at("serve.worker/serve.request/serve.check")
        .unwrap_or_else(|| panic!("no serve.check span: {json}"));
    assert_eq!(check.count, 1, "{json}");
    assert_eq!(snap.histograms["serve.queue_depth"].count, 1, "{json}");
}

#[test]
fn serve_flag_validation_is_a_usage_error() {
    // Each row: the arguments, and what the error line (printed before
    // the usage text) must name.
    for (args, names) in [
        // `--jobs` is a `check` flag: a stray argument for serve.
        (&["serve", "--jobs", "0"][..], "--jobs"),
        (&["serve", "--jobs", "2"][..], "--jobs"),
        (&["serve", "--port", "notaport"][..], "--port"),
        (&["serve", "--timeout-ms", "0"][..], "--timeout-ms"),
        (&["serve", "--queue-depth", "0"][..], "--queue-depth"),
        (&["serve", "--workers", "0"][..], "--workers"),
        (&["serve", "stray-arg"][..], "stray-arg"),
        // `--transport` is not an option: a stray argument.
        (&["serve", "--transport", "epoll"][..], "--transport"),
        // The scrape endpoint lives on the TCP event loop only.
        (&["serve", "--stdin", "--metrics-port", "0"][..], "TCP mode"),
    ] {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.contains(names), "{args:?}: {error}");
    }
}
