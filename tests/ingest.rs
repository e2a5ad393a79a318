//! End-to-end tests of the ingestion pipeline: golden stats over a small
//! fixture tree, manifest determinism, the `rstudy ingest` / `check
//! --manifest` CLI, and `rstudy-serve` analyzing an ingested corpus
//! through the protocol's `manifest` + `entry` request fields.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use rust_safety_study::ingest::{ingest, Manifest};
use rust_safety_study::serve::{ServeConfig, Server};
use serde::Value;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rust-safety-study"))
}

/// Builds the fixture tree: two lowerable files (one with unsafe), one
/// control-flow-only file, one empty file, and a `target/` decoy that the
/// walker must prune.
fn fixture_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rstudy-ingest-e2e")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::create_dir_all(dir.join("target")).unwrap();
    std::fs::write(
        dir.join("src/math.rs"),
        "fn double(x: i32) -> i32 { x * 2 }\n\
         fn quadruple(x: i32) -> i32 { double(double(x)) }\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("src/raw.rs"),
        "unsafe fn read(p: *const u8) -> u8 { *p }\n\
         fn write_one(p: *mut i32) { unsafe { *p = 1; } }\n",
    )
    .unwrap();
    std::fs::write(dir.join("src/loops.rs"), "fn spin() { loop {} }\n").unwrap();
    std::fs::write(dir.join("src/empty.rs"), "").unwrap();
    std::fs::write(dir.join("target/generated.rs"), "fn ignored() {}\n").unwrap();
    dir
}

#[test]
fn fixture_tree_has_golden_stats() {
    let dir = fixture_tree("golden");
    let m = ingest(&dir, "golden").unwrap();
    // Walk: target/ pruned; files: 3 scanned, the empty one skipped.
    assert_eq!(m.walk_skips.get("target-dir"), Some(&1));
    assert_eq!(m.summary.files_scanned, 3);
    assert_eq!(m.summary.files_skipped, 1);
    assert_eq!(m.file_skips.get("empty"), Some(&1));
    // Scan: `unsafe fn read` plus the `unsafe {}` block in write_one.
    assert_eq!(m.summary.unsafe_usages, 2);
    assert_eq!(m.stats.total, 2);
    assert_eq!(m.stats.breakdown.by_kind.get("function"), Some(&1));
    assert_eq!(m.stats.breakdown.by_kind.get("block"), Some(&1));
    // Lower: 4 straight-line fns lowered, the loop skipped with a reason.
    assert_eq!(m.summary.fns_lowered, 4);
    assert_eq!(m.fn_skips.get("control-flow"), Some(&1));
    // File list is sorted and fully hashed.
    let paths: Vec<&str> = m.files.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(paths, vec!["src/loops.rs", "src/math.rs", "src/raw.rs"]);
    assert!(m.files.iter().all(|f| f.hash.starts_with("fnv1a64:")));
}

#[test]
fn manifests_are_byte_identical_across_runs() {
    let dir = fixture_tree("determinism");
    let one = ingest(&dir, "d").unwrap();
    let two = ingest(&dir, "d").unwrap();
    assert_eq!(one.to_json(), two.to_json());
}

#[test]
fn cli_ingest_then_check_manifest_round_trips() {
    let dir = fixture_tree("cli");
    let out_dir = dir.join("out");
    let out = bin()
        .args([
            "ingest",
            dir.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--name",
            "cli-fixture",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("cli-fixture: scanned 3 file(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("memory-ops"), "{stdout}");

    let manifest_path = out_dir.join("manifest.json");
    let m = Manifest::load(&manifest_path).unwrap();
    assert_eq!(m.name, "cli-fixture");
    assert!(out_dir.join("stats-diff.json").exists());

    let check = bin()
        .args([
            "check",
            "--manifest",
            manifest_path.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("binary runs");
    let check_stdout = String::from_utf8_lossy(&check.stdout);
    assert!(check.status.success(), "{check_stdout}");
    let v: Value = serde_json::from_str(check_stdout.trim()).unwrap();
    assert_eq!(v.get("programs").and_then(Value::as_u64), Some(2));
    assert_eq!(v.get("findings").and_then(Value::as_u64), Some(0));
}

#[test]
fn check_manifest_rejects_an_invalid_unit_with_a_usage_error() {
    let dir = fixture_tree("invalid");
    let manifest_path = dir.join("manifest.json");
    ingest(&dir, "invalid-fixture")
        .unwrap()
        .save(&manifest_path)
        .unwrap();
    // Rewrite the manifest in place so `double` returns a local it never
    // declared: the unit still parses, but fails validation.
    let before = std::fs::read_to_string(&manifest_path).unwrap();
    let after = before.replacen("_0 = _2;", "_0 = _9;", 1);
    assert_ne!(before, after);
    std::fs::write(&manifest_path, after).unwrap();

    let manifest = manifest_path.to_str().unwrap();
    let out = bin()
        .args(["check", "--manifest", manifest])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!(
            "check: {manifest}: src/math.rs: invalid program: "
        )),
        "{stderr}"
    );
    assert!(stderr.contains("_9 out of range"), "{stderr}");
}

#[test]
fn serve_analyzes_every_ingested_entry_with_zero_errors() {
    let dir = fixture_tree("serve");
    let manifest = ingest(&dir, "serve-fixture").unwrap();
    let manifest_path = dir.join("manifest.json");
    manifest.save(&manifest_path).unwrap();

    let server = Server::bind(0, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut round_trip = |line: String| -> Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        serde_json::from_str(response.trim())
            .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    };

    let entries: Vec<String> = manifest
        .lowered_units()
        .map(|(path, _)| path.to_owned())
        .collect();
    assert!(!entries.is_empty());
    for (i, entry) in entries.iter().enumerate() {
        let v = round_trip(format!(
            r#"{{"id":"m-{i}","manifest":{},"entry":{}}}"#,
            serde_json::to_string(&manifest_path.to_str().unwrap().to_owned()).unwrap(),
            serde_json::to_string(entry).unwrap(),
        ));
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("ok"),
            "entry {entry}: {v:?}"
        );
        assert!(v.get("report").is_some(), "entry {entry}: {v:?}");
    }

    // A missing entry degrades to `error` without dropping the connection.
    let v = round_trip(format!(
        r#"{{"id":"miss","manifest":{},"entry":"src/empty.rs"}}"#,
        serde_json::to_string(&manifest_path.to_str().unwrap().to_owned()).unwrap(),
    ));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));

    // Rewrite the manifest in place at the same length, planting an
    // uninitialized read in `double`: the server must decode the new bytes
    // and analyze the changed program, not replay its memo or cache.
    let math_request = format!(
        r#"{{"id":"math","manifest":{},"entry":"src/math.rs"}}"#,
        serde_json::to_string(&manifest_path.to_str().unwrap().to_owned()).unwrap(),
    );
    let before = std::fs::read_to_string(&manifest_path).unwrap();
    let after = before.replacen("_2 = _1 * const 2;", "_1 = _1 * const 2;", 1);
    assert_ne!(before, after);
    assert_eq!(before.len(), after.len());
    std::fs::write(&manifest_path, after).unwrap();
    let v = round_trip(math_request.clone());
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"), "{v:?}");
    assert_eq!(v.get("cached"), Some(&Value::Bool(false)), "{v:?}");
    let report = serde_json::to_string(v.get("report").unwrap()).unwrap();
    assert!(report.contains("uninit-read"), "{report}");

    // Once the file is gone, the request answers `error`.
    std::fs::remove_file(&manifest_path).unwrap();
    let v = round_trip(math_request);
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("error"),
        "{v:?}"
    );

    let v = round_trip(r#"{"cmd":"shutdown"}"#.to_owned());
    assert_eq!(v.get("status").and_then(Value::as_str), Some("shutdown"));
    join.join().unwrap();
}
