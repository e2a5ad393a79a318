//! `serve-manifest`: CI re-checking an ingested corpus.
//!
//! Set-up generates the seeded synthetic tree, ingests it with
//! `rust-safety-study ingest` into a manifest sized like the self-host one,
//! starts the server and sends one untimed pass over every lowered unit,
//! so every timed request is a cache hit. The analysis then does nothing;
//! the server still loads and decodes the whole manifest for each request.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rust_safety_study::core::suite::Report;
use rust_safety_study::ingest::{lower_source, walk_rust_files, Manifest};
use rust_safety_study::scan::{read_rust_source, scan_source};
use serde_json::Value;

use crate::client::{self, phase, Conn, Expect, Requests, Server};
use crate::metrics::{self, median, Outcome};
use crate::rng::Rng;
use crate::trace::{self, Tracer};
use crate::tree::{tree, SourceFile};
use crate::{Args, CONNECTIONS};

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `tail_ms` is p90: a 30-second run completes ~200 requests, so ~20 lie
/// beyond it.
const TAIL_PERMILLE: usize = 900;
const MANIFEST: &str = "out/manifest.json";

/// Requests for manifest units: one fixed pass (warm-up), or pass after
/// pass in a seeded order (timed phase).
struct UnitRequests {
    lines: Vec<Vec<u8>>,
    order: Vec<usize>,
    pos: usize,
    reshuffle: Option<Rng>,
    cached: bool,
}

impl Requests for UnitRequests {
    fn next_request(&mut self) -> (&[u8], Expect) {
        if self.pos == self.order.len() {
            self.pos = 0;
            if let Some(rng) = &mut self.reshuffle {
                rng.shuffle(&mut self.order);
            }
        }
        let unit = self.order[self.pos];
        self.pos += 1;
        let expect = Expect {
            tag: unit as u32,
            cached: self.cached,
        };
        (&self.lines[unit], expect)
    }
}

fn unit_lines(files: &[SourceFile], trace: bool) -> Vec<Vec<u8>> {
    files
        .iter()
        .map(|f| {
            let mut line = format!("{{\"manifest\":\"{MANIFEST}\",\"entry\":");
            crate::stream::push_json_string(&mut line, &f.rel);
            if trace {
                line.push_str(",\"trace\":true");
            }
            line.push_str("}\n");
            line.into_bytes()
        })
        .collect()
}

/// The warm-up's requests: each connection takes every other unit once
/// (`FILES` is a multiple of `CONNECTIONS`).
fn warm_up_requests(files: &[SourceFile]) -> Vec<UnitRequests> {
    (0..CONNECTIONS)
        .map(|c| UnitRequests {
            lines: unit_lines(files, false),
            order: (c..files.len()).step_by(CONNECTIONS).collect(),
            pos: 0,
            reshuffle: None,
            cached: false,
        })
        .collect()
}

/// The timed phase's requests: every unit, pass after pass, in an order
/// reshuffled per pass and per connection.
fn pass_requests(seed: u64, files: &[SourceFile], trace: bool) -> Vec<UnitRequests> {
    (0..CONNECTIONS)
        .map(|c| {
            let mut rng = Rng::new(seed, 0x3A4 + c as u64);
            let mut order: Vec<usize> = (0..files.len()).collect();
            rng.shuffle(&mut order);
            UnitRequests {
                lines: unit_lines(files, trace),
                order,
                pos: 0,
                reshuffle: Some(rng),
                cached: true,
            }
        })
        .collect()
}

fn classes_of(files: &[SourceFile]) -> impl Fn(u32) -> BTreeSet<&'static str> + '_ {
    |tag| files[tag as usize].classes.iter().copied().collect()
}

/// Writes the tree and ingests it through the CLI, as users do.
fn ingest(args: &Args, dir: &Path, files: &[SourceFile]) -> Result<(), String> {
    for f in files {
        let path = dir.join("tree").join(&f.rel);
        std::fs::create_dir_all(path.parent().expect("files sit in a directory"))
            .and_then(|()| std::fs::write(&path, &f.text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let status = Command::new(&args.server)
        .args(["ingest", "tree", "--out", "out"])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("ingest: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("ingest exited with {status}"))
    }
}

struct Ready {
    dir: PathBuf,
    files: Vec<SourceFile>,
    server: Server,
    conns: Vec<Conn>,
    /// Warm-up requests that were not answered `ok`, uncached, with the
    /// planted bug classes.
    warm_up_failed: u64,
}

/// One set-up: generate, ingest, start the server, warm its cache.
fn set_up(args: &Args, dir: PathBuf) -> Result<Ready, String> {
    let files = tree(args.seed);
    ingest(args, &dir, &files)?;
    let server = Server::start(&args.server, &dir).map_err(|e| format!("serve: {e}"))?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let far = Instant::now() + Duration::from_secs(3600);
    let mut warm = warm_up_requests(&files);
    let (warm_up, _) = phase(&mut conns, &mut warm, far, files.len() / CONNECTIONS, false);
    let warm_up_failed = client::count_failures(&warm_up, classes_of(&files));
    Ok(Ready {
        dir,
        files,
        server,
        conns,
        warm_up_failed,
    })
}

fn tear_down(ready: Ready) -> Result<(), String> {
    ready.conns.into_iter().for_each(Conn::close);
    ready.server.stop().map_err(|e| format!("serve: {e}"))?;
    std::fs::remove_dir_all(&ready.dir).map_err(|e| e.to_string())
}

/// Checks the set-up: the warm-up's answers, and the manifest the CLI
/// wrote against what the tree planted.
fn check_set_up(ready: &Ready, out: &mut Outcome) -> Result<(), String> {
    let (dir, files, warm_up_failed) = (&ready.dir, &ready.files, ready.warm_up_failed);
    out.check(warm_up_failed == 0, || {
        format!("{warm_up_failed} warm-up requests failed")
    });
    let m = Manifest::load(&dir.join(MANIFEST)).map_err(|e| e.to_string())?;
    let s = &m.summary;
    let planted = (
        files.len(),
        files.iter().map(|f| f.lowered.len()).sum::<usize>(),
        files.iter().map(|f| f.skipped).sum::<usize>(),
        files.iter().map(|f| f.unsafe_usages).sum::<usize>(),
    );
    let got = (
        s.files_scanned,
        s.fns_lowered,
        s.fns_skipped,
        s.unsafe_usages,
    );
    out.check(got == planted, || {
        format!("ingest counts (files, lowered, skipped, unsafe) {got:?}, planted {planted:?}")
    });
    for f in files {
        let entry = m.files.iter().find(|e| e.path == f.rel);
        let lowered: Option<Vec<&str>> = entry
            .and_then(|e| e.lowered.as_ref())
            .map(|u| u.functions.iter().map(|l| l.name.as_str()).collect());
        let ok = lowered.as_deref()
            == Some(&f.lowered.iter().map(String::as_str).collect::<Vec<_>>()[..])
            && entry.map(|e| e.unsafe_usages) == Some(f.unsafe_usages);
        out.check(ok, || {
            format!("{}: ingested units differ from the planted ones", f.rel)
        });
    }
    Ok(())
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    if args.trace {
        return traced(args, work);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready: Option<Ready> = None;
    for i in 0..SETUPS {
        if let Some(r) = ready.take() {
            tear_down(r)?;
        }
        let started = Instant::now();
        ready = Some(set_up(args, work.join(format!("setup-{i}")))?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut out = Outcome::default();
    let ready = ready.expect("at least one set-up");
    check_set_up(&ready, &mut out)?;
    let Ready {
        files,
        server,
        mut conns,
        ..
    } = ready;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut requests = pass_requests(args.seed, &files, false);
    let (logs, elapsed) = phase(&mut conns, &mut requests, deadline, usize::MAX, false);
    let rss = server.peak_rss_mb().map_err(|e| e.to_string());
    conns.into_iter().for_each(Conn::close);
    server.stop().map_err(|e| format!("serve: {e}"))?;

    let mut latencies = client::latencies(&logs);
    let completed = latencies.len();
    out.attempted = client::attempted(&logs);
    out.failed = client::count_failures(&logs, classes_of(&files));
    let latency = metrics::latency(&mut latencies, TAIL_PERMILLE);
    out.end_to_end(median(setups), completed, elapsed, &latency, rss?);
    Ok(out)
}

/// Replays the set-up's ingest layer by layer, then one pass over every
/// unit without and one with `"trace": true` on the warmed server, then
/// the traced pass's requests in process: request decode, manifest
/// decode, report encoding.
fn traced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut out = Outcome::default();
    let mut layers = BTreeMap::new();
    let ready = set_up(args, work.join("traced"))?;
    check_set_up(&ready, &mut out)?;
    let Ready {
        dir,
        files,
        server,
        mut conns,
        ..
    } = ready;

    ingest_layers(&mut tr, &dir.join("tree"), &files, &mut layers, &mut out)?;

    let far = Instant::now() + Duration::from_secs(3600);
    let per_conn = files.len() / CONNECTIONS;
    let mut requests = pass_requests(args.seed, &files, false);
    let (plain, _) = phase(&mut conns, &mut requests, far, per_conn, false);
    let mut requests = pass_requests(args.seed, &files, true);
    let (logs, _) = phase(&mut conns, &mut requests, far, per_conn, true);
    conns.into_iter().for_each(Conn::close);
    server.stop().map_err(|e| format!("serve: {e}"))?;
    out.failed = client::count_failures(&plain, classes_of(&files))
        + client::count_failures(&logs, classes_of(&files));
    out.attempted = client::attempted(&plain) + client::attempted(&logs);

    let ops = trace::served_spans(&mut tr, &logs, &mut layers, &mut out);
    let manifest = std::fs::read_to_string(dir.join(MANIFEST)).map_err(|e| e.to_string())?;
    let mut requests = pass_requests(args.seed, &files, true);
    let (mut decoded_bytes, mut decoded) = (0u64, None);
    for (c, log) in logs.iter().enumerate() {
        for (pos, raw) in log.raw.iter().enumerate() {
            let op = trace::op_id(c, pos);
            let line = std::str::from_utf8(requests[c].next_request().0)
                .map_err(|e| e.to_string())?
                .trim_end()
                .to_owned();
            let report = client::digest(raw)
                .1
                .and_then(|r| std::str::from_utf8(r).ok())
                .and_then(|r| serde_json::from_str::<Report>(r).ok())
                .ok_or("a traced response carries no report")?;
            let root = tr.open("replay", op, None);
            tr.time("serde_json.request_decode", op, Some(root), || {
                serde_json::from_str::<Value>(&line)
            })
            .map_err(|e| format!("request decode: {e}"))?;
            let m = tr
                .time("serde_json.manifest_decode", op, Some(root), || {
                    Manifest::from_json(&manifest)
                })
                .map_err(|e| format!("manifest decode: {e}"))?;
            tr.time("serde_json.report_encode", op, Some(root), || {
                serde_json::to_string(&report)
            })
            .map_err(|e| e.to_string())?;
            tr.close(root);
            decoded_bytes += (line.len() + manifest.len()) as u64;
            decoded = Some(m);
        }
    }
    if let Some(m) = decoded {
        let encoded = tr.time("ingest.manifest_encode", 0, None, || m.to_json());
        out.check(encoded == manifest, || {
            "the decoded manifest does not re-encode to the served bytes".to_owned()
        });
    }

    trace::codec_layers(&tr, ops, decoded_bytes, &mut layers);
    trace::served_quality(&tr, &plain, &mut layers);
    layers.insert(
        "ingest.manifest_encode_ms".to_owned(),
        tr.total_ns("ingest.manifest_encode") as f64 / 1e6,
    );
    out.notes.push(format!(
        "manifest of {} bytes: Manifest::from_json takes {:.2} ms per request in process; \
         the server's total_ns is {:.2} ms per request",
        manifest.len(),
        layers["serde_json.manifest_decode_ms"],
        layers["service.server_total_ms"],
    ));
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    tr.write(&crate::trace_path(args))
        .map_err(|e| e.to_string())?;
    metrics::emit_layers(&mut out, &layers);
    Ok(out)
}

/// The set-up's ingest, replayed in process: walk, read, scan and lower
/// each file, with the counts checked against the planted ones.
fn ingest_layers(
    tr: &mut Tracer,
    root: &Path,
    files: &[SourceFile],
    layers: &mut BTreeMap<String, f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let top = tr.open("ingest", 0, None);
    let walk = tr
        .time("ingest.walk", 0, Some(top), || walk_rust_files(root))
        .map_err(|e| format!("walk: {e}"))?;
    let (mut bytes, mut lowered, mut skipped, mut usages) = (0usize, 0usize, 0usize, 0usize);
    for (i, f) in walk.files.iter().enumerate() {
        let op = i as u64;
        let src = tr
            .time("ingest.read", op, Some(top), || read_rust_source(&f.path))
            .map_err(|e| format!("{}: {e}", f.path.display()))?;
        usages += tr
            .time("scan.scan", op, Some(top), || scan_source(&src))
            .len();
        let lowering = tr.time("ingest.lower", op, Some(top), || lower_source(&src));
        lowered += lowering.functions.len();
        skipped += lowering.skipped.values().sum::<usize>();
        bytes += src.len();
    }
    tr.close(top);
    let planted = (
        files.iter().map(|f| f.lowered.len()).sum::<usize>(),
        files.iter().map(|f| f.skipped).sum::<usize>(),
        files.iter().map(|f| f.unsafe_usages).sum::<usize>(),
    );
    out.check((lowered, skipped, usages) == planted, || {
        format!(
            "replayed ingest counts {:?}, planted {planted:?}",
            (lowered, skipped, usages)
        )
    });
    let self_ns = tr.self_ns();
    let ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let mb_s = |name: &str| bytes as f64 / (ms(name) / 1e3) / 1e6;
    layers.insert("ingest.walk_ms".to_owned(), ms("ingest.walk"));
    layers.insert("scan.scan_ms".to_owned(), ms("scan.scan"));
    layers.insert("scan.mb_s".to_owned(), mb_s("scan.scan"));
    layers.insert("ingest.lower_ms".to_owned(), ms("ingest.lower"));
    layers.insert("ingest.lower_mb_s".to_owned(), mb_s("ingest.lower"));
    layers.insert("ingest.fns_lowered".to_owned(), lowered as f64);
    layers.insert("ingest.fns_skipped".to_owned(), skipped as f64);
    layers.insert("scan.unsafe_usages".to_owned(), usages as f64);
    Ok(())
}
