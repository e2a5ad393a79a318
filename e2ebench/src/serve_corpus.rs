//! `serve-corpus`: IDE and CI callers sending small inline programs.
//!
//! Two connections each run a closed loop over the seeded corpus stream
//! (see `stream.rs`): three of every four requests miss the result cache,
//! the fourth repeats one sent 16 requests earlier and hits it. Analysis
//! costs tens of microseconds per request here, so transport, request
//! decode, the cache, the queue hand-off and the per-request suite pool
//! decide the numbers.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use rust_safety_study::core::suite::Report;
use rust_safety_study::corpus::{all_entries, CorpusEntry};
use serde_json::Value;

use crate::client::{self, phase, Conn, Expect, Requests, Server};
use crate::metrics::{self, median, Outcome};
use crate::stream::{CorpusStream, Lines};
use crate::trace::{self, Sums, Tracer};
use crate::{Args, CONNECTIONS};

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `tail_ms` is p90. Above it, sub-millisecond requests meet multi-ms
/// scheduling stalls of a shared 2-vCPU host on 0.2–2 % of requests, and
/// p95–p99.9 moved 20–140 % between runs of the same code there.
const TAIL_PERMILLE: usize = 900;
/// Requests per connection replayed by the traced run.
const TRACED_PER_CONN: usize = 2048;

struct CorpusRequests {
    stream: CorpusStream,
    lines: Lines,
}

impl CorpusRequests {
    fn new(seed: u64, conn: usize, entries: &[&CorpusEntry], trace: bool) -> CorpusRequests {
        CorpusRequests {
            stream: CorpusStream::new(seed, conn as u64),
            lines: Lines::new(entries, trace),
        }
    }
}

impl Requests for CorpusRequests {
    fn next_request(&mut self) -> (&[u8], Expect) {
        let op = self.stream.next().expect("the stream is endless");
        let expect = Expect {
            tag: op.entry as u32,
            cached: op.cached,
        };
        (self.lines.stamp(&op), expect)
    }
}

fn classes(entry: &CorpusEntry) -> BTreeSet<&'static str> {
    entry.static_bugs.iter().copied().collect()
}

/// Starts a server and connects the clients; the time this takes, with
/// building the request lines, is one set-up.
fn set_up(
    args: &Args,
    work: &Path,
    entries: &[&'static CorpusEntry],
    trace: bool,
) -> Result<(Server, Vec<Conn>, Vec<CorpusRequests>), String> {
    let requests = (0..CONNECTIONS)
        .map(|c| CorpusRequests::new(args.seed, c, entries, trace))
        .collect();
    let server = Server::start(&args.server, work).map_err(|e| format!("serve: {e}"))?;
    let conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((server, conns, requests))
}

fn tear_down(server: Server, conns: Vec<Conn>) -> Result<(), String> {
    conns.into_iter().for_each(Conn::close);
    server.stop().map_err(|e| format!("serve: {e}"))
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    if args.trace {
        return traced(args, work);
    }
    let entries = all_entries();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((server, conns, _)) = ready.take() {
            tear_down(server, conns)?;
        }
        let started = Instant::now();
        ready = Some(set_up(args, work, &entries, false)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (server, mut conns, mut requests) = ready.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (logs, elapsed) = phase(&mut conns, &mut requests, deadline, usize::MAX, false);
    let rss = server.peak_rss_mb().map_err(|e| e.to_string());
    tear_down(server, conns)?;

    let mut out = Outcome::default();
    let mut latencies = client::latencies(&logs);
    let completed = latencies.len();
    out.attempted = client::attempted(&logs);
    out.failed = client::count_failures(&logs, |tag| classes(entries[tag as usize]));
    let latency = metrics::latency(&mut latencies, TAIL_PERMILLE);
    out.end_to_end(median(setups), completed, elapsed, &latency, rss?);
    Ok(out)
}

/// Replays the first `TRACED_PER_CONN` requests of each connection's
/// stream against a fresh server without and then with `"trace": true`,
/// keeping each traced response's `timing` beside its client latency, and
/// then replays the same requests in process, layer by layer.
fn traced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let entries = all_entries();
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let far = Instant::now() + Duration::from_secs(3600);

    let (server, mut conns, mut requests) = set_up(args, work, &entries, false)?;
    let (plain, _) = phase(&mut conns, &mut requests, far, TRACED_PER_CONN, false);
    tear_down(server, conns)?;
    let (server, mut conns, mut requests) = set_up(args, work, &entries, true)?;
    let (logs, _) = phase(&mut conns, &mut requests, far, TRACED_PER_CONN, true);
    tear_down(server, conns)?;

    let classes_of = |tag: u32| classes(entries[tag as usize]);
    out.failed =
        client::count_failures(&plain, classes_of) + client::count_failures(&logs, classes_of);
    out.attempted = client::attempted(&plain) + client::attempted(&logs);

    let mut layers = BTreeMap::new();
    let ops = trace::served_spans(&mut tr, &logs, &mut layers, &mut out);

    // The same requests, in process: decode, parse, validate, the suite
    // and report encoding for misses; decode and encoding for hits.
    let mut sums = Sums::default();
    let mut decoded_bytes = 0u64;
    let mut reports: HashMap<usize, Report> = HashMap::new();
    let mut programs = Vec::new();
    for (c, log) in logs.iter().enumerate() {
        let mut replay = CorpusRequests::new(args.seed, c, &entries, true);
        for (pos, sample) in log.samples.iter().enumerate() {
            let op = trace::op_id(c, pos);
            let (line, expect) = replay.next_request();
            let line = std::str::from_utf8(line)
                .map_err(|e| e.to_string())?
                .trim_end();
            decoded_bytes += line.len() as u64;
            let root = tr.open("replay", op, None);
            let value: Value = tr
                .time("serde_json.request_decode", op, Some(root), || {
                    serde_json::from_str(line)
                })
                .map_err(|e| format!("request decode: {e}"))?;
            let entry = expect.tag as usize;
            if !sample.expect.cached {
                let text = value
                    .get("program")
                    .and_then(Value::as_str)
                    .unwrap_or_default();
                let program = trace::parse_traced(&mut tr, op, Some(root), text, &mut sums)?;
                let report = trace::suite_traced(&mut tr, op, Some(root), &program, &mut sums);
                reports.insert(entry, report);
                programs.push((op, program));
            }
            let report = reports
                .get(&entry)
                .ok_or("a repeat preceded its original")?;
            tr.time("serde_json.report_encode", op, Some(root), || {
                serde_json::to_string(report)
            })
            .map_err(|e| e.to_string())?;
            tr.close(root);
        }
    }
    for (op, program) in &programs {
        trace::analysis_traced(&mut tr, *op, program);
    }
    trace::analysis_counts(programs.iter().map(|(_, p)| p), ops, &mut layers);
    trace::layer_metrics(&tr, &sums, ops, &mut layers);
    trace::codec_layers(&tr, ops, decoded_bytes, &mut layers);
    trace::served_quality(&tr, &plain, &mut layers);
    tr.write(&crate::trace_path(args))
        .map_err(|e| e.to_string())?;
    metrics::emit_layers(&mut out, &layers);
    Ok(out)
}
