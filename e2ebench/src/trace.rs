//! The traced run's span recorder and the in-process layer replays.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions, kept in memory, written out at exit, and
//! reduced to per-layer self time: a span's duration minus the part its
//! child spans cover. Each span carries the id of the operation it belongs
//! to, so the spans of one request or program can be followed together.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use rust_safety_study::analysis::cache::AnalysisCache;
use rust_safety_study::core::suite::{DetectorSuite, Report};
use rust_safety_study::mir::parse::parse_program;
use rust_safety_study::mir::validate::validate_program;
use rust_safety_study::mir::Program;
use serde_json::Value;

use crate::client::ConnLog;
use crate::metrics::Outcome;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `t` as nanoseconds since this tracer started.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (a client latency, a
    /// server-reported stage).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Σ self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns_each()) {
            *out.entry(s.name).or_insert(0) += ns;
        }
        out
    }

    /// Σ duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Σ self time of the direct children of the spans named `root`.
    pub fn covered_ns(&self, root: &str) -> u64 {
        let self_ns = self.self_ns_each();
        self.spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|(_, ns)| ns)
            .sum()
    }

    fn self_ns_each(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span operation id unique over the connections of a run.
pub fn op_id(conn: usize, pos: usize) -> u64 {
    ((conn as u64) << 32) | pos as u64
}

/// Records each traced response beside its client latency: the latency
/// as an `op` span, and inside it the server's `total_ns` with its
/// `queue_ns` and `analysis_ns` stages (from the response's `timing`).
/// Fills the `service.*` layers, checks that the server's total never
/// exceeds the client latency and that the cache answered exactly the
/// requests the stream built as repeats. Returns the request count.
pub fn served_spans(
    tr: &mut Tracer,
    logs: &[ConnLog],
    layers: &mut BTreeMap<String, f64>,
    out: &mut Outcome,
) -> usize {
    let (mut n, mut hits, mut built_hits, mut over) = (0usize, 0usize, 0usize, 0usize);
    let (mut total_sum, mut queue_sum, mut analysis_sum, mut unattributed) =
        (0u64, 0u64, 0u64, 0u64);
    for (c, log) in logs.iter().enumerate() {
        for (pos, (s, raw)) in log.samples.iter().zip(&log.raw).enumerate() {
            let op = op_id(c, pos);
            let start = tr.at(s.sent);
            let end = start + s.latency_ns;
            let root = tr.record("op", op, None, start, end);
            let timing = std::str::from_utf8(raw)
                .ok()
                .and_then(|l| serde_json::from_str::<Value>(l.trim_end()).ok())
                .and_then(|v| v.get("timing").cloned())
                .unwrap_or(Value::Null);
            let field = |k: &str| timing.get(k).and_then(Value::as_u64).unwrap_or(0);
            let (total, queue, analysis) =
                (field("total_ns"), field("queue_ns"), field("analysis_ns"));
            if total > s.latency_ns {
                over += 1;
            }
            let total = total.min(s.latency_ns);
            let queue = queue.min(total);
            let analysis = analysis.min(total - queue);
            let from = end - total;
            let server = tr.record("service.server_total", op, Some(root), from, end);
            tr.record("service.queue", op, Some(server), from, from + queue);
            tr.record(
                "service.analysis",
                op,
                Some(server),
                from + queue,
                from + queue + analysis,
            );
            total_sum += total;
            queue_sum += queue;
            analysis_sum += analysis;
            unattributed += s.latency_ns - total;
            hits += usize::from(timing.get("cache").and_then(Value::as_str) == Some("hit"));
            built_hits += usize::from(s.expect.cached);
            n += 1;
        }
    }
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / n.max(1) as f64;
    layers.insert(
        "service.unattributed_ms".to_owned(),
        per_op_ms(unattributed),
    );
    layers.insert("service.server_total_ms".to_owned(), per_op_ms(total_sum));
    layers.insert("service.queue_ms".to_owned(), per_op_ms(queue_sum));
    layers.insert("service.analysis_ms".to_owned(), per_op_ms(analysis_sum));
    layers.insert(
        "service.cache_hit_ratio".to_owned(),
        hits as f64 / n.max(1) as f64,
    );
    out.check(over == 0, || {
        format!("the server's total_ns exceeds the client latency on {over} of {n} requests")
    });
    out.check(hits == built_hits, || {
        format!("{hits} of {n} requests hit the cache; the stream built {built_hits} repeats")
    });
    out.notes
        .push(format!("{n} traced requests, {hits} of them cache hits"));
    n
}

/// Per-layer quantities that are not span times: detector attribution,
/// suite overhead, bytes and counts. All are sums over the replayed ops.
#[derive(Default)]
pub struct Sums {
    pub detector_ns: BTreeMap<&'static str, u64>,
    pub task_ns: u64,
    pub suite_overhead_ns: i64,
    pub parsed_bytes: u64,
}

/// Parses and validates `text` inside spans under `parent`.
pub fn parse_traced(
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    text: &str,
    sums: &mut Sums,
) -> Result<Program, String> {
    let program = tr
        .time("mir.parse", op, parent, || parse_program(text))
        .map_err(|e| format!("parse error: {e}"))?;
    sums.parsed_bytes += text.len() as u64;
    tr.time("mir.validate", op, parent, || validate_program(&program))
        .map_err(|errs| format!("invalid program: {}", errs[0]))?;
    Ok(program)
}

/// Runs the full suite at the default job count inside a `core.suite`
/// span, charging each detector's task time and the pool's overhead.
pub fn suite_traced(
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    program: &Program,
    sums: &mut Sums,
) -> Report {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let span = tr.open("core.suite", op, parent);
    let (report, timings) = DetectorSuite::new().check_program_timed(program);
    tr.close(span);
    let wall = tr.spans[span].end_ns - tr.spans[span].start_ns;
    let tasks = timings.len() * (program.iter().count() + 1);
    let task_ns: u64 = timings.iter().map(|t| t.wall_ns).sum();
    for t in &timings {
        *sums.detector_ns.entry(t.name).or_insert(0) += t.wall_ns;
    }
    sums.task_ns += task_ns;
    sums.suite_overhead_ns += wall as i64 - (task_ns / workers.min(tasks).max(1) as u64) as i64;
    report
}

/// Computes every `AnalysisCache` fact of `program` on a fresh cache, one
/// span per accessor and body, under one `analysis` root for the op.
pub fn analysis_traced(tr: &mut Tracer, op: u64, program: &Program) {
    let root = tr.open("analysis", op, None);
    let cache = AnalysisCache::new(program);
    for (f, _) in program.iter() {
        tr.time("analysis.points_to", op, Some(root), || cache.points_to(f));
        tr.time("analysis.storage_dead", op, Some(root), || {
            cache.storage_dead(f);
        });
        tr.time("analysis.maybe_freed", op, Some(root), || {
            cache.maybe_freed(f);
        });
        tr.time("analysis.maybe_invalid", op, Some(root), || {
            cache.maybe_invalid(f);
        });
        tr.time("analysis.held_guards", op, Some(root), || {
            cache.held_guards(f);
            cache.acquisitions(f);
        });
        tr.time("analysis.heap_state", op, Some(root), || {
            cache.heap_state(f);
        });
    }
    tr.time("analysis.call_graph", op, Some(root), || {
        cache.call_graph();
    });
    tr.close(root);
}

/// The fixpoint counters the analyses already publish through telemetry
/// (`analysis.points-to.iterations`, `analysis.dataflow.block_visits`)
/// from computing every fact of every program once, per op. A separate
/// pass, so that the counters' cost stays out of the timed replay.
pub fn analysis_counts<'a>(
    programs: impl Iterator<Item = &'a Program>,
    ops: usize,
    layers: &mut BTreeMap<String, f64>,
) {
    use rust_safety_study::telemetry;
    telemetry::reset();
    telemetry::enable();
    let mut untimed = Tracer::new();
    for program in programs {
        analysis_traced(&mut untimed, 0, program);
    }
    telemetry::disable();
    let snap = telemetry::snapshot();
    telemetry::reset();
    let iterations = snap
        .histograms
        .get("analysis.points-to.iterations")
        .map_or(0, |h| h.sum);
    let visits = snap
        .counters
        .get("analysis.dataflow.block_visits")
        .copied()
        .unwrap_or(0);
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    layers.insert(
        "analysis.points-to.iterations".to_owned(),
        per_op(iterations),
    );
    layers.insert("analysis.dataflow.block_visits".to_owned(), per_op(visits));
}

/// The `serde_json.*` layers of a served replay: per-op request decode,
/// manifest decode and report encode times, and decode throughput over
/// `decoded_bytes`.
pub fn codec_layers(
    tr: &Tracer,
    ops: usize,
    decoded_bytes: u64,
    layers: &mut BTreeMap<String, f64>,
) {
    let self_ns = tr.self_ns();
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let n = ops.max(1) as f64;
    let decode_ns = ns("serde_json.request_decode") + ns("serde_json.manifest_decode");
    for (metric, value) in [
        (
            "serde_json.request_decode_us",
            ns("serde_json.request_decode") / 1e3 / n,
        ),
        (
            "serde_json.manifest_decode_ms",
            ns("serde_json.manifest_decode") / 1e6 / n,
        ),
        (
            "serde_json.report_encode_us",
            ns("serde_json.report_encode") / 1e3 / n,
        ),
        (
            "serde_json.decode_mb_s",
            decoded_bytes as f64 / (decode_ns / 1e9) / 1e6,
        ),
    ] {
        layers.insert(metric.to_owned(), value);
    }
}

/// `trace.coverage` and `trace.overhead` of a served replay: the share of
/// traced client latency the in-process `replay` spans account for, and
/// the traced pass's mean latency over the untraced pass's, minus one.
pub fn served_quality(tr: &Tracer, plain: &[ConnLog], layers: &mut BTreeMap<String, f64>) {
    let traced_ns = tr.total_ns("op") as f64;
    let traced_ops = tr.spans.iter().filter(|s| s.name == "op").count().max(1) as f64;
    let plain_ns: u64 = plain
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.latency_ns)
        .sum();
    let plain_ops = plain.iter().map(|l| l.samples.len()).sum::<usize>().max(1) as f64;
    layers.insert(
        "trace.coverage".to_owned(),
        tr.covered_ns("replay") as f64 / traced_ns,
    );
    layers.insert(
        "trace.overhead".to_owned(),
        (traced_ns / traced_ops) / (plain_ns as f64 / plain_ops) - 1.0,
    );
}

/// Turns span self times and sums over `ops` operations into per-op
/// per-layer metrics.
pub fn layer_metrics(tr: &Tracer, sums: &Sums, ops: usize, layers: &mut BTreeMap<String, f64>) {
    let self_ns = tr.self_ns();
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops.max(1) as f64;
    for (span, metric) in [
        ("mir.parse", "mir.parse_ms"),
        ("mir.validate", "mir.validate_ms"),
        ("core.suite", "core.suite_ms"),
        ("analysis.points_to", "analysis.points_to_ms"),
        ("analysis.storage_dead", "analysis.storage_dead_ms"),
        ("analysis.maybe_freed", "analysis.maybe_freed_ms"),
        ("analysis.maybe_invalid", "analysis.maybe_invalid_ms"),
        ("analysis.held_guards", "analysis.held_guards_ms"),
        ("analysis.heap_state", "analysis.heap_state_ms"),
        ("analysis.call_graph", "analysis.call_graph_ms"),
    ] {
        if let Some(&ns) = self_ns.get(span) {
            layers.insert(metric.to_owned(), per_op_ms(ns));
        }
    }
    if let Some(&ns) = self_ns.get("mir.parse") {
        layers.insert(
            "mir.parse_mb_s".to_owned(),
            sums.parsed_bytes as f64 / (ns as f64 / 1e9) / 1e6,
        );
    }
    for (name, ns) in &sums.detector_ns {
        layers.insert(format!("core.detector.{name}_ms"), per_op_ms(*ns));
    }
    if !sums.detector_ns.is_empty() {
        let analysis_ns = tr.total_ns("analysis");
        layers.insert(
            "core.detectors_only_ms".to_owned(),
            (sums.task_ns as f64 - analysis_ns as f64) / 1e6 / ops.max(1) as f64,
        );
        layers.insert(
            "core.suite_overhead_ms".to_owned(),
            sums.suite_overhead_ns as f64 / 1e6 / ops.max(1) as f64,
        );
    }
}
