//! `check-scale`: time to a verdict for one large program, in process.
//!
//! Each operation makes the calls `check <file.mir>` makes — parse,
//! validate, then the full detector suite at the default job count — on
//! one program of the seeded pool, one program at a time. No JSON and no
//! service are involved, so points-to and the dataflow analyses dominate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rust_safety_study::core::suite::{DetectorSuite, Report};
use rust_safety_study::mir::parse::parse_program;
use rust_safety_study::mir::validate::validate_program;

use crate::metrics::{self, median, Outcome};
use crate::scale::{pool, ScaleProgram};
use crate::trace::{self, Sums, Tracer};
use crate::Args;

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `tail_ms` is p99: the largest programs, mostly long reverse chains.
/// A 30-second run completes ~2,500 checks, so ~25 lie beyond it.
const TAIL_PERMILLE: usize = 990;

fn check(text: &str) -> Result<Report, String> {
    let program = parse_program(text).map_err(|e| format!("parse error: {e}"))?;
    validate_program(&program).map_err(|errs| format!("invalid program: {}", errs[0]))?;
    Ok(DetectorSuite::new().check_program(&program))
}

fn verdict_ok(report: &Report, p: &ScaleProgram) -> bool {
    let mut found: Vec<&str> = report
        .diagnostics()
        .iter()
        .map(|d| d.bug_class.code())
        .collect();
    found.sort_unstable();
    found.dedup();
    found == p.expected
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut programs = Vec::new();
    for _ in 0..SETUPS {
        // Free the previous pool first, so each set-up starts alike.
        drop(std::mem::take(&mut programs));
        let started = Instant::now();
        programs = pool(args.seed);
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut out = Outcome::default();
    let mut samples = Vec::new();
    let mut per_shape: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut last = start;
    for p in programs.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let report = check(&p.text);
        last = Instant::now();
        let ns = (last - t).as_nanos() as u64;
        samples.push(ns);
        let shape = per_shape.entry(p.shape.name()).or_default();
        *shape = (shape.0 + ns, shape.1 + 1);
        if !report.is_ok_and(|r| verdict_ok(&r, p)) {
            out.failed += 1;
        }
    }
    let sizes = programs.iter().map(|p| p.statements);
    out.notes.push(format!(
        "pool of {} programs, {}..={} statements; mean ms per check by shape: {}",
        programs.len(),
        sizes.clone().min().unwrap_or(0),
        sizes.max().unwrap_or(0),
        per_shape
            .iter()
            .map(|(shape, (ns, n))| format!("{shape} {:.2}", *ns as f64 / 1e6 / *n as f64))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.attempted = samples.len() as u64;
    let completed = samples.len();
    let latency = metrics::latency(&mut samples, TAIL_PERMILLE);
    let rss = crate::client::peak_rss_mb("/proc/self/status").map_err(|e| e.to_string())?;
    out.end_to_end(median(setups), completed, last - start, &latency, rss);
    Ok(out)
}

/// One untraced and one traced pass over the pool, then the analysis
/// replays: per-layer times, the fixpoint counts, coverage and overhead.
fn traced(args: &Args) -> Result<Outcome, String> {
    let programs = pool(args.seed);
    let mut out = Outcome::default();

    let start = Instant::now();
    for p in &programs {
        let _ = check(&p.text);
    }
    let untraced_ns = start.elapsed().as_nanos() as f64;

    let mut tr = Tracer::new();
    let mut sums = Sums::default();
    let mut parsed = Vec::with_capacity(programs.len());
    for (i, p) in programs.iter().enumerate() {
        let op = i as u64;
        let root = tr.open("op", op, None);
        let result =
            trace::parse_traced(&mut tr, op, Some(root), &p.text, &mut sums).map(|program| {
                (
                    trace::suite_traced(&mut tr, op, Some(root), &program, &mut sums),
                    program,
                )
            });
        tr.close(root);
        out.attempted += 1;
        match result {
            Ok((report, program)) => {
                if !verdict_ok(&report, p) {
                    out.failed += 1;
                }
                parsed.push(program);
            }
            Err(_) => out.failed += 1,
        }
    }
    for (i, program) in parsed.iter().enumerate() {
        trace::analysis_traced(&mut tr, i as u64, program);
    }
    let ops = programs.len();
    let mut layers = BTreeMap::new();
    trace::analysis_counts(parsed.iter(), ops, &mut layers);
    trace::layer_metrics(&tr, &sums, ops, &mut layers);
    let traced_ns = tr.total_ns("op") as f64;
    let coverage = tr.covered_ns("op") as f64 / traced_ns;
    layers.insert("trace.coverage".to_owned(), coverage);
    layers.insert("trace.overhead".to_owned(), traced_ns / untraced_ns - 1.0);
    out.check(coverage >= 0.95, || {
        format!("parse + validate + suite cover {coverage:.4} of per-program time, under 0.95")
    });
    out.notes.push(format!(
        "{ops} programs; parse + validate + suite self time covers {:.2} % of per-program time",
        100.0 * coverage
    ));
    tr.write(&crate::trace_path(args))
        .map_err(|e| e.to_string())?;
    metrics::emit_layers(&mut out, &layers);
    Ok(out)
}
