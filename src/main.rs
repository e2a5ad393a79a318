//! `rust-safety-study` — the command-line front end.
//!
//! ```text
//! rust-safety-study check <file.mir> [--naive] [--json]   run the static detectors
//! rust-safety-study check --manifest <path> [--jobs N]   run the suite over an ingested corpus
//! rust-safety-study run <file.mir> [--seed N]      execute on the checked interpreter
//! rust-safety-study lint <file.mir>                IDE-style lints (implicit unlocks, …)
//! rust-safety-study scan <path>...                 unsafe-usage scanner over .rs files
//! rust-safety-study ingest <dir> [--out <dir>]     register a real-Rust tree as a corpus
//! rust-safety-study report [--json]                regenerate the study's tables/figures
//! rust-safety-study corpus [name]                  list corpus entries / print one
//! rust-safety-study serve [--port N] [--stdin]     long-running analysis service
//! ```

use std::path::Path;
use std::process::ExitCode;

use rust_safety_study::core::config::DetectorConfig;
use rust_safety_study::core::lints;
use rust_safety_study::core::suite::DetectorSuite;
use rust_safety_study::interp::{Interpreter, InterpreterConfig, SchedulePolicy};
use rust_safety_study::mir::parse::parse_program;
use rust_safety_study::mir::validate::validate_program;
use rust_safety_study::mir::Program;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Telemetry flags are global: valid in any position, for every command.
    let profile = take_flag(&mut args, "--profile");
    let metrics_json = match take_value(&mut args, "--metrics-json") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let trace_out = match take_value(&mut args, "--trace-out") {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let wants_trace = args.iter().any(|a| a == "--trace");
    if profile || metrics_json.is_some() || wants_trace || trace_out.is_some() {
        rstudy_telemetry::enable();
    }
    if wants_trace || trace_out.is_some() {
        rstudy_telemetry::set_tracing(true);
    }
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let code = match cmd.as_str() {
        "check" => cmd_check(&mut args[1..].to_vec()),
        "ingest" => cmd_ingest(&mut args[1..].to_vec()),
        "serve" => cmd_serve(&mut args[1..].to_vec()),
        "run" => cmd_run(&mut args[1..].to_vec()),
        "lint" => cmd_lint(&mut args[1..].to_vec()),
        "scan" => cmd_scan(&mut args[1..].to_vec()),
        "report" => cmd_report(&mut args[1..].to_vec()),
        "corpus" => cmd_corpus(&mut args[1..].to_vec()),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage_error(&format!("unknown command `{other}`")),
    };
    if profile {
        print!("{}", rstudy_telemetry::render_profile());
    }
    if let Some(path) = metrics_json {
        if let Err(e) = std::fs::write(&path, rstudy_telemetry::to_json()) {
            eprintln!("--metrics-json {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, rstudy_telemetry::chrome_trace_json()) {
            eprintln!("--trace-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// Removes every occurrence of `name` from `args`; returns whether any was
/// present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Removes `name <value>` or `name=<value>` from `args`, returning the
/// value. A flag present without a value is an error, not a silently
/// dropped request.
fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let prefix = format!("{name}=");
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        let arg = args.remove(i);
        let value = arg[prefix.len()..].to_owned();
        if value.is_empty() {
            return Err(format!("{name}: missing value"));
        }
        return Ok(Some(value));
    }
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    args.remove(i);
    if i < args.len() {
        Ok(Some(args.remove(i)))
    } else {
        Err(format!("{name}: missing value"))
    }
}

/// Fails on the first argument `cmd` does not take: a flag its parser left
/// in `args`, or a positional beyond the first `positionals`.
fn reject_unknown(cmd: &str, args: &[String], positionals: usize) -> Result<(), String> {
    let flag = args.iter().find(|a| a.starts_with("--"));
    match flag.or(args.get(positionals)) {
        Some(stray) => Err(format!("{cmd}: unexpected argument `{stray}`")),
        None => Ok(()),
    }
}

/// Prints `message` above the usage text; exit status 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

const USAGE: &str = "\
rust-safety-study — static & dynamic Rust-safety tooling (PLDI 2020 reproduction)

USAGE:
  rust-safety-study check <file.mir> [--naive] [--trace] [--json]
  rust-safety-study check --manifest <path> [--json] [--jobs N]
  rust-safety-study run <file.mir> [--seed N] [--max-steps N] [--trace]
  rust-safety-study lint <file.mir>              critical sections & hazards
  rust-safety-study scan <path>...               scan .rs files for unsafe usages
  rust-safety-study ingest <dir> [INGEST FLAGS]  walk/scan/lower a real-Rust tree
  rust-safety-study report [--json]              Tables 1-4, Figures 1-2, §4 stats
  rust-safety-study corpus [name]                list / print corpus programs
  rust-safety-study serve [SERVE FLAGS]          long-running analysis service (NDJSON)

CHECK FLAGS:
  --jobs <N>            programs `check --manifest` analyzes at once
                        (default: all cores; 1 = one at a time; 0 is rejected)

SERVE FLAGS:
  --port <N>            TCP port on 127.0.0.1 (default 0 = kernel-assigned; printed);
                        the TCP mode needs Linux
  --stdin               serve one request per stdin line instead of TCP (portable)
  --cache-dir <path>    persist the result cache on disk across restarts
  --timeout-ms <N>      per-request deadline; exceeding it answers `timeout`
  --workers <N>         analysis worker threads (default: all cores)
  --queue-depth <N>     bounded queue capacity; overflow answers `overloaded` (default 64)
  --metrics-port <N>    also serve `GET /metrics` (Prometheus text) and
                        `GET /healthz` on 127.0.0.1:<N> (0 = kernel-assigned);
                        TCP mode only, not with --stdin
  --access-log <path>   append one JSON line per completed request
  --access-log-sample <N>  log every Nth request only (default 1 = all)
  --slow-ms <N>         promote requests slower than N ms into the flight
                        recorder's incident buffer (`{\"cmd\":\"incidents\"}`)

INGEST FLAGS:
  --out <dir>           write manifest.json and stats-diff.json into <dir>
  --name <name>         corpus name (default: the root directory's name)
  --json                print the full manifest instead of the summary + diff

GLOBAL FLAGS:
  --profile             print the telemetry span/counter tree after the command
  --metrics-json <path> write the full telemetry registry as JSON
  --trace               record (and print) per-step / per-detector trace events
  --trace-out <path>    write spans/events as Chrome trace-event JSON
                        (open in chrome://tracing or Perfetto)";

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    validate_program(&program).map_err(|errs| format!("{path}: invalid program: {}", errs[0]))?;
    Ok(program)
}

fn cmd_check(args: &mut Vec<String>) -> ExitCode {
    let naive = take_flag(args, "--naive");
    let json = take_flag(args, "--json");
    // `main` already turned tracing on for `--trace`.
    take_flag(args, "--trace");
    let parsed = (|| {
        let jobs = match take_value(args, "--jobs")? {
            None => 0,
            Some(s) => match s.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("--jobs: expected a positive integer, got `{s}`")),
            },
        };
        let manifest = take_value(args, "--manifest")?;
        // What is left is `<file.mir>` alone, or nothing with --manifest.
        reject_unknown("check", args, usize::from(manifest.is_none()))?;
        Ok((jobs, manifest))
    })();
    let (jobs, manifest) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let config = if naive {
        DetectorConfig::naive()
    } else {
        DetectorConfig::new()
    };
    if let Some(mpath) = manifest {
        return check_manifest(&mpath, config, jobs, json);
    }
    let Some(path) = args.first() else {
        eprintln!("check: missing <file.mir>");
        return ExitCode::from(2);
    };
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = DetectorSuite::new()
        .with_config(config)
        .check_program(&program);
    if json {
        // The one-line machine-readable form — the same bytes the analysis
        // service embeds under `"report"` for the same program.
        let json = serde_json::to_string(&report).expect("report serialization cannot fail");
        println!("{json}");
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    print_trace_events();
    if report.is_clean() {
        println!("{path}: no findings");
        return ExitCode::SUCCESS;
    }
    for d in report.diagnostics() {
        println!("{d}");
    }
    println!("{}: {} finding(s)", path, report.len());
    ExitCode::FAILURE
}

/// Serializable output of `check --manifest --json`.
#[derive(serde::Serialize)]
struct ManifestCheckOutput {
    manifest: String,
    programs: usize,
    findings: usize,
    reports: Vec<ManifestReportEntry>,
}

/// One `(file, report)` pair in [`ManifestCheckOutput`].
#[derive(serde::Serialize)]
struct ManifestReportEntry {
    path: String,
    report: rust_safety_study::core::suite::Report,
}

/// Runs the detector suite over every lowered program in an ingest
/// manifest (`check --manifest <path>`), `jobs` programs at once. Exit: 2
/// on a load, parse or validation error, failure when any program has
/// findings, success otherwise.
fn check_manifest(mpath: &str, config: DetectorConfig, jobs: usize, json: bool) -> ExitCode {
    use rust_safety_study::ingest::Manifest;
    let m = match Manifest::load(Path::new(mpath)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::from(2);
        }
    };
    let mut programs = Vec::new();
    for (path, unit) in m.lowered_units() {
        let program = match parse_program(&unit.program) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("check: {mpath}: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(errs) = validate_program(&program) {
            eprintln!("check: {mpath}: {path}: invalid program: {}", errs[0]);
            return ExitCode::from(2);
        }
        programs.push((path.to_owned(), program));
    }
    let suite = DetectorSuite::new().with_config(config).with_jobs(jobs);
    let reports = suite.check_programs(programs.iter().map(|(n, p)| (n.as_str(), p)));
    let findings: usize = reports.iter().map(|(_, r)| r.len()).sum();
    if json {
        let out = ManifestCheckOutput {
            manifest: m.name.clone(),
            programs: reports.len(),
            findings,
            reports: reports
                .into_iter()
                .map(|(path, report)| ManifestReportEntry { path, report })
                .collect(),
        };
        let json = serde_json::to_string(&out).expect("report serialization cannot fail");
        println!("{json}");
    } else {
        for (path, report) in &reports {
            for d in report.diagnostics() {
                println!("{path}: {d}");
            }
        }
        println!(
            "{mpath}: {} program(s), {findings} finding(s)",
            reports.len()
        );
    }
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses and runs the `ingest` subcommand: walk a directory of real Rust,
/// scan + lower it, register the corpus manifest, and print the scan-stats
/// diff against the paper's §4 distributions.
fn cmd_ingest(args: &mut Vec<String>) -> ExitCode {
    use rust_safety_study::dataset::compare::compare_scan;
    use rust_safety_study::ingest::{default_corpus_name, ingest};

    let parsed = (|| -> Result<_, String> {
        let out = take_value(args, "--out")?.map(std::path::PathBuf::from);
        let name = take_value(args, "--name")?;
        let json = take_flag(args, "--json");
        reject_unknown("ingest", args, 1)?;
        let root = args
            .first()
            .ok_or_else(|| "ingest: missing <dir>".to_owned())?;
        Ok((std::path::PathBuf::from(root), out, name, json))
    })();
    let (root, out, name, json) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let name = name.unwrap_or_else(|| default_corpus_name(&root));
    let manifest = match ingest(&root, &name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ingest: {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let diff = compare_scan(&manifest.stats);
    if json {
        print!("{}", manifest.to_json());
    } else {
        let s = &manifest.summary;
        println!(
            "{name}: scanned {} file(s) ({} skipped), {} unsafe usage(s), \
             lowered {} fn(s) ({} skipped)",
            s.files_scanned, s.files_skipped, s.unsafe_usages, s.fns_lowered, s.fns_skipped
        );
        print!("{}", diff.render());
    }
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("ingest: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("manifest.json");
        if let Err(e) = manifest.save(&path) {
            eprintln!("ingest: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let diff_path = dir.join("stats-diff.json");
        let diff_json =
            serde_json::to_string_pretty(&diff).expect("diff serialization cannot fail");
        if let Err(e) = std::fs::write(&diff_path, diff_json + "\n") {
            eprintln!("ingest: {}: {e}", diff_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        eprintln!("wrote {}", diff_path.display());
    }
    ExitCode::SUCCESS
}

/// Parses and runs the `serve` subcommand.
fn cmd_serve(args: &mut Vec<String>) -> ExitCode {
    use rust_safety_study::serve::{install_sigint_handler, serve_stream, ServeConfig, Server};

    fn positive(args: &mut Vec<String>, name: &str) -> Result<Option<u64>, String> {
        match take_value(args, name)? {
            None => Ok(None),
            Some(s) => match s.parse::<u64>() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(format!("{name}: expected a positive integer, got `{s}`")),
            },
        }
    }

    let stdin_mode = take_flag(args, "--stdin");
    let parsed = (|| {
        let port = match take_value(args, "--port")? {
            None => 0u16,
            Some(s) => s
                .parse::<u16>()
                .map_err(|_| format!("--port: expected a port number, got `{s}`"))?,
        };
        let timeout_ms = positive(args, "--timeout-ms")?;
        let workers = positive(args, "--workers")?.unwrap_or(0) as usize;
        let queue_depth = positive(args, "--queue-depth")?.unwrap_or(64) as usize;
        let cache_dir = take_value(args, "--cache-dir")?.map(std::path::PathBuf::from);
        let metrics_port = match take_value(args, "--metrics-port")? {
            None => None,
            Some(_) if stdin_mode => {
                return Err("--metrics-port needs the TCP mode (--port); drop --stdin".to_owned())
            }
            Some(s) => Some(
                s.parse::<u16>()
                    .map_err(|_| format!("--metrics-port: expected a port number, got `{s}`"))?,
            ),
        };
        let access_log = take_value(args, "--access-log")?.map(std::path::PathBuf::from);
        let access_log_sample = positive(args, "--access-log-sample")?.unwrap_or(1);
        let slow_ms = positive(args, "--slow-ms")?;
        if let Some(stray) = args.first() {
            return Err(format!("serve: unexpected argument `{stray}`"));
        }
        Ok((
            port,
            timeout_ms,
            workers,
            queue_depth,
            cache_dir,
            metrics_port,
            access_log,
            access_log_sample,
            slow_ms,
        ))
    })();
    let (
        port,
        timeout_ms,
        workers,
        queue_depth,
        cache_dir,
        metrics_port,
        access_log,
        access_log_sample,
        slow_ms,
    ) = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let config = ServeConfig {
        workers,
        queue_depth,
        timeout_ms,
        cache_dir,
        metrics_port,
        access_log,
        access_log_sample,
        slow_ms,
    };

    let served = if stdin_mode {
        serve_stream(
            config,
            &mut std::io::stdin().lock(),
            &mut std::io::stdout().lock(),
        )
    } else {
        install_sigint_handler();
        match Server::bind(port, config) {
            Ok(server) => match server.local_addr() {
                Ok(addr) => {
                    // Both startup banners are machine-read (ci.sh greps the
                    // ephemeral ports out of them); keep the formats stable.
                    println!("rstudy-serve: listening on {addr}");
                    if let Some(maddr) = server.metrics_addr() {
                        println!("rstudy-serve: metrics on {maddr}");
                    }
                    use std::io::Write;
                    let _ = std::io::stdout().flush();
                    server.run()
                }
                Err(e) => Err(e),
            },
            Err(e) => Err(e),
        }
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the telemetry trace event log (used by `check --trace`).
fn print_trace_events() {
    if !rstudy_telemetry::tracing() {
        return;
    }
    let snap = rstudy_telemetry::snapshot();
    for e in &snap.events {
        println!("  {}", e.message);
    }
    if snap.events_dropped > 0 {
        println!("  ... {} trace event(s) dropped", snap.events_dropped);
    }
}

fn cmd_run(args: &mut Vec<String>) -> ExitCode {
    fn integer(args: &mut Vec<String>, name: &str) -> Result<Option<u64>, String> {
        match take_value(args, name)? {
            None => Ok(None),
            Some(s) => s
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("{name}: expected a non-negative integer, got `{s}`")),
        }
    }

    let mut config = InterpreterConfig::default();
    if take_flag(args, "--trace") {
        config.trace_tail = 32;
    }
    let parsed = (|| {
        if let Some(seed) = integer(args, "--seed")? {
            config.policy = SchedulePolicy::Random(seed);
        }
        if let Some(max_steps) = integer(args, "--max-steps")? {
            config.max_steps = max_steps;
        }
        reject_unknown("run", args, 1)?;
        args.first()
            .cloned()
            .ok_or_else(|| "run: missing <file.mir>".to_owned())
    })();
    let path = match parsed {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let program = match load(&path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = Interpreter::new(&program).with_config(config).run();
    println!("steps: {}", outcome.steps);
    if config.trace_tail > 0 {
        println!("trace (last {} steps):", outcome.trace.len());
        for step in &outcome.trace {
            println!("  interp: {step}");
        }
    }
    for r in &outcome.races {
        println!("{r}");
    }
    if outcome.leaked_heap_blocks > 0 {
        println!("leaked heap blocks: {}", outcome.leaked_heap_blocks);
    }
    match &outcome.fault {
        Some(f) => {
            println!("fault: {f}");
            ExitCode::FAILURE
        }
        None => {
            println!("returned: {:?}", outcome.return_value);
            if outcome.races.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn cmd_lint(args: &mut Vec<String>) -> ExitCode {
    // `main` already turned tracing on for `--trace`.
    take_flag(args, "--trace");
    if let Err(e) = reject_unknown("lint", args, 1) {
        return usage_error(&e);
    }
    let Some(path) = args.first() else {
        eprintln!("lint: missing <file.mir>");
        return ExitCode::from(2);
    };
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for (name, body) in program.iter() {
        let sections = lints::critical_sections(body);
        for s in sections {
            let released: Vec<String> = s.released_at.iter().map(|l| l.to_string()).collect();
            println!(
                "{name}: lock acquired at {} (guard {}) — implicit unlock at {}",
                s.acquired_at,
                s.guard,
                released.join(", ")
            );
        }
    }
    for h in lints::blocking_in_critical_section(&program) {
        println!(
            "{}: blocking `{}` at {} while a lock is held",
            h.function, h.operation, h.location
        );
    }
    for c in lints::interior_mutability_calls(&program) {
        println!(
            "{}: call to interior-mutability function `{}` at {} — review its synchronization",
            c.caller, c.callee, c.location
        );
    }
    ExitCode::SUCCESS
}

fn cmd_scan(args: &mut Vec<String>) -> ExitCode {
    // `main` already turned tracing on for `--trace`.
    take_flag(args, "--trace");
    if let Err(e) = reject_unknown("scan", args, usize::MAX) {
        return usage_error(&e);
    }
    if args.is_empty() {
        eprintln!("scan: missing <path>...");
        return ExitCode::from(2);
    }
    // A path that does not exist is an error, not a tree without unsafe code.
    for a in args.iter() {
        if let Err(e) = std::fs::metadata(a) {
            eprintln!("scan: {a}: {e}");
            return ExitCode::from(2);
        }
    }
    let mut stats = rust_safety_study::scan::stats::ScanStats::default();
    for a in args.iter() {
        scan_path(Path::new(a), &mut stats);
    }
    print!("{}", stats.render());
    ExitCode::SUCCESS
}

fn scan_path(path: &Path, stats: &mut rust_safety_study::scan::stats::ScanStats) {
    use rust_safety_study::scan::{scan_source, stats::ScanStats};
    if path.is_dir() {
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                scan_path(&e.path(), stats);
            }
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        if let Ok(src) = std::fs::read_to_string(path) {
            let usages = scan_source(&src);
            for u in &usages {
                println!(
                    "{}:{}: unsafe {:?} ({:?})",
                    path.display(),
                    u.line,
                    u.kind,
                    u.purpose
                );
            }
            stats.merge(&ScanStats::from_usages(&usages));
        }
    }
}

fn cmd_report(args: &mut Vec<String>) -> ExitCode {
    use rust_safety_study::dataset;
    // `main` already turned tracing on for `--trace`.
    take_flag(args, "--trace");
    let json = take_flag(args, "--json");
    if let Err(e) = reject_unknown("report", args, 0) {
        return usage_error(&e);
    }
    if json {
        match dataset::export::DatasetBundle::build().to_json() {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("report: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    print!("{}", dataset::tables::render_table1());
    println!();
    print!("{}", dataset::tables::render_table2());
    println!();
    print!("{}", dataset::tables::render_table3());
    println!();
    print!("{}", dataset::tables::render_table4());
    println!();
    print!("{}", dataset::figures::render_figure1());
    println!();
    print!("{}", dataset::figures::render_figure2());
    println!();
    print!("{}", dataset::unsafe_usages::render());
    ExitCode::SUCCESS
}

fn cmd_corpus(args: &mut Vec<String>) -> ExitCode {
    use rust_safety_study::corpus::all_entries;
    // `main` already turned tracing on for `--trace`.
    take_flag(args, "--trace");
    if let Err(e) = reject_unknown("corpus", args, 1) {
        return usage_error(&e);
    }
    match args.first() {
        None => {
            for e in all_entries() {
                println!(
                    "{:<28} static={:<40} {}",
                    e.name,
                    format!("{:?}", e.static_bugs),
                    e.description
                );
            }
            ExitCode::SUCCESS
        }
        Some(name) => match all_entries().into_iter().find(|e| e.name == *name) {
            Some(e) => {
                print!("{}", e.source.trim_start());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("corpus: no entry named `{name}`");
                ExitCode::FAILURE
            }
        },
    }
}
