//! Open-loop load generator for the analysis service. It writes the
//! stable-schema `BENCH_serve.json` artifact so successive commits can be
//! compared number-for-number.
//!
//! The load generator replays a configurable mix of corpus programs
//! against a running server — either one the caller already started
//! (`addr`) or one booted in-process on an ephemeral port — at an
//! open-loop target rate: request *i* is *scheduled* at `start + i/rate`
//! regardless of how fast earlier responses came back, so a slow server
//! shows up as latency instead of silently throttling the workload
//! (bounded by `connections` concurrent in-flight requests per the usual
//! closed-connection caveat).
//!
//! Client-side wall latency is measured per request; server-side
//! `queue_ns`/`analysis_ns` stage timings are harvested from the `timing`
//! object each `ok` response carries, so the report separates "time spent
//! waiting for a worker" from "time spent analyzing".

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rstudy_telemetry::{HistogramSnapshot, LocalHistogram};
use serde::Value;

use crate::server::{histogram_summary, ServeConfig, Server};

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests to send.
    pub requests: usize,
    /// Open-loop target rate in requests/second; `0.0` sends unpaced
    /// (each connection fires as soon as its previous response lands).
    pub rate: f64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Server to hit; `None` boots an in-process server on an ephemeral
    /// loopback port and shuts it down afterwards.
    pub addr: Option<SocketAddr>,
    /// Corpus entry names to cycle through; empty selects
    /// [`LoadgenConfig::default_mix`]. With `manifest` set, names are
    /// root-relative source-file paths inside the manifest instead.
    pub mix: Vec<String>,
    /// Replay lowered programs out of an ingest manifest instead of the
    /// built-in corpus; empty `mix` cycles through every lowered unit.
    pub manifest: Option<std::path::PathBuf>,
    /// Scrape `GET /metrics` during and after the run and embed a
    /// [`ScrapeSummary`] cross-check in the report. For an in-process
    /// server this turns the scrape endpoint on automatically.
    pub scrape: bool,
    /// The external server's scrape endpoint (implies `scrape`); ignored
    /// for in-process runs, which read the bound address directly.
    pub scrape_addr: Option<SocketAddr>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            requests: 100,
            rate: 0.0,
            connections: 4,
            addr: None,
            mix: Vec::new(),
            manifest: None,
            scrape: false,
            scrape_addr: None,
        }
    }
}

impl LoadgenConfig {
    /// The default replay mix: a spread of buggy and fixed programs across
    /// the paper's memory and thread-safety categories, so cache hits and
    /// detector cost both vary across requests.
    pub fn default_mix() -> Vec<String> {
        [
            "uaf_fig7_drop",
            "double_lock_fig8",
            "uaf_fixed",
            "arc_across_threads",
            "buffer_overflow_computed",
            "memcpy_full",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// Everything one loadgen run measured.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Requests sent.
    pub requests: u64,
    /// Responses with status `ok`.
    pub ok: u64,
    /// Responses with status `error`, plus transport failures.
    pub errors: u64,
    /// `ok` responses served from the result cache.
    pub cache_hits: u64,
    /// Response count by status string (transport failures count as
    /// `"transport_error"`).
    pub statuses: BTreeMap<String, u64>,
    /// Wall-clock duration of the whole run.
    pub duration: Duration,
    /// The configured open-loop rate (0 = unpaced).
    pub target_rate: f64,
    /// Requests actually completed per second.
    pub achieved_rps: f64,
    /// Client-side wall latency per request, nanoseconds.
    pub latency_ns: HistogramSnapshot,
    /// Server-reported queue wait per `ok` response, nanoseconds.
    pub queue_ns: HistogramSnapshot,
    /// Server-reported analysis time per `ok` response, nanoseconds.
    pub analysis_ns: HistogramSnapshot,
    /// The replayed mix.
    pub mix: Vec<String>,
    /// Concurrent connections used.
    pub connections: usize,
    /// The `/metrics` cross-check, when scraping was requested.
    pub scrape: Option<ScrapeSummary>,
}

/// What scraping `GET /metrics` during a loadgen run observed — a sanity
/// cross-check between the server's Prometheus counters and the client's
/// own request count, embedded in `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ScrapeSummary {
    /// Successful scrapes (mid-run polls plus the final one).
    pub scrapes: u64,
    /// `rstudy_requests_total` from the final scrape.
    pub requests_total: u64,
    /// `rstudy_request_latency_ns_count` from the final scrape.
    pub latency_count: u64,
    /// `rstudy_requests_total` never decreased across scrapes.
    pub monotone: bool,
    /// Both final values equal the requests this run sent. Expected to
    /// hold only for a fresh in-process server (an external one may carry
    /// earlier traffic).
    pub matches_requests: bool,
}

impl ScrapeSummary {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("scrapes".to_owned(), Value::UInt(self.scrapes)),
            (
                "requests_total".to_owned(),
                Value::UInt(self.requests_total),
            ),
            ("latency_count".to_owned(), Value::UInt(self.latency_count)),
            ("monotone".to_owned(), Value::Bool(self.monotone)),
            (
                "matches_requests".to_owned(),
                Value::Bool(self.matches_requests),
            ),
        ])
    }
}

impl LoadgenReport {
    /// The `BENCH_serve.json` payload. Schema-tagged so downstream diffing
    /// can reject incompatible files instead of misreading them.
    pub fn to_value(&self) -> Value {
        let statuses = self
            .statuses
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let mut value = Value::Map(vec![
            (
                "schema".to_owned(),
                Value::Str("rstudy-bench-serve/v1".to_owned()),
            ),
            ("requests".to_owned(), Value::UInt(self.requests)),
            ("ok".to_owned(), Value::UInt(self.ok)),
            ("errors".to_owned(), Value::UInt(self.errors)),
            ("cache_hits".to_owned(), Value::UInt(self.cache_hits)),
            ("statuses".to_owned(), Value::Map(statuses)),
            (
                "connections".to_owned(),
                Value::UInt(self.connections as u64),
            ),
            ("target_rate".to_owned(), Value::Float(self.target_rate)),
            ("achieved_rps".to_owned(), Value::Float(self.achieved_rps)),
            (
                "duration_ms".to_owned(),
                Value::UInt(self.duration.as_millis() as u64),
            ),
            ("latency_ns".to_owned(), histogram_summary(&self.latency_ns)),
            ("queue_ns".to_owned(), histogram_summary(&self.queue_ns)),
            (
                "analysis_ns".to_owned(),
                histogram_summary(&self.analysis_ns),
            ),
            (
                "mix".to_owned(),
                Value::Seq(self.mix.iter().map(|m| Value::Str(m.clone())).collect()),
            ),
        ]);
        let Value::Map(ref mut entries) = value else {
            unreachable!("built as a map above");
        };
        if let Some(scrape) = &self.scrape {
            entries.push(("scrape".to_owned(), scrape.to_value()));
        }
        value
    }

    /// A short human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen: {} requests over {} connection(s) in {:.2} s ({:.1} req/s)\n",
            self.requests,
            self.connections,
            self.duration.as_secs_f64(),
            self.achieved_rps,
        ));
        out.push_str(&format!(
            "  ok {}  errors {}  cache hits {}\n",
            self.ok, self.errors, self.cache_hits
        ));
        for (label, h) in [
            ("latency", &self.latency_ns),
            ("queue", &self.queue_ns),
            ("analysis", &self.analysis_ns),
        ] {
            if h.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {label:<9} p50 {:>10}  p90 {:>10}  p99 {:>10}  max {:>10}\n",
                format_ns(h.p50()),
                format_ns(h.p90()),
                format_ns(h.p99()),
                format_ns(h.max),
            ));
        }
        if let Some(scrape) = &self.scrape {
            out.push_str(&format!(
                "  scrape    {} scrape(s)  requests_total {}  latency count {}  monotone {}  matches {}\n",
                scrape.scrapes,
                scrape.requests_total,
                scrape.latency_count,
                scrape.monotone,
                scrape.matches_requests,
            ));
        }
        out
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} µs", ns as f64 / 1e3)
    }
}

/// Shared measurement sinks, one per run; all connection threads record
/// into them.
struct Sinks {
    latency_ns: LocalHistogram,
    queue_ns: LocalHistogram,
    analysis_ns: LocalHistogram,
    ok: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
}

/// Runs the load against `config.addr`, or an in-process server when no
/// address is given. Returns an error only on setup failure (bad mix name,
/// unreachable server); per-request failures are counted in the report.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let (mix_names, programs) = if let Some(mpath) = &config.manifest {
        let m = rstudy_ingest::Manifest::load(mpath)?;
        if config.mix.is_empty() {
            let (names, programs): (Vec<String>, Vec<String>) = m
                .lowered_units()
                .map(|(path, unit)| (path.to_owned(), unit.program.clone()))
                .unzip();
            if names.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{}: manifest has no lowered programs", mpath.display()),
                ));
            }
            (names, programs)
        } else {
            let mut programs = Vec::with_capacity(config.mix.len());
            for name in &config.mix {
                let unit = m.find_program(name).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("no lowered program for entry `{name}` in manifest mix"),
                    )
                })?;
                programs.push(unit.program.clone());
            }
            (config.mix.clone(), programs)
        }
    } else {
        let mix_names = if config.mix.is_empty() {
            LoadgenConfig::default_mix()
        } else {
            config.mix.clone()
        };
        let entries = rstudy_corpus::all_entries();
        let mut programs = Vec::with_capacity(mix_names.len());
        for name in &mix_names {
            let entry = entries.iter().find(|e| e.name == *name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown corpus program `{name}` in mix"),
                )
            })?;
            programs.push(entry.source.to_owned());
        }
        (mix_names, programs)
    };
    let connections = config.connections.max(1);

    let scrape = config.scrape || config.scrape_addr.is_some();

    // Boot an in-process server when the caller did not point us at one.
    let (addr, metrics_addr, server_thread, handle) = match config.addr {
        Some(addr) => {
            if scrape && config.scrape_addr.is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--scrape against an external server needs --scrape-addr",
                ));
            }
            (addr, config.scrape_addr, None, None)
        }
        None => {
            let serve_config = ServeConfig {
                metrics_port: scrape.then_some(0),
                ..ServeConfig::default()
            };
            let server = Server::bind(0, serve_config)?;
            let addr = server.local_addr()?;
            let metrics_addr = server.metrics_addr();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            (addr, metrics_addr, Some(thread), Some(handle))
        }
    };

    let sinks = Sinks {
        latency_ns: LocalHistogram::new(),
        queue_ns: LocalHistogram::new(),
        analysis_ns: LocalHistogram::new(),
        ok: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
    };
    let mut statuses: BTreeMap<String, u64> = BTreeMap::new();
    let start = Instant::now();

    let stop_scraping = AtomicBool::new(false);
    let (per_status, monitor): (Vec<BTreeMap<String, u64>>, Option<ScrapeMonitor>) =
        std::thread::scope(|s| {
            let monitor = metrics_addr.map(|maddr| {
                let stop = &stop_scraping;
                s.spawn(move || scrape_monitor(maddr, stop))
            });
            let mut joins = Vec::with_capacity(connections);
            for conn in 0..connections {
                let programs = &programs;
                let sinks = &sinks;
                let rate = config.rate;
                let total = config.requests;
                joins.push(s.spawn(move || {
                    connection_loop(conn, connections, total, rate, start, programs, sinks, addr)
                }));
            }
            let per_status = joins
                .into_iter()
                .map(|j| j.join().unwrap_or_default())
                .collect();
            stop_scraping.store(true, Ordering::Relaxed);
            let monitor = monitor.and_then(|j| j.join().ok());
            (per_status, monitor)
        });
    for map in per_status {
        for (status, n) in map {
            *statuses.entry(status).or_insert(0) += n;
        }
    }
    let duration = start.elapsed();

    let requests = config.requests as u64;

    // The final authoritative scrape happens after every client has its
    // response (so the server has settled all requests) but before the
    // server is torn down.
    let scrape_summary = metrics_addr.map(|maddr| {
        let monitor = monitor.unwrap_or(ScrapeMonitor {
            scrapes: 0,
            monotone: true,
            last_requests_total: 0,
        });
        match scrape_metrics(maddr) {
            Ok(body) => {
                let requests_total = prom_u64(&body, "rstudy_requests_total").unwrap_or(0);
                let latency_count = prom_u64(&body, "rstudy_request_latency_ns_count").unwrap_or(0);
                ScrapeSummary {
                    scrapes: monitor.scrapes + 1,
                    requests_total,
                    latency_count,
                    monotone: monitor.monotone && requests_total >= monitor.last_requests_total,
                    matches_requests: requests_total == requests && latency_count == requests,
                }
            }
            Err(_) => ScrapeSummary {
                scrapes: monitor.scrapes,
                requests_total: monitor.last_requests_total,
                latency_count: 0,
                monotone: monitor.monotone,
                matches_requests: false,
            },
        }
    });

    if let Some(handle) = handle {
        handle.begin_shutdown();
    }
    if let Some(thread) = server_thread {
        let _ = thread.join();
    }

    Ok(LoadgenReport {
        requests,
        ok: sinks.ok.load(Ordering::Relaxed),
        errors: sinks.errors.load(Ordering::Relaxed),
        cache_hits: sinks.cache_hits.load(Ordering::Relaxed),
        statuses,
        duration,
        target_rate: config.rate,
        achieved_rps: requests as f64 / duration.as_secs_f64().max(1e-9),
        latency_ns: sinks.latency_ns.snapshot(),
        queue_ns: sinks.queue_ns.snapshot(),
        analysis_ns: sinks.analysis_ns.snapshot(),
        mix: mix_names,
        connections,
        scrape: scrape_summary,
    })
}

/// Mid-run scrape state carried out of the monitor thread.
struct ScrapeMonitor {
    scrapes: u64,
    monotone: bool,
    last_requests_total: u64,
}

/// Polls `GET /metrics` every ~50 ms until told to stop, checking that
/// `rstudy_requests_total` only ever grows. Scrape failures are skipped
/// (the endpoint may not be accepting yet right at startup).
fn scrape_monitor(addr: SocketAddr, stop: &AtomicBool) -> ScrapeMonitor {
    let mut state = ScrapeMonitor {
        scrapes: 0,
        monotone: true,
        last_requests_total: 0,
    };
    while !stop.load(Ordering::Relaxed) {
        if let Ok(body) = scrape_metrics(addr) {
            state.scrapes += 1;
            let total = prom_u64(&body, "rstudy_requests_total").unwrap_or(0);
            if total < state.last_requests_total {
                state.monotone = false;
            }
            state.last_requests_total = total;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    state
}

/// One-shot `GET /metrics` against the scrape endpoint; returns the
/// response body with HTTP headers stripped.
fn scrape_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: loadgen\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("");
    Ok(body.to_owned())
}

/// Extracts the value of an *unlabeled* series (`name value`) from a
/// Prometheus text exposition body.
fn prom_u64(body: &str, name: &str) -> Option<u64> {
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(value) = rest.strip_prefix(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    return Some(v as u64);
                }
            }
        }
    }
    None
}

/// One connection's share of the run: requests `i` with
/// `i % connections == conn`, each sent no earlier than its open-loop
/// scheduled time.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    conn: usize,
    connections: usize,
    total: usize,
    rate: f64,
    start: Instant,
    programs: &[String],
    sinks: &Sinks,
    addr: SocketAddr,
) -> BTreeMap<String, u64> {
    let mut statuses = BTreeMap::new();
    let mut bump = |status: &str| *statuses.entry(status.to_owned()).or_insert(0u64) += 1;

    let stream = match TcpStream::connect(addr) {
        Ok(s) => {
            // The client writes a whole frame at a time and then waits for
            // the response; Nagle would hold the frame's tail for a
            // delayed ACK that is never coming early.
            let _ = s.set_nodelay(true);
            s
        }
        Err(_) => {
            // Count the whole share as transport errors rather than
            // silently shrinking the run.
            let share = (conn..total).step_by(connections).count() as u64;
            sinks.errors.fetch_add(share, Ordering::Relaxed);
            statuses.insert("transport_error".to_owned(), share);
            return statuses;
        }
    };
    let mut reader = BufReader::new(stream.try_clone().expect("clone tcp stream"));
    let mut writer = stream;

    for i in (conn..total).step_by(connections) {
        if rate > 0.0 {
            let scheduled = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
        }
        let program = &programs[i % programs.len()];
        // One contiguous buffer per request (payload + newline) so the
        // frame leaves in a single write, mirroring the server's
        // response framing.
        let mut request = serde_json::to_string(&Value::Map(vec![
            ("id".to_owned(), Value::Str(format!("lg-{i}"))),
            ("program".to_owned(), Value::Str(program.clone())),
        ]))
        .expect("request serialization cannot fail");
        request.push('\n');

        let sent = Instant::now();
        let mut line = String::new();
        let io_result = writer
            .write_all(request.as_bytes())
            .and_then(|()| reader.read_line(&mut line));
        match io_result {
            Ok(0) | Err(_) => {
                sinks.errors.fetch_add(1, Ordering::Relaxed);
                bump("transport_error");
                continue;
            }
            Ok(_) => {}
        }
        sinks.latency_ns.record(sent.elapsed().as_nanos() as u64);

        let Ok(response) = serde_json::from_str::<Value>(line.trim()) else {
            sinks.errors.fetch_add(1, Ordering::Relaxed);
            bump("transport_error");
            continue;
        };
        let status = response
            .get("status")
            .and_then(|s| s.as_str())
            .unwrap_or("unknown");
        bump(status);
        match status {
            "ok" => {
                sinks.ok.fetch_add(1, Ordering::Relaxed);
                if matches!(response.get("cached"), Some(Value::Bool(true))) {
                    sinks.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(timing) = response.get("timing") {
                    if let Some(q) = timing.get("queue_ns").and_then(|v| v.as_u64()) {
                        sinks.queue_ns.record(q);
                    }
                    if let Some(a) = timing.get("analysis_ns").and_then(|v| v.as_u64()) {
                        sinks.analysis_ns.record(a);
                    }
                }
            }
            _ => {
                sinks.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    statuses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_mix_name_is_a_setup_error() {
        let config = LoadgenConfig {
            requests: 1,
            mix: vec!["no_such_program".to_owned()],
            ..LoadgenConfig::default()
        };
        let err = run(&config).unwrap_err();
        assert!(err.to_string().contains("no_such_program"));
    }

    #[test]
    fn manifest_mix_replays_lowered_programs() {
        let dir = std::env::temp_dir().join("rstudy-loadgen-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.rs"), "fn add(x: i32, y: i32) -> i32 { x + y }").unwrap();
        std::fs::write(dir.join("b.rs"), "fn id(x: u8) -> u8 { x }").unwrap();
        let mpath = dir.join("manifest.json");
        rstudy_ingest::ingest(&dir, "lg")
            .unwrap()
            .save(&mpath)
            .unwrap();
        let config = LoadgenConfig {
            requests: 4,
            connections: 2,
            manifest: Some(mpath),
            ..LoadgenConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.ok, 4);
        assert_eq!(report.errors, 0);
        assert_eq!(report.mix, vec!["a.rs".to_owned(), "b.rs".to_owned()]);
    }

    #[test]
    fn unknown_manifest_entry_is_a_setup_error() {
        let dir = std::env::temp_dir().join("rstudy-loadgen-manifest-miss-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.rs"), "fn id(x: u8) -> u8 { x }").unwrap();
        let mpath = dir.join("manifest.json");
        rstudy_ingest::ingest(&dir, "lg")
            .unwrap()
            .save(&mpath)
            .unwrap();
        let config = LoadgenConfig {
            requests: 1,
            manifest: Some(mpath),
            mix: vec!["missing.rs".to_owned()],
            ..LoadgenConfig::default()
        };
        let err = run(&config).unwrap_err();
        assert!(err.to_string().contains("missing.rs"), "{err}");
    }

    #[test]
    fn in_process_loadgen_answers_every_request() {
        let config = LoadgenConfig {
            requests: 8,
            connections: 2,
            ..LoadgenConfig::default()
        };
        let report = run(&config).unwrap();
        assert_eq!(report.requests, 8);
        assert_eq!(report.ok, 8);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency_ns.count, 8);
        assert_eq!(report.statuses.get("ok"), Some(&8));
        // The default mix has 6 programs, so 8 requests revisit at least
        // two of them and must hit the cache.
        assert!(report.cache_hits >= 2, "cache hits: {}", report.cache_hits);
    }
}
