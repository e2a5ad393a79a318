//! Closed-loop load generator for the analysis service. It writes the
//! stable-schema `BENCH_serve.json` artifact so successive commits can be
//! compared number-for-number.
//!
//! The load generator replays a configurable mix of corpus programs
//! against a running server — either one the caller already started
//! (`addr`) or one booted in-process on an ephemeral port. Each of the
//! `connections` clients sends its next request as soon as the previous
//! answer lands.
//!
//! Client-side wall latency is measured per request; server-side
//! `queue_ns`/`analysis_ns` stage timings are harvested from the `timing`
//! object each `ok` response carries, so the report separates "time spent
//! waiting for a worker" from "time spent analyzing".

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rstudy_telemetry::{HistogramSnapshot, LocalHistogram};
use serde::Value;

use crate::server::{histogram_summary, ServeConfig, Server};

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Server to hit; `None` boots an in-process server on an ephemeral
    /// loopback port and shuts it down afterwards.
    pub addr: Option<SocketAddr>,
    /// Corpus entry names to cycle through; empty selects
    /// [`LoadgenConfig::default_mix`].
    pub mix: Vec<String>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            requests: 100,
            connections: 4,
            addr: None,
            mix: Vec::new(),
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
        Value::Map(vec![
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
        ])
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
    let connections = config.connections.max(1);

    // Boot an in-process server when the caller did not point us at one.
    let (addr, server_thread, handle) = match config.addr {
        Some(addr) => (addr, None, None),
        None => {
            let server = Server::bind(0, ServeConfig::default())?;
            let addr = server.local_addr()?;
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            (addr, Some(thread), Some(handle))
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

    let per_status: Vec<BTreeMap<String, u64>> = std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(connections);
        for conn in 0..connections {
            let programs = &programs;
            let sinks = &sinks;
            let total = config.requests;
            joins.push(
                s.spawn(move || connection_loop(conn, connections, total, programs, sinks, addr)),
            );
        }
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_default())
            .collect()
    });
    for map in per_status {
        for (status, n) in map {
            *statuses.entry(status).or_insert(0) += n;
        }
    }
    let duration = start.elapsed();
    let requests = config.requests as u64;

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
        achieved_rps: requests as f64 / duration.as_secs_f64().max(1e-9),
        latency_ns: sinks.latency_ns.snapshot(),
        queue_ns: sinks.queue_ns.snapshot(),
        analysis_ns: sinks.analysis_ns.snapshot(),
        mix: mix_names,
        connections,
    })
}

/// One connection's share of the run: requests `i` with
/// `i % connections == conn`, each sent as soon as the previous answer
/// lands.
fn connection_loop(
    conn: usize,
    connections: usize,
    total: usize,
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
