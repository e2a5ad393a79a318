//! The resident analysis server.
//!
//! ```text
//!   TCP clients ──┐                         ┌── worker ──┐
//!   (NDJSON)      ├─ transport (epoll/poll)─┤  bounded   ├─ DetectorSuite
//!   stdin pipe ───┘        │                │  JobQueue  │
//!                          │                └── worker ──┘
//!                          └── ResultCache (mem LRU + disk) ── hit: no work
//! ```
//!
//! Two transports share one request lifecycle:
//!
//! * **epoll** (Linux, the default) — a single I/O thread owns the
//!   nonblocking listener and every connection, reacting to readability
//!   instead of sleeping a poll interval. Complete NDJSON lines are parsed
//!   out of per-connection buffers; cache hits and control commands are
//!   answered inline; cache misses go to the worker pool, whose
//!   completions wake the loop through an eventfd
//!   ([`crate::queue::CompletionQueue`]). There is **no timed sleep
//!   anywhere on the request path**: idle connections cost zero wakeups
//!   and accepts are immediate.
//! * **poll** (portable fallback, `--transport poll`) — a blocking accept
//!   loop plus one handler thread per connection, both re-checking the
//!   shutdown flag every [`POLL_INTERVAL`].
//!
//! All degradation is structured: a full queue answers `overloaded`, an
//! expired deadline answers `timeout`, malformed input answers `error`,
//! and none of them disturb other connections or the server itself.
//! Shutdown (a `shutdown` request, stdin EOF, SIGINT, or
//! [`ServerHandle::begin_shutdown`]) drains accepted jobs, flushes the
//! disk cache, and only then lets [`Server::run`] return.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rstudy_core::config::DetectorConfig;
use rstudy_core::suite::DetectorSuite;
use rstudy_ingest::Manifest;
use rstudy_mir::parse::parse_program;
use rstudy_mir::validate::validate_program;
use rstudy_telemetry::{HistogramSnapshot, LocalHistogram};
use serde::{Serialize, Value};

use crate::cache::{CacheKey, ResultCache};
use crate::obs::{self, Stage};
use crate::protocol::{
    error_response, parse_request, CheckRequest, Command, ProgramSource, ResponseBuilder,
};
#[cfg(target_os = "linux")]
use crate::queue::{CompletionQueue, Notify};
use crate::queue::{JobQueue, PushError};

/// How often the *poll transport's* blocked loops (accept, connection
/// reads) re-check the shutdown flag. The epoll transport never sleeps on
/// a cadence; this constant is its accept-backoff unit only.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a draining server keeps trying to flush already-built
/// responses to clients that have stopped reading (mirrors the poll
/// transport's 10 s write timeout).
const DRAIN_WRITE_GRACE: Duration = Duration::from_secs(10);

/// The connection-handling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Blocking accept/read loops on a 25 ms poll cadence. Portable; the
    /// default off Linux.
    Poll,
    /// A single epoll-driven I/O thread; event-driven accepts, reads,
    /// writes, and worker completions. Linux-only; the default there.
    Epoll,
}

impl Default for Transport {
    fn default() -> Transport {
        if cfg!(target_os = "linux") {
            Transport::Epoll
        } else {
            Transport::Poll
        }
    }
}

impl FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Transport, String> {
        match s {
            "poll" => Ok(Transport::Poll),
            "epoll" => Ok(Transport::Epoll),
            _ => Err(format!("unknown transport `{s}` (valid: poll, epoll)")),
        }
    }
}

/// Server tuning knobs. `Default` matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing analyses (`0` = all cores).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it answer `overloaded`.
    pub queue_depth: usize,
    /// Per-request wall-clock deadline; `None` waits indefinitely.
    pub timeout_ms: Option<u64>,
    /// Disk tier directory for the result cache; `None` = memory only.
    pub cache_dir: Option<PathBuf>,
    /// Memory-tier capacity of the result cache, in reports.
    pub cache_capacity: usize,
    /// Default `DetectorSuite` jobs per analysis (`0` = all cores).
    pub default_jobs: usize,
    /// Connection-handling strategy (epoll on Linux, poll elsewhere).
    pub transport: Transport,
    /// Loopback port for the Prometheus scrape endpoint (`GET /metrics`,
    /// `GET /healthz`); `0` = kernel-assigned, `None` = no endpoint.
    pub metrics_port: Option<u16>,
    /// Structured access-log file: one JSON line per completed check
    /// request, appended by a dedicated logger thread. `None` = no log.
    pub access_log: Option<PathBuf>,
    /// Keep every Nth access-log line (1 = all). Sampling happens before
    /// serialization, so an unsampled request costs one atomic increment.
    pub access_log_sample: u64,
    /// Flight-recorder promotion threshold: a request slower than this is
    /// promoted to the incident buffer. `None` promotes only timeouts and
    /// panics.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            timeout_ms: None,
            cache_dir: None,
            cache_capacity: 128,
            default_jobs: 0,
            transport: Transport::default(),
            metrics_port: None,
            access_log: None,
            access_log_sample: 1,
            slow_ms: None,
        }
    }
}

/// Service counters, exported by `stats` responses (and mirrored into
/// telemetry when it is enabled).
#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    overloaded: AtomicU64,
}

/// Everything the observability plane records about one answered check
/// request: produced wherever the response is built, consumed exactly
/// once by [`settle_check`] — which is also what guarantees exactly one
/// access-log line and one flight-recorder timeline per admitted check.
struct RequestOutcome {
    status: &'static str,
    cache: Option<&'static str>,
    queue_ns: u64,
    analysis_ns: u64,
    detectors: Vec<String>,
    stages: Vec<Stage>,
    panicked: bool,
}

impl RequestOutcome {
    /// An outcome answered without worker involvement (validation error,
    /// shed load, timeout): no stages, no cache disposition.
    fn inline(status: &'static str) -> RequestOutcome {
        RequestOutcome {
            status,
            cache: None,
            queue_ns: 0,
            analysis_ns: 0,
            detectors: Vec::new(),
            stages: Vec::new(),
            panicked: false,
        }
    }

    fn timeout() -> RequestOutcome {
        RequestOutcome::inline("timeout")
    }

    fn cache_hit(detectors: Vec<String>) -> RequestOutcome {
        RequestOutcome {
            status: "ok",
            cache: Some("hit"),
            queue_ns: 0,
            analysis_ns: 0,
            detectors,
            stages: Vec::new(),
            panicked: false,
        }
    }
}

/// The return path for a finished job: either the blocking waiter's
/// channel (poll/stdin transports) or the event loop's completion queue.
enum Responder {
    /// A connection-handler thread blocked on the receiving end.
    Channel(mpsc::Sender<(String, RequestOutcome)>),
    /// The epoll loop's completion mailbox; the push wakes the loop.
    #[cfg(target_os = "linux")]
    Completion {
        queue: Arc<CompletionQueue<Completion>>,
        token: u64,
        serial: u64,
    },
}

impl Responder {
    fn deliver(&self, response: String, outcome: RequestOutcome) {
        match self {
            // The waiter may have timed out and gone; a dead channel is fine.
            Responder::Channel(tx) => {
                let _ = tx.send((response, outcome));
            }
            #[cfg(target_os = "linux")]
            Responder::Completion {
                queue,
                token,
                serial,
            } => queue.push(Completion {
                token: *token,
                serial: *serial,
                response,
                outcome,
            }),
        }
    }
}

/// A finished job travelling from a worker back to the event loop.
#[cfg(target_os = "linux")]
pub(crate) struct Completion {
    /// The connection the response belongs to.
    token: u64,
    /// The per-connection request serial — a completion whose serial no
    /// longer matches (the loop already answered `timeout`) is dropped,
    /// like a send on a hung-up channel.
    serial: u64,
    response: String,
    outcome: RequestOutcome,
}

/// One unit of analysis work travelling from a transport to the worker
/// pool. The responder carries the finished response line back.
struct Job {
    id: Option<Value>,
    /// Server-unique request trace id, echoed in the response and threaded
    /// through the telemetry trace log.
    trace_id: u64,
    program_text: String,
    /// Canonicalized detector set (validated, canonical order).
    detectors: Vec<String>,
    jobs: usize,
    naive: bool,
    trace: bool,
    delay_ms: u64,
    key: CacheKey,
    /// When the transport admitted the request (starts `total_ns`).
    accepted_at: Instant,
    /// When the job entered the bounded queue (starts `queue_ns`).
    enqueued_at: Instant,
    deadline: Option<Instant>,
    respond: Responder,
}

struct ServerState {
    config: ServeConfig,
    queue: JobQueue<Job>,
    cache: ResultCache,
    stats: ServeStats,
    shutdown: AtomicBool,
    /// When the server state was created; `stats`/`metrics` report the
    /// elapsed time as `uptime_ms`.
    started: Instant,
    /// Check requests currently between admission and response.
    inflight: AtomicU64,
    /// Source of per-request trace ids (first request gets 1).
    next_trace_id: AtomicU64,
    /// Request latency (admission → response built), nanoseconds. Always
    /// recorded — the `metrics` command must answer even when global
    /// telemetry is off.
    latency_ns: LocalHistogram,
    /// Time jobs waited in the bounded queue, nanoseconds.
    queue_ns: LocalHistogram,
    /// Parse + validate + detector-suite time, nanoseconds.
    analysis_ns: LocalHistogram,
    /// The structured access log, when `--access-log` asked for one.
    access: Option<obs::AccessLog>,
    /// The tail-latency flight recorder (always on; promotion threshold
    /// from `--slow-ms`).
    flight: obs::FlightRecorder,
    /// Always-on per-detector latency/finding aggregates, fed by the
    /// workers' timed suite runs.
    detectors: obs::DetectorStats,
    /// Source of connection tokens, shared by every transport (and the
    /// metrics endpoint) so access-log `conn` fields are unambiguous.
    next_conn_token: AtomicU64,
    /// The running epoll loop's wakeup eventfd, so an out-of-band
    /// [`ServerState::begin_shutdown`] (handle, another connection) can
    /// rouse a loop blocked in `epoll_wait`.
    #[cfg(target_os = "linux")]
    waker: std::sync::Mutex<Option<Arc<crate::event::EventFd>>>,
    /// The last manifest a `manifest`+`entry` request decoded.
    manifest_memo: std::sync::Mutex<Option<ManifestMemo>>,
}

/// A decoded manifest with the path and exact file text it came from.
struct ManifestMemo {
    path: String,
    text: String,
    manifest: Arc<Manifest>,
}

/// Tokens 0..4 are reserved by the epoll loop (listener, waker, SIGINT
/// latch, metrics listener); connection tokens — for every transport, and
/// for metrics connections — are minted from a shared counter above them.
const FIRST_CONN_TOKEN: u64 = 4;

impl ServerState {
    fn new(config: ServeConfig) -> io::Result<ServerState> {
        let cache = ResultCache::new(config.cache_capacity, config.cache_dir.clone())?;
        let access = match &config.access_log {
            Some(path) => Some(obs::AccessLog::open(path, config.access_log_sample)?),
            None => None,
        };
        let flight = obs::FlightRecorder::new(config.slow_ms);
        rstudy_telemetry::declare_counter("serve.requests");
        rstudy_telemetry::declare_counter("serve.cache.hits");
        rstudy_telemetry::declare_counter("serve.cache.misses");
        rstudy_telemetry::declare_counter("serve.timeouts");
        rstudy_telemetry::declare_counter("serve.overloaded");
        rstudy_telemetry::declare_counter("serve.errors");
        rstudy_telemetry::declare_histogram("serve.queue_depth");
        rstudy_telemetry::declare_histogram("serve.request_ns");
        rstudy_telemetry::declare_histogram("serve.queue_ns");
        rstudy_telemetry::declare_histogram("serve.analysis_ns");
        Ok(ServerState {
            queue: JobQueue::new(config.queue_depth),
            cache,
            config,
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            inflight: AtomicU64::new(0),
            next_trace_id: AtomicU64::new(0),
            latency_ns: LocalHistogram::new(),
            queue_ns: LocalHistogram::new(),
            analysis_ns: LocalHistogram::new(),
            access,
            flight,
            detectors: obs::DetectorStats::default(),
            next_conn_token: AtomicU64::new(FIRST_CONN_TOKEN),
            #[cfg(target_os = "linux")]
            waker: std::sync::Mutex::new(None),
            manifest_memo: std::sync::Mutex::new(None),
        })
    }

    /// Loads the manifest at `path`. The file is read on every call but
    /// decoded only when its path or bytes differ from the memoized one's,
    /// so a rewritten manifest is never served stale.
    fn load_manifest(&self, path: &str) -> Result<Arc<Manifest>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let mut memo = self.manifest_memo.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(m) = memo.as_ref().filter(|m| m.path == path && m.text == text) {
            return Ok(Arc::clone(&m.manifest));
        }
        let manifest = Arc::new(Manifest::from_json(&text).map_err(|e| format!("{path}: {e}"))?);
        *memo = Some(ManifestMemo {
            path: path.to_owned(),
            text,
            manifest: Arc::clone(&manifest),
        });
        Ok(manifest)
    }

    /// Mints the next connection token (shared across transports).
    fn mint_conn_token(&self) -> u64 {
        self.next_conn_token.fetch_add(1, Ordering::Relaxed)
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.close();
        #[cfg(target_os = "linux")]
        {
            let waker = self.waker.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(w) = waker.as_ref() {
                w.notify();
            }
        }
    }

    #[cfg(target_os = "linux")]
    fn set_waker(&self, w: Arc<crate::event::EventFd>) {
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(w);
    }

    #[cfg(target_os = "linux")]
    fn clear_waker(&self) {
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn effective_workers(&self) -> usize {
        match self.config.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// A cloneable control handle onto a running server: tests and signal
/// plumbing use it to request shutdown and read counters from outside the
/// serving threads.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Requests graceful shutdown: stop accepting, drain, flush, return.
    pub fn begin_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    /// Total cache hits (memory + disk tiers) so far.
    pub fn cache_hits(&self) -> u64 {
        self.state.cache.stats.mem_hits.load(Ordering::Relaxed)
            + self.state.cache.stats.disk_hits.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// SIGINT
// ---------------------------------------------------------------------------

static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

/// The eventfd the SIGINT handler writes to so an epoll loop wakes
/// immediately instead of on its next (possibly never) readiness event.
/// `-1` until [`install_sigint_handler`] creates it.
#[cfg(target_os = "linux")]
static SIGINT_WAKE_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

#[cfg(target_os = "linux")]
fn sigint_wake_fd() -> Option<std::os::unix::io::RawFd> {
    match SIGINT_WAKE_FD.load(Ordering::Relaxed) {
        fd if fd >= 0 => Some(fd),
        _ => None,
    }
}

/// Installs a SIGINT (ctrl-C) handler that requests graceful shutdown of
/// every server in this process. The handler stores into an atomic and
/// (on Linux) writes one eventfd counter — both async-signal-safe. The
/// poll transport's accept loop polls the flag; the epoll transport
/// registers the eventfd in its interest set and is woken by the write.
#[cfg(unix)]
pub fn install_sigint_handler() {
    #[cfg(target_os = "linux")]
    {
        if SIGINT_WAKE_FD.load(Ordering::Relaxed) < 0 {
            if let Ok(efd) = crate::event::EventFd::new() {
                SIGINT_WAKE_FD.store(efd.into_raw(), Ordering::Relaxed);
            }
        }
    }
    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_RECEIVED.store(true, Ordering::Relaxed);
        #[cfg(target_os = "linux")]
        {
            let fd = SIGINT_WAKE_FD.load(Ordering::Relaxed);
            if fd >= 0 {
                crate::event::notify_raw(fd);
            }
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

/// No-op off Unix; rely on the `shutdown` request instead.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

// ---------------------------------------------------------------------------
// The server proper
// ---------------------------------------------------------------------------

/// A bound-but-not-yet-running analysis server.
pub struct Server {
    listener: TcpListener,
    /// The Prometheus scrape endpoint's listener (`--metrics-port`).
    metrics_listener: Option<TcpListener>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds a loopback listener on `port` (`0` = kernel-assigned
    /// ephemeral port; read it back with [`Server::local_addr`]), plus the
    /// metrics listener when the config asks for one.
    pub fn bind(port: u16, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let metrics_listener = match config.metrics_port {
            Some(p) => Some(TcpListener::bind(("127.0.0.1", p))?),
            None => None,
        };
        Ok(Server {
            listener,
            metrics_listener,
            state: Arc::new(ServerState::new(config)?),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The scrape endpoint's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// A control handle that stays valid while `run` blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shutdown is requested (a `shutdown` request on any
    /// connection, [`ServerHandle::begin_shutdown`], or SIGINT), then
    /// drains in-flight jobs, flushes the disk cache, and returns.
    pub fn run(self) -> io::Result<()> {
        match self.state.config.transport {
            #[cfg(target_os = "linux")]
            Transport::Epoll => self.run_epoll(),
            #[cfg(not(target_os = "linux"))]
            Transport::Epoll => {
                eprintln!("serve: the epoll transport is Linux-only; falling back to poll");
                self.run_poll()
            }
            Transport::Poll => self.run_poll(),
        }
    }

    /// The portable transport: a nonblocking accept loop sleeping
    /// [`POLL_INTERVAL`] between attempts, one handler thread per
    /// connection.
    fn run_poll(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let state = &self.state;
        let metrics = self.metrics_listener.as_ref();
        std::thread::scope(|s| {
            for _ in 0..state.effective_workers() {
                s.spawn(move || worker_loop(state));
            }
            if let Some(listener) = metrics {
                s.spawn(move || metrics_accept_loop(listener, state));
            }
            loop {
                if SIGINT_RECEIVED.load(Ordering::Relaxed) {
                    state.begin_shutdown();
                }
                if state.is_shutdown() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        s.spawn(move || handle_connection(stream, state));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    // Transient resource pressure (fd exhaustion, a
                    // connection aborted in the backlog, a signal): back
                    // off one interval and retry.
                    Err(e) if accept_error_is_transient(&e) => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    // Anything else (EBADF, EINVAL, ...) will fail forever;
                    // retrying would spin at 40 Hz without ever accepting.
                    // Log once and drain instead.
                    Err(e) => {
                        eprintln!("serve: accept failed fatally: {e}; shutting down");
                        state.begin_shutdown();
                    }
                }
            }
            // Redundant when shutdown came through a connection, essential
            // when it came from a handle or SIGINT.
            state.begin_shutdown();
        });
        finish_run(&self.state);
        Ok(())
    }

    /// The event-driven transport: one I/O thread multiplexing the
    /// listener, every connection, worker completions, and SIGINT over a
    /// single `epoll_wait`.
    #[cfg(target_os = "linux")]
    fn run_epoll(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        if let Some(m) = self.metrics_listener.as_ref() {
            m.set_nonblocking(true)?;
        }
        let state = &self.state;
        let result = std::thread::scope(|s| {
            for _ in 0..state.effective_workers() {
                s.spawn(move || worker_loop(state));
            }
            let result = event_loop(&self.listener, self.metrics_listener.as_ref(), state);
            // The loop drains before returning on the normal path; make
            // sure workers exit even if it failed.
            state.begin_shutdown();
            result
        });
        finish_run(&self.state);
        result
    }
}

/// End-of-run teardown shared by every transport: flush the disk cache,
/// flush and close the access log, and dump any recorded incidents as
/// Chrome-trace JSON to stderr.
fn finish_run(state: &ServerState) {
    state.cache.flush();
    if let Some(log) = &state.access {
        log.shutdown();
    }
    let count = state.flight.incident_count();
    if count > 0 {
        let trace = serde_json::to_string(&state.flight.chrome_trace())
            .expect("incident trace serialization cannot fail");
        eprintln!(
            "serve: flight recorder holds {count} incident(s) ({} promoted in total); chrome trace follows",
            state.flight.promoted()
        );
        eprintln!("{trace}");
    }
}

/// Whether a failed `accept(2)` is worth retrying after a short backoff
/// (fd exhaustion, an aborted backlog connection, a signal) as opposed to
/// failing identically forever (closed or invalid listener).
fn accept_error_is_transient(e: &io::Error) -> bool {
    if matches!(
        e.kind(),
        ErrorKind::Interrupted | ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset
    ) {
        return true;
    }
    // ENFILE(23) / EMFILE(24) / ENOMEM(12) / ENOBUFS(105): the process or
    // host is out of descriptors or buffers; pending connections can be
    // accepted once something is released.
    matches!(e.raw_os_error(), Some(12) | Some(23) | Some(24) | Some(105))
}

// ---------------------------------------------------------------------------
// The epoll event loop
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_loop {
    use super::*;
    use crate::event::{
        Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    };
    use std::collections::HashMap;
    use std::os::unix::io::AsRawFd;

    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKE: u64 = 1;
    const TOKEN_SIGINT: u64 = 2;
    const TOKEN_METRICS_LISTENER: u64 = 3;

    /// How long an idle scrape connection may sit before the loop drops
    /// it: scrape clients send one GET and read one response, so anything
    /// slower is stuck or hostile.
    const METRICS_CONN_TTL: Duration = Duration::from_secs(5);

    /// Hard cap on a scrape request head; past it the connection is cut.
    const METRICS_HEAD_CAP: usize = 64 * 1024;

    /// Stop reading ahead once this much unprocessed input is buffered
    /// and at least one complete line is waiting — backpressure against a
    /// client that pipelines faster than analyses finish. A single
    /// oversized line is still read to completion.
    const READ_AHEAD_CAP: usize = 1 << 20;

    /// A check request the event loop has handed to the worker pool and
    /// not yet answered.
    struct PendingCheck {
        serial: u64,
        id: Option<Value>,
        admission: Admission,
        deadline: Option<Instant>,
    }

    /// One registered client connection and its buffers.
    struct Conn {
        stream: TcpStream,
        token: u64,
        /// Bytes read but not yet consumed as complete request lines.
        inbuf: Vec<u8>,
        /// Response bytes (payload + newline framing, one contiguous
        /// buffer per response) not yet accepted by the socket.
        outbuf: Vec<u8>,
        out_pos: usize,
        /// The single check this connection is waiting on. Requests are
        /// answered strictly in request order, so at most one is in
        /// flight per connection — identical to the poll transport.
        inflight: Option<PendingCheck>,
        next_serial: u64,
        /// The peer finished sending (clean EOF or half-close).
        eof: bool,
        /// The connection failed hard; buffers are abandoned.
        dead: bool,
        /// The interest mask currently registered with epoll (0 = none).
        registered: u32,
    }

    impl Conn {
        fn new(stream: TcpStream, token: u64, registered: u32) -> Conn {
            Conn {
                stream,
                token,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                out_pos: 0,
                inflight: None,
                next_serial: 0,
                eof: false,
                dead: false,
                registered,
            }
        }

        fn read_ahead_paused(&self) -> bool {
            self.inbuf.len() > READ_AHEAD_CAP && self.inbuf.contains(&b'\n')
        }

        /// Drains the socket's receive buffer into `inbuf`.
        fn fill(&mut self) {
            if self.dead || self.eof {
                return;
            }
            let mut chunk = [0u8; 16384];
            loop {
                if self.read_ahead_paused() {
                    return;
                }
                match (&self.stream).read(&mut chunk) {
                    Ok(0) => {
                        self.eof = true;
                        return;
                    }
                    Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
        }

        /// Queues `response` plus its newline framing as one contiguous
        /// buffer, so the whole frame leaves in a single `write(2)` —
        /// never a payload write followed by a 1-byte `\n` write that
        /// Nagle + delayed ACK can park for ~40 ms.
        fn push_response(&mut self, response: &str) {
            if self.dead {
                return;
            }
            self.outbuf.reserve(response.len() + 1);
            self.outbuf.extend_from_slice(response.as_bytes());
            self.outbuf.push(b'\n');
        }

        /// Writes as much buffered output as the socket accepts.
        fn flush(&mut self) {
            if self.dead {
                self.outbuf.clear();
                self.out_pos = 0;
                return;
            }
            while self.out_pos < self.outbuf.len() {
                match (&self.stream).write(&self.outbuf[self.out_pos..]) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            if self.out_pos >= self.outbuf.len() {
                self.outbuf.clear();
                self.out_pos = 0;
            }
        }

        fn has_unwritten_output(&self) -> bool {
            self.out_pos < self.outbuf.len()
        }

        /// The interest mask this connection currently needs: readable
        /// while it may produce the next request, writable while output
        /// is buffered. A connection waiting on a worker wants neither —
        /// it costs zero wakeups.
        fn desired_interest(&self, state: &ServerState) -> u32 {
            if self.dead {
                return 0;
            }
            let mut want = 0;
            if !self.eof
                && self.inflight.is_none()
                && !state.is_shutdown()
                && !self.read_ahead_paused()
            {
                want |= EPOLLIN | EPOLLRDHUP;
            }
            if self.has_unwritten_output() {
                want |= EPOLLOUT;
            }
            want
        }

        /// Reconciles the registered interest mask with the desired one.
        fn update_interest(&mut self, epoll: &Epoll, state: &ServerState) {
            let want = self.desired_interest(state);
            if want == self.registered {
                return;
            }
            let fd = self.stream.as_raw_fd();
            let result = if want == 0 {
                epoll.delete(fd)
            } else if self.registered == 0 {
                epoll.add(fd, self.token, want)
            } else {
                epoll.modify(fd, self.token, want)
            };
            match result {
                Ok(()) => self.registered = want,
                Err(_) => self.dead = true,
            }
        }

        /// Whether the connection can be dropped: nothing in flight and
        /// either failed hard or fully answered a finished peer.
        fn finished(&self) -> bool {
            if self.inflight.is_some() {
                return false;
            }
            self.dead || (self.eof && !self.has_unwritten_output())
        }
    }

    /// One HTTP scrape connection multiplexed onto the event loop.
    /// Strictly one request per connection (`Connection: close`), bounded
    /// in both buffer size and lifetime.
    struct MetricsConn {
        stream: TcpStream,
        token: u64,
        inbuf: Vec<u8>,
        outbuf: Vec<u8>,
        out_pos: usize,
        responded: bool,
        dead: bool,
        registered: u32,
        expires: Instant,
    }

    impl MetricsConn {
        fn new(stream: TcpStream, token: u64, registered: u32) -> MetricsConn {
            MetricsConn {
                stream,
                token,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                out_pos: 0,
                responded: false,
                dead: false,
                registered,
                expires: Instant::now() + METRICS_CONN_TTL,
            }
        }

        /// Drains the socket into `inbuf` until would-block or EOF; EOF
        /// before a complete head still triggers a (400) response, so it
        /// is not tracked separately.
        fn fill(&mut self) -> bool {
            let mut saw_eof = false;
            let mut chunk = [0u8; 1024];
            loop {
                if self.dead || self.inbuf.len() > METRICS_HEAD_CAP {
                    self.dead = true;
                    return saw_eof;
                }
                match (&self.stream).read(&mut chunk) {
                    Ok(0) => {
                        saw_eof = true;
                        return saw_eof;
                    }
                    Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return saw_eof,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return saw_eof;
                    }
                }
            }
        }

        fn flush(&mut self) {
            if self.dead {
                self.outbuf.clear();
                self.out_pos = 0;
                return;
            }
            while self.out_pos < self.outbuf.len() {
                match (&self.stream).write(&self.outbuf[self.out_pos..]) {
                    Ok(0) => {
                        self.dead = true;
                        return;
                    }
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
        }

        fn has_unwritten_output(&self) -> bool {
            self.out_pos < self.outbuf.len()
        }

        /// Readable until the response is built, writable while it has
        /// unsent bytes.
        fn desired_interest(&self) -> u32 {
            if self.dead {
                return 0;
            }
            let mut want = 0;
            if !self.responded {
                want |= EPOLLIN | EPOLLRDHUP;
            }
            if self.has_unwritten_output() {
                want |= EPOLLOUT;
            }
            want
        }

        fn update_interest(&mut self, epoll: &Epoll) {
            let want = self.desired_interest();
            if want == self.registered {
                return;
            }
            let fd = self.stream.as_raw_fd();
            let result = if want == 0 {
                epoll.delete(fd)
            } else if self.registered == 0 {
                epoll.add(fd, self.token, want)
            } else {
                epoll.modify(fd, self.token, want)
            };
            match result {
                Ok(()) => self.registered = want,
                Err(_) => self.dead = true,
            }
        }

        fn finished(&self) -> bool {
            self.dead || (self.responded && !self.has_unwritten_output())
        }
    }

    /// The shared, immutable pieces every event-loop helper needs.
    struct Reactor<'a> {
        state: &'a ServerState,
        listener: &'a TcpListener,
        metrics: Option<&'a TcpListener>,
        epoll: Epoll,
        wake: Arc<EventFd>,
        completions: Arc<CompletionQueue<Completion>>,
    }

    /// Accept-side flow control: deregistered during fd-exhaustion
    /// backoff and for good once draining.
    struct AcceptGate {
        registered: bool,
        resume_at: Option<Instant>,
    }

    pub(super) fn event_loop(
        listener: &TcpListener,
        metrics: Option<&TcpListener>,
        state: &ServerState,
    ) -> io::Result<()> {
        let epoll = Epoll::new()?;
        let wake = Arc::new(EventFd::new()?);
        let completions: Arc<CompletionQueue<Completion>> =
            Arc::new(CompletionQueue::new(Arc::clone(&wake) as Arc<dyn Notify>));
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        epoll.add(wake.as_raw_fd(), TOKEN_WAKE, EPOLLIN)?;
        if let Some(m) = metrics {
            // Stays registered during drain: /healthz keeps answering
            // (503) while in-flight analyses finish.
            epoll.add(m.as_raw_fd(), TOKEN_METRICS_LISTENER, EPOLLIN)?;
        }
        let mut sigint_registered = false;
        if let Some(fd) = sigint_wake_fd() {
            sigint_registered = epoll.add(fd, TOKEN_SIGINT, EPOLLIN).is_ok();
        }
        state.set_waker(Arc::clone(&wake));
        let reactor = Reactor {
            state,
            listener,
            metrics,
            epoll,
            wake,
            completions,
        };
        let result = event_loop_run(&reactor, sigint_registered);
        state.clear_waker();
        result
    }

    fn event_loop_run(r: &Reactor<'_>, mut sigint_registered: bool) -> io::Result<()> {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut mconns: HashMap<u64, MetricsConn> = HashMap::new();
        let mut gate = AcceptGate {
            registered: true,
            resume_at: None,
        };
        let mut events = [EpollEvent::zeroed(); 64];
        let mut draining = false;
        let mut drain_deadline: Option<Instant> = None;

        loop {
            if SIGINT_RECEIVED.load(Ordering::Relaxed) {
                r.state.begin_shutdown();
            }
            if r.state.is_shutdown() && !draining {
                draining = true;
                drain_deadline = Some(Instant::now() + DRAIN_WRITE_GRACE);
                if gate.registered {
                    let _ = r.epoll.delete(r.listener.as_raw_fd());
                    gate.registered = false;
                }
                gate.resume_at = None;
                // The SIGINT eventfd is level-triggered and never drained
                // (the latch serves every future epoll loop in the
                // process); deregister it so the drain phase blocks
                // instead of spinning.
                if sigint_registered {
                    if let Some(fd) = sigint_wake_fd() {
                        let _ = r.epoll.delete(fd);
                    }
                    sigint_registered = false;
                }
            }
            if draining {
                // Keep a connection only while a worker still owes it a
                // response, or while already-built responses are still
                // flushing (bounded by the drain grace period).
                let past_grace = drain_deadline.is_some_and(|d| Instant::now() >= d);
                conns.retain(|_, c| {
                    c.inflight.is_some() || (!past_grace && !c.dead && c.has_unwritten_output())
                });
                if conns.is_empty() {
                    return Ok(());
                }
            }

            let timeout_ms = next_wakeup_ms(&conns, &mconns, &gate, draining, drain_deadline);
            let n = r.epoll.wait(&mut events, timeout_ms)?;

            let mut touched: Vec<u64> = Vec::new();
            let mut mtouched: Vec<u64> = Vec::new();
            for ev in &events[..n] {
                let EpollEvent { events: mask, data } = *ev;
                match data {
                    TOKEN_LISTENER => {
                        accept_ready(r, &mut conns, &mut gate);
                    }
                    TOKEN_METRICS_LISTENER => {
                        accept_metrics(r, &mut mconns);
                    }
                    TOKEN_WAKE => r.wake.drain(),
                    TOKEN_SIGINT => {} // latch; handled at the loop top
                    token => {
                        if let Some(conn) = conns.get_mut(&token) {
                            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                                conn.fill();
                            }
                            if mask & EPOLLOUT != 0 {
                                conn.flush();
                            }
                            touched.push(token);
                        } else if let Some(m) = mconns.get_mut(&token) {
                            let mut eof = false;
                            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                                eof = m.fill();
                            }
                            if mask & EPOLLOUT != 0 {
                                m.flush();
                            }
                            // One GET per connection: respond as soon as
                            // the head is complete (or the peer stopped
                            // sending one).
                            if !m.responded && !m.dead && (obs::http_head_complete(&m.inbuf) || eof)
                            {
                                let head = obs::http_head_line(&m.inbuf);
                                let healthy = !r.state.is_shutdown();
                                m.outbuf = obs::http_response(&head, healthy, || {
                                    prometheus_exposition(r.state)
                                });
                                m.out_pos = 0;
                                m.responded = true;
                            }
                            mtouched.push(token);
                        }
                    }
                }
            }

            // Re-arm accepts once an fd-exhaustion backoff expires.
            if let Some(at) = gate.resume_at {
                if !draining && Instant::now() >= at {
                    gate.resume_at = None;
                    gate.registered = r
                        .epoll
                        .add(r.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
                        .is_ok();
                }
            }

            // Worker completions: answer the request each one belongs to.
            // A stale serial means the loop already answered `timeout` for
            // it — the result is discarded, exactly like the poll
            // transport's send to a hung-up reply channel.
            for completion in r.completions.drain() {
                if let Some(conn) = conns.get_mut(&completion.token) {
                    let matches = conn
                        .inflight
                        .as_ref()
                        .is_some_and(|p| p.serial == completion.serial);
                    if matches {
                        let pending = conn.inflight.take().expect("matched above");
                        settle_check(
                            r.state,
                            &pending.admission,
                            completion.token,
                            completion.outcome,
                        );
                        conn.push_response(&completion.response);
                        touched.push(completion.token);
                    }
                }
            }

            // Expired deadlines: answer `timeout` now; the analysis keeps
            // running but its eventual completion is stale.
            let now = Instant::now();
            for (token, conn) in conns.iter_mut() {
                let expired = conn
                    .inflight
                    .as_ref()
                    .is_some_and(|p| p.deadline.is_some_and(|d| now >= d));
                if expired {
                    let pending = conn.inflight.take().expect("expired above");
                    r.state.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    rstudy_telemetry::counter("serve.timeouts", 1);
                    let response =
                        timeout_response(&pending.id, pending.admission.trace_id, r.state);
                    settle_check(
                        r.state,
                        &pending.admission,
                        *token,
                        RequestOutcome::timeout(),
                    );
                    conn.push_response(&response);
                    touched.push(*token);
                }
            }

            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                process_lines(conn, r);
                conn.flush();
                conn.update_interest(&r.epoll, r.state);
                if conn.finished() {
                    // Dropping the stream closes the fd, which removes it
                    // from the epoll set.
                    conns.remove(&token);
                }
            }

            for token in mtouched {
                let Some(m) = mconns.get_mut(&token) else {
                    continue;
                };
                m.flush();
                m.update_interest(&r.epoll);
                if m.finished() {
                    mconns.remove(&token);
                }
            }
            // Scrape connections that never completed a request within
            // their TTL are cut (dropping closes the fd).
            let now = Instant::now();
            mconns.retain(|_, m| now < m.expires);
        }
    }

    /// How long `epoll_wait` may block: forever unless a request deadline,
    /// an accept backoff, a scrape-connection TTL, or the drain grace
    /// period needs a timer.
    fn next_wakeup_ms(
        conns: &HashMap<u64, Conn>,
        mconns: &HashMap<u64, MetricsConn>,
        gate: &AcceptGate,
        draining: bool,
        drain_deadline: Option<Instant>,
    ) -> i32 {
        let mut wake_at: Option<Instant> = gate.resume_at;
        if draining {
            wake_at = earliest(wake_at, drain_deadline);
        }
        for conn in conns.values() {
            if let Some(p) = &conn.inflight {
                wake_at = earliest(wake_at, p.deadline);
            }
        }
        for m in mconns.values() {
            wake_at = earliest(wake_at, Some(m.expires));
        }
        match wake_at {
            None => -1,
            Some(at) => {
                let dur = at.saturating_duration_since(Instant::now());
                if dur.is_zero() {
                    0
                } else {
                    // Round up so the timer fires at-or-after the deadline
                    // instead of one truncated millisecond early.
                    dur.as_millis().saturating_add(1).min(i32::MAX as u128) as i32
                }
            }
        }
    }

    fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) => x,
            (None, y) => y,
        }
    }

    /// Accepts every pending connection. Transient failures back off by
    /// deregistering the listener for one [`POLL_INTERVAL`] (a
    /// level-triggered epoll would otherwise report it hot the whole
    /// time); fatal ones log once and begin a graceful drain.
    fn accept_ready(r: &Reactor<'_>, conns: &mut HashMap<u64, Conn>, gate: &mut AcceptGate) {
        if !gate.registered {
            return;
        }
        loop {
            match r.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    // Responses are coalesced into single writes, but
                    // disable Nagle too: a response racing a previous
                    // partial flush must never wait on a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let token = r.state.mint_conn_token();
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if r.epoll.add(stream.as_raw_fd(), token, interest).is_ok() {
                        conns.insert(token, Conn::new(stream, token, interest));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if accept_error_is_transient(&e) => {
                    let _ = r.epoll.delete(r.listener.as_raw_fd());
                    gate.registered = false;
                    gate.resume_at = Some(Instant::now() + POLL_INTERVAL);
                    return;
                }
                Err(e) => {
                    eprintln!("serve: accept failed fatally: {e}; shutting down");
                    r.state.begin_shutdown();
                    return;
                }
            }
        }
    }

    /// Accepts every pending scrape connection. A failing metrics
    /// listener never takes the service down: fatal accept errors just
    /// deregister the endpoint.
    fn accept_metrics(r: &Reactor<'_>, mconns: &mut HashMap<u64, MetricsConn>) {
        let Some(listener) = r.metrics else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let token = r.state.mint_conn_token();
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if r.epoll.add(stream.as_raw_fd(), token, interest).is_ok() {
                        mconns.insert(token, MetricsConn::new(stream, token, interest));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if accept_error_is_transient(&e) => return,
                Err(e) => {
                    eprintln!("serve: metrics accept failed fatally: {e}; disabling the endpoint");
                    let _ = r.epoll.delete(listener.as_raw_fd());
                    return;
                }
            }
        }
    }

    /// Parses and dispatches every complete buffered line, one check at a
    /// time (responses are strictly in request order). Also converts a
    /// final unterminated fragment at EOF into a structured error.
    fn process_lines(conn: &mut Conn, r: &Reactor<'_>) {
        let mut consumed = 0usize;
        while conn.inflight.is_none() && !conn.dead && !r.state.is_shutdown() {
            let Some(rel) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let end = consumed + rel;
            let line = match std::str::from_utf8(&conn.inbuf[consumed..end]) {
                Ok(s) => s.trim().to_owned(),
                Err(_) => {
                    // The poll transport's `read_line` kills the
                    // connection on invalid UTF-8; match it.
                    conn.dead = true;
                    break;
                }
            };
            consumed = end + 1;
            if line.is_empty() {
                continue;
            }
            dispatch_line(conn, &line, r);
        }
        if consumed > 0 {
            conn.inbuf.drain(..consumed);
        }
        // EOF with a trailing fragment that never got its newline: the
        // protocol promises every failure mode a structured response, so
        // answer `error` instead of dropping the bytes silently.
        if conn.eof && conn.inflight.is_none() && !r.state.is_shutdown() {
            if conn.inbuf.iter().any(|b| !b.is_ascii_whitespace()) {
                r.state.stats.errors.fetch_add(1, Ordering::Relaxed);
                rstudy_telemetry::counter("serve.errors", 1);
                conn.push_response(&error_response(
                    &None,
                    "unterminated request: connection closed before the line's newline",
                ));
            }
            conn.inbuf.clear();
        }
    }

    /// One request line → either an immediate response or a worker-pool
    /// submission recorded as the connection's in-flight check.
    fn dispatch_line(conn: &mut Conn, line: &str, r: &Reactor<'_>) {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => {
                r.state.stats.errors.fetch_add(1, Ordering::Relaxed);
                rstudy_telemetry::counter("serve.errors", 1);
                conn.push_response(&error_response(&e.id, &e.message));
                return;
            }
        };
        match request.command {
            Command::Shutdown => {
                r.state.begin_shutdown();
                conn.push_response(&ResponseBuilder::new(&request.id, "shutdown").finish());
            }
            Command::Stats => conn.push_response(&stats_response(&request.id, r.state)),
            Command::Metrics => conn.push_response(&metrics_response(&request.id, r.state)),
            Command::Incidents => conn.push_response(&incidents_response(&request.id, r.state)),
            Command::Check(check) => {
                let admission = admit_check(r.state);
                let serial = conn.next_serial;
                conn.next_serial += 1;
                let responder = Responder::Completion {
                    queue: Arc::clone(&r.completions),
                    token: conn.token,
                    serial,
                };
                match start_check(
                    &request.id,
                    admission.trace_id,
                    check,
                    r.state,
                    admission.started,
                    responder,
                ) {
                    CheckStart::Ready(response, outcome) => {
                        settle_check(r.state, &admission, conn.token, outcome);
                        conn.push_response(&response);
                    }
                    CheckStart::Queued { deadline } => {
                        conn.inflight = Some(PendingCheck {
                            serial,
                            id: request.id,
                            admission,
                            deadline,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(target_os = "linux")]
use epoll_loop::event_loop;

// ---------------------------------------------------------------------------
// Stream (stdin) transport
// ---------------------------------------------------------------------------

/// Serves one NDJSON stream synchronously: `serve --stdin` mode. Requests
/// are answered in order; EOF triggers the same graceful drain as a
/// `shutdown` request. The worker pool and cache behave exactly as in TCP
/// mode, so piped and socket clients get identical bytes.
pub fn serve_stream<R: BufRead, W: Write>(
    config: ServeConfig,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    let state = Arc::new(ServerState::new(config)?);
    // The stdin transport has no `Server::bind`, so the scrape endpoint
    // (when configured) is bound here; stdout carries NDJSON, so the
    // bound address is announced on stderr.
    let metrics_listener = match state.config.metrics_port {
        Some(p) => {
            let listener = TcpListener::bind(("127.0.0.1", p))?;
            if let Ok(addr) = listener.local_addr() {
                eprintln!("rstudy-serve: metrics on {addr}");
            }
            Some(listener)
        }
        None => None,
    };
    let state_ref = &state;
    let result = std::thread::scope(|s| -> io::Result<()> {
        for _ in 0..state_ref.effective_workers() {
            s.spawn(move || worker_loop(state_ref));
        }
        if let Some(listener) = metrics_listener.as_ref() {
            s.spawn(move || metrics_accept_loop(listener, state_ref));
        }
        let conn = state_ref.mint_conn_token();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let mut response = handle_line(trimmed, state_ref, conn);
            response.push('\n');
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
            if state_ref.is_shutdown() {
                break;
            }
        }
        state_ref.begin_shutdown();
        Ok(())
    });
    // Close the queue even if the I/O loop failed, so workers exit.
    state.begin_shutdown();
    finish_run(&state);
    result
}

// ---------------------------------------------------------------------------
// Poll-transport connection handling
// ---------------------------------------------------------------------------

fn handle_connection(stream: TcpStream, state: &ServerState) {
    let conn = state.mint_conn_token();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let _ = read_half.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // `line` persists across read timeouts: a timeout mid-line keeps the
    // partial content and the next read appends to it.
    let mut line = String::new();
    loop {
        if state.is_shutdown() {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => {
                // EOF with a buffered fragment (read across an earlier
                // timeout) that never got its newline: answer a
                // structured error rather than dropping it silently.
                if !line.trim().is_empty() {
                    state.stats.errors.fetch_add(1, Ordering::Relaxed);
                    rstudy_telemetry::counter("serve.errors", 1);
                    let _ = write_line(
                        &mut writer,
                        error_response(
                            &None,
                            "unterminated request: connection closed before the line's newline",
                        ),
                    );
                }
                return;
            }
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    let response = handle_line(trimmed, state, conn);
                    if write_line(&mut writer, response).is_err() {
                        return;
                    }
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Writes one response frame — payload and newline in a single buffer,
/// hence a single `write(2)`. Two separate writes would let Nagle hold
/// the 1-byte newline for the ACK of the payload (~40 ms stalls).
fn write_line(writer: &mut impl Write, mut response: String) -> io::Result<()> {
    response.push('\n');
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

// ---------------------------------------------------------------------------
// Metrics endpoint (portable fallback; the epoll transport multiplexes
// the same listener onto its event loop instead)
// ---------------------------------------------------------------------------

/// Accepts and answers scrape connections on a [`POLL_INTERVAL`] cadence
/// until shutdown. Requests are tiny and responses are one buffer, so a
/// single blocking thread is plenty for a scrape-rate workload.
fn metrics_accept_loop(listener: &TcpListener, state: &ServerState) {
    let _ = listener.set_nonblocking(true);
    while !state.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => serve_metrics_conn(stream, state),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads one HTTP request head (bounded wait, bounded size) and writes
/// the one-shot response. `Connection: close` semantics: the stream drops
/// at the end either way.
fn serve_metrics_conn(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while !obs::http_head_complete(&buf) && buf.len() < 64 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let head = obs::http_head_line(&buf);
    let response = obs::http_response(&head, !state.is_shutdown(), || prometheus_exposition(state));
    let _ = stream.write_all(&response);
}

// ---------------------------------------------------------------------------
// Request dispatch (shared by every transport)
// ---------------------------------------------------------------------------

/// Dispatches one request line to a response line, blocking until the
/// response is ready (poll and stdin transports). Infallible by design:
/// every failure mode becomes a structured response. `conn` is the
/// connection token recorded in access-log lines.
fn handle_line(line: &str, state: &ServerState, conn: u64) -> String {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            rstudy_telemetry::counter("serve.errors", 1);
            return error_response(&e.id, &e.message);
        }
    };
    match request.command {
        Command::Shutdown => {
            state.begin_shutdown();
            ResponseBuilder::new(&request.id, "shutdown").finish()
        }
        Command::Stats => stats_response(&request.id, state),
        Command::Metrics => metrics_response(&request.id, state),
        Command::Incidents => incidents_response(&request.id, state),
        Command::Check(check) => handle_check(&request.id, check, state, conn),
    }
}

fn stats_response(id: &Option<Value>, state: &ServerState) -> String {
    let cache = &state.cache.stats;
    let stats = Value::Map(vec![
        ("requests".into(), count(&state.stats.requests)),
        ("ok".into(), count(&state.stats.ok)),
        ("errors".into(), count(&state.stats.errors)),
        ("timeouts".into(), count(&state.stats.timeouts)),
        ("overloaded".into(), count(&state.stats.overloaded)),
        (
            "cache_hits".into(),
            Value::UInt(
                cache.mem_hits.load(Ordering::Relaxed) + cache.disk_hits.load(Ordering::Relaxed),
            ),
        ),
        ("cache_disk_hits".into(), count(&cache.disk_hits)),
        ("cache_misses".into(), count(&cache.misses)),
        (
            "cache_mem_entries".into(),
            Value::UInt(state.cache.mem_len() as u64),
        ),
        (
            "queue_depth".into(),
            Value::UInt(state.queue.depth() as u64),
        ),
        ("inflight".into(), count(&state.inflight)),
        (
            "uptime_ms".into(),
            Value::UInt(state.started.elapsed().as_millis() as u64),
        ),
        (
            "workers".into(),
            Value::UInt(state.effective_workers() as u64),
        ),
    ]);
    ResponseBuilder::new(id, "stats")
        .field("stats", stats)
        .finish()
}

/// The `metrics` response: everything `stats` reports, plus cache hit
/// ratios and p50/p90/p99 latency quantiles estimated from the service's
/// always-on power-of-two histograms.
fn metrics_response(id: &Option<Value>, state: &ServerState) -> String {
    let cache = &state.cache.stats;
    let hits = cache.mem_hits.load(Ordering::Relaxed) + cache.disk_hits.load(Ordering::Relaxed);
    let misses = cache.misses.load(Ordering::Relaxed);
    let lookups = hits + misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let metrics = Value::Map(vec![
        (
            "uptime_ms".into(),
            Value::UInt(state.started.elapsed().as_millis() as u64),
        ),
        (
            "queue_depth".into(),
            Value::UInt(state.queue.depth() as u64),
        ),
        ("inflight".into(), count(&state.inflight)),
        (
            "workers".into(),
            Value::UInt(state.effective_workers() as u64),
        ),
        ("requests".into(), count(&state.stats.requests)),
        ("ok".into(), count(&state.stats.ok)),
        ("errors".into(), count(&state.stats.errors)),
        ("timeouts".into(), count(&state.stats.timeouts)),
        ("overloaded".into(), count(&state.stats.overloaded)),
        (
            "cache".into(),
            Value::Map(vec![
                ("hits".into(), Value::UInt(hits)),
                ("mem_hits".into(), count(&cache.mem_hits)),
                ("disk_hits".into(), count(&cache.disk_hits)),
                ("misses".into(), Value::UInt(misses)),
                ("hit_ratio".into(), Value::Float(hit_ratio)),
                (
                    "mem_entries".into(),
                    Value::UInt(state.cache.mem_len() as u64),
                ),
            ]),
        ),
        ("latency_ns".into(), histogram_value(&state.latency_ns)),
        ("queue_ns".into(), histogram_value(&state.queue_ns)),
        ("analysis_ns".into(), histogram_value(&state.analysis_ns)),
        (
            "detectors".into(),
            Value::Map(
                state
                    .detectors
                    .snapshot()
                    .into_iter()
                    .map(|d| {
                        (
                            d.name,
                            Value::Map(vec![
                                ("runs".into(), Value::UInt(d.runs)),
                                ("findings".into(), Value::UInt(d.findings)),
                                ("latency_ns".into(), histogram_summary(&d.latency_ns)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    ResponseBuilder::new(id, "metrics")
        .field("metrics", metrics)
        .finish()
}

/// The `incidents` response: how many timelines the flight recorder holds
/// and has promoted, plus the incident buffer as a Chrome trace-event
/// array (load it in `chrome://tracing` / Perfetto).
fn incidents_response(id: &Option<Value>, state: &ServerState) -> String {
    ResponseBuilder::new(id, "incidents")
        .field("count", Value::UInt(state.flight.incident_count() as u64))
        .field("promoted", Value::UInt(state.flight.promoted()))
        .field("ring", Value::UInt(state.flight.ring_len() as u64))
        .field("trace", state.flight.chrome_trace())
        .finish()
}

/// The Prometheus text exposition served by `GET /metrics`: service
/// counters and gauges, the always-on latency histograms, per-detector
/// families, and — when global telemetry is enabled — every registry
/// counter and histogram under the same `rstudy_` prefix.
fn prometheus_exposition(state: &ServerState) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let counter = |out: &mut String, name: &str, v: u64| {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    };
    let gauge = |out: &mut String, name: &str, v: u64| {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    };
    let histogram = |out: &mut String, name: &str, h: &LocalHistogram| {
        let _ = writeln!(out, "# TYPE {name} histogram");
        rstudy_telemetry::write_histogram_series(out, name, "", &h.snapshot());
    };

    counter(
        &mut out,
        "rstudy_requests_total",
        state.stats.requests.load(Ordering::Relaxed),
    );
    let _ = writeln!(out, "# TYPE rstudy_responses_total counter");
    for (status, v) in [
        ("ok", &state.stats.ok),
        ("error", &state.stats.errors),
        ("timeout", &state.stats.timeouts),
        ("overloaded", &state.stats.overloaded),
    ] {
        let _ = writeln!(
            out,
            "rstudy_responses_total{{status=\"{status}\"}} {}",
            v.load(Ordering::Relaxed)
        );
    }
    let cache = &state.cache.stats;
    let _ = writeln!(out, "# TYPE rstudy_cache_hits_total counter");
    for (tier, v) in [("mem", &cache.mem_hits), ("disk", &cache.disk_hits)] {
        let _ = writeln!(
            out,
            "rstudy_cache_hits_total{{tier=\"{tier}\"}} {}",
            v.load(Ordering::Relaxed)
        );
    }
    counter(
        &mut out,
        "rstudy_cache_misses_total",
        cache.misses.load(Ordering::Relaxed),
    );
    counter(&mut out, "rstudy_incidents_total", state.flight.promoted());
    counter(
        &mut out,
        "rstudy_access_log_dropped_total",
        state.access.as_ref().map_or(0, |l| l.dropped()),
    );

    gauge(&mut out, "rstudy_queue_depth", state.queue.depth() as u64);
    gauge(
        &mut out,
        "rstudy_inflight",
        state.inflight.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "rstudy_cache_mem_entries",
        state.cache.mem_len() as u64,
    );
    gauge(&mut out, "rstudy_workers", state.effective_workers() as u64);
    gauge(
        &mut out,
        "rstudy_flight_ring_entries",
        state.flight.ring_len() as u64,
    );
    let _ = writeln!(out, "# TYPE rstudy_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "rstudy_uptime_seconds {}",
        state.started.elapsed().as_millis() as f64 / 1000.0
    );

    histogram(&mut out, "rstudy_request_latency_ns", &state.latency_ns);
    histogram(&mut out, "rstudy_queue_wait_ns", &state.queue_ns);
    histogram(&mut out, "rstudy_analysis_ns", &state.analysis_ns);

    let detectors = state.detectors.snapshot();
    if !detectors.is_empty() {
        let _ = writeln!(out, "# TYPE rstudy_detector_runs_total counter");
        for d in &detectors {
            let _ = writeln!(
                out,
                "rstudy_detector_runs_total{{detector=\"{}\"}} {}",
                d.name, d.runs
            );
        }
        let _ = writeln!(out, "# TYPE rstudy_detector_findings_total counter");
        for d in &detectors {
            let _ = writeln!(
                out,
                "rstudy_detector_findings_total{{detector=\"{}\"}} {}",
                d.name, d.findings
            );
        }
        let _ = writeln!(out, "# TYPE rstudy_detector_latency_ns histogram");
        for d in &detectors {
            rstudy_telemetry::write_histogram_series(
                &mut out,
                "rstudy_detector_latency_ns",
                &format!("detector=\"{}\"", d.name),
                &d.latency_ns,
            );
        }
    }

    if rstudy_telemetry::enabled() {
        out.push_str(&rstudy_telemetry::snapshot().to_prometheus("rstudy_"));
    }
    out
}

/// Summarizes one histogram as `{count, min, mean, max, p50, p90, p99}`.
fn histogram_value(hist: &LocalHistogram) -> Value {
    histogram_summary(&hist.snapshot())
}

/// The JSON summary shape shared by `metrics` responses and the loadgen
/// BENCH files.
pub(crate) fn histogram_summary(snap: &HistogramSnapshot) -> Value {
    Value::Map(vec![
        ("count".into(), Value::UInt(snap.count)),
        ("min".into(), Value::UInt(snap.min)),
        ("mean".into(), Value::UInt(snap.mean())),
        ("max".into(), Value::UInt(snap.max)),
        ("p50".into(), Value::UInt(snap.p50())),
        ("p90".into(), Value::UInt(snap.p90())),
        ("p99".into(), Value::UInt(snap.p99())),
    ])
}

fn count(a: &AtomicU64) -> Value {
    Value::UInt(a.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// The check lifecycle: admit → start → (wait | completion) → settle
// ---------------------------------------------------------------------------

/// Bookkeeping minted when a check request is admitted; closed out by
/// [`settle_check`] exactly once, whichever path answers the request.
struct Admission {
    trace_id: u64,
    started: Instant,
}

/// Counts the request in and assigns its trace id.
fn admit_check(state: &ServerState) -> Admission {
    let started = Instant::now();
    let trace_id = state.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    state.inflight.fetch_add(1, Ordering::Relaxed);
    rstudy_telemetry::counter("serve.requests", 1);
    rstudy_telemetry::trace(|| format!("serve: request {trace_id} admitted"));
    Admission { trace_id, started }
}

/// Records the request's latency, retires it from the in-flight count,
/// and — being the exactly-once point on every answer path — feeds the
/// flight recorder and writes the access-log line.
fn settle_check(state: &ServerState, admission: &Admission, conn: u64, outcome: RequestOutcome) {
    let elapsed_ns = admission.started.elapsed().as_nanos() as u64;
    state.latency_ns.record(elapsed_ns);
    state.inflight.fetch_sub(1, Ordering::Relaxed);
    rstudy_telemetry::record("serve.request_ns", elapsed_ns);
    let trace_id = admission.trace_id;
    state.flight.record(
        trace_id,
        outcome.status,
        outcome.panicked,
        elapsed_ns,
        outcome.stages,
    );
    if let Some(log) = &state.access {
        log.record(|| {
            obs::access_line(
                conn,
                trace_id,
                "check",
                outcome.status,
                outcome.cache,
                outcome.queue_ns,
                outcome.analysis_ns,
                elapsed_ns,
                &outcome.detectors,
            )
        });
    }
    rstudy_telemetry::trace(|| format!("serve: request {trace_id} answered in {elapsed_ns} ns"));
}

/// What [`start_check`] did with the request.
enum CheckStart {
    /// Answered without worker involvement: a validation error, a cache
    /// hit, shed load, or a draining server.
    Ready(String, RequestOutcome),
    /// Submitted to the worker pool; the [`Responder`] delivers the
    /// response, and `deadline` bounds the wait.
    Queued { deadline: Option<Instant> },
}

/// The blocking check path (poll and stdin transports): admit, start,
/// wait for the responder's channel, settle.
fn handle_check(id: &Option<Value>, check: CheckRequest, state: &ServerState, conn: u64) -> String {
    let admission = admit_check(state);
    let (respond, reply) = mpsc::channel();
    let (response, outcome) = match start_check(
        id,
        admission.trace_id,
        check,
        state,
        admission.started,
        Responder::Channel(respond),
    ) {
        CheckStart::Ready(response, outcome) => (response, outcome),
        CheckStart::Queued { deadline } => {
            await_reply(id, admission.trace_id, state, deadline, &reply)
        }
    };
    settle_check(state, &admission, conn, outcome);
    response
}

/// Blocks on the worker's reply channel until the response or the
/// request deadline, whichever comes first.
fn await_reply(
    id: &Option<Value>,
    trace_id: u64,
    state: &ServerState,
    deadline: Option<Instant>,
    reply: &mpsc::Receiver<(String, RequestOutcome)>,
) -> (String, RequestOutcome) {
    let fail = |msg: &str| {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
        rstudy_telemetry::counter("serve.errors", 1);
        (error_response(id, msg), RequestOutcome::inline("error"))
    };
    match deadline {
        None => reply
            .recv()
            .unwrap_or_else(|_| fail("internal error: worker exited")),
        Some(deadline) => {
            let wait = deadline.saturating_duration_since(Instant::now());
            match reply.recv_timeout(wait) {
                Ok(answer) => answer,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    state.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    rstudy_telemetry::counter("serve.timeouts", 1);
                    (
                        timeout_response(id, trace_id, state),
                        RequestOutcome::timeout(),
                    )
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => fail("internal error: worker exited"),
            }
        }
    }
}

/// Everything before waiting: resolve the program source, canonicalize
/// detectors, consult the cache, and submit to the bounded queue. Never
/// blocks, so the epoll loop calls it directly.
fn start_check(
    id: &Option<Value>,
    trace_id: u64,
    check: CheckRequest,
    state: &ServerState,
    started: Instant,
    respond: Responder,
) -> CheckStart {
    let fail = |msg: String| {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
        rstudy_telemetry::counter("serve.errors", 1);
        CheckStart::Ready(error_response(id, &msg), RequestOutcome::inline("error"))
    };

    let program_text = match &check.source {
        ProgramSource::Text(text) => text.clone(),
        ProgramSource::Path(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(format!("{path}: {e}")),
        },
        ProgramSource::Manifest { path, entry } => match state.load_manifest(path) {
            Ok(m) => match m.find_program(entry) {
                Some(unit) => unit.program.clone(),
                None => return fail(format!("{path}: no lowered program for entry `{entry}`")),
            },
            Err(e) => return fail(e),
        },
    };
    let detectors = match canonical_detectors(check.detectors.as_deref()) {
        Ok(d) => d,
        Err(e) => return fail(e),
    };

    let key = ResultCache::key(&program_text, &detectors, check.naive);
    if let Some(report_json) = state.cache.get(key) {
        if let Ok(report) = serde_json::from_str::<Value>(&report_json) {
            rstudy_telemetry::counter("serve.cache.hits", 1);
            rstudy_telemetry::trace(|| format!("serve: request {trace_id} cache hit"));
            state.stats.ok.fetch_add(1, Ordering::Relaxed);
            return CheckStart::Ready(
                ok_response(
                    id,
                    trace_id,
                    Timing {
                        queue_ns: 0,
                        analysis_ns: 0,
                        total_ns: started.elapsed().as_nanos() as u64,
                        cached: true,
                    },
                    check.trace.then(|| trace_value(started, None)),
                    report,
                ),
                RequestOutcome::cache_hit(detectors),
            );
        }
        // A torn or corrupt cache entry degrades to a recompute.
    }
    rstudy_telemetry::counter("serve.cache.misses", 1);
    rstudy_telemetry::trace(|| format!("serve: request {trace_id} cache miss"));

    let deadline = state
        .config
        .timeout_ms
        .map(|ms| started + Duration::from_millis(ms));
    let job = Job {
        id: id.clone(),
        trace_id,
        program_text,
        detectors,
        jobs: check.jobs.unwrap_or(state.config.default_jobs),
        naive: check.naive,
        trace: check.trace,
        delay_ms: check.delay_ms,
        key,
        accepted_at: started,
        enqueued_at: Instant::now(),
        deadline,
        respond,
    };
    match state.queue.push(job) {
        Ok(depth) => {
            rstudy_telemetry::record("serve.queue_depth", depth as u64);
            rstudy_telemetry::trace(|| {
                format!("serve: request {trace_id} enqueued at depth {depth}")
            });
            CheckStart::Queued { deadline }
        }
        Err(PushError::Full) => {
            state.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            rstudy_telemetry::counter("serve.overloaded", 1);
            rstudy_telemetry::trace(|| format!("serve: request {trace_id} shed (queue full)"));
            CheckStart::Ready(
                degraded_response_traced(
                    id,
                    trace_id,
                    "overloaded",
                    &format!(
                        "queue full ({} pending analyses); retry later",
                        state.config.queue_depth
                    ),
                ),
                RequestOutcome::inline("overloaded"),
            )
        }
        Err(PushError::Closed) => fail("server is shutting down".to_owned()),
    }
}

fn timeout_response(id: &Option<Value>, trace_id: u64, state: &ServerState) -> String {
    degraded_response_traced(
        id,
        trace_id,
        "timeout",
        &format!(
            "deadline of {} ms exceeded; the analysis keeps running but its result is discarded",
            state.config.timeout_ms.unwrap_or(0)
        ),
    )
}

/// A degraded response that still carries the request's `trace_id`, so shed
/// and timed-out requests remain correlatable in logs and traces.
fn degraded_response_traced(
    id: &Option<Value>,
    trace_id: u64,
    status: &str,
    message: &str,
) -> String {
    ResponseBuilder::new(id, status)
        .field("trace_id", Value::UInt(trace_id))
        .field("error", Value::Str(message.to_owned()))
        .finish()
}

/// Resolves the requested detector names to the canonical (sorted by run
/// order, deduplicated) set, defaulting to the full suite.
fn canonical_detectors(requested: Option<&[String]>) -> Result<Vec<String>, String> {
    let known = DetectorSuite::all_detector_names();
    match requested {
        None => Ok(known.iter().map(|s| s.to_string()).collect()),
        Some(names) => {
            for n in names {
                if !known.contains(&n.as_str()) {
                    return Err(format!(
                        "unknown detector `{n}` (valid: {})",
                        known.join(", ")
                    ));
                }
            }
            Ok(known
                .iter()
                .filter(|k| names.iter().any(|n| n == **k))
                .map(|s| s.to_string())
                .collect())
        }
    }
}

/// Per-stage timings measured for one request. Embedded in every `ok`
/// response as the `timing` object — outside `report`, so the cached
/// report bytes stay deterministic.
struct Timing {
    queue_ns: u64,
    analysis_ns: u64,
    total_ns: u64,
    cached: bool,
}

impl Timing {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("queue_ns".to_owned(), Value::UInt(self.queue_ns)),
            ("analysis_ns".to_owned(), Value::UInt(self.analysis_ns)),
            ("total_ns".to_owned(), Value::UInt(self.total_ns)),
            (
                "cache".to_owned(),
                Value::Str(if self.cached { "hit" } else { "miss" }.to_owned()),
            ),
        ])
    }
}

fn ok_response(
    id: &Option<Value>,
    trace_id: u64,
    timing: Timing,
    trace: Option<Value>,
    report: Value,
) -> String {
    let findings = report
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .map_or(0, |a| a.len());
    let mut b = ResponseBuilder::new(id, "ok")
        .field("trace_id", Value::UInt(trace_id))
        .field("cached", Value::Bool(timing.cached))
        .field("findings", Value::UInt(findings as u64))
        .field("timing", timing.to_value());
    if let Some(trace) = trace {
        b = b.field("trace", trace);
    }
    b.field("report", report).finish()
}

/// Per-request timing attached when `trace` is requested. Measured, hence
/// non-deterministic; kept out of the report (and thus out of the cache).
fn trace_value(started: Instant, phases: Option<(u64, u64)>) -> Value {
    let mut entries = Vec::new();
    if let Some((parse_ns, check_ns)) = phases {
        entries.push(("parse_ns".to_owned(), Value::UInt(parse_ns)));
        entries.push(("check_ns".to_owned(), Value::UInt(check_ns)));
    }
    entries.push((
        "total_ns".to_owned(),
        Value::UInt(started.elapsed().as_nanos() as u64),
    ));
    Value::Map(entries)
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        let _span = rstudy_telemetry::span("serve.worker");
        let (response, outcome) = run_job(&job, state);
        job.respond.deliver(response, outcome);
    }
}

fn run_job(job: &Job, state: &ServerState) -> (String, RequestOutcome) {
    // Flight-recorder stage offsets are nanoseconds from admission, so
    // queue wait, artificial delay, parse, and analysis line up on one
    // timeline.
    let off = |t: Instant| t.saturating_duration_since(job.accepted_at).as_nanos() as u64;
    let started = Instant::now();
    let queue_ns = job.enqueued_at.elapsed().as_nanos() as u64;
    state.queue_ns.record(queue_ns);
    rstudy_telemetry::record("serve.queue_ns", queue_ns);
    let mut stages = vec![Stage {
        name: "queue",
        start_ns: off(job.enqueued_at),
        end_ns: off(started),
    }];
    let outcome =
        |status: &'static str, cache, analysis_ns, panicked, stages: Vec<Stage>| RequestOutcome {
            status,
            cache,
            queue_ns,
            analysis_ns,
            detectors: job.detectors.clone(),
            stages,
            panicked,
        };
    let _req_span = rstudy_telemetry::span("serve.request");
    rstudy_telemetry::trace(|| {
        format!(
            "serve: request {} dequeued after {queue_ns} ns",
            job.trace_id
        )
    });
    if job.delay_ms > 0 {
        let t_delay = Instant::now();
        std::thread::sleep(Duration::from_millis(job.delay_ms));
        stages.push(Stage {
            name: "delay",
            start_ns: off(t_delay),
            end_ns: off(Instant::now()),
        });
    }
    // A deadline that expired while the job sat in the queue (or slept)
    // skips the analysis entirely — the waiter has already answered
    // `timeout`, so running would only waste a worker.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return (
            timeout_response(&job.id, job.trace_id, state),
            outcome("timeout", None, 0, false, stages),
        );
    }

    let fail = |msg: String| {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
        rstudy_telemetry::counter("serve.errors", 1);
        error_response(&job.id, &msg)
    };

    let config = if job.naive {
        DetectorConfig::naive()
    } else {
        DetectorConfig::new()
    };
    let suite = match DetectorSuite::with_only(&job.detectors) {
        Ok(s) => s.with_jobs(job.jobs).with_config(config),
        Err(e) => return (fail(e), outcome("error", None, 0, false, stages)),
    };
    // Parse, validate and the suite share one `catch_unwind`: a panic on
    // any input answers `error` and leaves this worker serving.
    let t_parse = Instant::now();
    let mut t_check = None;
    let analyzed = catch_unwind(AssertUnwindSafe(|| {
        let program = {
            let _span = rstudy_telemetry::span("serve.parse");
            parse_program(&job.program_text).map_err(|e| format!("parse error: {e}"))?
        };
        validate_program(&program).map_err(|errs| format!("invalid program: {}", errs[0]))?;
        t_check = Some(Instant::now());
        let _span = rstudy_telemetry::span("serve.check");
        Ok(suite.check_program_timed(&program))
    }));
    let t_end = Instant::now();
    let parse_end = t_check.unwrap_or(t_end);
    let parse_ns = (parse_end - t_parse).as_nanos() as u64;
    let check_ns = (t_end - parse_end).as_nanos() as u64;
    stages.push(Stage {
        name: "parse",
        start_ns: off(t_parse),
        end_ns: off(parse_end),
    });
    if t_check.is_some() {
        stages.push(Stage {
            name: "check",
            start_ns: off(parse_end),
            end_ns: off(t_end),
        });
    }
    let (report, timings) = match analyzed {
        Ok(Ok(r)) => r,
        Ok(Err(msg)) => return (fail(msg), outcome("error", None, 0, false, stages)),
        Err(_) => {
            return (
                fail("internal error: the analysis panicked".to_owned()),
                outcome("error", None, parse_ns, true, stages),
            )
        }
    };
    let analysis_ns = parse_ns + check_ns;
    state.analysis_ns.record(analysis_ns);
    rstudy_telemetry::record("serve.analysis_ns", analysis_ns);
    for t in &timings {
        state.detectors.record(t.name, t.wall_ns, t.findings);
    }

    let report_value = report.to_value();
    let report_json =
        serde_json::to_string(&report_value).expect("report serialization cannot fail");
    let _ = state.cache.put(job.key, &report_json);

    state.stats.ok.fetch_add(1, Ordering::Relaxed);
    (
        ok_response(
            &job.id,
            job.trace_id,
            Timing {
                queue_ns,
                analysis_ns,
                total_ns: job.accepted_at.elapsed().as_nanos() as u64,
                cached: false,
            },
            job.trace
                .then(|| trace_value(started, Some((parse_ns, check_ns)))),
            report_value,
        ),
        outcome("ok", Some("miss"), analysis_ns, false, stages),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "\
fn main() -> int {
    let _1 as x: int;

    bb0: {
        StorageLive(_1);
        _1 = const 1;
        _0 = _1;
        StorageDead(_1);
        return;
    }
}
";

    fn request(body: &str) -> String {
        serde_json::to_string(&Value::Map(vec![
            ("id".to_owned(), Value::Str("t".to_owned())),
            ("program".to_owned(), Value::Str(body.to_owned())),
        ]))
        .unwrap()
    }

    #[test]
    fn serve_stream_answers_and_drains_on_eof() {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let input = format!("{}\n{}\n", request(CLEAN), request(CLEAN));
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut out = Vec::new();
        serve_stream(config, &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains(r#""status":"ok""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""cached":false"#), "{}", lines[0]);
        // The second submission of the identical program hits the cache
        // and embeds a byte-identical report object.
        assert!(lines[1].contains(r#""cached":true"#), "{}", lines[1]);
        let report = |line: &str| {
            let v: Value = serde_json::from_str(line).unwrap();
            serde_json::to_string(v.get("report").unwrap()).unwrap()
        };
        assert_eq!(report(lines[0]), report(lines[1]));
    }

    #[test]
    fn serve_stream_survives_malformed_lines() {
        let input = format!("garbage\n\n{}\n{{\"cmd\":\"stats\"}}\n", request(CLEAN));
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut out = Vec::new();
        serve_stream(ServeConfig::default(), &mut reader, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains(r#""status":"error""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""status":"ok""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""status":"stats""#), "{}", lines[2]);
        assert!(lines[2].contains(r#""errors":1"#), "{}", lines[2]);
    }

    #[test]
    fn canonicalization_is_order_and_dup_insensitive() {
        let a =
            canonical_detectors(Some(&["double-lock".into(), "use-after-free".into()])).unwrap();
        let b = canonical_detectors(Some(&[
            "use-after-free".into(),
            "double-lock".into(),
            "double-lock".into(),
        ]))
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, ["use-after-free", "double-lock"]);
        assert!(canonical_detectors(Some(&["bogus".into()])).is_err());
    }

    #[test]
    fn transport_parses_and_defaults_per_platform() {
        assert_eq!("poll".parse::<Transport>(), Ok(Transport::Poll));
        assert_eq!("epoll".parse::<Transport>(), Ok(Transport::Epoll));
        assert!("kqueue".parse::<Transport>().is_err());
        if cfg!(target_os = "linux") {
            assert_eq!(Transport::default(), Transport::Epoll);
        } else {
            assert_eq!(Transport::default(), Transport::Poll);
        }
    }

    #[test]
    fn accept_errors_are_classified() {
        use std::io::Error;
        // Transient: fd exhaustion and aborted backlog connections.
        assert!(accept_error_is_transient(&Error::from_raw_os_error(24)));
        assert!(accept_error_is_transient(&Error::from_raw_os_error(23)));
        assert!(accept_error_is_transient(&Error::new(
            ErrorKind::ConnectionAborted,
            "aborted"
        )));
        assert!(accept_error_is_transient(&Error::new(
            ErrorKind::Interrupted,
            "eintr"
        )));
        // Fatal: a closed or invalid listener fd.
        assert!(!accept_error_is_transient(&Error::from_raw_os_error(9)));
        assert!(!accept_error_is_transient(&Error::new(
            ErrorKind::InvalidInput,
            "einval"
        )));
    }
}
