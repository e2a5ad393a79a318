//! The resident analysis server.
//!
//! ```text
//!   TCP clients ── epoll I/O thread ─┐                  ┌── worker ──┐
//!   (NDJSON)                         ├─ dispatch ─ admit┤  bounded   ├─ DetectorSuite
//!   stdin pipe ─── serve --stdin ────┘      │           │  JobQueue  │
//!                                           │           └── worker ──┘
//!                                           └── ResultCache (mem LRU + disk) ── hit: no work
//! ```
//!
//! Two front ends share one request path. `dispatch` turns a request line
//! into its answer or into a check queued for the worker pool. Every
//! admitted check carries one `CheckRecord`; `settle_check` closes it out
//! exactly once, measuring its `total_ns` and rendering the response, the
//! status count, the latency sample, the access-log line and any incident
//! from that record. A front end only decides how a queued check waits for
//! its completion:
//!
//! * **TCP** (Linux) — a single I/O thread owns the nonblocking listener
//!   and every connection, reacting to readiness through `epoll`.
//!   Complete NDJSON lines are parsed out of per-connection buffers;
//!   worker completions wake the loop through an eventfd
//!   ([`crate::queue::CompletionQueue`]). There is **no timed sleep
//!   anywhere on the request path**: idle connections cost zero wakeups
//!   and accepts are immediate.
//! * **`serve --stdin`** (portable) — one blocking loop over an NDJSON
//!   stream, waiting on a channel for each queued check. Off Linux it is
//!   the only mode: [`Server::run`] answers `Unsupported`.
//!
//! All degradation is structured: a full queue answers `overloaded`, an
//! expired deadline answers `timeout`, malformed input answers `error`,
//! and none of them disturb other connections or the server itself.
//! Shutdown (a `shutdown` request, stdin EOF, SIGINT, or
//! [`ServerHandle::begin_shutdown`]) drains accepted jobs, flushes the
//! disk cache, and only then lets [`Server::run`] return.

use std::io::{self, BufRead, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rstudy_core::config::DetectorConfig;
use rstudy_core::suite::DetectorSuite;
use rstudy_ingest::Manifest;
use rstudy_mir::parse::parse_program;
use rstudy_mir::validate::validate_program;
use rstudy_telemetry::{HistogramSnapshot, LocalHistogram};
use serde::Value;

use crate::cache::{CacheKey, ResultCache};
use crate::obs::{self, CheckRecord, Stage};
use crate::protocol::{
    error_response, parse_request, CheckRequest, Command, ProgramSource, ResponseBuilder,
};
#[cfg(target_os = "linux")]
use crate::queue::{CompletionQueue, Notify};
use crate::queue::{JobQueue, PushError};

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
    /// Loopback port for the Prometheus scrape endpoint (`GET /metrics`,
    /// `GET /healthz`); `0` = kernel-assigned, `None` = no endpoint. TCP
    /// mode only: [`serve_stream`] rejects it.
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
            metrics_port: None,
            access_log: None,
            access_log_sample: 1,
            slow_ms: None,
        }
    }
}

/// Service counters, read through [`ServiceSnapshot`]. `requests` counts
/// admitted checks; the four status counters count answers, each admitted
/// check exactly once (in [`settle_check`]), plus the `error` answers for
/// lines that never became a check.
#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    overloaded: AtomicU64,
}

/// Where a worker delivers a finished check: back to the connection that
/// queued it. Each connection (the stdin stream is one) holds one, and
/// every job carries a clone.
#[derive(Clone)]
enum Responder {
    /// `serve --stdin`: the reading thread waits on the receiving end.
    Channel(mpsc::Sender<Completion>),
    /// The epoll loop's completion mailbox, tagged with the connection's
    /// token; the push wakes the loop.
    #[cfg(target_os = "linux")]
    Loop {
        queue: Arc<CompletionQueue<(u64, Completion)>>,
        token: u64,
    },
}

impl Responder {
    fn deliver(&self, done: Completion) {
        match self {
            // The reader may have failed and gone; a dead channel is fine.
            Responder::Channel(tx) => {
                let _ = tx.send(done);
            }
            #[cfg(target_os = "linux")]
            Responder::Loop { queue, token } => queue.push((*token, done)),
        }
    }
}

/// A finished check travelling from a worker back to its front end: the
/// stages the worker timed and its answer. The front end compares
/// `trace_id` with the check it is waiting on: a completion for a check it
/// already answered `timeout` is stale and is dropped uncounted.
struct Completion {
    trace_id: u64,
    stages: Vec<Stage>,
    answer: Answer,
}

/// One unit of analysis work travelling from a front end to the worker
/// pool. The responder carries the completion back.
struct Job {
    /// Server-unique request trace id, threaded through the telemetry
    /// trace log.
    trace_id: u64,
    program_text: String,
    /// Canonicalized detector set (validated, canonical order).
    detectors: Vec<String>,
    naive: bool,
    delay_ms: u64,
    key: CacheKey,
    /// When the front end admitted the request (stage offsets start here).
    admitted: Instant,
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
    /// Request latency (admission → settle: every answer's `total_ns`),
    /// nanoseconds. Always recorded — the `metrics` command must answer
    /// even when global telemetry is off.
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
    /// Source of connection tokens, shared by both front ends (and the
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

/// Memory-tier capacity of the result cache, in reports. Large enough that
/// a connection stalled for a few hundred milliseconds behind another
/// connection's fresh inserts still finds its own hot entries.
const CACHE_CAPACITY: usize = 1024;

/// Tokens 0..4 are reserved by the epoll loop (listener, waker, SIGINT
/// latch, metrics listener); connection tokens — TCP, stdin and metrics
/// connections alike — are minted from a shared counter above them.
const FIRST_CONN_TOKEN: u64 = 4;

impl ServerState {
    fn new(config: ServeConfig) -> io::Result<ServerState> {
        let cache = ResultCache::new(CACHE_CAPACITY, config.cache_dir.clone())?;
        let access = match &config.access_log {
            Some(path) => Some(obs::AccessLog::open(path, config.access_log_sample)?),
            None => None,
        };
        let flight = obs::FlightRecorder::new(config.slow_ms);
        rstudy_telemetry::declare_histogram("serve.queue_depth");
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

    /// Mints the next connection token (shared across front ends).
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

#[cfg(unix)]
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
/// epoll loop registers the eventfd in its interest set, is woken by the
/// write, and reads the flag.
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
    ///
    /// One I/O thread multiplexes the listener, every connection, worker
    /// completions, and SIGINT over a single `epoll_wait`.
    #[cfg(target_os = "linux")]
    pub fn run(self) -> io::Result<()> {
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
        finish_run(state);
        result
    }

    /// The TCP transport is built on `epoll`; elsewhere `serve --stdin`
    /// ([`serve_stream`]) is the portable mode.
    #[cfg(not(target_os = "linux"))]
    pub fn run(self) -> io::Result<()> {
        Err(io::Error::new(
            ErrorKind::Unsupported,
            "the TCP transport needs Linux (epoll); use `serve --stdin` on this platform",
        ))
    }
}

/// End-of-run teardown shared by both front ends: flush the disk cache,
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
#[cfg(target_os = "linux")]
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
    use std::io::Read;
    use std::net::TcpStream;
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

    /// How long a listener stays deregistered after a transient accept
    /// failure (fd exhaustion) before the loop tries it again.
    const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);

    /// How long a draining server keeps trying to flush already-built
    /// responses to clients that have stopped reading.
    const DRAIN_WRITE_GRACE: Duration = Duration::from_secs(10);

    /// The interest mask a freshly accepted connection starts with.
    const READABLE: u32 = EPOLLIN | EPOLLRDHUP;

    /// Stop reading ahead once this much unprocessed input is buffered
    /// and at least one complete line is waiting — backpressure against a
    /// client that pipelines faster than analyses finish. A single
    /// oversized line is still read to completion.
    const READ_AHEAD_CAP: usize = 1 << 20;

    /// The socket state both connection kinds share: the stream, its
    /// token, buffered output, and the interest mask registered with
    /// epoll. What to read and when to want input stay with the owner.
    struct SocketBuf {
        stream: TcpStream,
        token: u64,
        /// Bytes not yet accepted by the socket.
        outbuf: Vec<u8>,
        out_pos: usize,
        /// The connection failed hard; buffers are abandoned.
        dead: bool,
        /// The interest mask currently registered with epoll (0 = none).
        registered: u32,
    }

    impl SocketBuf {
        fn new(stream: TcpStream, token: u64) -> SocketBuf {
            SocketBuf {
                stream,
                token,
                outbuf: Vec::new(),
                out_pos: 0,
                dead: false,
                registered: READABLE,
            }
        }

        /// Reads into `inbuf`, `chunk.len()` bytes at a time, until the
        /// socket would block, a read fails (the connection dies), or
        /// `full(inbuf)` holds. Returns whether the peer finished sending.
        fn fill(
            &mut self,
            inbuf: &mut Vec<u8>,
            chunk: &mut [u8],
            mut full: impl FnMut(&[u8]) -> bool,
        ) -> bool {
            while !full(inbuf) {
                match (&self.stream).read(chunk) {
                    Ok(0) => return true,
                    Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            false
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

        /// Reconciles the registered interest mask with the one needed:
        /// readable when the owner wants input, writable while output is
        /// buffered, nothing once dead.
        fn update_interest(&mut self, epoll: &Epoll, wants_input: bool) {
            let mut want = 0;
            if !self.dead {
                if wants_input {
                    want |= READABLE;
                }
                if self.has_unwritten_output() {
                    want |= EPOLLOUT;
                }
            }
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
    }

    /// Whether reading should pause: past the read-ahead cap with a
    /// complete line waiting.
    fn read_ahead_paused(inbuf: &[u8], scanned: &mut usize) -> bool {
        inbuf.len() > READ_AHEAD_CAP && find_newline(inbuf, scanned).is_some()
    }

    /// The index of the first newline in `inbuf` at or after `*scanned`,
    /// the length of the prefix already known to hold none. The prefix
    /// grows up to the newline, or to the whole buffer, so each byte is
    /// searched once however many reads its line takes to arrive.
    fn find_newline(inbuf: &[u8], scanned: &mut usize) -> Option<usize> {
        match inbuf[*scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                *scanned += rel;
                Some(*scanned)
            }
            None => {
                *scanned = inbuf.len();
                None
            }
        }
    }

    /// One registered NDJSON client connection.
    struct Conn {
        sock: SocketBuf,
        /// Bytes read but not yet consumed as complete request lines.
        inbuf: Vec<u8>,
        /// Length of the `inbuf` prefix known to hold no newline.
        scanned: usize,
        /// The single check this connection is waiting on. Requests are
        /// answered strictly in request order, so at most one is in
        /// flight per connection.
        inflight: Option<PendingCheck>,
        /// Where workers deliver this connection's checks.
        respond: Responder,
        /// The peer finished sending (clean EOF or half-close).
        eof: bool,
    }

    impl Conn {
        fn new(stream: TcpStream, token: u64, respond: Responder) -> Conn {
            Conn {
                sock: SocketBuf::new(stream, token),
                inbuf: Vec::new(),
                scanned: 0,
                inflight: None,
                respond,
                eof: false,
            }
        }

        /// Drains the socket's receive buffer into `inbuf` in 16 KiB
        /// reads, pausing at the read-ahead cap.
        fn fill(&mut self) {
            if self.sock.dead || self.eof {
                return;
            }
            let scanned = &mut self.scanned;
            self.eof = self.sock.fill(&mut self.inbuf, &mut [0u8; 16384], |inbuf| {
                read_ahead_paused(inbuf, scanned)
            });
        }

        /// Queues `response` plus its newline framing as one contiguous
        /// buffer, so the whole frame leaves in a single `write(2)` —
        /// never a payload write followed by a 1-byte `\n` write that
        /// Nagle + delayed ACK can park for ~40 ms.
        fn push_response(&mut self, response: &str) {
            if self.sock.dead {
                return;
            }
            let out = &mut self.sock.outbuf;
            out.reserve(response.len() + 1);
            out.extend_from_slice(response.as_bytes());
            out.push(b'\n');
        }

        /// Readable while the connection may produce the next request. A
        /// connection waiting on a worker wants neither input nor output —
        /// it costs zero wakeups.
        fn wants_input(&mut self, state: &ServerState) -> bool {
            !self.eof
                && self.inflight.is_none()
                && !state.is_shutdown()
                && !read_ahead_paused(&self.inbuf, &mut self.scanned)
        }

        /// Whether the connection can be dropped: nothing in flight and
        /// either failed hard or fully answered a finished peer.
        fn finished(&self) -> bool {
            if self.inflight.is_some() {
                return false;
            }
            self.sock.dead || (self.eof && !self.sock.has_unwritten_output())
        }
    }

    /// One HTTP scrape connection multiplexed onto the event loop.
    /// Strictly one request per connection (`Connection: close`), bounded
    /// in both buffer size and lifetime.
    struct MetricsConn {
        sock: SocketBuf,
        inbuf: Vec<u8>,
        responded: bool,
        expires: Instant,
    }

    impl MetricsConn {
        fn new(stream: TcpStream, token: u64) -> MetricsConn {
            MetricsConn {
                sock: SocketBuf::new(stream, token),
                inbuf: Vec::new(),
                responded: false,
                expires: Instant::now() + METRICS_CONN_TTL,
            }
        }

        /// Drains the socket into `inbuf`; a head past
        /// [`METRICS_HEAD_CAP`] kills the connection. Returns whether the
        /// peer finished sending: EOF before a complete head is still
        /// answered, from whatever request line arrived (a 404 or 405).
        fn fill(&mut self) -> bool {
            if self.sock.dead {
                return false;
            }
            let eof = self.sock.fill(&mut self.inbuf, &mut [0u8; 1024], |head| {
                head.len() > METRICS_HEAD_CAP
            });
            if self.inbuf.len() > METRICS_HEAD_CAP {
                self.sock.dead = true;
            }
            eof
        }

        fn finished(&self) -> bool {
            self.sock.dead || (self.responded && !self.sock.has_unwritten_output())
        }
    }

    /// The shared, immutable pieces every event-loop helper needs.
    struct Reactor<'a> {
        state: &'a ServerState,
        epoll: Epoll,
        wake: Arc<EventFd>,
        completions: Arc<CompletionQueue<(u64, Completion)>>,
    }

    /// A listening socket on the loop. Its interest is level-triggered, so
    /// a connection it cannot accept (the process is out of descriptors)
    /// would report it ready on every `epoll_wait`: a transient accept
    /// failure therefore deregisters it for [`ACCEPT_BACKOFF`].
    struct Acceptor<'a> {
        listener: &'a TcpListener,
        token: u64,
        registered: bool,
        /// When the current backoff ends; `None` when not backing off.
        resume_at: Option<Instant>,
    }

    impl<'a> Acceptor<'a> {
        fn new(listener: &'a TcpListener, token: u64, epoll: &Epoll) -> io::Result<Acceptor<'a>> {
            epoll.add(listener.as_raw_fd(), token, EPOLLIN)?;
            Ok(Acceptor {
                listener,
                token,
                registered: true,
                resume_at: None,
            })
        }

        /// Deregisters the listener until `resume_at`, or for good.
        fn pause(&mut self, epoll: &Epoll, resume_at: Option<Instant>) {
            if self.registered {
                let _ = epoll.delete(self.listener.as_raw_fd());
                self.registered = false;
            }
            self.resume_at = resume_at;
        }

        /// Re-registers the listener once its backoff has run out.
        fn resume_if_due(&mut self, epoll: &Epoll, now: Instant) {
            if self.resume_at.is_some_and(|at| now >= at) {
                self.resume_at = None;
                self.registered = epoll
                    .add(self.listener.as_raw_fd(), self.token, EPOLLIN)
                    .is_ok();
            }
        }

        /// Accepts every pending connection, registers it with epoll under
        /// a fresh token, and hands it to `admit`. A transient failure
        /// backs off; a fatal one retires the listener and is returned, so
        /// the caller applies its own policy.
        fn accept_all(
            &mut self,
            r: &Reactor<'_>,
            mut admit: impl FnMut(TcpStream, u64),
        ) -> io::Result<()> {
            while self.registered {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(true);
                        // Responses are coalesced into single writes, but
                        // disable Nagle too: a response racing a previous
                        // partial flush must never wait on a delayed ACK.
                        let _ = stream.set_nodelay(true);
                        let token = r.state.mint_conn_token();
                        if r.epoll.add(stream.as_raw_fd(), token, READABLE).is_ok() {
                            admit(stream, token);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if accept_error_is_transient(&e) => {
                        self.pause(&r.epoll, Some(Instant::now() + ACCEPT_BACKOFF));
                    }
                    Err(e) => {
                        self.pause(&r.epoll, None);
                        return Err(e);
                    }
                }
            }
            Ok(())
        }
    }

    pub(super) fn event_loop(
        listener: &TcpListener,
        metrics: Option<&TcpListener>,
        state: &ServerState,
    ) -> io::Result<()> {
        let epoll = Epoll::new()?;
        let wake = Arc::new(EventFd::new()?);
        let completions = Arc::new(CompletionQueue::new(Arc::clone(&wake) as Arc<dyn Notify>));
        let listener = Acceptor::new(listener, TOKEN_LISTENER, &epoll)?;
        // Stays registered during drain: /healthz keeps answering (503)
        // while in-flight analyses finish.
        let metrics = match metrics {
            Some(m) => Some(Acceptor::new(m, TOKEN_METRICS_LISTENER, &epoll)?),
            None => None,
        };
        epoll.add(wake.as_raw_fd(), TOKEN_WAKE, EPOLLIN)?;
        let mut sigint_registered = false;
        if let Some(fd) = sigint_wake_fd() {
            sigint_registered = epoll.add(fd, TOKEN_SIGINT, EPOLLIN).is_ok();
        }
        state.set_waker(Arc::clone(&wake));
        let reactor = Reactor {
            state,
            epoll,
            wake,
            completions,
        };
        let result = event_loop_run(&reactor, listener, metrics, sigint_registered);
        state.clear_waker();
        result
    }

    fn event_loop_run(
        r: &Reactor<'_>,
        mut listener: Acceptor<'_>,
        mut metrics: Option<Acceptor<'_>>,
        mut sigint_registered: bool,
    ) -> io::Result<()> {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut mconns: HashMap<u64, MetricsConn> = HashMap::new();
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
                listener.pause(&r.epoll, None);
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
                    c.inflight.is_some()
                        || (!past_grace && !c.sock.dead && c.sock.has_unwritten_output())
                });
                if conns.is_empty() {
                    return Ok(());
                }
            }

            let backoff = earliest(
                listener.resume_at,
                metrics.as_ref().and_then(|m| m.resume_at),
            );
            let timeout_ms = next_wakeup_ms(earliest(backoff, drain_deadline), &conns, &mconns);
            let n = r.epoll.wait(&mut events, timeout_ms)?;

            let mut touched: Vec<u64> = Vec::new();
            let mut mtouched: Vec<u64> = Vec::new();
            for ev in &events[..n] {
                let EpollEvent { events: mask, data } = *ev;
                match data {
                    TOKEN_LISTENER => {
                        let accepted = listener.accept_all(r, |stream, token| {
                            let respond = Responder::Loop {
                                queue: Arc::clone(&r.completions),
                                token,
                            };
                            conns.insert(token, Conn::new(stream, token, respond));
                        });
                        if let Err(e) = accepted {
                            eprintln!("serve: accept failed fatally: {e}; shutting down");
                            r.state.begin_shutdown();
                        }
                    }
                    TOKEN_METRICS_LISTENER => {
                        // A failing metrics listener never takes the
                        // service down: it only disables the endpoint.
                        let Some(m) = metrics.as_mut() else { continue };
                        if let Err(e) = m.accept_all(r, |stream, token| {
                            mconns.insert(token, MetricsConn::new(stream, token));
                        }) {
                            eprintln!(
                                "serve: metrics accept failed fatally: {e}; disabling the endpoint"
                            );
                        }
                    }
                    TOKEN_WAKE => r.wake.drain(),
                    TOKEN_SIGINT => {} // latch; handled at the loop top
                    token => {
                        if let Some(conn) = conns.get_mut(&token) {
                            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                                conn.fill();
                            }
                            if mask & EPOLLOUT != 0 {
                                conn.sock.flush();
                            }
                            touched.push(token);
                        } else if let Some(m) = mconns.get_mut(&token) {
                            let mut eof = false;
                            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                                eof = m.fill();
                            }
                            if mask & EPOLLOUT != 0 {
                                m.sock.flush();
                            }
                            // One GET per connection: respond as soon as
                            // the head is complete (or the peer stopped
                            // sending one).
                            if !m.responded
                                && !m.sock.dead
                                && (obs::http_head_complete(&m.inbuf) || eof)
                            {
                                let head = obs::http_head_line(&m.inbuf);
                                let healthy = !r.state.is_shutdown();
                                m.sock.outbuf = obs::http_response(&head, healthy, || {
                                    prometheus_exposition(r.state)
                                });
                                m.sock.out_pos = 0;
                                m.responded = true;
                            }
                            mtouched.push(token);
                        }
                    }
                }
            }

            // Re-arm accepts once an fd-exhaustion backoff expires.
            let now = Instant::now();
            if !draining {
                listener.resume_if_due(&r.epoll, now);
            }
            if let Some(m) = metrics.as_mut() {
                m.resume_if_due(&r.epoll, now);
            }

            // Worker completions: answer the check each one belongs to. A
            // completion for a check the loop already answered `timeout`
            // no longer matches and is dropped.
            for (token, done) in r.completions.drain() {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                if conn
                    .inflight
                    .as_ref()
                    .is_some_and(|p| p.record.trace_id == done.trace_id)
                {
                    let pending = conn.inflight.take().expect("matched above");
                    conn.push_response(&pending.settle(r.state, token, Some(done)));
                    touched.push(token);
                }
            }

            // Expired deadlines: answer `timeout` now; the analysis keeps
            // running but its eventual completion is stale.
            for (token, conn) in conns.iter_mut() {
                let expired = conn
                    .inflight
                    .as_ref()
                    .is_some_and(|p| p.deadline.is_some_and(|d| now >= d));
                if expired {
                    let pending = conn.inflight.take().expect("expired above");
                    conn.push_response(&pending.settle(r.state, *token, None));
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
                conn.sock.flush();
                let wants_input = conn.wants_input(r.state);
                conn.sock.update_interest(&r.epoll, wants_input);
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
                m.sock.flush();
                m.sock.update_interest(&r.epoll, !m.responded);
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

    /// How long `epoll_wait` may block: forever unless `wake_at` (an
    /// accept backoff or the drain grace period), a request deadline, or a
    /// scrape-connection TTL needs a timer.
    fn next_wakeup_ms(
        mut wake_at: Option<Instant>,
        conns: &HashMap<u64, Conn>,
        mconns: &HashMap<u64, MetricsConn>,
    ) -> i32 {
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

    /// Dispatches every complete buffered line, one check at a time
    /// (responses are strictly in request order). Also converts a final
    /// unterminated fragment at EOF into a structured error.
    fn process_lines(conn: &mut Conn, r: &Reactor<'_>) {
        // `inbuf[consumed..scanned]` holds no newline.
        let mut consumed = 0usize;
        while conn.inflight.is_none() && !conn.sock.dead && !r.state.is_shutdown() {
            let Some(end) = find_newline(&conn.inbuf, &mut conn.scanned) else {
                break;
            };
            // A line that is not UTF-8 cannot be framed as a request at
            // all; the connection is dropped.
            let Ok(line) = std::str::from_utf8(&conn.inbuf[consumed..end]) else {
                conn.sock.dead = true;
                break;
            };
            let line = line.trim();
            let dispatched =
                (!line.is_empty()).then(|| dispatch(line, r.state, conn.sock.token, &conn.respond));
            consumed = end + 1;
            conn.scanned = consumed;
            match dispatched {
                Some(Dispatch::Answer(response)) => conn.push_response(&response),
                Some(Dispatch::Queued(pending)) => conn.inflight = Some(pending),
                None => {}
            }
        }
        if consumed > 0 {
            conn.inbuf.drain(..consumed);
            conn.scanned -= consumed;
        }
        // EOF with a trailing fragment that never got its newline: the
        // protocol promises every failure mode a structured response, so
        // answer `error` instead of dropping the bytes silently.
        if conn.eof && conn.inflight.is_none() && !r.state.is_shutdown() {
            if conn.inbuf.iter().any(|b| !b.is_ascii_whitespace()) {
                conn.push_response(&line_error(
                    r.state,
                    &None,
                    "unterminated request: connection closed before the line's newline",
                ));
            }
            conn.inbuf.clear();
            conn.scanned = 0;
        }
    }
}

#[cfg(target_os = "linux")]
use epoll_loop::event_loop;

// ---------------------------------------------------------------------------
// The stdin front end
// ---------------------------------------------------------------------------

/// Serves one NDJSON stream synchronously: `serve --stdin` mode. Requests
/// are answered in order; EOF triggers the same graceful drain as a
/// `shutdown` request. The dispatch, worker pool and cache are the TCP
/// mode's, so piped and socket clients get identical bytes. The metrics
/// endpoint is TCP-only: a config with `metrics_port` set is rejected.
pub fn serve_stream<R: BufRead, W: Write>(
    config: ServeConfig,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    if config.metrics_port.is_some() {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            "the metrics endpoint needs the TCP mode; it cannot serve over stdin",
        ));
    }
    let state = ServerState::new(config)?;
    let (tx, rx) = mpsc::channel();
    let respond = Responder::Channel(tx);
    let result = std::thread::scope(|s| {
        for _ in 0..state.effective_workers() {
            s.spawn(|| worker_loop(&state));
        }
        let result = stream_loop(&state, reader, writer, &respond, &rx);
        // Close the queue even if the loop failed, so workers exit.
        state.begin_shutdown();
        result
    });
    finish_run(&state);
    result
}

/// Answers each line of `reader` in order until EOF or a `shutdown`
/// request, blocking on `rx` while a check is with the workers.
fn stream_loop<R: BufRead, W: Write>(
    state: &ServerState,
    reader: &mut R,
    writer: &mut W,
    respond: &Responder,
    rx: &mpsc::Receiver<Completion>,
) -> io::Result<()> {
    let conn = state.mint_conn_token();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut response = match dispatch(trimmed, state, conn, respond) {
            Dispatch::Answer(response) => response,
            Dispatch::Queued(pending) => {
                let done = await_completion(rx, &pending);
                pending.settle(state, conn, done)
            }
        };
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        writer.flush()?;
        if state.is_shutdown() {
            return Ok(());
        }
    }
}

/// Blocks until the worker delivers `pending`'s completion, or returns
/// `None` at its deadline. A completion for an earlier check, one already
/// answered `timeout`, is skipped.
fn await_completion(rx: &mpsc::Receiver<Completion>, pending: &PendingCheck) -> Option<Completion> {
    loop {
        let done = match pending.deadline {
            None => rx.recv().expect("the stdin loop holds a sender"),
            Some(d) => rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
                .ok()?,
        };
        if done.trace_id == pending.record.trace_id {
            return Some(done);
        }
    }
}

// ---------------------------------------------------------------------------
// Request dispatch (shared by both front ends)
// ---------------------------------------------------------------------------

/// What [`dispatch`] made of one request line.
enum Dispatch {
    /// The answer, ready to send.
    Answer(String),
    /// A check now with the worker pool. The front end waits for the
    /// completion its [`Responder`] delivers, or for the deadline, and
    /// closes it with [`PendingCheck::settle`].
    Queued(PendingCheck),
}

/// Turns one request line into its answer, or into a check queued for the
/// worker pool: request parse, protocol errors, control commands, and
/// admission. Infallible by design: every failure mode becomes a
/// structured response. `conn` is the connection token recorded in
/// access-log lines; `respond` is where the workers deliver a queued check.
fn dispatch(line: &str, state: &ServerState, conn: u64, respond: &Responder) -> Dispatch {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return Dispatch::Answer(line_error(state, &e.id, &e.message)),
    };
    let id = &request.id;
    Dispatch::Answer(match request.command {
        Command::Shutdown => {
            state.begin_shutdown();
            ResponseBuilder::new(id, "shutdown").finish()
        }
        Command::Stats => ResponseBuilder::new(id, "stats")
            .field("stats", state.snapshot().stats())
            .finish(),
        Command::Metrics => ResponseBuilder::new(id, "metrics")
            .field("metrics", state.snapshot().metrics())
            .finish(),
        Command::Incidents => incidents_response(id, state),
        Command::Check(check) => return start_check(request.id, check, state, conn, respond),
    })
}

/// One reading of every service fact: the counters, gauges, histograms,
/// detector rows and flight-recorder and access-log counts. Taken once per
/// `stats`, `metrics` or `GET /metrics` answer, and all three render from
/// it.
struct ServiceSnapshot {
    requests: u64,
    ok: u64,
    errors: u64,
    timeouts: u64,
    overloaded: u64,
    cache_mem_hits: u64,
    cache_disk_hits: u64,
    cache_misses: u64,
    cache_mem_entries: u64,
    queue_depth: u64,
    inflight: u64,
    workers: u64,
    uptime_ms: u64,
    latency_ns: HistogramSnapshot,
    queue_ns: HistogramSnapshot,
    analysis_ns: HistogramSnapshot,
    detectors: Vec<obs::DetectorStatSnapshot>,
    incidents_promoted: u64,
    access_log_dropped: u64,
}

impl ServerState {
    fn snapshot(&self) -> ServiceSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let cache = &self.cache.stats;
        ServiceSnapshot {
            requests: load(&self.stats.requests),
            ok: load(&self.stats.ok),
            errors: load(&self.stats.errors),
            timeouts: load(&self.stats.timeouts),
            overloaded: load(&self.stats.overloaded),
            cache_mem_hits: load(&cache.mem_hits),
            cache_disk_hits: load(&cache.disk_hits),
            cache_misses: load(&cache.misses),
            cache_mem_entries: self.cache.mem_len() as u64,
            queue_depth: self.queue.depth() as u64,
            inflight: load(&self.inflight),
            workers: self.effective_workers() as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            latency_ns: self.latency_ns.snapshot(),
            queue_ns: self.queue_ns.snapshot(),
            analysis_ns: self.analysis_ns.snapshot(),
            detectors: self.detectors.snapshot(),
            incidents_promoted: self.flight.promoted(),
            access_log_dropped: self.access.as_ref().map_or(0, |l| l.dropped()),
        }
    }
}

impl ServiceSnapshot {
    fn cache_hits(&self) -> u64 {
        self.cache_mem_hits + self.cache_disk_hits
    }

    /// The request and answer counters, in the `stats`/`metrics` key order.
    fn counts(&self) -> Vec<(String, Value)> {
        [
            ("requests", self.requests),
            ("ok", self.ok),
            ("errors", self.errors),
            ("timeouts", self.timeouts),
            ("overloaded", self.overloaded),
        ]
        .into_iter()
        .map(|(key, v)| (key.to_owned(), Value::UInt(v)))
        .collect()
    }

    /// The `stats` object: counters, cache tallies and gauges.
    fn stats(&self) -> Value {
        let mut stats = self.counts();
        stats.extend([
            ("cache_hits".into(), Value::UInt(self.cache_hits())),
            ("cache_disk_hits".into(), Value::UInt(self.cache_disk_hits)),
            ("cache_misses".into(), Value::UInt(self.cache_misses)),
            (
                "cache_mem_entries".into(),
                Value::UInt(self.cache_mem_entries),
            ),
            ("queue_depth".into(), Value::UInt(self.queue_depth)),
            ("inflight".into(), Value::UInt(self.inflight)),
            ("uptime_ms".into(), Value::UInt(self.uptime_ms)),
            ("workers".into(), Value::UInt(self.workers)),
        ]);
        Value::Map(stats)
    }

    /// The `metrics` object: everything `stats` reports, plus the cache hit
    /// ratio, p50/p90/p99 latency quantiles estimated from the always-on
    /// power-of-two histograms, and the per-detector rows.
    fn metrics(&self) -> Value {
        let hits = self.cache_hits();
        let lookups = hits + self.cache_misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let mut metrics = vec![
            ("uptime_ms".into(), Value::UInt(self.uptime_ms)),
            ("queue_depth".into(), Value::UInt(self.queue_depth)),
            ("inflight".into(), Value::UInt(self.inflight)),
            ("workers".into(), Value::UInt(self.workers)),
        ];
        metrics.extend(self.counts());
        metrics.extend([
            (
                "cache".into(),
                Value::Map(vec![
                    ("hits".into(), Value::UInt(hits)),
                    ("mem_hits".into(), Value::UInt(self.cache_mem_hits)),
                    ("disk_hits".into(), Value::UInt(self.cache_disk_hits)),
                    ("misses".into(), Value::UInt(self.cache_misses)),
                    ("hit_ratio".into(), Value::Float(hit_ratio)),
                    ("mem_entries".into(), Value::UInt(self.cache_mem_entries)),
                ]),
            ),
            ("latency_ns".into(), histogram_summary(&self.latency_ns)),
            ("queue_ns".into(), histogram_summary(&self.queue_ns)),
            ("analysis_ns".into(), histogram_summary(&self.analysis_ns)),
            (
                "detectors".into(),
                Value::Map(
                    self.detectors
                        .iter()
                        .map(|d| {
                            (
                                d.name.clone(),
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
        Value::Map(metrics)
    }

    /// The Prometheus text exposition served by `GET /metrics`: service
    /// counters and gauges, the always-on latency histograms and the
    /// per-detector families.
    fn prometheus(&self) -> String {
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
        let histogram = |out: &mut String, name: &str, h: &HistogramSnapshot| {
            let _ = writeln!(out, "# TYPE {name} histogram");
            rstudy_telemetry::write_histogram_series(out, name, "", h);
        };

        counter(&mut out, "rstudy_requests_total", self.requests);
        let _ = writeln!(out, "# TYPE rstudy_responses_total counter");
        for (status, v) in [
            ("ok", self.ok),
            ("error", self.errors),
            ("timeout", self.timeouts),
            ("overloaded", self.overloaded),
        ] {
            let _ = writeln!(out, "rstudy_responses_total{{status=\"{status}\"}} {v}");
        }
        let _ = writeln!(out, "# TYPE rstudy_cache_hits_total counter");
        for (tier, v) in [("mem", self.cache_mem_hits), ("disk", self.cache_disk_hits)] {
            let _ = writeln!(out, "rstudy_cache_hits_total{{tier=\"{tier}\"}} {v}");
        }
        counter(&mut out, "rstudy_cache_misses_total", self.cache_misses);
        counter(&mut out, "rstudy_incidents_total", self.incidents_promoted);
        counter(
            &mut out,
            "rstudy_access_log_dropped_total",
            self.access_log_dropped,
        );

        gauge(&mut out, "rstudy_queue_depth", self.queue_depth);
        gauge(&mut out, "rstudy_inflight", self.inflight);
        gauge(&mut out, "rstudy_cache_mem_entries", self.cache_mem_entries);
        gauge(&mut out, "rstudy_workers", self.workers);
        let _ = writeln!(out, "# TYPE rstudy_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "rstudy_uptime_seconds {}",
            self.uptime_ms as f64 / 1000.0
        );

        histogram(&mut out, "rstudy_request_latency_ns", &self.latency_ns);
        histogram(&mut out, "rstudy_queue_wait_ns", &self.queue_ns);
        histogram(&mut out, "rstudy_analysis_ns", &self.analysis_ns);

        if !self.detectors.is_empty() {
            let _ = writeln!(out, "# TYPE rstudy_detector_runs_total counter");
            for d in &self.detectors {
                let _ = writeln!(
                    out,
                    "rstudy_detector_runs_total{{detector=\"{}\"}} {}",
                    d.name, d.runs
                );
            }
            let _ = writeln!(out, "# TYPE rstudy_detector_findings_total counter");
            for d in &self.detectors {
                let _ = writeln!(
                    out,
                    "rstudy_detector_findings_total{{detector=\"{}\"}} {}",
                    d.name, d.findings
                );
            }
            let _ = writeln!(out, "# TYPE rstudy_detector_latency_ns histogram");
            for d in &self.detectors {
                rstudy_telemetry::write_histogram_series(
                    &mut out,
                    "rstudy_detector_latency_ns",
                    &format!("detector=\"{}\"", d.name),
                    &d.latency_ns,
                );
            }
        }
        out
    }
}

/// The `incidents` response: how many timelines the flight recorder holds
/// and has promoted, plus the incident buffer as a Chrome trace-event
/// array (load it in `chrome://tracing` / Perfetto).
fn incidents_response(id: &Option<Value>, state: &ServerState) -> String {
    ResponseBuilder::new(id, "incidents")
        .field("count", Value::UInt(state.flight.incident_count() as u64))
        .field("promoted", Value::UInt(state.flight.promoted()))
        .field("trace", state.flight.chrome_trace())
        .finish()
}

/// The body of `GET /metrics`: the service snapshot and, when global
/// telemetry is enabled, the registry (the serve spans' children and
/// `serve.queue_depth`) under the same `rstudy_` prefix.
fn prometheus_exposition(state: &ServerState) -> String {
    let mut out = state.snapshot().prometheus();
    if rstudy_telemetry::enabled() {
        out.push_str(&rstudy_telemetry::snapshot().to_prometheus("rstudy_"));
    }
    out
}

/// The JSON summary of one histogram in a `metrics` response.
fn histogram_summary(snap: &HistogramSnapshot) -> Value {
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

// ---------------------------------------------------------------------------
// The check lifecycle: admit → start → (wait | completion) → settle
// ---------------------------------------------------------------------------

/// How an admitted check was answered; the variant is the response status.
enum Answer {
    /// The report's compact JSON text, encoded once and spliced into the
    /// response verbatim, with its finding count.
    Ok {
        report: String,
        findings: u64,
    },
    Error(String),
    /// The analysis panicked: answered `error`, promoted as `panic`.
    Panicked,
    Timeout,
    Overloaded,
}

impl Answer {
    fn status(&self) -> &'static str {
        match self {
            Answer::Ok { .. } => "ok",
            Answer::Error(_) | Answer::Panicked => "error",
            Answer::Timeout => "timeout",
            Answer::Overloaded => "overloaded",
        }
    }
}

/// Counts the request in and mints its record.
fn admit_check(state: &ServerState) -> CheckRecord {
    let admitted = Instant::now();
    let trace_id = state.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    state.inflight.fetch_add(1, Ordering::Relaxed);
    rstudy_telemetry::trace(|| format!("serve: request {trace_id} admitted"));
    CheckRecord::new(trace_id, admitted)
}

/// Closes out an admitted check, exactly once, whichever path answered
/// it: measures `total_ns`, counts the status, records the latency,
/// retires the check from the in-flight count, feeds the flight recorder
/// and the access log, and renders the response to send — all from
/// `record` and that one total. `trace` is whether the request asked for
/// the `trace` object.
fn settle_check(
    state: &ServerState,
    conn: u64,
    id: &Option<Value>,
    trace: bool,
    record: CheckRecord,
    answer: Answer,
) -> String {
    let total_ns = record.admitted.elapsed().as_nanos() as u64;
    let stats = &state.stats;
    let tally = match answer {
        Answer::Ok { .. } => &stats.ok,
        Answer::Error(_) | Answer::Panicked => &stats.errors,
        Answer::Timeout => &stats.timeouts,
        Answer::Overloaded => &stats.overloaded,
    };
    tally.fetch_add(1, Ordering::Relaxed);
    state.latency_ns.record(total_ns);
    state.inflight.fetch_sub(1, Ordering::Relaxed);
    let status = answer.status();
    let panicked = matches!(answer, Answer::Panicked);
    state.flight.record(&record, status, panicked, total_ns);
    if let Some(log) = &state.access {
        log.record(|| obs::access_line(conn, &record, status, total_ns));
    }
    let trace_id = record.trace_id;
    rstudy_telemetry::trace(|| format!("serve: request {trace_id} answered in {total_ns} ns"));
    render(state, id, trace, &record, total_ns, answer)
}

/// The response line for a settled check. An `ok` answer carries the
/// record's `timing` (and `trace`, when requested) and splices the report
/// in as the last field; `timeout` and `overloaded` carry the trace id.
fn render(
    state: &ServerState,
    id: &Option<Value>,
    trace: bool,
    record: &CheckRecord,
    total_ns: u64,
    answer: Answer,
) -> String {
    let status = answer.status();
    let message = match answer {
        Answer::Ok { report, findings } => {
            let cached = record.cache == Some("hit");
            let timing = Value::Map(vec![
                ("queue_ns".to_owned(), Value::UInt(record.queue_ns())),
                ("analysis_ns".to_owned(), Value::UInt(record.analysis_ns())),
                ("total_ns".to_owned(), Value::UInt(total_ns)),
                (
                    "cache".to_owned(),
                    Value::Str(if cached { "hit" } else { "miss" }.to_owned()),
                ),
            ]);
            let mut b = ResponseBuilder::new(id, status)
                .field("trace_id", Value::UInt(record.trace_id))
                .field("cached", Value::Bool(cached))
                .field("findings", Value::UInt(findings))
                .field("timing", timing);
            if trace {
                let mut entries = Vec::with_capacity(3);
                if !cached {
                    entries.push(("parse_ns".to_owned(), Value::UInt(record.stage_ns("parse"))));
                    entries.push(("check_ns".to_owned(), Value::UInt(record.stage_ns("check"))));
                }
                entries.push(("total_ns".to_owned(), Value::UInt(total_ns)));
                b = b.field("trace", Value::Map(entries));
            }
            return b.finish_with_raw("report", &report);
        }
        Answer::Error(message) => return error_response(id, &message),
        Answer::Panicked => return error_response(id, "internal error: the analysis panicked"),
        Answer::Timeout => format!(
            "deadline of {} ms exceeded; the analysis keeps running but its result is discarded",
            state.config.timeout_ms.unwrap_or(0)
        ),
        Answer::Overloaded => format!(
            "queue full ({} pending analyses); retry later",
            state.config.queue_depth
        ),
    };
    ResponseBuilder::new(id, status)
        .field("trace_id", Value::UInt(record.trace_id))
        .field("error", Value::Str(message))
        .finish()
}

/// The `error` answer for a line that never became a check (unparsable,
/// or cut off at EOF). No [`settle_check`] sees it, so it counts here.
fn line_error(state: &ServerState, id: &Option<Value>, message: &str) -> String {
    state.stats.errors.fetch_add(1, Ordering::Relaxed);
    error_response(id, message)
}

/// An admitted check that is with the worker pool and not yet answered.
struct PendingCheck {
    id: Option<Value>,
    record: CheckRecord,
    deadline: Option<Instant>,
    /// The request asked for the `trace` object.
    trace: bool,
}

impl PendingCheck {
    /// Closes the check out with its worker's completion, or as `timeout`
    /// when the deadline came first (`None`); returns the response to send.
    fn settle(mut self, state: &ServerState, conn: u64, done: Option<Completion>) -> String {
        let answer = match done {
            Some(done) => {
                self.record.stages = done.stages;
                done.answer
            }
            None => Answer::Timeout,
        };
        settle_check(state, conn, &self.id, self.trace, self.record, answer)
    }
}

/// Admits a check and does everything before waiting: resolve the
/// program source, canonicalize detectors, consult the cache, and submit
/// to the bounded queue. A check answered here (a validation error, a
/// cache hit, shed load, a draining server) is settled here; a queued one
/// is left to the front end. Never blocks, so the epoll loop calls it
/// directly.
fn start_check(
    id: Option<Value>,
    check: CheckRequest,
    state: &ServerState,
    conn: u64,
    respond: &Responder,
) -> Dispatch {
    let mut record = admit_check(state);
    let trace_id = record.trace_id;
    let answer = |record, answer| {
        Dispatch::Answer(settle_check(state, conn, &id, check.trace, record, answer))
    };
    let fail = |record, msg| answer(record, Answer::Error(msg));

    let program_text = match &check.source {
        ProgramSource::Text(text) => text.clone(),
        ProgramSource::Path(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(record, format!("{path}: {e}")),
        },
        ProgramSource::Manifest { path, entry } => match state.load_manifest(path) {
            Ok(m) => match m.find_program(entry) {
                Some(unit) => unit.program.clone(),
                None => {
                    return fail(
                        record,
                        format!("{path}: no lowered program for entry `{entry}`"),
                    )
                }
            },
            Err(e) => return fail(record, e),
        },
    };
    let suite = match check.detectors.as_deref() {
        Some(names) => DetectorSuite::with_only(names),
        None => Ok(DetectorSuite::new()),
    };
    record.detectors = match suite {
        Ok(suite) => suite
            .detector_names()
            .into_iter()
            .map(String::from)
            .collect(),
        Err(e) => return fail(record, e),
    };

    let key = ResultCache::key(&program_text, &record.detectors, check.naive);
    // A corrupt cache entry is a miss, and the recompute overwrites it.
    if let Some((report, findings)) = state.cache.get(key) {
        rstudy_telemetry::trace(|| format!("serve: request {trace_id} cache hit"));
        record.cache = Some("hit");
        return answer(record, Answer::Ok { report, findings });
    }
    rstudy_telemetry::trace(|| format!("serve: request {trace_id} cache miss"));
    record.cache = Some("miss");

    let deadline = state
        .config
        .timeout_ms
        .map(|ms| record.admitted + Duration::from_millis(ms));
    let job = Job {
        trace_id,
        program_text,
        detectors: record.detectors.clone(),
        naive: check.naive,
        delay_ms: check.delay_ms,
        key,
        admitted: record.admitted,
        enqueued_at: Instant::now(),
        deadline,
        respond: respond.clone(),
    };
    match state.queue.push(job) {
        Ok(depth) => {
            rstudy_telemetry::record("serve.queue_depth", depth as u64);
            rstudy_telemetry::trace(|| {
                format!("serve: request {trace_id} enqueued at depth {depth}")
            });
            Dispatch::Queued(PendingCheck {
                id,
                record,
                deadline,
                trace: check.trace,
            })
        }
        Err(PushError::Full) => {
            rstudy_telemetry::trace(|| format!("serve: request {trace_id} shed (queue full)"));
            answer(record, Answer::Overloaded)
        }
        Err(PushError::Closed) => fail(record, "server is shutting down".to_owned()),
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        let _span = rstudy_telemetry::span("serve.worker");
        let mut stages = Vec::with_capacity(4);
        let answer = run_job(&job, state, &mut stages);
        job.respond.deliver(Completion {
            trace_id: job.trace_id,
            stages,
            answer,
        });
    }
}

/// Runs one job, appending each stage it times to `stages`; returns the
/// answer. Stage offsets are nanoseconds
/// from admission, so queue wait, artificial delay, parse, and analysis
/// line up on one timeline.
fn run_job(job: &Job, state: &ServerState, stages: &mut Vec<Stage>) -> Answer {
    let off = |t: Instant| t.saturating_duration_since(job.admitted).as_nanos() as u64;
    let queue = Stage {
        name: "queue",
        start_ns: off(job.enqueued_at),
        end_ns: off(Instant::now()),
    };
    let queue_ns = queue.end_ns - queue.start_ns;
    state.queue_ns.record(queue_ns);
    stages.push(queue);
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
    // skips the analysis entirely — running would only waste a worker.
    // Whichever `timeout` answer reaches the front end first is the one
    // settled and counted.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Answer::Timeout;
    }

    let config = if job.naive {
        DetectorConfig::naive()
    } else {
        DetectorConfig::new()
    };
    let suite = match DetectorSuite::with_only(&job.detectors) {
        Ok(s) => s.with_config(config),
        Err(e) => return Answer::Error(e),
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
        Ok(Err(msg)) => return Answer::Error(msg),
        Err(_) => return Answer::Panicked,
    };
    state.analysis_ns.record(off(t_end) - off(t_parse));
    for t in &timings {
        state.detectors.record(t.name, t.wall_ns, t.findings);
    }

    let findings = report.len() as u64;
    let report = serde_json::to_string(&report).expect("report serialization cannot fail");
    let _ = state.cache.put(job.key, &report, findings);
    Answer::Ok { report, findings }
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

    #[cfg(target_os = "linux")]
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
