//! `rstudy-serve` — a long-running analysis service over the detector
//! suite.
//!
//! The paper ran its detectors as one-shot batch jobs over five codebases.
//! This crate turns the same suite into a *resident* service so analysis
//! cost amortizes across requests:
//!
//! * **Transport** ([`protocol`], [`event`]) — newline-delimited JSON
//!   over a loopback TCP listener (an epoll-driven event loop, Linux
//!   only), or over stdin/stdout for piping, which is the portable mode.
//!   Both share one dispatch. Each request carries MIR source (inline or
//!   by path) plus options; each response is a machine-readable
//!   diagnostics report, byte-identical to `check --json` for the same
//!   program.
//! * **Batching** ([`queue`]) — a bounded job queue feeds a pool of worker
//!   threads that reuse the existing `DetectorSuite`/`AnalysisContext`
//!   machinery. A full queue answers `overloaded` immediately instead of
//!   accumulating unbounded latency.
//! * **Caching** ([`cache`]) — results are keyed by a content hash of
//!   (program text × detector set × config × suite version), with an
//!   in-memory LRU tier and an optional on-disk tier that survives
//!   restarts. Resubmitting an unchanged program is near-free.
//! * **Graceful degradation** ([`server`]) — per-request deadlines answer
//!   a structured `timeout` without wedging workers, malformed requests
//!   never kill a connection, and shutdown (request, EOF, or SIGINT)
//!   drains in-flight work and flushes the disk cache before returning.
//! * **Observability** (`obs`) — a Prometheus scrape endpoint on the TCP
//!   event loop (`--metrics-port`, `GET /metrics` + `GET /healthz`), a
//!   structured JSON access log (`--access-log`) written off the hot
//!   path, and an always-on flight recorder that promotes
//!   slow/timed-out/panicked requests into an incident buffer dumpable as
//!   Chrome-trace JSON (`{"cmd":"incidents"}`, and at shutdown).
//!
//! ```no_run
//! use rstudy_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(0, ServeConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap(); // blocks until a shutdown request arrives
//! ```

#![warn(missing_docs)]

pub mod cache;
#[cfg(target_os = "linux")]
pub mod event;
pub mod loadgen;
pub(crate) mod obs;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheKey, ResultCache};
pub use loadgen::{LoadgenConfig, LoadgenReport, ScrapeSummary};
pub use protocol::{CheckRequest, Command, ProgramSource, Request, RequestError};
pub use queue::{JobQueue, PushError};
pub use server::{install_sigint_handler, serve_stream, ServeConfig, Server, ServerHandle};
