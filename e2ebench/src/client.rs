//! Driving the release `rust-safety-study serve` binary: start it the way
//! users do, talk NDJSON to it over loopback TCP in a closed loop, and
//! stop it.
//!
//! The per-request clock runs from writing the request line to reading
//! the response's newline. Responses are not decoded inside that interval,
//! nor between requests: the loop only scans the raw bytes for the status,
//! the `cached` flag and the report, and hashes the report. Decoding with
//! the vendored `serde_json` — the codec under test — happens after the
//! timed phase, once per distinct report.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rust_safety_study::core::suite::Report;

/// A running `serve --port 0` child.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server in `cwd` and waits for its address banner.
    pub fn start(bin: &Path, cwd: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0"])
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .trim()
            .strip_prefix("rstudy-serve: listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected serve banner {banner:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Peak resident set of the server process (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks for a graceful shutdown and waits for the process to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call(b"{\"cmd\":\"shutdown\"}\n", &mut Vec::new()));
        let deadline = Instant::now() + Duration::from_secs(20);
        while asked.is_ok() && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("the server did not shut down when asked"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))?;
    Ok(kb / 1024.0)
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends one request line (newline included) and reads one response
    /// line into `response`; returns the time between the two.
    pub fn call(&mut self, line: &[u8], response: &mut Vec<u8>) -> io::Result<Duration> {
        response.clear();
        let sent = Instant::now();
        self.writer.write_all(line)?;
        let n = self.reader.read_until(b'\n', response)?;
        let elapsed = sent.elapsed();
        if n == 0 || response.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response's newline",
            ));
        }
        Ok(elapsed)
    }

    /// Reads nothing more and closes the connection.
    pub fn close(self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        let mut rest = Vec::new();
        let _ = self.reader.into_inner().read_to_end(&mut rest);
    }
}

/// What the request stream says the server must answer.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Which input the request carries (corpus entry, manifest unit).
    pub tag: u32,
    pub cached: bool,
}

/// A source of request lines for one connection.
pub trait Requests {
    fn next_request(&mut self) -> (&[u8], Expect);
}

/// The raw-byte reading of one response, taken without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub ok: bool,
    pub cached: Option<bool>,
    /// FNV-1a of the `report` value's bytes; 0 when there is none.
    pub report: u64,
}

/// One timed request.
pub struct Sample {
    pub sent: Instant,
    pub latency_ns: u64,
    pub expect: Expect,
    pub digest: Digest,
}

/// Everything one connection saw in a timed phase.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// Raw report bytes, once per distinct report hash.
    pub reports: HashMap<u64, Vec<u8>>,
    /// Whole response lines, kept only when asked for (traced runs).
    pub raw: Vec<Vec<u8>>,
    /// Requests that got no response (transport errors).
    pub lost: u64,
    /// When the last response arrived.
    pub last: Option<Instant>,
}

/// Runs one connection's closed loop: each request is sent when the
/// previous response has arrived, until `deadline` or `limit` requests.
pub fn closed_loop(
    conn: &mut Conn,
    requests: &mut dyn Requests,
    deadline: Instant,
    limit: usize,
    keep_raw: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut response = Vec::with_capacity(1 << 16);
    while log.samples.len() < limit && Instant::now() < deadline {
        let (line, expect) = requests.next_request();
        let sent = Instant::now();
        match conn.call(line, &mut response) {
            Ok(elapsed) => {
                log.last = Some(sent + elapsed);
                let (digest, report) = digest(&response);
                if let Some(bytes) = report {
                    log.reports
                        .entry(digest.report)
                        .or_insert_with(|| bytes.to_vec());
                }
                if keep_raw {
                    log.raw.push(response.clone());
                }
                log.samples.push(Sample {
                    sent,
                    latency_ns: elapsed.as_nanos() as u64,
                    expect,
                    digest,
                });
            }
            Err(_) => {
                log.lost += 1;
                break;
            }
        }
    }
    log
}

/// Requests sent: the answered ones plus those lost to transport errors.
pub fn attempted(logs: &[ConnLog]) -> u64 {
    logs.iter().map(|l| l.samples.len() as u64 + l.lost).sum()
}

/// Client latencies of every answered request, in nanoseconds.
pub fn latencies(logs: &[ConnLog]) -> Vec<u64> {
    logs.iter()
        .flat_map(|l| l.samples.iter().map(|s| s.latency_ns))
        .collect()
}

/// Runs one closed loop per connection, all at once, until `deadline` or
/// `limit` requests per connection. Returns each connection's log and the
/// time from the start to the last response.
pub fn phase<R: Requests + Send>(
    conns: &mut [Conn],
    requests: &mut [R],
    deadline: Instant,
    limit: usize,
    keep_raw: bool,
) -> (Vec<ConnLog>, Duration) {
    let start = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(requests.iter_mut())
            .map(|(c, r)| s.spawn(move || closed_loop(c, r, deadline, limit, keep_raw)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let end = logs.iter().filter_map(|l| l.last).max().unwrap_or(start);
    (logs, end - start)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn rfind(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).rposition(|w| w == needle)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Scans a response line. The server writes `report` as the last field,
/// so its value runs from after `"report":` to the closing brace.
pub fn digest(response: &[u8]) -> (Digest, Option<&[u8]>) {
    let line = response.trim_ascii_end();
    let head = &line[..line.len().min(64)];
    let ok = find(head, b"\"status\":\"ok\"").is_some();
    let cached = find(line, b"\"cached\":").and_then(|at| match line.get(at + 9) {
        Some(b't') => Some(true),
        Some(b'f') => Some(false),
        _ => None,
    });
    let report = rfind(line, b"\"report\":")
        .filter(|_| line.ends_with(b"}"))
        .map(|at| &line[at + 9..line.len() - 1]);
    (
        Digest {
            ok,
            cached,
            report: report.map_or(0, fnv1a),
        },
        report,
    )
}

/// Decodes every distinct report once and returns its sorted bug-class
/// set, keyed by report hash. A report that does not decode maps to
/// `None`.
fn report_classes(reports: &HashMap<u64, Vec<u8>>) -> HashMap<u64, Option<BTreeSet<&'static str>>> {
    reports
        .iter()
        .map(|(&hash, bytes)| {
            let classes = std::str::from_utf8(bytes)
                .ok()
                .and_then(|s| serde_json::from_str::<Report>(s).ok())
                .map(|r| r.diagnostics().iter().map(|d| d.bug_class.code()).collect());
            (hash, classes)
        })
        .collect()
}

/// Checks every sample against its expected answer: an `ok` status, the
/// expected `cached` flag, and a report whose bug-class set is the one
/// `classes_of(tag)` names. Returns the number of failed requests.
pub fn count_failures(logs: &[ConnLog], classes_of: impl Fn(u32) -> BTreeSet<&'static str>) -> u64 {
    let mut reports = HashMap::new();
    for log in logs {
        for (h, bytes) in &log.reports {
            reports.entry(*h).or_insert_with(|| bytes.clone());
        }
    }
    let decoded = report_classes(&reports);
    let mut failed = 0;
    for s in logs.iter().flat_map(|l| &l.samples) {
        let verdict = decoded.get(&s.digest.report).and_then(Option::as_ref);
        let good = s.digest.ok
            && s.digest.cached == Some(s.expect.cached)
            && verdict == Some(&classes_of(s.expect.tag));
        if !good {
            failed += 1;
        }
    }
    failed + logs.iter().map(|l| l.lost).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_reads_status_cache_flag_and_report() {
        let line = br#"{"status":"ok","trace_id":3,"cached":true,"findings":0,"timing":{"queue_ns":0},"report":{"diagnostics":[]}}"#;
        let mut with_newline = line.to_vec();
        with_newline.push(b'\n');
        let (d, report) = digest(&with_newline);
        assert!(d.ok);
        assert_eq!(d.cached, Some(true));
        assert_eq!(report, Some(&br#"{"diagnostics":[]}"#[..]));
        assert_eq!(d.report, fnv1a(br#"{"diagnostics":[]}"#));
        let (e, report) = digest(b"{\"status\":\"error\",\"error\":\"boom\"}\n");
        assert!(!e.ok && e.cached.is_none() && report.is_none() && e.report == 0);
    }
}
