//! The rust-safety-study benchmark: one command, three workloads.
//!
//! ```text
//! e2ebench --server <rust-safety-study binary> --workload <name> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds the release binary and this benchmark and passes
//! `--server`. Every input is generated from `--seed`; the program under
//! test receives only those inputs. With `--trace 0` the run measures for
//! `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! replays a fixed slice of the same inputs layer by layer and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod check_scale;
mod client;
mod metrics;
mod rng;
mod scale;
mod serve_corpus;
mod serve_manifest;
mod stream;
mod trace;
mod tree;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Client connections (and client threads) of the served workloads.
pub const CONNECTIONS: usize = 2;

const WORKLOADS: [&str; 3] = ["serve-corpus", "serve-manifest", "check-scale"];

pub struct Args {
    pub server: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut server, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("--seed: `{value}`"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(format!("--seconds: `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace: `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    // Absolute, because the server runs in its own working directory.
    let server = server.ok_or("--server is required")?;
    let server =
        std::fs::canonicalize(&server).map_err(|e| format!("{}: {e}", server.display()))?;
    Ok(Args {
        server,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    Path::new(".bench_out").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --server <bin> --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = match args.workload.as_str() {
        "serve-corpus" => serve_corpus::run(&args, &work),
        "serve-manifest" => serve_manifest::run(&args, &work),
        _ => check_scale::run(&args),
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
