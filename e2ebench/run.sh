#!/usr/bin/env bash
# Builds the release `rust-safety-study` binary and the benchmark, then runs
# one benchmark workload. Arguments pass through to the benchmark:
#
#   bash e2ebench/run.sh --workload serve-corpus --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build` at the
# repository root); progress goes to stderr, results to stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml --bin rust-safety-study >&2
cargo build --release --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" \
    --server "$CARGO_TARGET_DIR/release/rust-safety-study" "$@"
