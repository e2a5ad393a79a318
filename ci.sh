#!/usr/bin/env bash
# Local CI: formatting, lints, and the test suite — what a hosted pipeline
# would run. Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# CI must leave the working tree as it found it: a step that rewrites a
# tracked file (a lockfile, a committed result) or leaves an untracked
# file behind fails the run at the end.
TREE_STATUS=$(git status --porcelain)
TREE_DIFF=$(git diff HEAD | sha256sum)

echo "== no build artifacts tracked =="
# target/ is generated; anything from it in the index bloats every clone.
if git ls-files | grep -q '^target/'; then
    echo "FAIL: build artifacts under target/ are tracked in git" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace
# The vendored JSON codec is a path dependency, not a workspace member, so
# `--workspace` skips its unit tests (decode errors, linear-time decode).
cargo test -q -p serde_json

echo "== cargo build --release =="
cargo build --release

echo "== cargo test --release =="
# The suite again with optimizations on: a test that passes only because
# the debug build is slow (a deadline it expects an analysis to miss, say)
# fails here.
cargo test --release -q --workspace

echo "== benchmark package tests =="
# e2ebench/ depends on the workspace by path but is not a member, so the
# workspace build above does not compile it: a public name it uses could
# disappear with CI green. Build it and run its generator and reduction
# tests into its own gitignored target directory.
CARGO_TARGET_DIR=.bench_build cargo test --release -q --manifest-path e2ebench/Cargo.toml

BIN=target/release/rust-safety-study

echo "== traced benchmark slices =="
# The benchmark is the only client that sends `"trace":true`. Its traced
# run checks that the server's `total_ns` never exceeds the client's
# latency and that the cache hits `timing.cache` reports are the repeats
# it sent; it prints `"correct": false` on its last line otherwise. The
# traced check-scale run (~2 s) checks the verdict of every program in
# its seed-1 pool, every shape up to 2,000 statements, and that the
# traced stages cover at least 0.95 of each check: a dataflow fact that
# a detector wrongly never solves shows up here as a missed finding.
CARGO_TARGET_DIR=.bench_build cargo build --release -q --manifest-path e2ebench/Cargo.toml
for workload in serve-corpus serve-manifest check-scale; do
    LAST=$(.bench_build/release/e2ebench --server "$BIN" --workload "$workload" \
        --seed 1 --seconds 1 --trace 1 | tail -n 1)
    case "$LAST" in
    *'"correct": true'*) ;;
    *)
        echo "FAIL: traced $workload slice: $LAST" >&2
        exit 1
        ;;
    esac
done

echo "== serve latency ceiling =="
# The event-driven transport's closed-loop p50 is sub-millisecond on an
# idle machine; 20 ms of headroom absorbs CI noise while still catching a
# regression to the ~100 ms poll-era baseline.
LAST=$(.bench_build/release/e2ebench --server "$BIN" --workload serve-corpus \
    --seed 1 --seconds 1 --trace 0 | tail -n 1)
P50=$(printf '%s\n' "$LAST" | sed -n 's/.*"p50_ms": {"value": \([0-9.eE+-]*\).*/\1/p')
case "$LAST" in
*'"correct": true'*) ;;
*)
    echo "FAIL: serve-corpus slice: $LAST" >&2
    exit 1
    ;;
esac
if [ -z "$P50" ] || ! awk -v p50="$P50" 'BEGIN { exit !(p50 < 20) }'; then
    echo "FAIL: serve-corpus p50 is ${P50:-unparseable} ms (ceiling 20 ms)" >&2
    exit 1
fi

echo "== serve smoke check =="
# Boot the analysis service on an ephemeral port, fire the three
# serve-smoke fixtures at it, assert a cache hit on the repeat request,
# and verify it drains and exits cleanly on a `shutdown` request.
SERVE_TMP=$(mktemp -d)
# A failing step exits before its `shutdown` request: stop every server
# this script started that is still running, then remove its files.
cleanup() {
    local pid
    for pid in ${SERVE_PID:-} ${OBS_PID:-} ${EQUIV_PID:-}; do
        if kill "$pid" 2>/dev/null; then
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$SERVE_TMP"
}
trap cleanup EXIT
"$BIN" serve --port 0 --cache-dir "$SERVE_TMP/cache" --workers 2 \
    > "$SERVE_TMP/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 100); do
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_TMP/serve.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "FAIL: serve did not report its listening port" >&2
    cat "$SERVE_TMP/serve.log" >&2
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
smoke() { # smoke <id> <payload> <expected-substring>...
    local id=$1 payload=$2 reply
    shift 2
    printf '%s\n' "$payload" >&3
    IFS= read -r -t 20 reply <&3 || {
        echo "FAIL: no reply for request $id" >&2
        exit 1
    }
    local want
    for want in "$@"; do
        case "$reply" in
        *"$want"*) ;;
        *)
            echo "FAIL: request $id: expected $want in reply: $reply" >&2
            exit 1
            ;;
        esac
    done
}
smoke clean '{"id":"clean","path":"examples/mir/serve_smoke_clean.mir"}' \
    '"status":"ok"' '"cached":false' '"findings":0'
smoke buggy '{"id":"buggy","path":"examples/mir/serve_smoke_buggy.mir"}' \
    '"status":"ok"' '"findings":1' 'use-after-free'
smoke malformed '{"id":"malformed","path":"examples/mir/serve_smoke_malformed.mir"}' \
    '"status":"error"' 'parse error'
smoke repeat '{"id":"repeat","path":"examples/mir/serve_smoke_clean.mir"}' \
    '"status":"ok"' '"cached":true'
smoke stats '{"id":"s","cmd":"stats"}' '"cache_hits":1' '"uptime_ms"' '"inflight":0'
smoke timing '{"id":"t","path":"examples/mir/serve_smoke_clean.mir"}' \
    '"queue_ns"' '"analysis_ns"' '"trace_id"'
smoke metrics '{"id":"m","cmd":"metrics"}' '"status":"metrics"' '"p50"' '"hit_ratio"'

smoke shutdown '{"id":"bye","cmd":"shutdown"}' '"status":"shutdown"'
exec 3<&- 3>&-
if ! wait "$SERVE_PID"; then
    echo "FAIL: serve exited non-zero after graceful shutdown" >&2
    exit 1
fi

echo "== observability smoke check =="
# Boot a fresh server with the scrape endpoint and access log on, send it
# 25 checks on one connection, each of which must answer ok, then verify
# the scraped request counter, the scraped latency-histogram count and the
# access-log line count against the request count.
OBS_REQUESTS=25
OBS_FIXTURES=(channel_pipeline data_race double_lock serve_smoke_buggy
    serve_smoke_clean use_after_free)
"$BIN" serve --port 0 --workers 2 --metrics-port 0 \
    --access-log "$SERVE_TMP/access.ndjson" \
    > "$SERVE_TMP/serve-obs.log" 2>&1 &
OBS_PID=$!
OBS_PORT="" MET_PORT=""
for _ in $(seq 100); do
    OBS_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_TMP/serve-obs.log")
    MET_PORT=$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_TMP/serve-obs.log")
    [ -n "$OBS_PORT" ] && [ -n "$MET_PORT" ] && break
    sleep 0.1
done
if [ -z "$OBS_PORT" ] || [ -z "$MET_PORT" ]; then
    echo "FAIL: serve did not report both listening and metrics ports" >&2
    cat "$SERVE_TMP/serve-obs.log" >&2
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$OBS_PORT"
for i in $(seq 0 $((OBS_REQUESTS - 1))); do
    fixture=${OBS_FIXTURES[i % ${#OBS_FIXTURES[@]}]}
    smoke "obs$i" "{\"id\":\"obs$i\",\"path\":\"examples/mir/$fixture.mir\"}" \
        '"status":"ok"'
done
exec 5<>"/dev/tcp/127.0.0.1/$MET_PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&5
SCRAPE=$(cat <&5)
exec 5<&- 5>&-
for series in rstudy_requests_total rstudy_request_latency_ns_count; do
    VALUE=$(printf '%s\n' "$SCRAPE" | sed -n "s/^$series \([0-9][0-9]*\).*/\1/p")
    if [ -z "$VALUE" ] || [ "$VALUE" -ne "$OBS_REQUESTS" ]; then
        echo "FAIL: scraped $series is ${VALUE:-missing}, want $OBS_REQUESTS" >&2
        exit 1
    fi
done
smoke shutdown '{"id":"bye","cmd":"shutdown"}' '"status":"shutdown"'
exec 3<&- 3>&-
if ! wait "$OBS_PID"; then
    echo "FAIL: observability serve exited non-zero after shutdown" >&2
    exit 1
fi
LOG_LINES=$(wc -l < "$SERVE_TMP/access.ndjson")
if [ "$LOG_LINES" -ne "$OBS_REQUESTS" ]; then
    echo "FAIL: access log has $LOG_LINES line(s), want $OBS_REQUESTS" >&2
    exit 1
fi

echo "== stdin-vs-TCP equivalence smoke =="
# Both front ends share one dispatch, so `serve --stdin` and the TCP
# transport must answer the serve-smoke fixtures, a repeat and a trailing
# `stats` byte-identically once the measured `timing` object and
# `uptime_ms` are stripped. Each mode boots a fresh server, so trace ids
# start from 1 in both.
EQUIV_REQUESTS="$SERVE_TMP/equiv-requests.ndjson"
for fixture in serve_smoke_clean serve_smoke_buggy serve_smoke_malformed; do
    printf '{"id":"%s","path":"examples/mir/%s.mir"}\n' "$fixture" "$fixture"
done > "$EQUIV_REQUESTS"
printf '%s\n' '{"id":"repeat","path":"examples/mir/serve_smoke_clean.mir"}' \
    '{"id":"s","cmd":"stats"}' >> "$EQUIV_REQUESTS"
strip_measured() { sed -e 's/"timing":{[^}]*},//' -e 's/"uptime_ms":[0-9]*,//'; }
"$BIN" serve --stdin --workers 2 < "$EQUIV_REQUESTS" | strip_measured \
    > "$SERVE_TMP/answers-stdin.txt"
"$BIN" serve --port 0 --workers 2 > "$SERVE_TMP/serve-equiv.log" 2>&1 &
EQUIV_PID=$!
EQUIV_PORT=""
for _ in $(seq 100); do
    EQUIV_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_TMP/serve-equiv.log")
    [ -n "$EQUIV_PORT" ] && break
    sleep 0.1
done
if [ -z "$EQUIV_PORT" ]; then
    echo "FAIL: serve --port 0 did not report its port" >&2
    cat "$SERVE_TMP/serve-equiv.log" >&2
    exit 1
fi
exec 4<>"/dev/tcp/127.0.0.1/$EQUIV_PORT"
while IFS= read -r request; do
    printf '%s\n' "$request" >&4
    IFS= read -r -t 20 reply <&4 || {
        echo "FAIL: no TCP reply for $request" >&2
        exit 1
    }
    printf '%s\n' "$reply"
done < "$EQUIV_REQUESTS" | strip_measured > "$SERVE_TMP/answers-tcp.txt"
printf '{"id":"bye","cmd":"shutdown"}\n' >&4
IFS= read -r -t 20 _ <&4 || true
exec 4<&- 4>&-
if ! wait "$EQUIV_PID"; then
    echo "FAIL: serve --port 0 exited non-zero after shutdown" >&2
    exit 1
fi
if ! cmp -s "$SERVE_TMP/answers-stdin.txt" "$SERVE_TMP/answers-tcp.txt"; then
    echo "FAIL: serve --stdin and the TCP transport answered differently:" >&2
    diff "$SERVE_TMP/answers-stdin.txt" "$SERVE_TMP/answers-tcp.txt" >&2 || true
    exit 1
fi

echo "== ingest smoke check =="
# Self-host: ingest the workspace's own crates/ tree, assert the corpus
# floors (>=100 files scanned, >=50 function bodies lowered), then
# round-trip ingested bodies through `check --json` and one served
# manifest request.
INGEST_OUT="$SERVE_TMP/ingest"
"$BIN" ingest crates/ --out "$INGEST_OUT" > "$SERVE_TMP/ingest.log" 2>&1
SCANNED=$(sed -n 's/.*scanned \([0-9][0-9]*\) file(s).*/\1/p' "$SERVE_TMP/ingest.log")
LOWERED=$(sed -n 's/.*lowered \([0-9][0-9]*\) fn(s).*/\1/p' "$SERVE_TMP/ingest.log")
if [ -z "$SCANNED" ] || [ "$SCANNED" -lt 100 ]; then
    echo "FAIL: self-host ingest scanned ${SCANNED:-0} file(s), want >= 100" >&2
    cat "$SERVE_TMP/ingest.log" >&2
    exit 1
fi
if [ -z "$LOWERED" ] || [ "$LOWERED" -lt 50 ]; then
    echo "FAIL: self-host ingest lowered ${LOWERED:-0} fn(s), want >= 50" >&2
    cat "$SERVE_TMP/ingest.log" >&2
    exit 1
fi
grep -q 'memory-ops' "$SERVE_TMP/ingest.log"
test -s "$INGEST_OUT/stats-diff.json"
# The suite must analyze every lowered program without a parse/validate
# error (exit 2); findings alone exit 1, which is acceptable here.
CHECK_OUT=$("$BIN" check --manifest "$INGEST_OUT/manifest.json" --json) || {
    status=$?
    if [ "$status" -ne 1 ]; then
        echo "FAIL: check --manifest exited $status" >&2
        exit 1
    fi
}
case "$CHECK_OUT" in
*'"programs":'*) ;;
*)
    echo "FAIL: check --manifest produced no program count: $CHECK_OUT" >&2
    exit 1
    ;;
esac
ENTRY=$(printf '%s\n' "$CHECK_OUT" | sed -n 's/.*"reports":\[{"path":"\([^"]*\)".*/\1/p')
if [ -z "$ENTRY" ]; then
    echo "FAIL: no lowered entry found in check --manifest output" >&2
    exit 1
fi
REPLY=$(printf '{"id":"ing","manifest":"%s","entry":"%s"}\n' \
    "$INGEST_OUT/manifest.json" "$ENTRY" | "$BIN" serve --stdin)
case "$REPLY" in
*'"status":"ok"'*) ;;
*)
    echo "FAIL: serve did not answer ok for ingested entry $ENTRY: $REPLY" >&2
    exit 1
    ;;
esac
# Repeated requests for one manifest must not pay its decode each time:
# 200 identical manifest+entry requests through one `serve --stdin` must
# all answer ok within 5 s.
REQUEST=$(printf '{"id":"rep","manifest":"%s","entry":"%s"}' \
    "$INGEST_OUT/manifest.json" "$ENTRY")
START_NS=$(date +%s%N)
OK_COUNT=$(for _ in $(seq 200); do printf '%s\n' "$REQUEST"; done |
    "$BIN" serve --stdin | grep -c '"status":"ok"' || true)
ELAPSED_MS=$((($(date +%s%N) - START_NS) / 1000000))
if [ "$OK_COUNT" -ne 200 ] || [ "$ELAPSED_MS" -gt 5000 ]; then
    echo "FAIL: $OK_COUNT of 200 repeated manifest requests answered ok in $ELAPSED_MS ms (want all 200 within 5000 ms)" >&2
    exit 1
fi

echo "== --jobs equivalence smoke check =="
# `check --manifest` analyzes several programs at once; its reports must be
# byte-identical at any job count.
for jobs in 1 8; do
    status=0
    "$BIN" check --manifest "$INGEST_OUT/manifest.json" --jobs "$jobs" --json \
        > "$SERVE_TMP/check-jobs$jobs.txt" || status=$?
    if [ "$status" -gt 1 ]; then
        echo "FAIL: check --manifest --jobs $jobs exited $status" >&2
        exit 1
    fi
done
if ! cmp -s "$SERVE_TMP/check-jobs1.txt" "$SERVE_TMP/check-jobs8.txt"; then
    echo "FAIL: check --manifest output differs between --jobs 1 and --jobs 8" >&2
    diff "$SERVE_TMP/check-jobs1.txt" "$SERVE_TMP/check-jobs8.txt" >&2 || true
    exit 1
fi

echo "== working tree unchanged =="
if [ "$(git status --porcelain)" != "$TREE_STATUS" ] ||
    [ "$(git diff HEAD | sha256sum)" != "$TREE_DIFF" ]; then
    echo "FAIL: ./ci.sh changed the working tree:" >&2
    git status --short >&2
    exit 1
fi

echo "CI green."
