#!/usr/bin/env bash
# Benchmark of record: runs every workload in BENCHMARK.json through
# e2ebench at seed 1 for BENCHMARK.json's `run_seconds`, once with
# `--trace 0` (the end-to-end metrics) and once with `--trace 1` (the
# per-layer metrics), and writes BENCH_e2e.json. Each result is e2ebench's
# own last output line, embedded verbatim. Usage: ./bench.sh
#
# CI never runs this. A change that claims a speedup reruns it on its final
# tree and commits the file.
set -euo pipefail
cd "$(dirname "$0")"

SEED=1
RUN_SECONDS=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
WORKLOADS=$(sed -n '/"workloads"/,/\]/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
if [ -z "$RUN_SECONDS" ] || [ -z "$WORKLOADS" ]; then
    echo "bench.sh: cannot read run_seconds and workloads from BENCHMARK.json" >&2
    exit 1
fi
CPU=$(sed -n '/^model name/{s/^model name[[:space:]]*: //;s/[\\"]/\\&/g;p;q;}' /proc/cpuinfo)

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
printf '{"schema": "rstudy-bench-e2e/v1", "tree": "%s", "seed": %s, "seconds": %s, "nproc": %s, "cpu": "%s",\n "workloads": {' \
    "$(git describe --always --dirty)" "$SEED" "$RUN_SECONDS" "$(nproc)" "$CPU" > "$OUT"
SEP=""
for workload in $WORKLOADS; do
    printf '%s\n  "%s": {' "$SEP" "$workload" >> "$OUT"
    for trace in 0 1; do
        echo "bench.sh: $workload --trace $trace (${RUN_SECONDS} s)" >&2
        LAST=$(bash e2ebench/run.sh --workload "$workload" --seed "$SEED" \
            --seconds "$RUN_SECONDS" --trace "$trace" | tail -n 1)
        case "$LAST" in
        *'"correct": true'*) ;;
        *)
            echo "bench.sh: $workload --trace $trace: $LAST" >&2
            exit 1
            ;;
        esac
        if [ "$trace" = 0 ]; then
            printf '\n   "end_to_end": %s,' "$LAST" >> "$OUT"
        else
            printf '\n   "per_layer": %s}' "$LAST" >> "$OUT"
        fi
    done
    SEP=","
done
printf '}}\n' >> "$OUT"
cat "$OUT" > BENCH_e2e.json
echo "bench.sh: wrote BENCH_e2e.json" >&2
