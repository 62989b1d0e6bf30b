#!/usr/bin/env bash
# Full CI pipeline. Usage: ci/run_all.sh [build-dir]
#
# 1. configure + build the default tree,
# 2. run the full ctest suite (the public API surface check,
#    ci/check_api.sh, is its `ci_check_api` test),
# 3. smoke the streaming trace pipeline at scale: synth-trace writes a
#    10^6-record capture, then report + export stream it back (the
#    CLI paths that must work on arbitrarily large files),
# 4. gate perf against the committed baseline (ci/perf_guard.sh;
#    metrics-only by default — see that script for wall-time gating),
# 5. rebuild and re-test under ASan+UBSan (ci/sanitize.sh).
#
# bash + `set -euo pipefail` so a failing stage — including one on the
# left side of a pipe — fails the pipeline instead of scrolling past.
set -euo pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build-ci"}
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Large-trace smoke: the full streaming pipeline over a million-record
# capture. Fails if any stage slurps the file into memory badly enough to
# die, truncates, or emits unparseable output.
SMOKE_DIR=$(mktemp -d /tmp/numaio_trace_smoke_XXXXXX)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CLI="$BUILD_DIR/tools/numaio_cli"
"$CLI" synth-trace --out "$SMOKE_DIR/big.jsonl" --records 1000000
[ "$(wc -l < "$SMOKE_DIR/big.jsonl")" -eq 1000000 ]
"$CLI" report --trace-in "$SMOKE_DIR/big.jsonl" --format json \
    --out "$SMOKE_DIR/big_report.json"
grep -q '"records": 1000000' "$SMOKE_DIR/big_report.json"
"$CLI" report --trace-in "$SMOKE_DIR/big.jsonl" \
    --diff "$SMOKE_DIR/big_report.json" | grep -q 'critical path'
"$CLI" export --trace-in "$SMOKE_DIR/big.jsonl" \
    --chrome "$SMOKE_DIR/big_chrome.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$SMOKE_DIR/big_chrome.json"
echo "run_all: large-trace streaming smoke green (10^6 records)"

# Flame-fold smoke: a 10^6-record deep-chain capture (spans nested 32
# deep) folded to flamegraph.pl input. Checks the record count survives
# the deep generator, the fold stays within its O(open spans) bound
# (the CLI prints the peak), and every folded line is `path weight` with
# a positive integer weight and no empty frames.
"$CLI" synth-trace --out "$SMOKE_DIR/deep.jsonl" --records 1000000 \
    --depth 32 --fanout 8
[ "$(wc -l < "$SMOKE_DIR/deep.jsonl")" -eq 1000000 ]
"$CLI" export --trace-in "$SMOKE_DIR/deep.jsonl" \
    --folded "$SMOKE_DIR/deep.folded" | grep -q 'peak 33 open'
[ -s "$SMOKE_DIR/deep.folded" ]
awk 'NF != 2 || $2 + 0 <= 0 || $1 ~ /^;|;;|;$/ { bad = 1 }
     END { exit bad }' "$SMOKE_DIR/deep.folded"
echo "run_all: flame-fold smoke green (10^6 records, depth 32)"

"$ROOT/ci/perf_guard.sh" "$BUILD_DIR"
"$ROOT/ci/sanitize.sh" "$BUILD_DIR-sanitize"

echo "run_all: build, tests, API check, perf guard and sanitizers all green"
