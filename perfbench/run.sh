#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (under the current
# directory, which must be the repository root) and runs one workload:
#
#   bash perfbench/run.sh --workload fleet_scale --seed 11 --seconds 20 --trace 0
#
# `bash perfbench/run.sh test` builds and runs the benchmark's own unit
# tests instead. Build output goes to standard error, so the last line of
# standard output is the driver's JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=.bench_build
jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi

target=perfbench_driver
if [ "${1:-}" = "test" ]; then target=perfbench_test; fi

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target "$target" -j "$jobs"
} >&2

if [ "$target" = perfbench_test ]; then
  exec "$build/perfbench_test"
fi
exec "$build/perfbench_driver" --reference "$here/reference.txt" "$@"
