#!/usr/bin/env bash
# ASan+UBSan build and test run. Usage: ci/sanitize.sh [build-dir]
#
# Configures a separate build tree with AddressSanitizer and
# UndefinedBehaviorSanitizer enabled, builds everything and runs the full
# ctest suite with sanitizer errors promoted to hard failures.
set -euo pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build-sanitize"}
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"

cmake --build "$BUILD_DIR" -j "$JOBS"

# The solver property suite runs first, on its own: it is the randomized
# stress for the CSR arena / free-list / incidence bookkeeping (including
# bit-identical churn vs the reference solver), exactly the code where an
# out-of-bounds arena index or stale incidence back-pointer would hide.
# The partition suites ride along: component buckets index the same arena.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  "$BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='*SolverProperty*:FlowSolverCache.*:FlowSolverFreeList.*:FlowSolverCapacityFactor.*:FlowSolverScratch.*:FlowSolverPartition.*:FlowSolverStatus.*'

# The fleet serving suite also runs standalone: its runtime is the one
# place where event-engine callbacks hold (id, generation) handles across
# host crashes that tear down in-flight state — exactly where a stale
# pointer or double-detach would surface as a use-after-free. The scale
# suites (FleetScale, FleetConservation) add the batched admission path
# and 2,000-tenant storm runs; PriorityFifo/BoundedQueue churn the
# map-of-deque queue with a 20,000-op shed property trace, and
# EventEngine covers the per-lane alarm heaps.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  "$BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='TokenBucket*:BoundedQueue*:PriorityFifo*:CircuitBreaker*:AdmissionStatus*:FleetSim*:FleetScale*:*FleetConservation*:EventEngine*:FaultPlanFile*'

# halt_on_error: the first sanitizer report fails the test run instead of
# scrolling past; detect_leaks exercises the Host/Buffer ownership paths.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "sanitize: all tests passed under ASan+UBSan"

# ThreadSanitizer pass over the one multi-threaded component: the
# telemetry server (src/obs/serve.*), whose accept loop runs on its own
# thread and reads documents the simulation thread publishes through the
# TelemetryHub. TSan cannot be combined with ASan, so it gets its own
# tree.
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g"

cmake -B "$TSAN_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"

cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target numaio_tests

TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='Telemetry*'

echo "sanitize: telemetry server is clean under TSan"
