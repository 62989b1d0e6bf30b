#!/usr/bin/env bash
# Public-API hygiene check. Usage: ci/check_api.sh [compiler]
#
# Compiles a tiny translation unit that includes ONLY the umbrella header
# (src/numaio.h) under strict warnings. Catches umbrella breakage early:
# a header dropped from the umbrella, a declaration needing an include it
# no longer gets transitively, or a warning-dirty inline definition —
# exactly the failures a downstream consumer of `#include "numaio.h"`
# would hit first.
set -euo pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
CXX=${1:-${CXX:-c++}}
TU=$(mktemp /tmp/numaio_api_XXXXXX.cpp)
OBJ=$(mktemp /tmp/numaio_api_XXXXXX.o)
trap 'rm -f "$TU" "$OBJ"' EXIT

cat > "$TU" <<'EOF'
// The whole public surface through the single supported include, and a
// handful of odr-uses so the compiler instantiates what matters. The
// typed function pointers pin the exact signatures of the config-aggregate
// entry points.
#include "numaio.h"

int api_probe() {
  numaio::obs::Context ctx;
  const numaio::Status status;
  numaio::faults::RandomPlanConfig plan;
  numaio::model::IoModelConfig iomodel;
  iomodel.obs = &ctx;
  numaio::faults::FaultPlan (*random_plan)(
      const numaio::faults::RandomPlanConfig&) =
      &numaio::faults::FaultPlan::random;
  numaio::io::StreamShape (*shape)(numaio::fabric::Machine&,
                                   const numaio::io::StreamSpec&) =
      &numaio::io::shape_stream;
  numaio::sim::EventEngine engine;
  engine.schedule(1.0, /*phase=*/0, /*kind=*/0, /*id=*/2);
  const std::optional<numaio::sim::EventEngine::Event> ev = engine.pop();
  return status.exit_code() + plan.num_events +
         static_cast<int>(ctx.metrics.empty()) +
         static_cast<int>(random_plan != nullptr) +
         static_cast<int>(shape != nullptr) + (ev ? ev->id : 0);
}
EOF

"$CXX" -std=c++20 -Wall -Wextra -Werror -Wshadow \
  -I"$ROOT/src" -c "$TU" -o "$OBJ"

echo "check_api: numaio.h compiles clean under -Wall -Wextra -Werror -Wshadow"
