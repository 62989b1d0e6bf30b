#!/usr/bin/env bash
# Regenerates perfbench/reference.txt, the simulated outputs every
# repetition is checked against: each workload at seeds 0-63 (the default
# seed 11 among them) and at the held-out seed 1000003, which is kept out
# of tuning so a claimed gain can be re-checked on it. Run from the
# repository root; takes a few minutes.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
bash "$here/run.sh" --workload fleet_scale --seed 11 --print-reference >/dev/null
out="$here/reference.txt"
{
  echo "# <workload> <seed> <field>=<value> ...  (perfbench/make_reference.sh)"
  for workload in fleet_scale fleet_fluid trace_roundtrip; do
    for seed in $(seq 0 63) 1000003; do
      .bench_build/perfbench_driver --workload "$workload" --seed "$seed" \
        --print-reference
    done
  done
} >"$out.tmp"
mv "$out.tmp" "$out"
