// The benchmark's workloads (perfbench/README.md explains the choice of
// each): scenarios built through the public fleet API with every
// parallel knob pinned serial, so no worker pool ever starts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fleet/fleet.h"

namespace perfbench {

enum class Workload { kFleetScale, kFleetFluid, kTraceRoundtrip };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// The workload's scenario for `seed`, with shards, queue_shards,
/// event_lanes and SolveOptions::threads at 1 and completion_grid at 0.
numaio::fleet::StormScenario make_scenario(Workload workload,
                                           std::uint64_t seed);

/// Empty when `config` runs every path serially (the knobs above); else
/// the first offending knob and its value.
std::string serial_violation(const numaio::fleet::FleetConfig& config);

}  // namespace perfbench
