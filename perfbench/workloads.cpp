#include "workloads.h"

namespace perfbench {

namespace fleet = numaio::fleet;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "fleet_scale") return Workload::kFleetScale;
  if (name == "fleet_fluid") return Workload::kFleetFluid;
  if (name == "trace_roundtrip") return Workload::kTraceRoundtrip;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kFleetScale: return "fleet_scale";
    case Workload::kFleetFluid: return "fleet_fluid";
    case Workload::kTraceRoundtrip: return "trace_roundtrip";
  }
  return "?";
}

fleet::StormScenario make_scenario(Workload workload, std::uint64_t seed) {
  fleet::StormScenario storm;
  if (workload == Workload::kFleetFluid) {
    storm = fleet::make_storm(/*num_hosts=*/12, /*num_tenants=*/12,
                              /*offered_rps=*/3000.0, seed,
                              /*horizon=*/40.0e9);
  } else {
    const double horizon =
        workload == Workload::kTraceRoundtrip ? 0.1e9 : 0.4e9;
    storm = fleet::make_scale_storm(/*num_hosts=*/24, /*num_tenants=*/2000,
                                    /*offered_rps=*/1.4e6, seed, horizon);
    // RPC-sized requests and wide per-host concurrency put the fleet past
    // 10^6 scheduled requests per simulated second; the queue holds one
    // 2 ms admission epoch (~2,800 arrivals) plus slack.
    for (auto& tenant : storm.tenants) {
      tenant.request_bytes = 32 * numaio::sim::kKiB;
    }
    storm.config.max_inflight_per_host = 128;
    storm.config.queue_depth = 4096;
  }
  // Pool-free: simulated outputs do not depend on these knobs, but any
  // value above 1 starts a sim::ThreadPool whose scheduling noise swamps
  // run-to-run comparisons on a small host.
  storm.config.shards = 1;
  storm.config.queue_shards = 1;
  storm.config.event_lanes = 1;
  storm.config.solve.threads = 1;
  storm.config.completion_grid = 0.0;
  return storm;
}

std::string serial_violation(const fleet::FleetConfig& config) {
  auto bad = [](const char* knob, double value) {
    return std::string(knob) + " = " + std::to_string(value);
  };
  if (config.shards != 1) return bad("shards", config.shards);
  if (config.queue_shards != 1) return bad("queue_shards", config.queue_shards);
  if (config.event_lanes != 1) return bad("event_lanes", config.event_lanes);
  if (config.solve.threads != 1) return bad("solve.threads", config.solve.threads);
  if (config.completion_grid != 0.0) {
    return bad("completion_grid", config.completion_grid);
  }
  return {};
}

}  // namespace perfbench
