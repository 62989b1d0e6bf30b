// Fleet-scale request path tests (DESIGN.md §12): whole-run properties
// of the scale scenario — batched quota verdicts identical to the
// per-request path, batched epochs replacing per-request admit/reject
// events, mixed-SKU class placement, shedding spread across the
// lowest-priority tenants, retry budgets held per tenant, timers kept off
// the event heap, one completion projection per host per instant,
// request conservation across scenarios and seeds, and
// equivalence digests that pin whole-run bytes across event-core changes.
// Every scale run here uses >= 2,000 tenants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace numaio::fleet {
namespace {

constexpr int kTenants = 2000;

// --- whole-run scale properties ------------------------------------------

TEST(FleetScaleTest, BatchedEpochsReplacePerRequestAdmissionEvents) {
  StormScenario storm =
      make_scale_storm(8, kTenants, 30000.0, /*seed=*/5, /*horizon=*/0.4e9);
  obs::Context ctx;
  obs::MemorySink capture;
  ctx.trace.set_sink(&capture);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  ASSERT_GT(report.submitted, 0);
  EXPECT_GT(report.completed, 0);

  long long epochs = 0;
  long long arrivals_spanned = 0;
  for (const auto& e : capture.events) {
    if (e.kind != 'B' || e.name != "fleet.admit_batch") continue;
    ++epochs;
    arrivals_spanned += e.bytes;
  }
  // Epochs coalesce arrivals: far fewer spans than requests, but every
  // submitted request is accounted to exactly one epoch.
  ASSERT_GT(epochs, 0);
  EXPECT_LT(epochs, report.submitted);
  EXPECT_EQ(arrivals_spanned, report.submitted);
  // And the per-request admission events are gone in batched mode.
  for (const auto& e : capture.events) {
    EXPECT_NE(e.name, "fleet.admit");
    EXPECT_NE(e.name, "fleet.reject");
  }

  // Placement latency (admission -> first dispatch) is ordered sanely;
  // at this light load most requests dispatch within their own epoch.
  EXPECT_GE(report.placement_p99, 0.0);
  EXPECT_LE(report.placement_p50, report.placement_p99);
}

TEST(FleetScaleTest, MixedSkuFleetSplitsIntoClassesAndSpreads) {
  // make_scale_storm marks every third host as the lite SKU (~55% of the
  // ConnectX-3 ceilings): with 6 hosts, 2 and 5 run the slow NIC. The
  // gap classifier must see two capacity populations, and the
  // class-spread cursor must actually serve from more than one class.
  StormScenario storm = make_scale_storm(
      /*num_hosts=*/6, /*num_tenants=*/kTenants, /*offered_rps=*/30000.0,
      /*seed=*/7, /*horizon=*/0.4e9);
  obs::Context ctx;
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  EXPECT_GT(report.completed, 0);
  EXPECT_GE(ctx.metrics.value("placement.class_count"), 2.0);
  EXPECT_GT(ctx.metrics.value("placement.class_spread"), 0.0);
  // Every completion goes through a popped alarm.
  EXPECT_GT(ctx.metrics.value("engine.lane_events"), 0.0);
}

TEST(FleetScaleTest, TimersStayOffTheHeap) {
  // Deadline guards (one per admitted request) and attempt timeouts ride
  // the engine's delay lines. The heap keeps one pending arrival per
  // tenant plus, per host, its completion alarm — about one, since each
  // host projects once per instant and leaves few superseded alarms —
  // and the odd epoch, retry or fault step. Were the guards on it, its
  // peak would track the thousands of admitted requests waiting out
  // their deadline.
  StormScenario storm =
      make_scale_storm(8, kTenants, 30000.0, /*seed=*/5, /*horizon=*/0.4e9);
  obs::Context ctx;
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  ASSERT_GT(report.admitted, 1000);
  const int hosts = storm.config.num_hosts;
  EXPECT_LE(ctx.metrics.value("engine.heap_peak"), kTenants + 16 * hosts);
  EXPECT_GE(ctx.metrics.value("engine.line_pops"),
            2.0 * static_cast<double>(report.admitted));
  EXPECT_GT(ctx.metrics.value("engine.heap_pops"), 0.0);
}

TEST(FleetScaleTest, EachHostProjectsOncePerInstant) {
  // A host's completion alarm is projected once per instant, before the
  // next pop, however many dispatches, completions or timeouts touched
  // the host in that instant. Projecting eagerly on every change pushed
  // an alarm per dispatch, nearly all superseded: this run popped 1.03
  // alarms per completion that way, and pops 0.080 with the projection
  // deferred (the benchmark's larger fleet_scale run: 1.001 and 0.013).
  StormScenario storm =
      make_scale_storm(8, kTenants, 60000.0, /*seed=*/5, /*horizon=*/0.3e9);
  storm.config.completion_grid = 0.0;
  obs::Context ctx;
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  ASSERT_GT(report.completed, 1000);
  const double alarms_per_completion =
      ctx.metrics.value("engine.lane_events") /
      static_cast<double>(report.completed);
  EXPECT_LT(alarms_per_completion, 0.25);
}

TEST(FleetScaleTest, SheddingIsSpreadAcrossTenants) {
  // Overload a small fleet hard enough that the bounded queue sheds, and
  // check no tenant is singled out: sheds land on many tenants and no
  // single tenant absorbs more than a small share of them.
  StormScenario storm = make_scale_storm(
      /*num_hosts=*/2, /*num_tenants=*/kTenants, /*offered_rps=*/60000.0,
      /*seed=*/17, /*horizon=*/0.4e9);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport report = sim.run();

  ASSERT_GT(report.shed, 0);
  // With a real backlog, placement latency is measurable and positive.
  EXPECT_GT(report.placement_p99, 0.0);
  EXPECT_LE(report.placement_p50, report.placement_p99);
  ASSERT_EQ(report.tenants.size(), static_cast<std::size_t>(kTenants));
  int shed_tenants = 0;
  long long max_shed = 0;
  for (const TenantStats& t : report.tenants) {
    if (t.shed > 0) ++shed_tenants;
    max_shed = std::max(max_shed, t.shed);
  }
  EXPECT_GT(shed_tenants, kTenants / 2);
  EXPECT_LT(max_shed, report.shed / 100);
}

TEST(FleetScaleTest, BatchedQuotaVerdictsMatchPerRequestPath) {
  // The contract batched admission rests on: buckets refill to each
  // request's original submit time, so an epoch drain reaches the same
  // quota verdicts as admitting every arrival on its own. Arrivals come
  // from per-tenant streams, so both runs offer identical requests.
  StormScenario storm =
      make_scale_storm(4, kTenants, 40000.0, /*seed=*/41, /*horizon=*/0.3e9);
  // Tight buckets so the quota actually rejects.
  for (TenantSpec& t : storm.tenants) {
    t.quota_rate_per_s = t.arrival_rate_per_s * 0.6;
    t.quota_burst = 2.0;
  }
  FleetSim batched(storm.config, storm.tenants);
  batched.set_fault_plan(storm.plan);
  const FleetReport b = batched.run();
  StormScenario serial = storm;
  serial.config.batch_window = 0.0;
  FleetSim per_request(serial.config, serial.tenants);
  per_request.set_fault_plan(serial.plan);
  const FleetReport p = per_request.run();

  ASSERT_GT(b.rejected_quota, 0);
  ASSERT_EQ(b.tenants.size(), p.tenants.size());
  for (std::size_t t = 0; t < b.tenants.size(); ++t) {
    EXPECT_EQ(b.tenants[t].submitted, p.tenants[t].submitted) << t;
    EXPECT_EQ(b.tenants[t].rejected_quota, p.tenants[t].rejected_quota)
        << t;
  }
}

TEST(FleetScaleTest, RetryBudgetsStayPerTenantUnderLoad) {
  // A run where retries happen (host crash mid-run) must never push any
  // tenant past its own budget: retries are per-tenant state, not a
  // shared pool that one hot tenant could drain.
  StormScenario storm =
      make_scale_storm(4, kTenants, 20000.0, /*seed=*/23, /*horizon=*/0.5e9);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport report = sim.run();

  ASSERT_EQ(report.tenants.size(), static_cast<std::size_t>(kTenants));
  const long long budget = storm.tenants.front().retry_budget;
  long long total_retries = 0;
  for (const auto& t : report.tenants) {
    EXPECT_LE(t.retries, budget) << t.name;
    total_retries += t.retries;
  }
  EXPECT_EQ(total_retries, report.retries);
}

// --- request conservation ------------------------------------------------

enum class Scenario { kStormPerRequest, kStormBatched, kScale };

struct ConservationCase {
  Scenario scenario;
  std::uint64_t seed;
};

StormScenario conservation_scenario(const ConservationCase& c) {
  switch (c.scenario) {
    case Scenario::kStormPerRequest:
      return make_storm(4, 3, 1200.0, c.seed, 2.0e9);
    case Scenario::kStormBatched: {
      StormScenario storm = make_storm(4, 3, 1200.0, c.seed, 2.0e9);
      storm.config.batch_window = 2.0e6;
      return storm;
    }
    case Scenario::kScale:
      break;
  }
  return make_scale_storm(3, kTenants, 40000.0, c.seed, 0.4e9);
}

class FleetConservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(FleetConservation, EveryRequestEndsExactlyOnce) {
  // Every submitted request is rejected by quota, shed from the queue,
  // completed or failed — exactly one of them; and every admitted one
  // reaches a terminal outcome. Both identities hold per tenant and in
  // total.
  StormScenario storm = conservation_scenario(GetParam());
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  const FleetReport r = sim.run();

  ASSERT_GT(r.submitted, 0);
  long long submitted = 0;
  long long admitted = 0;
  for (const TenantStats& t : r.tenants) {
    EXPECT_EQ(t.submitted, t.rejected_quota + t.shed + t.completed + t.failed)
        << t.name;
    EXPECT_EQ(t.admitted, t.completed + t.failed + t.shed) << t.name;
    submitted += t.submitted;
    admitted += t.admitted;
  }
  EXPECT_EQ(r.submitted, submitted);
  EXPECT_EQ(r.admitted, admitted);
  EXPECT_EQ(r.submitted, r.rejected_quota + r.shed + r.completed + r.failed);
  EXPECT_EQ(r.admitted, r.completed + r.failed + r.shed);
}

std::vector<ConservationCase> conservation_cases() {
  std::vector<ConservationCase> cases;
  for (const Scenario s : {Scenario::kStormPerRequest, Scenario::kStormBatched,
                           Scenario::kScale}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) cases.push_back({s, seed});
  }
  return cases;
}

std::string case_name(const ConservationCase& c) {
  const char* scenario = "scale";
  if (c.scenario == Scenario::kStormPerRequest) {
    scenario = "storm_per_request";
  } else if (c.scenario == Scenario::kStormBatched) {
    scenario = "storm_batched";
  }
  return std::string(scenario) + "_seed" + std::to_string(c.seed);
}

// Names the case in gtest output instead of dumping its bytes.
void PrintTo(const ConservationCase& c, std::ostream* os) {
  *os << case_name(c);
}

std::string conservation_name(
    const ::testing::TestParamInfo<ConservationCase>& info) {
  return case_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FleetConservation,
                         ::testing::ValuesIn(conservation_cases()),
                         conservation_name);

// --- equivalence digests -------------------------------------------------

// Whole-run digests recorded before the event core deferred completion
// projection to the pop loop: a change to the event core, the placer or
// the report must reproduce them exactly. The matrix covers both service
// models under per-request and batched admission, least-loaded and
// class-spread placement, gridded and exact (grid 0, the benchmark's
// path) completion alarms, and a host crash in every run.
enum class EquivScenario {
  kStormFluid,    // make_storm: fluid service, least-loaded, per-request
  kStormCoarse,   // make_storm with coarse service
  kScaleGrid,     // make_scale_storm: coarse, class-spread, 0.5 ms grid
  kScaleNoGrid,   // make_scale_storm with completion_grid 0
  kScaleFluid,    // make_scale_storm with fluid service
};

struct EquivalenceCase {
  EquivScenario scenario;
  std::uint64_t seed;
  // FNV-1a 64 digests, hex.
  const char* trace;    ///< Deterministic JSONL trace bytes.
  const char* report;   ///< FleetReport::summary().
  const char* metrics;  ///< Snapshot without engine.* and solver.*.
};

StormScenario equivalence_scenario(EquivScenario scenario,
                                   std::uint64_t seed) {
  switch (scenario) {
    case EquivScenario::kStormFluid:
      return make_storm(4, 3, 1600.0, seed, 2.0e9);
    case EquivScenario::kStormCoarse: {
      StormScenario storm = make_storm(4, 3, 1600.0, seed, 2.0e9);
      storm.config.service_model = ServiceModel::kCoarse;
      return storm;
    }
    case EquivScenario::kScaleGrid:
      break;
    case EquivScenario::kScaleNoGrid: {
      StormScenario storm =
          make_scale_storm(6, kTenants, 70000.0, seed, 0.3e9);
      storm.config.completion_grid = 0.0;
      return storm;
    }
    case EquivScenario::kScaleFluid: {
      StormScenario storm =
          make_scale_storm(4, kTenants, 100000.0, seed, 0.2e9);
      storm.config.service_model = ServiceModel::kFluid;
      return storm;
    }
  }
  return make_scale_storm(6, kTenants, 70000.0, seed, 0.3e9);
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// The engine.* and solver.* families count work done, not results.
bool counts_work(std::string_view name) {
  return name.starts_with("engine.") || name.starts_with("solver.");
}

std::string result_metrics(const obs::MetricsRegistry& m) {
  std::ostringstream out;
  const auto scalars = [&out](const auto& values) {
    for (const auto& v : values) {
      if (counts_work(v.name)) continue;
      out << v.name << ' ';
      obs::json::write_number(out, v.value);
      out << '\n';
    }
  };
  scalars(m.counter_values());
  scalars(m.gauge_values());
  for (const obs::MetricsRegistry::Histogram* h : m.histograms_sorted()) {
    if (counts_work(h->name)) continue;
    out << h->name << ' ' << h->count << ' ';
    obs::json::write_number(out, h->sum);
    for (const std::uint64_t c : h->counts) out << ' ' << c;
    out << '\n';
  }
  return out.str();
}

class FleetEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(FleetEquivalence, DigestsMatchRecordedRun) {
  const EquivalenceCase& c = GetParam();
  StormScenario storm = equivalence_scenario(c.scenario, c.seed);
  std::ostringstream trace;
  obs::Context ctx;
  obs::JsonlSink sink(trace);
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&sink);
  FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  const FleetReport report = sim.run();

  ASSERT_GT(report.completed, 0);
  EXPECT_EQ(fnv1a_hex(trace.str()), c.trace);
  EXPECT_EQ(fnv1a_hex(report.summary()), c.report);
  EXPECT_EQ(fnv1a_hex(result_metrics(ctx.metrics)), c.metrics);
}

const char* scenario_name(EquivScenario s) {
  switch (s) {
    case EquivScenario::kStormFluid: return "storm_fluid";
    case EquivScenario::kStormCoarse: return "storm_coarse";
    case EquivScenario::kScaleGrid: return "scale_grid";
    case EquivScenario::kScaleNoGrid: return "scale_nogrid";
    case EquivScenario::kScaleFluid: return "scale_fluid";
  }
  return "?";
}

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << scenario_name(c.scenario) << "_seed" << c.seed;
}

std::string equivalence_name(
    const ::testing::TestParamInfo<EquivalenceCase>& info) {
  return std::string(scenario_name(info.param.scenario)) + "_seed" +
         std::to_string(info.param.seed);
}

using ES = EquivScenario;
const EquivalenceCase kEquivalenceCases[] = {
    // scenario, seed, trace, report, metrics
    {ES::kStormFluid, 3, "5feed527efac2e99", "df5a1a834fa62ee6",
     "d4041ca9ce9745f2"},
    {ES::kStormFluid, 11, "0495b84d6c801919", "193c1137f1979c43",
     "2e7ec35b187d8fce"},
    {ES::kStormFluid, 29, "ae87ca24020cc669", "44a87206e4b646e8",
     "2061223766f01fd6"},
    {ES::kStormCoarse, 3, "58dee8508d54eb27", "aeed57f9829d831a",
     "9349b91e2538e65f"},
    {ES::kStormCoarse, 11, "589ebe7c730b0a8c", "896c54e03864e8e8",
     "48bcfa6fc3617ecd"},
    {ES::kStormCoarse, 29, "fbd1b080f2bf9621", "2573219f1ce6dc74",
     "2b0e5940647c8417"},
    {ES::kScaleGrid, 3, "5b834081ecc9dfcc", "1158b3eedd19f1b8",
     "f4bf42c7391d88b2"},
    {ES::kScaleGrid, 11, "3ec71839d8bc761a", "545e334666459abb",
     "0925a95f31699a28"},
    {ES::kScaleGrid, 29, "25366a22518934d3", "4298b6a8207e3ed3",
     "f5b07bea3a10a60b"},
    {ES::kScaleNoGrid, 3, "92393300b06816b9", "c46912e67a5495dd",
     "9efcd757267da456"},
    {ES::kScaleNoGrid, 11, "6b24c0edc2d8d87c", "71293d97122cc35a",
     "624ea0c345ebf5fd"},
    {ES::kScaleNoGrid, 29, "62d7e51bface6442", "6e8d3c68d6bbe487",
     "286806d6dad886b8"},
    {ES::kScaleFluid, 3, "9cc1803053827cda", "37346e4dd04dc096",
     "1214c403286603bf"},
    {ES::kScaleFluid, 11, "8c86a881e72af477", "b3beb79a256e640e",
     "d2718f621cdfffe1"},
    {ES::kScaleFluid, 29, "afaa4eccdf0513d4", "f96fa374d0d6fc90",
     "88af3f98ab30e087"},
};

INSTANTIATE_TEST_SUITE_P(Recorded, FleetEquivalence,
                         ::testing::ValuesIn(kEquivalenceCases),
                         equivalence_name);

}  // namespace
}  // namespace numaio::fleet
