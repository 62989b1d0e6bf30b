// Fleet-scale request path tests (DESIGN.md §12): whole-run properties
// of the scale scenario — batched quota verdicts identical to the
// per-request path, batched epochs replacing per-request admit/reject
// events, mixed-SKU class placement, shedding spread across the
// lowest-priority tenants, retry budgets held per tenant, timers kept off
// the event heap, and request conservation across scenarios and seeds.
// Every scale run here uses >= 2,000 tenants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fleet/fleet.h"
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
  // tenant plus, per host, its completion alarms — superseded ones stay
  // until their time, about 12 per host here — and the odd epoch, retry
  // or fault step. Were the guards on it, its peak would track the
  // thousands of admitted requests waiting out their deadline.
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

}  // namespace
}  // namespace numaio::fleet
