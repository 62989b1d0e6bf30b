// Unit tests of the benchmark's own parts: `bash perfbench/run.sh test`.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "probe.h"
#include "workloads.h"

namespace {

namespace obs = numaio::obs;
namespace fleet = numaio::fleet;
using perfbench::StampSink;

/// Fake clock: every read advances 10 ns, so each write costs a known
/// number of ticks.
std::int64_t g_clock = 0;
std::int64_t fake_now() { return g_clock += 10; }

obs::Event rec(char kind, obs::EventId id, obs::SpanId span,
               const char* name = "") {
  obs::Event e;
  e.kind = kind;
  e.id = id;
  e.span = span;
  e.name = name;
  return e;
}

TEST(StampSink, PairsAdmissionBeginAndEndExcludingNestedSinkTime) {
  g_clock = 0;
  StampSink sink(nullptr, fake_now);
  sink.write(rec('B', 1, 1, "fleet.run"));          // 0..10
  sink.write(rec('B', 2, 2, "fleet.admit_batch"));  // in 20, out 30
  sink.write(rec('I', 3, 2, "fleet.shed"));         // 40..50 (nested)
  sink.write(rec('E', 4, 2));                       // in 60
  sink.write(rec('E', 5, 1));                       // closes fleet.run
  sink.finish();
  const StampSink::Totals t = sink.totals();
  EXPECT_EQ(t.spans, 1);
  EXPECT_EQ(t.unpaired, 0);
  EXPECT_EQ(t.records, 5);
  // (60 - 30) elapsed minus the 10 ns spent writing the nested record.
  EXPECT_DOUBLE_EQ(t.span_s, 20e-9);
  EXPECT_DOUBLE_EQ(t.sink_s, 50e-9);
}

TEST(StampSink, CountsUnclosedAndDoublyOpenedSpansAsUnpaired) {
  g_clock = 0;
  StampSink sink(nullptr, fake_now);
  sink.write(rec('B', 1, 1, "fleet.admit_batch"));
  sink.write(rec('B', 1, 1, "fleet.admit_batch"));  // same id again
  sink.write(rec('E', 2, 1));
  sink.write(rec('B', 3, 3, "fleet.admit_batch"));  // never closed
  sink.write(rec('E', 4, 99));                       // some other span
  sink.finish();
  const StampSink::Totals t = sink.totals();
  EXPECT_EQ(t.spans, 1);
  EXPECT_EQ(t.unpaired, 2);
}

TEST(StampSink, ForwardsToTheInnerSinkAndTimesIt) {
  g_clock = 0;
  obs::MemorySink inner;
  StampSink sink(&inner, fake_now);
  sink.write(rec('B', 1, 1, "fleet.admit_batch"));
  sink.write(rec('E', 2, 1));
  sink.finish();
  ASSERT_EQ(inner.events.size(), 2u);
  EXPECT_EQ(inner.events[1].span, 1u);
  const StampSink::Totals t = sink.totals();
  EXPECT_EQ(t.spans, 1);
  EXPECT_DOUBLE_EQ(t.inner_s, 20e-9);  // one tick per inner write
  EXPECT_DOUBLE_EQ(t.sink_s, 60e-9);   // four reads per write
}

TEST(Attribution, NegativeRemainderIsInconsistent) {
  const perfbench::Attribution ok = perfbench::attribute(2.0, 0.5, 0.25, 0.25);
  EXPECT_TRUE(ok.consistent);
  EXPECT_DOUBLE_EQ(ok.core_s, 1.0);
  EXPECT_TRUE(perfbench::attribute(1.0, 0.5, 0.5, 0.0).consistent);
  const perfbench::Attribution bad = perfbench::attribute(1.0, 0.6, 0.3, 0.2);
  EXPECT_FALSE(bad.consistent);
  EXPECT_LT(bad.core_s, 0.0);
}

obs::MetricsRegistry::Histogram samples(int n) {
  obs::MetricsRegistry::Histogram h;
  h.bounds = {1.0, 10.0, 100.0, 1000.0};
  h.counts.assign(h.bounds.size() + 1, 0);
  for (int i = 0; i < n; ++i) h.observe(static_cast<double>(i % 500));
  return h;
}

TEST(SupportedTail, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(perfbench::supported_tail(samples(0)).pct, 0.0);
  EXPECT_EQ(perfbench::supported_tail(samples(19)).pct, 0.0);
  EXPECT_EQ(perfbench::supported_tail(samples(19)).value, 0.0);
  EXPECT_EQ(perfbench::supported_tail(samples(20)).pct, 50.0);
  EXPECT_EQ(perfbench::supported_tail(samples(100)).pct, 90.0);
  EXPECT_EQ(perfbench::supported_tail(samples(999)).pct, 90.0);
  EXPECT_EQ(perfbench::supported_tail(samples(1000)).pct, 99.0);
  EXPECT_EQ(perfbench::supported_tail(samples(10000)).pct, 99.9);
  EXPECT_EQ(perfbench::supported_tail(samples(100000)).pct, 99.99);
  const auto h = samples(1000);
  EXPECT_EQ(perfbench::supported_tail(h).value, h.quantile(0.99));
}

fleet::FleetReport small_report() {
  fleet::FleetReport r;
  fleet::TenantStats a;
  a.name = "a";
  a.submitted = 10;
  a.rejected_quota = 2;
  a.admitted = 8;
  a.shed = 1;
  a.completed = 6;
  a.failed = 1;
  fleet::TenantStats b = a;
  b.name = "b";
  r.tenants = {a, b};
  r.submitted = 20;
  r.rejected_quota = 4;
  r.admitted = 16;
  r.shed = 2;
  r.completed = 12;
  r.failed = 2;
  r.retries = 3;
  r.dispatches = 17;
  r.breaker_trips = 1;
  r.accepted_p50 = 1.25e6;
  r.accepted_p99 = 0.1 + 4.0e6;
  r.accepted_p999 = 5.0e6 / 3.0;
  r.makespan = 4.0e8 + 1.0 / 3.0;
  return r;
}

TEST(OutputCheck, RejectsAReportWithAnyOneFieldPerturbed) {
  const perfbench::Fields want = perfbench::report_fields(small_report());
  EXPECT_TRUE(perfbench::mismatched_fields(want, want).empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    perfbench::Fields got = want;
    got[i].second = std::nextafter(got[i].second, 1e300);
    const auto bad = perfbench::mismatched_fields(got, want);
    ASSERT_EQ(bad.size(), 1u) << want[i].first;
    EXPECT_EQ(bad[0], want[i].first);
  }
  perfbench::Fields missing = want;
  missing.pop_back();
  EXPECT_EQ(perfbench::mismatched_fields(missing, want).size(), 1u);
}

TEST(OutputCheck, ReferenceLinesRoundTripExactly) {
  const perfbench::Fields fields = perfbench::report_fields(small_report());
  std::stringstream file;
  file << "# comment\n"
       << perfbench::format_reference("fleet_scale", 7, fields) << "\n"
       << perfbench::format_reference("fleet_fluid", 11, fields) << "\n";
  const auto got = perfbench::find_reference(file, "fleet_fluid", 11);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(perfbench::mismatched_fields(*got, fields).empty());
  file.clear();
  file.seekg(0);
  EXPECT_FALSE(perfbench::find_reference(file, "fleet_fluid", 7).has_value());
  std::stringstream bad("fleet_scale 7 completed=12x\n");
  EXPECT_THROW(perfbench::find_reference(bad, "fleet_scale", 7),
               std::invalid_argument);
}

TEST(Conservation, FlagsTenantAndTotalViolations) {
  EXPECT_EQ(perfbench::conservation_error(small_report()), "");
  fleet::FleetReport tenant = small_report();
  tenant.tenants[1].shed += 1;
  EXPECT_NE(perfbench::conservation_error(tenant).find("tenant b"),
            std::string::npos);
  fleet::FleetReport total = small_report();
  total.completed += 1;
  total.failed -= 1;
  EXPECT_NE(perfbench::conservation_error(total).find("sum over tenants"),
            std::string::npos);
}

TEST(Workloads, EveryScenarioIsSerial) {
  for (const char* name : {"fleet_scale", "fleet_fluid", "trace_roundtrip"}) {
    const auto w = perfbench::parse_workload(name);
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_EQ(perfbench::serial_violation(perfbench::make_scenario(*w, 3).config),
              "")
        << name;
  }
  fleet::FleetConfig config;
  config.event_lanes = 4;
  EXPECT_NE(perfbench::serial_violation(config).find("event_lanes"),
            std::string::npos);
  EXPECT_FALSE(perfbench::parse_workload("fleet").has_value());
}

}  // namespace
