// Robustness property tests for the text parsers: fio job files,
// host-model documents, CSV transfer traces and fault plans, plus the
// three JSON readers built on obs/json (JSONL trace captures, metrics
// snapshots, run reports). Random single-character mutations of valid
// documents must either parse or throw std::invalid_argument (for fault
// plans, its subclass StatusError) — never crash, never hang, never
// corrupt state.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "io/jobfile.h"
#include "io/trace.h"
#include "model/characterize.h"
#include "model/perf_report.h"
#include "obs/analysis.h"
#include "obs/obs.h"
#include "simcore/rng.h"
#include "simcore/status.h"

namespace numaio {
namespace {

const char kJobFile[] =
    "[global]\nioengine=rdma\nrw=read\nbs=128k\niodepth=16\nnumjobs=4\n"
    "[a]\ncpunodebind=2\n[b]\ncpunodebind=0\nnumjobs=2\n";

const char kTrace[] =
    "# log\n0.0,rdma_write,7,32\n1.25,tcp_recv,2,8\n2.5,ssd_read,0,16\n";

std::string valid_model_doc() {
  return "numaio-model v1\n"
         "host tiny nodes 2\n"
         "model 0 write 50.0 40.0\n"
         "classes 0 write 1 { 0 1 }\n"
         "model 0 read 50.0 41.0\n"
         "classes 0 read 1 { 0 1 }\n"
         "model 1 write 39.0 52.0\n"
         "classes 1 write 1 { 0 1 }\n"
         "model 1 read 38.0 52.0\n"
         "classes 1 read 1 { 0 1 }\n"
         "end\n";
}

std::string mutate(const std::string& doc, sim::Rng& rng) {
  std::string out = doc;
  const auto pos = rng.below(out.size());
  switch (rng.below(3)) {
    case 0:  // flip a character
      out[pos] = static_cast<char>(' ' + rng.below(95));
      break;
    case 1:  // delete a character
      out.erase(pos, 1);
      break;
    default:  // duplicate a character
      out.insert(pos, 1, out[pos]);
      break;
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, JobFileNeverCrashes) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(kJobFile, rng);
    try {
      const auto parsed = io::parse_job_file(doc);
      EXPECT_FALSE(parsed.jobs.empty());  // success implies jobs exist
    } catch (const std::invalid_argument&) {
      // acceptable outcome
    } catch (const std::out_of_range&) {
      // std::stoi overflow on huge duplicated digits — acceptable
    }
  }
}

TEST_P(ParserFuzz, HostModelNeverCrashes) {
  sim::Rng rng(GetParam() + 1000);
  const std::string base = valid_model_doc();
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      const auto parsed = model::parse_host_model(doc);
      EXPECT_EQ(parsed.num_nodes, 2);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST_P(ParserFuzz, TraceNeverCrashes) {
  sim::Rng rng(GetParam() + 2000);
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(kTrace, rng);
    try {
      const auto parsed = io::parse_trace(doc);
      EXPECT_FALSE(parsed.empty());
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

/// A small deterministic fleet capture (crash, retries, sheds) as JSONL.
std::string fleet_capture() {
  const fleet::StormScenario storm =
      fleet::make_storm(/*num_hosts=*/2, /*num_tenants=*/2,
                        /*offered_rps=*/400.0, /*seed=*/5, /*horizon=*/0.2e9);
  std::ostringstream out;
  obs::Context ctx;
  obs::JsonlSink sink(out);
  ctx.trace.set_deterministic(true);
  ctx.trace.set_sink(&sink);
  fleet::FleetSim sim(storm.config, storm.tenants);
  sim.set_fault_plan(storm.plan);
  sim.set_observer(&ctx);
  sim.run();
  return out.str();
}

obs::MetricsRegistry sample_metrics() {
  obs::MetricsRegistry m;
  m.add(m.counter("fleet.completed"), 1750.0);
  m.add(m.counter("name \"with\"\tescapes"), 3.0);
  m.set(m.gauge("solver.components"), 2.5);
  const auto h = m.histogram("fleet.queue_ms", {0.5, 1.0, 10.0});
  for (const double v : {0.1, 0.7, 3.0, 42.0}) m.observe(h, v);
  return m;
}

TEST_P(ParserFuzz, TraceJsonlNeverCrashes) {
  sim::Rng rng(GetParam() + 3000);
  const std::string base = fleet_capture();
  ASSERT_FALSE(obs::parse_trace_jsonl(base).empty());
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      EXPECT_FALSE(obs::parse_trace_jsonl(doc).empty());
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, MetricsJsonNeverCrashes) {
  sim::Rng rng(GetParam() + 4000);
  const std::string base = sample_metrics().to_json();
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      obs::parse_metrics_json(doc).to_json();
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, ReportJsonNeverCrashes) {
  sim::Rng rng(GetParam() + 5000);
  const model::HostModel host = model::parse_host_model(valid_model_doc());
  const obs::MetricsRegistry metrics = sample_metrics();
  const std::string base = model::render_json(model::build_run_report(
      "report fuzz", &host, obs::parse_trace_jsonl(fleet_capture()),
      &metrics));
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      const model::ReportSummary parsed = model::parse_report_json(doc);
      model::diff_reports(parsed, parsed);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, FaultPlanNeverCrashes) {
  sim::Rng rng(GetParam() + 6000);
  const std::string base = faults::render_fault_plan(
      fleet::make_scale_storm(/*num_hosts=*/8, /*num_tenants=*/64,
                              /*offered_rps=*/1000.0, /*seed=*/5,
                              /*horizon=*/1.0e9)
          .plan);
  ASSERT_FALSE(faults::parse_fault_plan(base).events().empty());
  for (int i = 0; i < 200; ++i) {
    const std::string doc = mutate(base, rng);
    try {
      // A plan that parses renders to a document that parses again.
      faults::parse_fault_plan(
          faults::render_fault_plan(faults::parse_fault_plan(doc)));
    } catch (const StatusError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- deterministic job-file edge cases ------------------------------------

void expect_rejected(const std::string& doc, const std::string& needle) {
  try {
    io::parse_job_file(doc);
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(JobFileEdgeCases, DuplicateOptionInOneSectionRejected) {
  expect_rejected(
      "[a]\nioengine=rdma\nrw=read\ncpunodebind=2\nsize=400g\nsize=4g\n",
      "duplicate option 'size'");
}

TEST(JobFileEdgeCases, GlobalOverrideIsNotADuplicate) {
  const auto file = io::parse_job_file(
      "[global]\nioengine=rdma\nrw=read\nsize=400g\n"
      "[a]\ncpunodebind=2\nsize=4g\n");
  ASSERT_EQ(file.jobs.size(), 1u);
  EXPECT_EQ(file.jobs[0].job.bytes_per_stream, 4 * sim::kGiB);
}

TEST(JobFileEdgeCases, EmptySectionInheritsEverythingFromGlobal) {
  const auto file = io::parse_job_file(
      "[global]\nioengine=tcp\nrw=write\ncpunodebind=3\n[solo]\n");
  ASSERT_EQ(file.jobs.size(), 1u);
  EXPECT_EQ(file.jobs[0].name, "solo");
  EXPECT_EQ(file.jobs[0].job.cpu_node, 3);
}

TEST(JobFileEdgeCases, EmptyAndDuplicateSectionNamesRejected) {
  expect_rejected("[  ]\nioengine=rdma\n", "empty section name");
  expect_rejected(
      "[a]\nioengine=rdma\nrw=read\ncpunodebind=1\n"
      "[a]\ncpunodebind=2\n",
      "duplicate section [a]");
}

TEST(JobFileEdgeCases, IodepthRangeEnforced) {
  expect_rejected("[a]\niodepth=0\n", "'iodepth' out of range");
  expect_rejected("[a]\niodepth=5000\n", "'iodepth' out of range");
  expect_rejected("[a]\niodepth=16abc\n", "wants an integer");
}

TEST(JobFileEdgeCases, BlockSizeRangeEnforced) {
  expect_rejected("[a]\nbs=256\n", "'bs' out of range");  // < one sector
  expect_rejected("[a]\nbs=2g\n", "'bs' out of range");   // > 1 GiB
}

TEST(JobFileEdgeCases, SizeOverflowRejected) {
  expect_rejected("[a]\nsize=99999999999999999999\n", "overflows 64 bits");
  expect_rejected("[a]\nsize=99999999999g\n", "overflows 64 bits");
}

TEST(JobFileEdgeCases, LineNumbersPointAtTheOffendingLine) {
  try {
    io::parse_job_file("[a]\nioengine=rdma\niodepth=-1\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace numaio
