// Trace-analysis tests on hand-built traces: JSONL parse-back, span-kind
// aggregates, critical-path selection (dominant root, dominant child,
// cause-edge extension), contention attribution with and without payload
// bytes, the fault audit, and histogram quantile estimation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "obs/trace.h"

namespace numaio::obs {
namespace {

EventFields at(double t_sim) {
  EventFields f;
  f.t_sim = t_sim;
  return f;
}

// --- JSONL parse-back -----------------------------------------------------

TEST(ParseTraceJsonl, RoundTripsSerializedRecords) {
  std::ostringstream text;
  JsonlSink jsonl(text);
  MemorySink memory;
  TeeSink tee;
  tee.add(&jsonl);
  tee.add(&memory);
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&tee);

  EventFields fields;
  fields.node_a = 2;
  fields.node_b = 7;
  fields.dir = 'w';
  fields.bytes = 4096;
  fields.t_sim = 1.5;
  fields.detail = "with \"quotes\" and\nnewline";
  const SpanId job = trace.begin_span("fio.job", 0, fields);
  const EventId cause = trace.event("fault.transition", 0, 0, "on", at(2.0));
  trace.event("fio.retry", job, cause, "retry", at(3.0));
  trace.end_span(job, "degraded", at(9.0));

  const std::vector<Event> parsed = parse_trace_jsonl(text.str());
  ASSERT_EQ(parsed.size(), memory.events.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const Event& a = parsed[i];
    const Event& b = memory.events[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.span, b.span) << i;
    EXPECT_EQ(a.parent, b.parent) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.node_a, b.node_a) << i;
    EXPECT_EQ(a.node_b, b.node_b) << i;
    EXPECT_EQ(a.dir, b.dir) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
    EXPECT_DOUBLE_EQ(a.t_sim, b.t_sim) << i;
    EXPECT_EQ(a.outcome, b.outcome) << i;
    EXPECT_EQ(a.detail, b.detail) << i;
    // Deterministic capture: the field is omitted and parses as -1.
    EXPECT_DOUBLE_EQ(a.wall_us, -1.0) << i;
  }
}

TEST(ParseTraceJsonl, ReadsWallClockWhenPresent) {
  const auto events = parse_trace_jsonl(
      "{\"id\":1,\"kind\":\"I\",\"name\":\"x\",\"wall_us\":12.5}\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].wall_us, 12.5);
}

TEST(ParseTraceJsonl, RejectsMalformedInputWithLineNumber) {
  try {
    parse_trace_jsonl("{\"id\":1,\"kind\":\"I\",\"name\":\"ok\"}\n"
                      "{\"id\":2,\"kind\":\"I\",\"nope\":3}\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_trace_jsonl("{\"kind\":\"I\"}\n"),
               std::invalid_argument);  // record without an id
  EXPECT_THROW(parse_trace_jsonl("not json\n"), std::invalid_argument);
}

TEST(ParseTraceJsonl, RejectsContentAfterTheRecord) {
  // A second object on one line must not load as the first record with
  // the second silently dropped.
  EXPECT_THROW(
      parse_trace_jsonl("{\"id\":1,\"kind\":\"I\",\"name\":\"a\"}"
                        "{\"id\":2,\"kind\":\"I\",\"name\":\"b\"}\n"),
      std::invalid_argument);
  EXPECT_THROW(parse_trace_jsonl("{\"id\":1,\"kind\":\"I\"} x\n"),
               std::invalid_argument);
}

TEST(ParseTraceJsonl, LoadsCrlfLines) {
  const std::string crlf =
      "{\"id\":1,\"kind\":\"I\",\"name\":\"a\"}\r\n"
      "{\"id\":2,\"kind\":\"I\",\"name\":\"b\"}\r\n";
  const std::vector<Event> parsed = parse_trace_jsonl(crlf);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].id, 2u);
  EXPECT_EQ(parsed[1].name, "b");

  // The file source reads lines with getline, which keeps the '\r'.
  const std::string path =
      ::testing::TempDir() + "numaio_crlf_capture.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << crlf;
  }
  JsonlFileSource source(path);
  MemorySink sink;
  source.stream(sink);
  std::remove(path.c_str());
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].name, "a");
}

TEST(ParseTraceJsonl, OneCharacterFieldsAreEscaped) {
  std::ostringstream text;
  JsonlSink jsonl(text);
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&jsonl);
  for (const char dir : {'"', '\\', '\n', '\x01'}) {
    EventFields fields;
    fields.dir = dir;
    trace.event("x", 0, 0, "ok", fields);
  }
  const std::vector<Event> parsed = parse_trace_jsonl(text.str());
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed[0].dir, '"');
  EXPECT_EQ(parsed[1].dir, '\\');
  EXPECT_EQ(parsed[2].dir, '\n');
  EXPECT_EQ(parsed[3].dir, '\x01');
  EXPECT_EQ(parsed[3].kind, 'I');
}

TEST(ParseTraceJsonl, IntegerFieldsMustBeIntegralAndInRange) {
  const auto with = [](const std::string& field) {
    return "{\"id\":1,\"kind\":\"I\"," + field + "}\n";
  };
  for (const std::string field :
       {"\"id\":2.9", "\"id\":0x10", "\"id\":1e300", "\"id\":-1",
        "\"span\":-3", "\"parent\":18446744073709551616",
        "\"node_a\":1e10", "\"node_b\":-2147483649", "\"bytes\":0.5",
        "\"bytes\":1e19", "\"bytes\":nan", "\"id\":inf"}) {
    EXPECT_THROW(parse_trace_jsonl(with(field)), std::invalid_argument)
        << field;
  }
  // %.17g writes integral doubles from 10^17 up in exponent form.
  const auto events = parse_trace_jsonl(
      with("\"bytes\":1e+17,\"span\":1.0e2,\"node_a\":-1"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, 100000000000000000LL);
  EXPECT_EQ(events[0].span, 100u);
  EXPECT_EQ(events[0].node_a, -1);
  const auto big = parse_trace_jsonl(
      "{\"id\":18446744073709551615,\"kind\":\"I\"}\n");
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0].id, 18446744073709551615u);
}

// --- aggregates -----------------------------------------------------------

TEST(AnalyzeTrace, SpanKindAggregates) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&sink);

  const SpanId a = trace.begin_span("fio.stream", 0, at(0.0));
  EventFields end_a = at(100.0);
  end_a.bytes = 1000;
  trace.end_span(a, "ok", end_a);
  const SpanId b = trace.begin_span("fio.stream", 0, at(50.0));
  EventFields end_b = at(300.0);
  end_b.bytes = 500;
  trace.end_span(b, "aborted", end_b);
  trace.begin_span("fio.stream", 0, at(60.0));  // never closed

  const TraceAnalysis analysis = analyze_trace(sink.events);
  EXPECT_EQ(analysis.num_records, 5);
  EXPECT_DOUBLE_EQ(analysis.first_ns, 0.0);
  EXPECT_DOUBLE_EQ(analysis.last_ns, 300.0);
  ASSERT_EQ(analysis.span_kinds.size(), 1u);
  const SpanKindStats& k = analysis.span_kinds[0];
  EXPECT_EQ(k.name, "fio.stream");
  EXPECT_EQ(k.count, 3);
  EXPECT_EQ(k.unclosed, 1);
  EXPECT_DOUBLE_EQ(k.total_ns, 350.0);
  EXPECT_DOUBLE_EQ(k.max_ns, 250.0);
  EXPECT_EQ(k.bytes, 1500);
  // Outcomes sorted by string: (open), aborted, ok.
  ASSERT_EQ(k.outcomes.size(), 3u);
  EXPECT_EQ(k.outcomes[0].first, "(open)");
  EXPECT_EQ(k.outcomes[1].first, "aborted");
  EXPECT_EQ(k.outcomes[2].first, "ok");
}

// --- critical path --------------------------------------------------------

TEST(AnalyzeTrace, CriticalPathDescendsToDominantChildAndFollowsCauses) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&sink);

  const SpanId job = trace.begin_span("fio.job", 0, at(0.0));     // id 1
  const SpanId quick = trace.begin_span("fio.stream", job, at(0.0));
  const SpanId slow = trace.begin_span("fio.stream", job, at(10.0));
  trace.end_span(quick, "ok", at(40.0));
  const EventId fault =
      trace.event("fault.transition", 0, 0, "on", at(20.0));
  const EventId retry =
      trace.event("fio.retry", slow, fault, "retry", at(30.0));
  trace.end_span(slow, "ok", at(100.0));
  trace.end_span(job, "degraded", at(100.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  EXPECT_DOUBLE_EQ(analysis.critical_path_ns, 100.0);
  // job -> slow (ends later than quick) -> retry instant -> its cause.
  ASSERT_EQ(analysis.critical_path.size(), 4u);
  EXPECT_EQ(analysis.critical_path[0].id, job);
  EXPECT_EQ(analysis.critical_path[0].name, "fio.job");
  EXPECT_DOUBLE_EQ(analysis.critical_path[0].self_ns, 10.0);  // 100 - 90
  EXPECT_EQ(analysis.critical_path[1].id, slow);
  EXPECT_DOUBLE_EQ(analysis.critical_path[1].self_ns, 90.0);
  EXPECT_EQ(analysis.critical_path[2].id, retry);
  EXPECT_EQ(analysis.critical_path[2].name, "fio.retry");
  EXPECT_EQ(analysis.critical_path[3].id, fault);
  EXPECT_EQ(analysis.critical_path[3].name, "fault.transition");
  EXPECT_EQ(analysis.critical_path[3].outcome, "on");
}

TEST(AnalyzeTrace, CriticalPathPicksDominantRoot) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&sink);

  const SpanId early = trace.begin_span("run.a", 0, at(0.0));
  trace.end_span(early, "ok", at(50.0));
  const SpanId late = trace.begin_span("run.b", 0, at(10.0));
  trace.end_span(late, "ok", at(80.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  ASSERT_FALSE(analysis.critical_path.empty());
  EXPECT_EQ(analysis.critical_path[0].id, late);  // later end wins
  EXPECT_DOUBLE_EQ(analysis.critical_path_ns, 70.0);
}

// --- contention -----------------------------------------------------------

TEST(AnalyzeTrace, ContentionAttributesStallAgainstBestRate) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&sink);

  // Same span kind + direction; the 100 bytes / 10 ns transfer sets the
  // reference rate, so the 100 bytes / 25 ns one stalls for 15 ns.
  EventFields fast = at(0.0);
  fast.node_a = 0;
  fast.node_b = 1;
  fast.dir = 'w';
  fast.bytes = 100;
  const SpanId f = trace.begin_span("mem.copy", 0, fast);
  trace.end_span(f, "ok", at(10.0));

  EventFields slow = at(0.0);
  slow.node_a = 0;
  slow.node_b = 2;
  slow.dir = 'w';
  slow.bytes = 100;
  const SpanId s = trace.begin_span("mem.copy", 0, slow);
  trace.end_span(s, "ok", at(25.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  ASSERT_EQ(analysis.contention.size(), 2u);
  // Sorted by stall descending: the contended (0, 2) pair first.
  EXPECT_EQ(analysis.contention[0].node_a, 0);
  EXPECT_EQ(analysis.contention[0].node_b, 2);
  EXPECT_DOUBLE_EQ(analysis.contention[0].busy_ns, 25.0);
  EXPECT_DOUBLE_EQ(analysis.contention[0].stall_ns, 15.0);
  EXPECT_DOUBLE_EQ(analysis.contention[0].stall_frac(), 0.6);
  EXPECT_EQ(analysis.contention[0].bytes, 100);
  EXPECT_DOUBLE_EQ(analysis.contention[1].stall_ns, 0.0);
}

TEST(AnalyzeTrace, ContentionWithoutBytesUsesFastestDuration) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&sink);

  EventFields probe = at(0.0);
  probe.node_a = 3;
  probe.node_b = 7;
  probe.dir = 'r';
  const SpanId p1 = trace.begin_span("iomodel.probe", 0, probe);
  trace.end_span(p1, "ok", at(10.0));
  probe.node_a = 4;
  const SpanId p2 = trace.begin_span("iomodel.probe", 0, probe);
  trace.end_span(p2, "ok", at(30.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  ASSERT_EQ(analysis.contention.size(), 2u);
  EXPECT_EQ(analysis.contention[0].node_a, 4);
  EXPECT_DOUBLE_EQ(analysis.contention[0].stall_ns, 20.0);  // 30 - 10
  EXPECT_DOUBLE_EQ(analysis.contention[1].stall_ns, 0.0);
}

// --- fault audit ----------------------------------------------------------

TEST(AnalyzeTrace, FaultAuditCountsAndAttributesConsequences) {
  MemorySink sink;
  TraceRecorder trace;
  trace.set_deterministic(true);
  trace.set_sink(&sink);

  const SpanId stream = trace.begin_span("fio.stream", 0, at(0.0));
  EventFields on = at(5.0);
  on.detail = "link-degrade 0<->1";
  const EventId f1 = trace.event("fault.transition", 0, 0, "on", on);
  trace.event("fio.retry", stream, f1, "retry", at(6.0));
  trace.event("fio.retry", stream, f1, "retry", at(7.0));
  EventFields off = at(8.0);
  off.detail = "device-stall nic";
  trace.event("fault.transition", 0, 0, "off", off);
  trace.event("fio.abort", stream, f1, "abort", at(9.0));
  trace.end_span(stream, "aborted", at(10.0));

  const TraceAnalysis analysis = analyze_trace(sink.events);
  EXPECT_EQ(analysis.faults.transitions, 2);
  EXPECT_EQ(analysis.faults.retries, 2);
  EXPECT_EQ(analysis.faults.aborts, 2);  // the instant + the "aborted" end
  EXPECT_EQ(analysis.faults.caused, 3);
  ASSERT_EQ(analysis.faults.by_fault.size(), 2u);
  EXPECT_EQ(analysis.faults.by_fault[0].first,
            "link-degrade 0<->1 on (id " + std::to_string(f1) + ")");
  EXPECT_EQ(analysis.faults.by_fault[0].second, 3);
  EXPECT_EQ(analysis.faults.by_fault[1].second, 0);
}

// --- histogram quantiles --------------------------------------------------

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  MetricsRegistry metrics;
  const auto h = metrics.histogram("t", {10.0, 20.0});
  for (const double v : {5.0, 5.0, 5.0, 5.0, 15.0, 15.0, 15.0, 15.0}) {
    metrics.observe(h, v);
  }
  const MetricsRegistry::Histogram* hist = metrics.find_histogram("t");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->quantile(0.25), 5.0);   // halfway into bucket 1
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 10.0);   // exactly at the edge
  EXPECT_DOUBLE_EQ(hist->quantile(0.75), 15.0);  // halfway into bucket 2
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 20.0);
}

TEST(HistogramQuantile, OverflowClampsToLastBoundAndEmptyIsZero) {
  MetricsRegistry metrics;
  const auto h = metrics.histogram("t", {10.0, 20.0});
  const MetricsRegistry::Histogram* hist = metrics.find_histogram("t");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 0.0);  // empty
  metrics.observe(h, 100.0);                   // lands in +inf overflow
  EXPECT_DOUBLE_EQ(hist->quantile(0.99), 20.0);
}

TEST(HistogramQuantile, SummarySurfacesP50P95P99) {
  MetricsRegistry metrics;
  const auto h = metrics.histogram("solver.rounds", {4.0, 16.0});
  metrics.observe(h, 2.0);
  metrics.observe(h, 8.0);
  const std::string summary = metrics.summary();
  EXPECT_NE(summary.find("p50"), std::string::npos) << summary;
  EXPECT_NE(summary.find("p95"), std::string::npos) << summary;
  EXPECT_NE(summary.find("p99"), std::string::npos) << summary;
}

}  // namespace
}  // namespace numaio::obs
