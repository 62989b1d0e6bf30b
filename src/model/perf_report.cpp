#include "model/perf_report.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/json.h"
#include "simcore/units.h"

namespace numaio::model {

namespace {

const char* dir_name(Direction dir) {
  return dir == Direction::kDeviceWrite ? "write" : "read";
}

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string ms(double ns) { return fixed(ns / 1e6, 3); }

std::string gib(long long bytes) {
  return fixed(static_cast<double>(bytes) / static_cast<double>(sim::kGiB),
               2);
}

/// "{0 1} {4 5 6 7} {2 3}" — the serialized-model class syntax.
std::string classes_text(const Classification& c) {
  std::string out;
  for (const auto& members : c.classes) {
    if (!out.empty()) out += ' ';
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += ' ';
      out += std::to_string(members[i]);
    }
    out += '}';
  }
  return out;
}

std::string class_avgs_text(const Classification& c) {
  std::string out;
  for (std::size_t i = 0; i < c.class_avg.size(); ++i) {
    if (i != 0) out += " / ";
    out += fixed(c.class_avg[i], 1);
  }
  return out;
}

}  // namespace

RunReport build_run_report(std::string command, const HostModel* model,
                           obs::RecordSource& source,
                           const obs::MetricsRegistry* metrics) {
  RunReport report;
  report.command = std::move(command);
  if (model != nullptr) {
    report.has_model = true;
    report.model = *model;
  }
  report.analysis = obs::analyze_stream(source);
  // One more streaming pass for §6: the scheduler-latency profile.
  report.sched = obs::profile_scheduler(source);
  if (metrics != nullptr) {
    report.counters = metrics->counter_values();
    // Gauges ride in the same table (the partitioned solver reports its
    // component shape — solver.components & co — as gauges); re-sort so
    // the merged list stays name-ordered for the renderers and the diff.
    const auto gauges = metrics->gauge_values();
    report.counters.insert(report.counters.end(), gauges.begin(),
                           gauges.end());
    std::sort(report.counters.begin(), report.counters.end(),
              [](const obs::MetricsRegistry::NamedValue& a,
                 const obs::MetricsRegistry::NamedValue& b) {
                return a.name < b.name;
              });
  }
  return report;
}

RunReport build_run_report(std::string command, const HostModel* model,
                           const std::vector<obs::Event>& events,
                           const obs::MetricsRegistry* metrics) {
  obs::VectorSource source(events);
  return build_run_report(std::move(command), model, source, metrics);
}

std::string render_markdown(const RunReport& report,
                            const RunReportOptions& options) {
  const obs::TraceAnalysis& a = report.analysis;
  std::ostringstream out;
  out << "# numaio run report\n\n";
  out << "- command: `" << report.command << "`\n";
  out << "- trace records: " << a.num_records;
  if (a.last_ns >= 0.0) {
    out << ", simulated window: " << ms(a.first_ns) << " – " << ms(a.last_ns)
        << " ms";
  }
  out << "\n- critical path: " << ms(a.critical_path_ns)
      << " ms end-to-end over " << a.critical_path.size() << " steps\n";

  if (report.has_model) {
    out << "\n## Performance classes (" << report.model.host_name << ", "
        << report.model.num_nodes << " nodes, revision "
        << report.model.revision << (report.model.stale ? ", STALE" : "")
        << ")\n\n";
    out << "| target | dir | classes | class avg Gbps |\n";
    out << "|---|---|---|---|\n";
    for (NodeId t = 0; t < report.model.num_nodes; ++t) {
      for (const Direction dir :
           {Direction::kDeviceWrite, Direction::kDeviceRead}) {
        const Classification& c = report.model.classes_for(t, dir);
        out << "| " << t << " | " << dir_name(dir) << " | "
            << classes_text(c) << " | " << class_avgs_text(c) << " |\n";
      }
    }
  }

  if (!a.span_kinds.empty()) {
    out << "\n## Span summary\n\n";
    out << "| span | count | total ms | max ms | GiB | outcomes |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const obs::SpanKindStats& k : a.span_kinds) {
      out << "| " << k.name << " | " << k.count << " | " << ms(k.total_ns)
          << " | " << ms(k.max_ns) << " | " << gib(k.bytes) << " | ";
      for (std::size_t i = 0; i < k.outcomes.size(); ++i) {
        out << (i == 0 ? "" : ", ") << k.outcomes[i].first << " × "
            << k.outcomes[i].second;
      }
      out << " |\n";
    }
  }

  if (!a.critical_path.empty()) {
    out << "\n## Critical path\n\n";
    out << "| # | record | name | self ms | outcome | detail |\n";
    out << "|---|---|---|---|---|---|\n";
    int step_no = 0;
    for (const obs::CriticalPathStep& step : a.critical_path) {
      if (++step_no > options.max_path_steps) {
        out << "| … | | ("
            << static_cast<int>(a.critical_path.size()) - step_no + 1
            << " more steps) | | | |\n";
        break;
      }
      out << "| " << step_no << " | id " << step.id << " | " << step.name
          << " | " << ms(step.self_ns) << " | " << step.outcome << " | "
          << step.detail << " |\n";
    }
  }

  if (!a.contention.empty()) {
    out << "\n## Contention (top " << options.top_contended
        << " node pairs by attributed stall)\n\n";
    out << "| pair | spans | GiB | busy ms | stall ms | stall % |\n";
    out << "|---|---|---|---|---|---|\n";
    int rows = 0;
    for (const obs::ContentionCell& cell : a.contention) {
      if (++rows > options.top_contended) break;
      out << "| " << cell.node_a << " → " << cell.node_b << " | "
          << cell.spans << " | " << gib(cell.bytes) << " | "
          << ms(cell.busy_ns) << " | " << ms(cell.stall_ns) << " | "
          << fixed(100.0 * cell.stall_frac(), 1) << " |\n";
    }
  }

  out << "\n## Faults & retries\n\n";
  out << "- transitions: " << a.faults.transitions
      << ", retries: " << a.faults.retries << ", aborts: " << a.faults.aborts
      << ", records caused by faults: " << a.faults.caused << "\n";
  if (!a.faults.by_fault.empty()) {
    out << "\n| fault transition | consequences |\n|---|---|\n";
    for (const auto& [label, count] : a.faults.by_fault) {
      out << "| " << label << " | " << count << " |\n";
    }
  }

  if (!report.sched.empty()) {
    out << "\n## Scheduler latency\n\n";
    out << "| metric | count | p50 ms | p95 ms | p99 ms | p99.9 ms |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const obs::MetricsRegistry::Histogram* h :
         {&report.sched.queue_wait, &report.sched.dispatch,
          &report.sched.migration}) {
      out << "| " << h->name << " | " << h->count << " | "
          << fixed(h->quantile(0.50), 3) << " | "
          << fixed(h->quantile(0.95), 3) << " | "
          << fixed(h->quantile(0.99), 3) << " | "
          << fixed(h->quantile(0.999), 3) << " |\n";
    }
  }

  if (!report.counters.empty()) {
    out << "\n## Counters\n\n| counter | value |\n|---|---|\n";
    for (const auto& c : report.counters) {
      out << "| " << c.name << " | ";
      obs::json::write_number(out, c.value);
      out << " |\n";
    }
  }
  return out.str();
}

std::string render_json(const RunReport& report,
                        const RunReportOptions& options) {
  const obs::TraceAnalysis& a = report.analysis;
  std::ostringstream out;
  // `prefix` then one value through the shared codec.
  const auto num = [&out](const char* prefix, double v) {
    out << prefix;
    obs::json::write_number(out, v);
  };
  const auto str = [&out](const char* prefix, std::string_view text) {
    out << prefix;
    obs::json::write_string(out, text);
  };
  str("{\n  \"command\": ", report.command);
  out << ",\n  \"records\": " << a.num_records;
  num(",\n  \"sim_first_ns\": ", a.first_ns);
  num(",\n  \"sim_last_ns\": ", a.last_ns);
  num(",\n  \"critical_path_ns\": ", a.critical_path_ns);

  out << ",\n  \"classes\": [";
  if (report.has_model) {
    bool first = true;
    for (NodeId t = 0; t < report.model.num_nodes; ++t) {
      for (const Direction dir :
           {Direction::kDeviceWrite, Direction::kDeviceRead}) {
        const Classification& c = report.model.classes_for(t, dir);
        out << (first ? "\n" : ",\n") << "    {\"target\": " << t
            << ", \"dir\": \"" << dir_name(dir) << "\", \"classes\": [";
        for (std::size_t i = 0; i < c.classes.size(); ++i) {
          out << (i == 0 ? "[" : ", [");
          for (std::size_t j = 0; j < c.classes[i].size(); ++j) {
            out << (j == 0 ? "" : ", ") << c.classes[i][j];
          }
          out << "]";
        }
        out << "], \"avg_gbps\": [";
        for (std::size_t i = 0; i < c.class_avg.size(); ++i) {
          num(i == 0 ? "" : ", ", c.class_avg[i]);
        }
        out << "]}";
        first = false;
      }
    }
    if (!first) out << "\n  ";
  }
  out << "]";

  out << ",\n  \"span_kinds\": [";
  for (std::size_t i = 0; i < a.span_kinds.size(); ++i) {
    const obs::SpanKindStats& k = a.span_kinds[i];
    str(i == 0 ? "\n    {\"name\": " : ",\n    {\"name\": ", k.name);
    out << ", \"count\": " << k.count << ", \"unclosed\": " << k.unclosed;
    num(", \"total_ns\": ", k.total_ns);
    num(", \"max_ns\": ", k.max_ns);
    out << ", \"bytes\": " << k.bytes << ", \"outcomes\": {";
    for (std::size_t j = 0; j < k.outcomes.size(); ++j) {
      str(j == 0 ? "" : ", ", k.outcomes[j].first);
      out << ": " << k.outcomes[j].second;
    }
    out << "}}";
  }
  out << (a.span_kinds.empty() ? "]" : "\n  ]");

  out << ",\n  \"critical_path\": [";
  const std::size_t steps =
      std::min(a.critical_path.size(),
               static_cast<std::size_t>(options.max_path_steps));
  for (std::size_t i = 0; i < steps; ++i) {
    const obs::CriticalPathStep& s = a.critical_path[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << s.id;
    str(", \"name\": ", s.name);
    num(", \"self_ns\": ", s.self_ns);
    num(", \"start_ns\": ", s.start_ns);
    num(", \"end_ns\": ", s.end_ns);
    str(", \"outcome\": ", s.outcome);
    str(", \"detail\": ", s.detail);
    out << "}";
  }
  out << (steps == 0 ? "]" : "\n  ]");

  out << ",\n  \"contention\": [";
  const std::size_t cells =
      std::min(a.contention.size(),
               static_cast<std::size_t>(options.top_contended));
  for (std::size_t i = 0; i < cells; ++i) {
    const obs::ContentionCell& c = a.contention[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"node_a\": " << c.node_a
        << ", \"node_b\": " << c.node_b << ", \"spans\": " << c.spans
        << ", \"bytes\": " << c.bytes;
    num(", \"busy_ns\": ", c.busy_ns);
    num(", \"stall_ns\": ", c.stall_ns);
    num(", \"stall_frac\": ", c.stall_frac());
    out << "}";
  }
  out << (cells == 0 ? "]" : "\n  ]");

  out << ",\n  \"faults\": {\"transitions\": " << a.faults.transitions
      << ", \"retries\": " << a.faults.retries << ", \"aborts\": "
      << a.faults.aborts << ", \"caused\": " << a.faults.caused
      << ", \"by_fault\": [";
  for (std::size_t i = 0; i < a.faults.by_fault.size(); ++i) {
    str(i == 0 ? "{\"fault\": " : ", {\"fault\": ", a.faults.by_fault[i].first);
    out << ", \"caused\": " << a.faults.by_fault[i].second << "}";
  }
  out << "]}";

  out << ",\n  \"sched_latency\": [";
  if (!report.sched.queue_wait.name.empty()) {
    bool first = true;
    for (const obs::MetricsRegistry::Histogram* h :
         {&report.sched.queue_wait, &report.sched.dispatch,
          &report.sched.migration}) {
      str(first ? "\n    {\"name\": " : ",\n    {\"name\": ", h->name);
      out << ", \"count\": " << h->count;
      num(", \"p50_ms\": ", h->quantile(0.50));
      num(", \"p95_ms\": ", h->quantile(0.95));
      num(", \"p99_ms\": ", h->quantile(0.99));
      num(", \"p999_ms\": ", h->quantile(0.999));
      out << "}";
      first = false;
    }
    out << "\n  ]";
  } else {
    out << "]";
  }

  out << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    str(i == 0 ? "" : ", ", report.counters[i].name);
    num(": ", report.counters[i].value);
  }
  out << "}\n}\n";
  return out.str();
}

namespace {

/// Reads one object of a report document: `field(key)` consumes the
/// value of each key it knows and returns false for the rest, which are
/// skipped. Every key in `required` must be present.
template <typename Field>
void read_fields(obs::json::Cursor& cur, const char* what,
                 std::initializer_list<std::string_view> required,
                 Field&& field) {
  std::uint32_t seen = 0;
  cur.object([&](std::string_view key) {
    std::uint32_t bit = 1;
    for (const std::string_view name : required) {
      if (key == name) seen |= bit;
      bit <<= 1;
    }
    if (!field(key)) cur.skip_value();
  });
  std::uint32_t bit = 1;
  for (const std::string_view name : required) {
    if ((seen & bit) == 0) {
      cur.fail("missing field '" + std::string(name) + "' (" + what + ")");
    }
    bit <<= 1;
  }
}

ReportSummary::ClassRow read_class_row(obs::json::Cursor& cur) {
  ReportSummary::ClassRow row;
  read_fields(cur, "class row", {"target", "dir", "classes", "avg_gbps"},
              [&](std::string_view key) {
    if (key == "target") {
      row.target = cur.integer<int>();
    } else if (key == "dir") {
      row.dir = cur.string();
    } else if (key == "classes") {
      cur.array([&] {
        row.classes += row.classes.empty() ? "{" : " {";
        cur.array([&] {
          if (row.classes.back() != '{') row.classes += ' ';
          row.classes += std::to_string(cur.integer<int>());
        });
        row.classes += '}';
      });
    } else if (key == "avg_gbps") {
      cur.array([&] {
        if (!row.avgs.empty()) row.avgs += " / ";
        row.avgs += fixed(cur.number(), 1);
      });
    } else {
      return false;
    }
    return true;
  });
  return row;
}

}  // namespace

ReportSummary parse_report_json(const std::string& text) {
  obs::json::Cursor cur(text, "report json");
  ReportSummary s;
  read_fields(
      cur, "report",
      {"command", "records", "critical_path_ns", "classes", "critical_path",
       "span_kinds", "faults"},
      [&](std::string_view key) {
    if (key == "command") {
      s.command = cur.string();
    } else if (key == "records") {
      s.records = cur.integer<int>();
    } else if (key == "critical_path_ns") {
      s.critical_path_ns = cur.number();
    } else if (key == "classes") {
      cur.array([&] { s.classes.push_back(read_class_row(cur)); });
    } else if (key == "critical_path") {
      cur.array([&] {
        ReportSummary::PathStep& step = s.critical_path.emplace_back();
        read_fields(cur, "path step", {"id", "name", "self_ns", "outcome"},
                    [&](std::string_view k) {
          if (k == "id") step.id = cur.integer<obs::EventId>();
          else if (k == "name") step.name = cur.string();
          else if (k == "self_ns") step.self_ns = cur.number();
          else if (k == "outcome") step.outcome = cur.string();
          else return false;
          return true;
        });
      });
    } else if (key == "span_kinds") {
      cur.array([&] {
        ReportSummary::SpanRow& span = s.span_kinds.emplace_back();
        read_fields(cur, "span kind", {"name", "count", "total_ns"},
                    [&](std::string_view k) {
          if (k == "name") span.name = cur.string();
          else if (k == "count") span.count = cur.integer<int>();
          else if (k == "total_ns") span.total_ns = cur.number();
          else return false;
          return true;
        });
      });
    } else if (key == "faults") {
      read_fields(cur, "fault audit",
                  {"transitions", "retries", "aborts", "caused"},
                  [&](std::string_view k) {
        if (k == "transitions") s.fault_transitions = cur.integer<int>();
        else if (k == "retries") s.retries = cur.integer<int>();
        else if (k == "aborts") s.aborts = cur.integer<int>();
        else if (k == "caused") s.caused = cur.integer<int>();
        else return false;
        return true;
      });
    } else if (key == "sched_latency") {
      // §6 is newer than the format and optional: reports without it
      // parse with no rows, so old baselines keep diffing.
      cur.array([&] {
        ReportSummary::SchedRow& r = s.sched_latency.emplace_back();
        read_fields(cur, "sched row",
                    {"name", "count", "p50_ms", "p95_ms", "p99_ms",
                     "p999_ms"},
                    [&](std::string_view k) {
          if (k == "name") r.name = cur.string();
          else if (k == "count") r.count = cur.integer<int>();
          else if (k == "p50_ms") r.p50_ms = cur.number();
          else if (k == "p95_ms") r.p95_ms = cur.number();
          else if (k == "p99_ms") r.p99_ms = cur.number();
          else if (k == "p999_ms") r.p999_ms = cur.number();
          else return false;
          return true;
        });
      });
    } else {
      return false;
    }
    return true;
  });
  cur.end();
  return s;
}

namespace {

/// "+1.234" / "-1.234" / "+0.000" — signed fixed-point delta text.
std::string signed_ms(double delta_ns) {
  std::string out(delta_ns < 0 ? "-" : "+");
  out += ms(delta_ns < 0 ? -delta_ns : delta_ns);
  return out;
}

std::string pct_change(double before, double after) {
  if (before <= 0.0) return "n/a";
  std::string out(after >= before ? "+" : "");
  out += fixed(100.0 * (after - before) / before, 1);
  out += '%';
  return out;
}

std::string path_step_text(const ReportSummary::PathStep& s) {
  std::string out = "id " + std::to_string(s.id) + " " + s.name + " (" +
                    ms(s.self_ns) + " ms";
  if (!s.outcome.empty()) out += ", " + s.outcome;
  return out + ")";
}

}  // namespace

std::string diff_reports(const ReportSummary& before,
                         const ReportSummary& after) {
  std::ostringstream out;
  out << "# numaio report diff\n\n";
  out << "- before: `" << before.command << "` (" << before.records
      << " records)\n";
  out << "- after:  `" << after.command << "` (" << after.records
      << " records)\n";
  out << "- critical path: " << ms(before.critical_path_ns) << " ms -> "
      << ms(after.critical_path_ns) << " ms ("
      << signed_ms(after.critical_path_ns - before.critical_path_ns)
      << " ms, "
      << pct_change(before.critical_path_ns, after.critical_path_ns)
      << ")\n";

  // Class structure: the Tables IV/V before/after story. Rows pair up by
  // (target, dir); a structure change is the headline signal (a NUMA hop
  // got re-classed), an average drift alone is secondary.
  out << "\n## Class structure\n\n";
  if (before.classes.empty() && after.classes.empty()) {
    out << "- no class tables on either side (trace-only reports)\n";
  } else if (before.classes.empty() || after.classes.empty()) {
    out << "- class table present only "
        << (before.classes.empty() ? "after" : "before")
        << " — runs are not directly comparable\n";
  } else {
    int changed = 0;
    for (const ReportSummary::ClassRow& b : before.classes) {
      const ReportSummary::ClassRow* a = nullptr;
      for (const ReportSummary::ClassRow& row : after.classes) {
        if (row.target == b.target && row.dir == b.dir) {
          a = &row;
          break;
        }
      }
      if (a == nullptr) {
        out << "- target " << b.target << ' ' << b.dir
            << ": dropped (was " << b.classes << ")\n";
        ++changed;
        continue;
      }
      if (a->classes != b.classes) {
        out << "- target " << b.target << ' ' << b.dir << ": " << b.classes
            << " -> " << a->classes << " (avg " << b.avgs << " -> "
            << a->avgs << " Gbps)\n";
        ++changed;
      } else if (a->avgs != b.avgs) {
        out << "- target " << b.target << ' ' << b.dir
            << ": structure unchanged " << b.classes << ", avg " << b.avgs
            << " -> " << a->avgs << " Gbps\n";
        ++changed;
      }
    }
    for (const ReportSummary::ClassRow& a : after.classes) {
      bool known = false;
      for (const ReportSummary::ClassRow& b : before.classes) {
        if (b.target == a.target && b.dir == a.dir) {
          known = true;
          break;
        }
      }
      if (!known) {
        out << "- target " << a.target << ' ' << a.dir << ": added ("
            << a.classes << ")\n";
        ++changed;
      }
    }
    if (changed == 0) {
      out << "- unchanged across " << before.classes.size()
          << " (target, dir) rows\n";
    }
  }

  out << "\n## Critical path\n\n";
  out << "- steps: " << before.critical_path.size() << " -> "
      << after.critical_path.size() << "\n";
  const std::size_t rows =
      std::max(before.critical_path.size(), after.critical_path.size());
  bool path_same = before.critical_path.size() == after.critical_path.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const bool have_b = i < before.critical_path.size();
    const bool have_a = i < after.critical_path.size();
    if (have_b && have_a) {
      const ReportSummary::PathStep& b = before.critical_path[i];
      const ReportSummary::PathStep& a = after.critical_path[i];
      if (b.name == a.name && b.outcome == a.outcome &&
          b.self_ns == a.self_ns) {
        continue;  // identical step: elide, keep the diff about deltas
      }
      path_same = false;
      out << "- step " << i + 1 << ": " << path_step_text(b) << " -> "
          << path_step_text(a) << "\n";
    } else if (have_b) {
      out << "- step " << i + 1 << ": " << path_step_text(
          before.critical_path[i]) << " -> (gone)\n";
    } else {
      out << "- step " << i + 1 << ": (new) -> "
          << path_step_text(after.critical_path[i]) << "\n";
    }
  }
  if (path_same && !before.critical_path.empty()) {
    out << "- every step matches by name, outcome and self time\n";
  }

  out << "\n## Span kinds\n\n";
  int span_changes = 0;
  for (const ReportSummary::SpanRow& b : before.span_kinds) {
    const ReportSummary::SpanRow* a = nullptr;
    for (const ReportSummary::SpanRow& row : after.span_kinds) {
      if (row.name == b.name) {
        a = &row;
        break;
      }
    }
    if (a == nullptr) {
      out << "- " << b.name << ": gone (was " << b.count << " spans, "
          << ms(b.total_ns) << " ms)\n";
      ++span_changes;
    } else if (a->count != b.count || a->total_ns != b.total_ns) {
      out << "- " << b.name << ": count " << b.count << " -> " << a->count
          << ", total " << ms(b.total_ns) << " -> " << ms(a->total_ns)
          << " ms (" << signed_ms(a->total_ns - b.total_ns) << " ms)\n";
      ++span_changes;
    }
  }
  for (const ReportSummary::SpanRow& a : after.span_kinds) {
    bool known = false;
    for (const ReportSummary::SpanRow& b : before.span_kinds) {
      if (b.name == a.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      out << "- " << a.name << ": new (" << a.count << " spans, "
          << ms(a.total_ns) << " ms)\n";
      ++span_changes;
    }
  }
  if (span_changes == 0) {
    out << "- unchanged across " << before.span_kinds.size()
        << " span kinds\n";
  }

  out << "\n## Faults & retries\n\n";
  out << "- transitions: " << before.fault_transitions << " -> "
      << after.fault_transitions << ", retries: " << before.retries
      << " -> " << after.retries << ", aborts: " << before.aborts << " -> "
      << after.aborts << ", caused: " << before.caused << " -> "
      << after.caused << "\n";

  out << "\n## Scheduler latency\n\n";
  if (before.sched_latency.empty() && after.sched_latency.empty()) {
    out << "- no scheduler-latency rows on either side\n";
  } else {
    int sched_changes = 0;
    for (const ReportSummary::SchedRow& b : before.sched_latency) {
      const ReportSummary::SchedRow* a = nullptr;
      for (const ReportSummary::SchedRow& row : after.sched_latency) {
        if (row.name == b.name) {
          a = &row;
          break;
        }
      }
      if (a == nullptr) {
        out << "- " << b.name << ": gone (was " << b.count << " samples)\n";
        ++sched_changes;
      } else if (a->count != b.count || a->p50_ms != b.p50_ms ||
                 a->p99_ms != b.p99_ms || a->p999_ms != b.p999_ms) {
        out << "- " << b.name << ": count " << b.count << " -> " << a->count
            << ", p50 " << fixed(b.p50_ms, 3) << " -> " << fixed(a->p50_ms, 3)
            << " ms, p99 " << fixed(b.p99_ms, 3) << " -> "
            << fixed(a->p99_ms, 3) << " ms, p99.9 " << fixed(b.p999_ms, 3)
            << " -> " << fixed(a->p999_ms, 3) << " ms\n";
        ++sched_changes;
      }
    }
    for (const ReportSummary::SchedRow& a : after.sched_latency) {
      bool known = false;
      for (const ReportSummary::SchedRow& b : before.sched_latency) {
        if (b.name == a.name) {
          known = true;
          break;
        }
      }
      if (!known) {
        out << "- " << a.name << ": new (" << a.count << " samples, p99.9 "
            << fixed(a.p999_ms, 3) << " ms)\n";
        ++sched_changes;
      }
    }
    if (sched_changes == 0) {
      out << "- unchanged across "
          << before.sched_latency.size() << " metrics\n";
    }
  }
  return out.str();
}

}  // namespace numaio::model
