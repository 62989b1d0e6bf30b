// One benchmark run of one workload (perfbench/README.md):
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --reference <file>
//   perfbench_driver --workload <name> --seed <n> --print-reference
//
// Repeats the workload's timed calls closed-loop for --seconds, checks
// every repetition's simulated outputs against the stored reference and
// for request conservation, and prints one JSON object as the last line
// of standard output: the end-to-end metrics with --trace 0, the
// per-layer metrics of a separate traced run with --trace 1. Exit code 0
// when every repetition passed its checks, 1 when one failed, 2 on a
// usage or set-up error (no result printed then).
#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "obs/analysis.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/stream.h"
#include "probe.h"
#include "workloads.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

namespace obs = numaio::obs;
namespace fleet = numaio::fleet;
using perfbench::Fields;
using perfbench::median;
using perfbench::Workload;

constexpr std::uint64_t kDefaultSeed = 11;
/// Set-ups before each repetition; setup_s reports the median of all.
constexpr int kSetupsPerRep = 10;

double now_s() {
  return static_cast<double>(perfbench::steady_now_ns()) / 1e9;
}

struct Args {
  Workload workload = Workload::kFleetScale;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_reference = false;
  std::string reference;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload "
               "fleet_scale|fleet_fluid|trace_roundtrip [--seed N] "
               "[--seconds S] [--trace 0|1] [--reference FILE] "
               "[--print-reference]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-reference") {
      args.print_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        const auto w = perfbench::parse_workload(value);
        if (!w) usage("unknown workload '" + value + "'");
        args.workload = *w;
        have_workload = true;
        used = value.size();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        used = value.size();
      } else if (flag == "--reference") {
        args.reference = value;
        used = value.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (used != value.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!args.print_reference && args.reference.empty()) {
    usage("--reference is required");
  }
  return args;
}

/// How much observability a repetition attaches.
enum class Mode {
  kPlain,      ///< No observer at all.
  kWorkload,   ///< What the workload itself attaches (the timed config).
  kTraced,     ///< kWorkload plus the benchmark's StampSink and metrics.
};

struct Rep {
  double wall_s = 0.0;     ///< All timed calls.
  double run_s = 0.0;      ///< FleetSim::run (the emit phase when traced).
  double analyze_s = 0.0;
  double fold_s = 0.0;
  fleet::FleetReport report;
  Fields fields;           ///< Checked outputs.
  std::uint64_t records = 0;  ///< Records the workload serialized.
  std::uint64_t bytes = 0;
  std::string error;       ///< First failed check; empty when passed.
  std::map<std::string, double> layers;  ///< kTraced only.
};

std::map<std::string, double> layer_metrics(const Rep& rep,
                                            const obs::MetricsRegistry& m,
                                            const perfbench::StampSink& sink,
                                            std::string* error) {
  static const obs::MetricsRegistry::Histogram kEmpty;
  auto hist = [&](const char* name) {
    const auto* h = m.find_histogram(name);
    return h != nullptr ? h : &kEmpty;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const perfbench::StampSink::Totals stamps = sink.totals();
  const auto* solve_us = hist("solver.solve_us");
  const perfbench::Attribution a = perfbench::attribute(
      rep.run_s, stamps.span_s, solve_us->sum / 1e6, stamps.sink_s);
  if (!a.consistent) {
    *error = "attribution inconsistent: core remainder " +
             std::to_string(a.core_s) + " s < 0";
  } else if (stamps.unpaired != 0) {
    *error = std::to_string(stamps.unpaired) + " unpaired admission spans";
  }
  const double epochs = m.value("fleet.batch_epochs");
  const double dispatches = m.value("fleet.dispatches");
  const double hits = m.value("solver.cache_hits");
  const double misses = m.value("solver.cache_misses");
  const double spread = m.value("placement.class_spread");
  const double fallback = m.value("placement.class_fallback");
  const auto* rounds = hist("solver.rounds_per_solve");
  const perfbench::Tail tail = perfbench::supported_tail(*solve_us);
  return {
      {"admission.s", a.admission_s},
      {"admission.us_per_epoch", ratio(a.admission_s * 1e6, epochs)},
      {"admission.epochs", epochs},
      {"admission.arrivals", hist("fleet.batch_arrivals")->sum},
      {"admission.unpaired", static_cast<double>(stamps.unpaired)},
      {"solver.s", a.solver_s},
      {"solver.share", ratio(a.solver_s, a.run_s)},
      {"solver.solves", m.value("solver.solves")},
      {"solver.us_per_solve.p50", solve_us->quantile(0.5)},
      {"solver.us_per_solve.tail", tail.value},
      {"solver.us_per_solve.tail_pct", tail.pct},
      {"solver.us_per_solve.samples", static_cast<double>(solve_us->count)},
      {"solver.cache_hit_ratio", ratio(hits, hits + misses)},
      {"solver.rounds_per_solve",
       ratio(rounds->sum, static_cast<double>(rounds->count))},
      {"core.s", a.core_s},
      {"core.ns_per_dispatch", ratio(a.core_s * 1e9, dispatches)},
      {"engine.lane_events", m.value("engine.lane_events")},
      {"fleet.dispatches", dispatches},
      {"placement.spread_ratio", ratio(spread, spread + fallback)},
      {"fleet.useful_ratio",
       ratio(static_cast<double>(rep.report.completed), dispatches)},
      {"obs.sink_s", stamps.sink_s},
      {"obs.serialize_s", stamps.inner_s},
      {"trace.wall_s", rep.wall_s},
      {"trace.records", static_cast<double>(stamps.records)},
  };
}

class Runner {
 public:
  Runner(Workload workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {}

  /// Builds the scenario and the FleetSim; returns the wall time taken.
  double setup() {
    const double t0 = now_s();
    fleet::StormScenario storm = perfbench::make_scenario(workload_, seed_);
    const std::string serial = perfbench::serial_violation(storm.config);
    if (!serial.empty()) {
      throw std::logic_error("workload config is not serial: " + serial);
    }
    sim_ = std::make_unique<fleet::FleetSim>(storm.config, storm.tenants);
    sim_->set_fault_plan(storm.plan);
    return now_s() - t0;
  }

  bool serializes(Mode mode) const {
    return workload_ == Workload::kTraceRoundtrip && mode != Mode::kPlain;
  }

  Rep run(Mode mode) {
    Rep rep;
    obs::Context ctx;
    std::ostringstream text;
    obs::JsonlSink jsonl(text);
    const bool serialize = serializes(mode);
    perfbench::StampSink stamp(serialize ? &jsonl : nullptr);
    ctx.trace.set_deterministic(true);
    if (mode == Mode::kTraced) {
      ctx.trace.set_sink(&stamp);
    } else if (serialize) {
      ctx.trace.set_sink(&jsonl);
    }
    const bool observe = serialize || mode == Mode::kTraced;
    sim_->set_observer(observe ? &ctx : nullptr);

    const double t0 = now_s();
    rep.report = sim_->run();
    const double t1 = now_s();
    rep.run_s = t1 - t0;
    rep.fields = perfbench::report_fields(rep.report);
    if (serialize) {
      rep.records = ctx.trace.records_emitted();
      std::string captured = std::move(text).str();
      rep.bytes = captured.size();
      obs::JsonlTextSource source(std::move(captured));
      const double t2 = now_s();
      const obs::TraceAnalysis analysis = obs::analyze_stream(source);
      const double t3 = now_s();
      std::ostringstream folded;
      const obs::FoldStats fold = obs::export_folded_stacks(source, folded);
      const double t4 = now_s();
      rep.analyze_s = t3 - t2;
      rep.fold_s = t4 - t3;
      rep.wall_s = t4 - t0;
      rep.fields.emplace_back("records", static_cast<double>(rep.records));
      if (static_cast<std::uint64_t>(analysis.num_records) != rep.records ||
          fold.records != rep.records) {
        rep.error = "record counts differ: emitted " +
                    std::to_string(rep.records) + ", analyzed " +
                    std::to_string(analysis.num_records) + ", folded " +
                    std::to_string(fold.records);
      }
    } else {
      rep.wall_s = rep.run_s;
    }
    sim_->set_observer(nullptr);

    const int threads = perfbench::process_threads();
    if (threads != 1 && rep.error.empty()) {
      rep.error = "process runs " + std::to_string(threads) +
                  " threads after the timed call";
    }
    const std::string conservation =
        perfbench::conservation_error(rep.report);
    if (!conservation.empty() && rep.error.empty()) {
      rep.error = "conservation: " + conservation;
    }
    if (mode == Mode::kTraced) {
      stamp.finish();
      std::string layer_error;
      rep.layers = layer_metrics(rep, ctx.metrics, stamp, &layer_error);
      if (!layer_error.empty() && rep.error.empty()) rep.error = layer_error;
    }
    return rep;
  }

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::unique_ptr<fleet::FleetSim> sim_;
};

/// Checks repetitions against the stored reference (or, for a seed with
/// none stored, against the run's first repetition) and counts them.
class Checker {
 public:
  Checker(std::optional<Fields> reference, std::string workload,
          std::uint64_t seed)
      : reference_(std::move(reference)),
        workload_(std::move(workload)),
        seed_(seed) {
    if (!reference_) {
      std::cerr << "perfbench: no stored reference for " << workload_
                << " seed " << seed_
                << "; checking repetitions against the first one\n";
    }
  }

  void check(Rep& rep) {
    ++attempted_;
    if (!reference_) reference_ = rep.fields;
    if (rep.error.empty()) {
      Fields want = *reference_;
      const bool has_records =
          std::any_of(rep.fields.begin(), rep.fields.end(),
                      [](const auto& f) { return f.first == "records"; });
      if (!has_records) {
        std::erase_if(want, [](const auto& f) { return f.first == "records"; });
      }
      const auto bad = perfbench::mismatched_fields(rep.fields, want);
      if (!bad.empty()) {
        rep.error = "outputs differ from the reference in";
        for (const auto& name : bad) rep.error += " " + name;
      }
    }
    if (!rep.error.empty()) {
      ++failed_;
      std::cerr << "perfbench: " << workload_ << " seed " << seed_
                << " repetition " << attempted_ << " failed: " << rep.error
                << "\n";
    }
  }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  std::optional<Fields> reference_;
  std::string workload_;
  std::uint64_t seed_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* layer_unit(const std::string& name) {
  static const std::map<std::string, const char*> kUnits = {
      {"admission.s", "s"}, {"admission.us_per_epoch", "us"},
      {"admission.epochs", "count"}, {"admission.arrivals", "count"},
      {"admission.unpaired", "count"}, {"solver.s", "s"},
      {"solver.share", "ratio"}, {"solver.solves", "count"},
      {"solver.us_per_solve.p50", "us"}, {"solver.us_per_solve.tail", "us"},
      {"solver.us_per_solve.tail_pct", "%"},
      {"solver.us_per_solve.samples", "count"},
      {"solver.cache_hit_ratio", "ratio"},
      {"solver.rounds_per_solve", "count"}, {"core.s", "s"},
      {"core.ns_per_dispatch", "ns"}, {"engine.lane_events", "count"},
      {"fleet.dispatches", "count"}, {"placement.spread_ratio", "ratio"},
      {"fleet.useful_ratio", "ratio"}, {"obs.emit_s", "s"},
      {"obs.analyze_s", "s"}, {"obs.fold_s", "s"}, {"obs.records", "count"},
      {"obs.bytes_per_record", "B"}, {"obs.emit_overhead", "ratio"},
      {"obs.sink_s", "s"}, {"obs.serialize_s", "s"},
      {"trace.wall_s", "s"}, {"trace.overhead", "ratio"},
      {"trace.records", "count"}, {"host.speed", "ratio"}};
  const auto it = kUnits.find(name);
  if (it == kUnits.end()) throw std::logic_error("no unit for " + name);
  return it->second;
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  for (const Rep& rep : reps) out.push_back(f(rep));
  return out;
}

int run_benchmark(const Args& args) {
  const std::string name = perfbench::workload_name(args.workload);
  std::optional<Fields> reference;
  {
    std::ifstream in(args.reference);
    if (!in) throw std::runtime_error("cannot read " + args.reference);
    reference = perfbench::find_reference(in, name, args.seed);
  }
  if (perfbench::process_threads() != 1) {
    throw std::runtime_error("process is not single-threaded at start");
  }

  Runner runner(args.workload, args.seed);
  std::vector<double> setups;
  // Set-up repeats before every repetition, so its median samples the
  // same host conditions as the timed calls do.
  auto set_up = [&] {
    for (int i = 0; i < kSetupsPerRep; ++i) setups.push_back(runner.setup());
  };
  set_up();
  Checker checker(std::move(reference), name, args.seed);

  // One untimed repetition first: it pays the page faults and allocator
  // growth that later repetitions do not.
  Rep warm_up = runner.run(Mode::kWorkload);
  checker.check(warm_up);
  // The peak of one set-up and one repetition: freed memory stays in the
  // process (keep_freed_memory), so over many repetitions the heap's
  // high-water mark creeps up with fragmentation, by more on a faster
  // host that fits more repetitions into the run.
  const double peak_rss_mb = perfbench::peak_rss_mb();

  // Host speed relative to nominal, from probes between repetitions;
  // the first probe call also faults in the probe's table.
  perfbench::host_probe_s();
  std::vector<double> probes{perfbench::host_probe_s()};
  auto host_speed = [&probes] {
    double sum = 0.0;
    for (const double p : probes) sum += p;
    return perfbench::kNominalProbeS * static_cast<double>(probes.size()) /
           sum;
  };

  std::vector<Metric> metrics;
  const double start = now_s();
  auto more = [&] { return now_s() - start < args.seconds; };
  if (!args.trace) {
    // Total over total: host speed drifts in phases of seconds, and the
    // ratio of sums moves smoothly with the share of time in each phase.
    // The rate is then rescaled to the nominal host speed, so a run on a
    // host slowed by its neighbours reads like one on a quiet host.
    double completed = 0.0;
    double wall_s = 0.0;
    do {
      set_up();
      Rep rep = runner.run(Mode::kWorkload);
      checker.check(rep);
      completed += static_cast<double>(rep.report.completed);
      wall_s += rep.wall_s;
      probes.push_back(perfbench::host_probe_s());
    } while (more());
    const double speed = host_speed();
    std::cerr << "perfbench: " << name << " raw " << completed / wall_s
              << " ops per wall second, setup " << median(setups)
              << " s, host speed " << speed << " x nominal\n";
    metrics = {{"ops_per_s",
                completed / wall_s /
                    std::pow(speed, perfbench::kHostSensitivity),
                "1/s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mb", peak_rss_mb, "MB"}};
  } else {
    // Untraced and traced repetitions alternate, so both see the same
    // host conditions; trace_roundtrip adds a repetition with no observer
    // at all as the base of obs.emit_overhead.
    const bool serializes = runner.serializes(Mode::kWorkload);
    std::vector<Rep> plain, untraced, traced;
    do {
      untraced.push_back(runner.run(Mode::kWorkload));
      if (serializes) plain.push_back(runner.run(Mode::kPlain));
      traced.push_back(runner.run(Mode::kTraced));
      probes.push_back(perfbench::host_probe_s());
    } while (more());
    for (auto* reps : {&untraced, &plain, &traced}) {
      for (Rep& rep : *reps) checker.check(rep);
    }
    std::map<std::string, double> layers;
    for (const auto& [key, value] : traced.front().layers) {
      layers[key] = median(collect(
          traced, [&key = key](const Rep& r) { return r.layers.at(key); }));
    }
    const double untraced_wall =
        median(collect(untraced, [](const Rep& r) { return r.wall_s; }));
    layers["trace.overhead"] = layers["trace.wall_s"] / untraced_wall;
    layers["host.speed"] = host_speed();
    layers["obs.emit_s"] = layers["obs.analyze_s"] = layers["obs.fold_s"] = 0;
    layers["obs.records"] = layers["obs.bytes_per_record"] = 0;
    layers["obs.emit_overhead"] = 0;
    if (serializes) {
      auto med = [&](auto f) { return median(collect(untraced, f)); };
      layers["obs.emit_s"] = med([](const Rep& r) { return r.run_s; });
      layers["obs.analyze_s"] = med([](const Rep& r) { return r.analyze_s; });
      layers["obs.fold_s"] = med([](const Rep& r) { return r.fold_s; });
      const Rep& first = untraced.front();
      layers["obs.records"] = static_cast<double>(first.records);
      layers["obs.bytes_per_record"] =
          first.records > 0 ? static_cast<double>(first.bytes) /
                                  static_cast<double>(first.records)
                            : 0.0;
      layers["obs.emit_overhead"] =
          layers["obs.emit_s"] /
          median(collect(plain, [](const Rep& r) { return r.run_s; }));
    }
    for (const auto& [key, value] : layers) {
      metrics.push_back({key, value, layer_unit(key)});
    }
  }
  const bool correct = checker.failed() == 0;
  print_result(correct, checker.attempted(), checker.failed(), metrics);
  return correct ? 0 : 1;
}

int print_reference(const Args& args) {
  Runner runner(args.workload, args.seed);
  runner.setup();
  const Rep rep = runner.run(Mode::kWorkload);
  if (!rep.error.empty()) throw std::runtime_error(rep.error);
  std::cout << perfbench::format_reference(
                   perfbench::workload_name(args.workload), args.seed,
                   rep.fields)
            << "\n";
  return 0;
}

/// Keeps the memory the program frees inside the process, where the next
/// repetition reuses it. By default glibc serves blocks over 32 MiB (the
/// trace_roundtrip capture is about 59 MB) with mmap and returns freed
/// heap tops to the kernel, so every repetition faults its buffers in
/// afresh: about 27,000 page faults per second on trace_roundtrip. On a
/// VM whose balloon device takes freed pages back, each of those can also
/// fault on the host, at a cost set by the host's memory pressure rather
/// than by the program. With this, page faults drop sevenfold and nearly
/// all of those left happen before timing starts.
void keep_freed_memory() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
}

}  // namespace

int main(int argc, char** argv) {
  keep_freed_memory();
  const Args args = parse_args(argc, argv);
  try {
    return args.print_reference ? print_reference(args) : run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
