// Measurement parts of the repository benchmark (perfbench/README.md):
// the trace sink that times layers from outside the program, the
// attribution of a run's wall time to layers, the tail-percentile rule,
// the output and conservation checks, and process probes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// Host clock in nanoseconds; injectable so tests can drive StampSink.
using NowFn = std::int64_t (*)();
std::int64_t steady_now_ns();

/// Trace sink that stamps `fleet.admit_batch` begin and end records with
/// the host clock and times every write it receives, forwarding each
/// record to an optional inner sink (the workload's own serializer).
///
/// A span's admission time runs from the return of its begin write to the
/// entry of its end write, minus the sink time spent on records emitted
/// inside it, so admission and sink time never count the same interval.
class StampSink final : public numaio::obs::TraceSink {
 public:
  explicit StampSink(numaio::obs::TraceSink* inner = nullptr,
                     NowFn now = steady_now_ns)
      : inner_(inner), now_(now) {}

  void write(const numaio::obs::Event& event) override;

  /// Counts spans still open as unpaired. Call once, after the run.
  void finish();

  struct Totals {
    double span_s = 0.0;      ///< Paired admit_batch wall, sink excluded.
    long long spans = 0;      ///< Paired begin/end records.
    long long unpaired = 0;   ///< Begins never closed or opened twice.
    double sink_s = 0.0;      ///< All time inside write(), inner included.
    double inner_s = 0.0;     ///< Part of sink_s spent in the inner sink.
    long long records = 0;    ///< Records received.
  };
  Totals totals() const;

 private:
  struct Open {
    std::int64_t start_ns = 0;  ///< Return of the begin write.
    std::int64_t sink_ns = 0;   ///< Cumulative sink time at that point.
  };

  numaio::obs::TraceSink* inner_;
  NowFn now_;
  std::unordered_map<numaio::obs::SpanId, Open> open_;
  std::int64_t span_ns_ = 0;
  std::int64_t sink_ns_ = 0;
  std::int64_t inner_ns_ = 0;
  long long spans_ = 0;
  long long unpaired_ = 0;
  long long records_ = 0;
};

/// A traced run's wall time split into layers. `core` is what remains
/// after admission, solver and sink time are taken out; a negative
/// remainder means the layer times overlap or were mis-measured.
struct Attribution {
  double run_s = 0.0;
  double admission_s = 0.0;
  double solver_s = 0.0;
  double sink_s = 0.0;
  double core_s = 0.0;
  bool consistent = false;  ///< core_s >= 0.
};
Attribution attribute(double run_s, double admission_s, double solver_s,
                      double sink_s);

/// The highest of p99.99, p99.9, p99, p90 and p50 that has at least ten
/// samples beyond it. `pct` is 0 (and `value` 0) when no rung qualifies,
/// i.e. with fewer than 20 samples.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};
Tail supported_tail(const numaio::obs::MetricsRegistry::Histogram& hist);

/// Checked simulated outputs of one repetition, in a fixed order.
using Fields = std::vector<std::pair<std::string, double>>;
Fields report_fields(const numaio::fleet::FleetReport& report);

/// Names of the fields of `want` that `got` lacks or holds a different
/// value for (exact comparison), plus fields of `got` absent from `want`.
std::vector<std::string> mismatched_fields(const Fields& got,
                                           const Fields& want);

/// Reference file lines: `<workload> <seed> <field>=<value> ...`, values
/// printed with enough digits to round-trip exactly; `#` starts a comment.
std::string format_reference(std::string_view workload, std::uint64_t seed,
                             const Fields& fields);
/// The fields stored for (workload, seed), or nullopt when the file has
/// none. Throws std::invalid_argument on a malformed line.
std::optional<Fields> find_reference(std::istream& in,
                                     std::string_view workload,
                                     std::uint64_t seed);

/// Empty when the report conserves requests per tenant and in total
/// (submitted = rejected_quota + shed + completed + failed, admitted =
/// completed + failed + shed, totals = sum over tenants); otherwise a
/// description of the first violation.
std::string conservation_error(const numaio::fleet::FleetReport& report);

/// Runs a fixed kernel shaped like the simulator's hot loop (a binary
/// heap of timed events, a hash map of live entries, random updates of a
/// 2 MiB table) and returns its wall seconds. It shares no code with the
/// library, so its time tracks the host's speed, not the program's: on a
/// shared machine, neighbours slow both alike for minutes at a time.
double host_probe_s();
/// host_probe_s() on the nominal host: speed = kNominalProbeS / probe.
inline constexpr double kNominalProbeS = 0.05;
/// How closely the workloads' speed follows the probe's. Over ten 30 s
/// runs per workload on a shared 4-core VM, the slope of log wall rate on
/// log probe speed was 0.75 (fleet_scale), 0.52 (fleet_fluid) and 0.78
/// (trace_roundtrip); rates are divided by speed^kHostSensitivity.
inline constexpr double kHostSensitivity = 0.7;

/// `Threads:` of /proc/self/status; -1 when unreadable.
int process_threads();
/// `VmHWM:` of /proc/self/status in MiB; -1 when unreadable.
double peak_rss_mb();

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

}  // namespace perfbench
