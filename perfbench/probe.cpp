#include "probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <istream>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace obs = numaio::obs;
namespace fleet = numaio::fleet;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void StampSink::write(const obs::Event& event) {
  const std::int64_t t_in = now_();
  ++records_;
  if (event.kind == 'E') {
    const auto it = open_.find(event.span);
    if (it != open_.end()) {
      span_ns_ += (t_in - it->second.start_ns) - (sink_ns_ - it->second.sink_ns);
      ++spans_;
      open_.erase(it);
    }
  }
  if (inner_ != nullptr) {
    const std::int64_t i0 = now_();
    inner_->write(event);
    inner_ns_ += now_() - i0;
  }
  const bool opens = event.kind == 'B' && event.name == "fleet.admit_batch";
  const std::int64_t t_out = now_();
  sink_ns_ += t_out - t_in;
  if (opens && !open_.emplace(event.id, Open{t_out, sink_ns_}).second) {
    ++unpaired_;  // the same span opened twice: keep the first begin
  }
}

void StampSink::finish() {
  unpaired_ += static_cast<long long>(open_.size());
  open_.clear();
}

StampSink::Totals StampSink::totals() const {
  Totals t;
  t.span_s = static_cast<double>(span_ns_) / 1e9;
  t.spans = spans_;
  t.unpaired = unpaired_;
  t.sink_s = static_cast<double>(sink_ns_) / 1e9;
  t.inner_s = static_cast<double>(inner_ns_) / 1e9;
  t.records = records_;
  return t;
}

Attribution attribute(double run_s, double admission_s, double solver_s,
                      double sink_s) {
  Attribution a;
  a.run_s = run_s;
  a.admission_s = admission_s;
  a.solver_s = solver_s;
  a.sink_s = sink_s;
  a.core_s = run_s - admission_s - solver_s - sink_s;
  a.consistent = a.core_s >= 0.0;
  return a;
}

Tail supported_tail(const obs::MetricsRegistry::Histogram& hist) {
  // Rungs in basis points, so "samples beyond" is exact integer math.
  constexpr std::array<std::uint64_t, 5> kRungs = {9999, 9990, 9900, 9000,
                                                   5000};
  const std::uint64_t n = hist.count;
  for (const std::uint64_t bp : kRungs) {
    const std::uint64_t at_or_below = (n * bp + 9999) / 10000;
    if (n - at_or_below >= 10) {
      const double q = static_cast<double>(bp) / 10000.0;
      return Tail{static_cast<double>(bp) / 100.0, hist.quantile(q)};
    }
  }
  return Tail{};
}

Fields report_fields(const fleet::FleetReport& r) {
  auto d = [](long long v) { return static_cast<double>(v); };
  return Fields{{"submitted", d(r.submitted)},
                {"admitted", d(r.admitted)},
                {"rejected_quota", d(r.rejected_quota)},
                {"shed", d(r.shed)},
                {"completed", d(r.completed)},
                {"failed", d(r.failed)},
                {"retries", d(r.retries)},
                {"dispatches", d(r.dispatches)},
                {"breaker_trips", static_cast<double>(r.breaker_trips)},
                {"accepted_p50", r.accepted_p50},
                {"accepted_p99", r.accepted_p99},
                {"accepted_p999", r.accepted_p999},
                {"makespan", r.makespan}};
}

std::vector<std::string> mismatched_fields(const Fields& got,
                                           const Fields& want) {
  auto lookup = [](const Fields& fields, const std::string& name)
      -> const double* {
    for (const auto& [k, v] : fields) {
      if (k == name) return &v;
    }
    return nullptr;
  };
  std::vector<std::string> out;
  for (const auto& [name, value] : want) {
    const double* g = lookup(got, name);
    if (g == nullptr || *g != value) out.push_back(name);
  }
  for (const auto& [name, value] : got) {
    if (lookup(want, name) == nullptr) out.push_back(name);
  }
  return out;
}

std::string format_reference(std::string_view workload, std::uint64_t seed,
                             const Fields& fields) {
  std::ostringstream line;
  line << workload << ' ' << seed;
  for (const auto& [name, value] : fields) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line << ' ' << name << '=' << buf;
  }
  return line.str();
}

std::optional<Fields> find_reference(std::istream& in,
                                     std::string_view workload,
                                     std::uint64_t seed) {
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string name;
    std::uint64_t line_seed = 0;
    if (!(words >> name >> line_seed)) {
      throw std::invalid_argument("reference line " + std::to_string(line_no) +
                                  ": expected '<workload> <seed> ...'");
    }
    if (name != workload || line_seed != seed) continue;
    Fields fields;
    std::string pair;
    while (words >> pair) {
      const std::size_t eq = pair.find('=');
      std::size_t used = 0;
      double value = 0.0;
      try {
        if (eq == std::string::npos) throw std::invalid_argument(pair);
        value = std::stod(pair.substr(eq + 1), &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (eq == std::string::npos || eq == 0 || used == 0 ||
          used != pair.size() - eq - 1) {
        throw std::invalid_argument("reference line " +
                                    std::to_string(line_no) +
                                    ": bad field '" + pair + "'");
      }
      fields.emplace_back(pair.substr(0, eq), value);
    }
    return fields;
  }
  return std::nullopt;
}

std::string conservation_error(const fleet::FleetReport& r) {
  auto check = [](const std::string& who, long long submitted,
                  long long admitted, long long rejected, long long shed,
                  long long completed, long long failed) -> std::string {
    if (submitted != rejected + shed + completed + failed) {
      return who + ": submitted " + std::to_string(submitted) +
             " != rejected_quota + shed + completed + failed " +
             std::to_string(rejected + shed + completed + failed);
    }
    if (admitted != completed + failed + shed) {
      return who + ": admitted " + std::to_string(admitted) +
             " != completed + failed + shed " +
             std::to_string(completed + failed + shed);
    }
    return {};
  };
  fleet::TenantStats sum;
  for (const fleet::TenantStats& t : r.tenants) {
    std::string err = check("tenant " + t.name, t.submitted, t.admitted,
                            t.rejected_quota, t.shed, t.completed, t.failed);
    if (!err.empty()) return err;
    sum.submitted += t.submitted;
    sum.admitted += t.admitted;
    sum.rejected_quota += t.rejected_quota;
    sum.shed += t.shed;
    sum.completed += t.completed;
    sum.failed += t.failed;
  }
  std::string err = check("total", r.submitted, r.admitted, r.rejected_quota,
                          r.shed, r.completed, r.failed);
  if (!err.empty()) return err;
  if (sum.submitted != r.submitted || sum.admitted != r.admitted ||
      sum.rejected_quota != r.rejected_quota || sum.shed != r.shed ||
      sum.completed != r.completed || sum.failed != r.failed) {
    return "total: differs from the sum over tenants";
  }
  return {};
}

double host_probe_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 18);
  const std::int64_t t0 = steady_now_ns();
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> live;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint32_t kLive = 50000;
  for (std::uint32_t id = 0; id < kLive; ++id) {
    heap.push({next() % 1000000, id});
    live[id] = x;
  }
  std::uint64_t sum = 0;
  for (int k = 0; k < 150000; ++k) {
    const auto [at, id] = heap.top();
    heap.pop();
    sum += table[next() & (table.size() - 1)]++;
    const auto it = live.find(id);
    if (it != live.end()) {
      sum += it->second;
      live.erase(it);
    }
    live[id + kLive] = x;
    heap.push({at + x % 1000, id + kLive});
  }
  table[0] += sum;  // keep the loop's result observable
  return static_cast<double>(steady_now_ns() - t0) / 1e9;
}

namespace {

/// Value of a `Key:   <number> ...` line of /proc/self/status, or -1.
double proc_status_value(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      try {
        return std::stod(line.substr(key.size() + 1));
      } catch (const std::exception&) {
        return -1.0;
      }
    }
  }
  return -1.0;
}

}  // namespace

int process_threads() {
  return static_cast<int>(proc_status_value("Threads"));
}

double peak_rss_mb() {
  const double kib = proc_status_value("VmHWM");
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
