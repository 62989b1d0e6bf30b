#include "simcore/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace numaio::sim {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(values.size()));
  return s;
}

double percentile(std::span<const double> values, double p) {
  assert(!values.empty());
  assert(p >= 0.0 && p <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

namespace {

/// Where percentile p falls among n sorted values: between ranks lo and
/// hi, `frac` of the way to hi.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double p) {
  assert(n > 0);
  assert(p >= 0.0 && p <= 1.0);
  const double idx = p * (static_cast<double>(n) - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  return {lo, std::min(lo + 1, n - 1), idx - static_cast<double>(lo)};
}

double interpolate(double at_lo, double at_hi, double frac) {
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace

double percentile_sorted(std::span<const double> sorted, double p) {
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  const Rank r = rank_of(sorted.size(), p);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

std::vector<double> select_percentiles(
    std::span<double> values, std::initializer_list<double> ascending_ps) {
  std::vector<double> out;
  out.reserve(ascending_ps.size());
  // values[0, placed) hold the `placed` smallest values, and every value
  // at or after `placed` is no smaller than them.
  std::size_t placed = 0;
  for (const double p : ascending_ps) {
    const Rank r = rank_of(values.size(), p);
    assert(r.lo + 1 >= placed);  // ascending
    if (r.lo >= placed) {
      std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(placed),
                       values.begin() + static_cast<std::ptrdiff_t>(r.lo),
                       values.end());
      placed = r.lo + 1;
    }
    // Rank lo + 1 is the least value after rank lo.
    const double at_hi =
        r.hi == r.lo
            ? values[r.lo]
            : *std::min_element(
                  values.begin() + static_cast<std::ptrdiff_t>(r.hi),
                  values.end());
    out.push_back(interpolate(values[r.lo], at_hi, r.frac));
  }
  return out;
}

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return percentile(values, 0.5);
}

double mad(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double med = median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::abs(v - med));
  return median(deviations);
}

double trimmed_mean(std::span<const double> values, double trim_frac) {
  if (values.empty()) return 0.0;
  assert(trim_frac >= 0.0 && trim_frac < 0.5);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::size_t drop = static_cast<std::size_t>(
      trim_frac * static_cast<double>(sorted.size()));
  // At least one value must survive the two-sided trim.
  while (2 * drop >= sorted.size() && drop > 0) --drop;
  double sum = 0.0;
  for (std::size_t i = drop; i < sorted.size() - drop; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

RobustSummary robust_summarize(std::span<const double> values,
                               double trim_frac,
                               double dispersion_threshold) {
  RobustSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.trimmed_mean = trimmed_mean(values, trim_frac);
  s.median = median(values);
  s.mad = mad(values);
  s.rel_dispersion = s.median != 0.0 ? s.mad / std::abs(s.median) : 0.0;
  s.low_confidence = s.rel_dispersion > dispersion_threshold;
  return s;
}

}  // namespace numaio::sim
