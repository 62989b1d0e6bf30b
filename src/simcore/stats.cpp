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

double percentile_sorted(std::span<const double> sorted, double p) {
  assert(!sorted.empty());
  assert(p >= 0.0 && p <= 1.0);
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  const double idx = p * (static_cast<double>(sorted.size()) - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
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
