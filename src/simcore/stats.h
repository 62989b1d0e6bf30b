// Small descriptive-statistics helpers used by benches, reports and the
// stability analyses (the paper reports averages over 400 GB transfers,
// max-of-100 STREAM repetitions, and relies on rate stability §V-B).
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

namespace numaio::sim {

struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< Population standard deviation.
  std::size_t count = 0;

  /// Coefficient of variation (stddev / mean); 0 for a zero mean.
  double cv() const { return mean != 0.0 ? stddev / mean : 0.0; }
};

/// Summary of a series. An empty span yields a zero Summary.
Summary summarize(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 1]. Requires non-empty input;
/// the input need not be sorted.
double percentile(std::span<const double> values, double p);

/// percentile() of input already sorted ascending, without the copy and
/// sort: sort once, then read every quantile a series needs. Bit-identical
/// to percentile() of the same values.
double percentile_sorted(std::span<const double> sorted, double p);

/// percentile() at each of `ascending_ps` by selection instead of a sort:
/// O(n) per quantile. Reorders `values` (non-empty). Bit-identical to
/// percentile() of the same values.
std::vector<double> select_percentiles(std::span<double> values,
                                       std::initializer_list<double> ascending_ps);

/// Median of a series (0 for an empty span).
double median(std::span<const double> values);

/// Median absolute deviation from the median — a dispersion estimate that
/// survives heavy-tailed outliers (a single stalled repetition moves the
/// stddev arbitrarily far but barely moves the MAD).
double mad(std::span<const double> values);

/// Symmetric trimmed mean: drops the lowest and highest `trim_frac`
/// fraction of the sorted values (at least one value survives). With
/// trim_frac = 0 this is the plain mean.
double trimmed_mean(std::span<const double> values, double trim_frac);

/// Outlier-robust location + dispersion of a repetition series. Under
/// fault injection the max-of-reps and plain-mean estimators the paper
/// uses become meaningless (one IRQ storm poisons them); these do not.
struct RobustSummary {
  double trimmed_mean = 0.0;  ///< 10%-trimmed by default (see robust_summarize).
  double median = 0.0;
  double mad = 0.0;
  /// MAD scaled to the median (relative dispersion); 0 for a zero median.
  double rel_dispersion = 0.0;
  /// Set when rel_dispersion exceeds the caller's threshold: the series is
  /// too noisy for its location estimate to be trusted.
  bool low_confidence = false;
  std::size_t count = 0;
};

/// Robust summary with the given trim fraction and the dispersion level
/// above which the sample is flagged low-confidence.
RobustSummary robust_summarize(std::span<const double> values,
                               double trim_frac = 0.1,
                               double dispersion_threshold = 0.05);

}  // namespace numaio::sim
