#include "simcore/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "simcore/rng.h"

namespace numaio::sim {
namespace {

TEST(Stats, EmptySummaryIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Stats, SingleValue) {
  const std::vector<double> v{42.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, KnownSeries) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.4);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 9.0);
}

TEST(Stats, PercentileDoesNotMutateInput) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  percentile(v, 0.5);
  EXPECT_EQ(v[0], 3.0);
}

TEST(Stats, PercentilesMatchSinglePercentileBitForBit) {
  // Sort once, read many quantiles: percentile_sorted over one sorted
  // copy must give the very bits percentile() gives on the unsorted
  // input, and those of the copy-sort-interpolate rule written out here.
  const auto reference = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const double idx = p * (static_cast<double>(v.size()) - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  Rng rng(0x9e3779b97f4a7c15ULL);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.below(2000);
    // Every other trial draws from a few distinct values: long runs of
    // duplicates, where lo and hi often land on equal neighbours.
    const bool dups = trial % 2 == 1;
    std::vector<double> values(n);
    for (double& v : values) {
      v = dups ? static_cast<double>(rng.below(7)) * 0.25
               : rng.uniform(0.0, 5.0e6);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 0.5, 0.99, 0.999, 1.0}) {
      const double one = percentile_sorted(sorted, p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(one),
                std::bit_cast<std::uint64_t>(percentile(values, p)))
          << "n=" << n << " p=" << p;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(one),
                std::bit_cast<std::uint64_t>(reference(values, p)))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Stats, SelectedPercentilesMatchPercentileBitForBit) {
  // Selection reads the same two ranks a sort would: every quantile of
  // one pass equals percentile() of the untouched input, bit for bit,
  // including repeated quantiles, runs of duplicates, n = 1 and n = 2.
  const auto check = [](const std::vector<double>& values) {
    std::vector<double> scratch = values;
    const std::vector<double> got = select_percentiles(
        scratch, {0.0, 0.25, 0.5, 0.5, 0.99, 0.999, 1.0});
    const double ps[] = {0.0, 0.25, 0.5, 0.5, 0.99, 0.999, 1.0};
    ASSERT_EQ(got.size(), std::size(ps));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(percentile(values, ps[i])))
          << "n=" << values.size() << " p=" << ps[i];
    }
    std::sort(scratch.begin(), scratch.end());
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(scratch, sorted);  // reordered, nothing lost
  };
  check({7.5});
  check({3.0, -1.0});
  check({2.0, 2.0});
  Rng rng(0x51ab1e5eedULL);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.below(3000);
    const bool dups = trial % 2 == 1;
    std::vector<double> values(n);
    for (double& v : values) {
      v = dups ? static_cast<double>(rng.below(5)) * 0.5
               : rng.uniform(0.0, 5.0e6);
    }
    check(values);
  }
}

}  // namespace
}  // namespace numaio::sim
