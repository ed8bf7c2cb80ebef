#include "query/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"

namespace scuba {
namespace {

// The histogram's bucket ratio bounds its relative error.
constexpr double kRelTolerance = 0.08;

void ExpectNear(double actual, double expected) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * kRelTolerance + 1e-6)
      << "actual " << actual << " expected " << expected;
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.ValueAtPercentile(50), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_EQ(h.count(), 1u);
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    ExpectNear(h.ValueAtPercentile(p), 42.0);
  }
}

TEST(HistogramTest, UniformValuesHitExactQuantiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  ExpectNear(h.ValueAtPercentile(50), 500.0);
  ExpectNear(h.ValueAtPercentile(90), 900.0);
  ExpectNear(h.ValueAtPercentile(99), 990.0);
  ExpectNear(h.ValueAtPercentile(100), 1000.0);
}

TEST(HistogramTest, SkewedDistribution) {
  // 99% fast (about 2ms), 1% slow (about 800ms): p50 near 2, p99 near the
  // boundary, p99.9-ish far out.
  Histogram h;
  Random random(5);
  for (int i = 0; i < 100000; ++i) {
    h.Add(random.Bernoulli(0.01) ? 800.0 : 2.0);
  }
  ExpectNear(h.ValueAtPercentile(50), 2.0);
  ExpectNear(h.ValueAtPercentile(98), 2.0);
  ExpectNear(h.ValueAtPercentile(99.5), 800.0);
}

TEST(HistogramTest, OutOfRangeValuesClampToEdges) {
  Histogram h;
  h.Add(-5.0);
  h.Add(0.0);
  h.Add(1e300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LT(h.ValueAtPercentile(10), 0.01);
  EXPECT_GT(h.ValueAtPercentile(99), 1e8);
}

TEST(HistogramTest, MergeEqualsUnion) {
  Histogram a, b, whole;
  Random random(7);
  for (int i = 0; i < 5000; ++i) {
    double v = std::exp(random.NextDouble() * 8.0);
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    whole.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.ValueAtPercentile(p), whole.ValueAtPercentile(p))
        << p;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a;
  a.Add(3.0);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  ExpectNear(empty.ValueAtPercentile(50), 3.0);
}

TEST(HistogramTest, MergeIsCommutativeAndAssociative) {
  auto fill = [](uint64_t seed, int n) {
    Histogram h;
    Random random(seed);
    for (int i = 0; i < n; ++i) h.Add(1.0 + random.Uniform(10000));
    return h;
  };
  Histogram a = fill(1, 300), b = fill(2, 500), c = fill(3, 700);

  Histogram ab = a;
  ab.Merge(b);
  Histogram ba = b;
  ba.Merge(a);
  EXPECT_DOUBLE_EQ(ab.ValueAtPercentile(75), ba.ValueAtPercentile(75));

  Histogram ab_c = ab;
  ab_c.Merge(c);
  Histogram bc = b;
  bc.Merge(c);
  Histogram a_bc = a;
  a_bc.Merge(bc);
  EXPECT_DOUBLE_EQ(ab_c.ValueAtPercentile(75), a_bc.ValueAtPercentile(75));
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }
double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

// The first positive bit pattern in (kMinValue, kMaxValue) whose
// LogBucketFor is at least `bucket`.
uint64_t BoundaryBits(int bucket) {
  uint64_t lo = Bits(Histogram::kMinValue);  // LogBucketFor(lo) == 0
  uint64_t hi = Bits(Histogram::kMaxValue);  // the top bucket
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (Histogram::LogBucketFor(FromBits(mid)) >= bucket) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

TEST(HistogramTest, BucketTableEqualsLogFormulaAtEveryBoundary) {
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    const uint64_t boundary = BoundaryBits(b);
    EXPECT_EQ(Histogram::LogBucketFor(FromBits(boundary)), b);
    for (int d = -2; d <= 2; ++d) {
      const double v = FromBits(boundary + static_cast<uint64_t>(d));
      ASSERT_EQ(Histogram::BucketFor(v), Histogram::LogBucketFor(v))
          << "bucket " << b << " ulps " << d << " value " << v;
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> edges = {
      nan,
      -nan,
      std::numeric_limits<double>::signaling_NaN(),
      0.0,
      -0.0,
      inf,
      -inf,
      denorm,
      -denorm,
      std::numeric_limits<double>::min() - denorm,  // largest subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      -1.0,
      1.0};
  for (double edge : {Histogram::kMinValue, Histogram::kMaxValue}) {
    for (int d = -2; d <= 2; ++d) {
      edges.push_back(FromBits(Bits(edge) + static_cast<uint64_t>(d)));
    }
  }
  for (double v : edges) {
    EXPECT_EQ(Histogram::BucketFor(v), Histogram::LogBucketFor(v)) << v;
  }
  EXPECT_EQ(Histogram::BucketFor(nan), 0);
  EXPECT_EQ(Histogram::BucketFor(-inf), 0);
  EXPECT_EQ(Histogram::BucketFor(Histogram::kMinValue), 0);
  EXPECT_EQ(Histogram::BucketFor(Histogram::kMaxValue),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(inf), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketTableEqualsLogFormulaOnSeededDoubles) {
  // Half arbitrary bit patterns (NaNs, infinities, negatives, subnormals),
  // half log-uniform inside (kMinValue, kMaxValue).
  Random random(20);
  const double log_min = std::log(Histogram::kMinValue);
  const double log_span = std::log(Histogram::kMaxValue) - log_min;
  uint64_t mismatches = 0;
  double first_mismatch = 0.0;
  for (int i = 0; i < 10'000'000; ++i) {
    const double v = i % 2 == 0
                         ? FromBits(random.Next())
                         : std::exp(log_min + random.NextDouble() * log_span);
    if (Histogram::BucketFor(v) != Histogram::LogBucketFor(v)) {
      if (mismatches++ == 0) first_mismatch = v;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first at " << first_mismatch;
}

// The dense 512-bucket histogram the window replaced, kept as the
// differential reference: every bucket allocated, walked from bucket 0.
struct DenseHistogram {
  std::array<uint64_t, Histogram::kNumBuckets> counts{};
  uint64_t count = 0;

  void Add(double v) {
    ++counts[static_cast<size_t>(Histogram::LogBucketFor(v))];
    ++count;
  }
  void Merge(const DenseHistogram& other) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
    count += other.count;
  }
  double ValueAtPercentile(double p) const {
    if (count == 0) return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      seen += counts[static_cast<size_t>(i)];
      if (seen >= rank) return Histogram::BucketMidpoint(i);
    }
    return Histogram::BucketMidpoint(Histogram::kNumBuckets - 1);
  }
};

void ExpectSameAsDense(const Histogram& h, const DenseHistogram& dense,
                       const std::string& label) {
  ASSERT_EQ(h.count(), dense.count) << label;
  for (double p : {0.0, 0.1, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9,
                   100.0}) {
    EXPECT_EQ(Bits(h.ValueAtPercentile(p)), Bits(dense.ValueAtPercentile(p)))
        << label << " p" << p;
  }
}

// Samples spread over [center / spread, center * spread]; a center at or
// below kMinValue lands them in bucket 0, at or above kMaxValue in 511.
std::vector<double> Samples(Random* random, double center, double spread,
                            int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(center *
                  std::pow(spread, 2.0 * random->NextDouble() - 1.0));
  }
  return out;
}

TEST(HistogramTest, WindowMatchesDenseReference) {
  Random random(21);
  const double centers[] = {-5.0, 0.0, 1e-4, 1e-3, 2e-3, 0.5, 37.0,
                            1e4, 1e8, 9.9e8, 1e9, 1e12};
  for (int trial = 0; trial < 400; ++trial) {
    // Up to five parts, some empty; their windows come out disjoint,
    // nested or overlapping depending on the draw.
    const int parts = 1 + static_cast<int>(random.Uniform(5));
    std::vector<Histogram> windows(static_cast<size_t>(parts));
    std::vector<DenseHistogram> dense(static_cast<size_t>(parts));
    for (int k = 0; k < parts; ++k) {
      const double center = centers[random.Uniform(std::size(centers))];
      const double spread = 1.0 + random.NextDouble() * (k % 2 ? 2.0 : 1e3);
      const int n = random.Bernoulli(0.2) ? 0
                                          : 1 + static_cast<int>(
                                                    random.Uniform(200));
      for (double v : Samples(&random, center, spread, n)) {
        windows[static_cast<size_t>(k)].Add(v);
        dense[static_cast<size_t>(k)].Add(v);
      }
      ExpectSameAsDense(windows[static_cast<size_t>(k)],
                        dense[static_cast<size_t>(k)],
                        "trial " + std::to_string(trial) + " part " +
                            std::to_string(k));
    }
    Histogram merged;
    DenseHistogram merged_dense;
    for (int k = 0; k < parts; ++k) {
      merged.Merge(windows[static_cast<size_t>(k)]);
      merged_dense.Merge(dense[static_cast<size_t>(k)]);
      ExpectSameAsDense(merged, merged_dense,
                        "trial " + std::to_string(trial) + " merged " +
                            std::to_string(k));
    }
    // More samples into the merged window, then a merge into an empty one.
    for (double v : Samples(&random, centers[random.Uniform(
                                         std::size(centers))],
                            4.0, 50)) {
      merged.Add(v);
      merged_dense.Add(v);
    }
    Histogram copy;
    copy.Merge(merged);
    copy.Merge(Histogram());
    ExpectSameAsDense(copy, merged_dense, "trial " + std::to_string(trial));
    if (HasFailure()) return;
  }
}

TEST(HistogramTest, WindowsAtBothEdgesStaySeparate) {
  Histogram low, high;
  DenseHistogram low_dense, high_dense;
  for (double v : {-1.0, 0.0, 1e-3, 1.01e-3}) {
    low.Add(v);
    low_dense.Add(v);
  }
  for (double v : {9.9e8, 1e9, 1e15, std::numeric_limits<double>::infinity()}) {
    high.Add(v);
    high_dense.Add(v);
  }
  EXPECT_EQ(low.ValueAtPercentile(100), Histogram::BucketMidpoint(0));
  EXPECT_EQ(high.ValueAtPercentile(50),
            Histogram::BucketMidpoint(Histogram::kNumBuckets - 1));
  low.Merge(high);
  low_dense.Merge(high_dense);
  ExpectSameAsDense(low, low_dense, "edges");
  // The union spans every bucket: the window is the whole range, no more.
  EXPECT_EQ(low.HeapBytes(), Histogram::kNumBuckets * sizeof(uint64_t));
}

TEST(HistogramTest, HeapBytesFollowTheWindow) {
  Histogram h;
  EXPECT_EQ(h.HeapBytes(), 0u);
  h.Add(10.0);
  const uint64_t one = h.HeapBytes();
  EXPECT_GT(one, 0u);
  EXPECT_LE(one, 33 * sizeof(uint64_t));  // the sample's bucket +- 16
  for (int i = 0; i < 100; ++i) h.Add(10.0 * (1.0 + i * 1e-3));
  EXPECT_EQ(h.HeapBytes(), one);  // samples inside the window add nothing
  h.Add(1e6);
  EXPECT_GT(h.HeapBytes(), one);
  EXPECT_LT(h.HeapBytes(), Histogram::kNumBuckets * sizeof(uint64_t));
}

// Property: against a sorted reference, the histogram percentile is within
// one bucket ratio for log-uniform data across the full range.
class HistogramAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(HistogramAccuracyTest, WithinRelativeTolerance) {
  double p = GetParam();
  Histogram h;
  std::vector<double> values;
  Random random(11);
  for (int i = 0; i < 50000; ++i) {
    double v = 1e-2 * std::exp(random.NextDouble() * 18.0);  // 1e-2..1e6
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::max<size_t>(rank, 1);
  double expected = values[rank - 1];
  ExpectNear(h.ValueAtPercentile(p), expected);
}

INSTANTIATE_TEST_SUITE_P(Percentiles, HistogramAccuracyTest,
                         ::testing::Values(1.0, 10.0, 25.0, 50.0, 75.0,
                                           90.0, 99.0, 99.9));

}  // namespace
}  // namespace scuba
