#ifndef SCUBA_QUERY_HISTOGRAM_H_
#define SCUBA_QUERY_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace scuba {

/// Mergeable log-bucketed histogram for percentile aggregates (p50/p90/
/// p99 latency is the canonical Scuba dashboard). Like the rest of the
/// query engine's partial state, histograms from different leaves merge
/// exactly (bucket-wise addition), so percentile queries compose across
/// the cluster the same way count/sum/min/max do; only the within-bucket
/// interpolation is approximate (bounded by the bucket ratio, ~5.5%).
///
/// Geometry: 512 buckets spanning [kMinValue, kMaxValue) geometrically
/// (1e-3 .. 1e9; values outside clamp to the edge buckets). Storage is a
/// window: counts only for the buckets between the lowest and highest
/// sample (plus some slack), so a group's partial costs what its samples
/// span, not all 512 buckets. A histogram that never sees a sample owns no
/// memory.
class Histogram {
 public:
  static constexpr int kNumBuckets = 512;
  static constexpr double kMinValue = 1e-3;
  static constexpr double kMaxValue = 1e9;

  Histogram() = default;

  void Add(double value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Value at percentile `p` in [0, 100]: the geometric midpoint of the
  /// bucket containing the p-th sample. Returns 0 for an empty histogram.
  double ValueAtPercentile(double p) const;

  /// Bytes of bucket counts this histogram owns on the heap.
  uint64_t HeapBytes() const { return counts_.capacity() * sizeof(uint64_t); }

  /// Bucket of `value`: 0 for NaN and anything <= kMinValue,
  /// kNumBuckets - 1 for anything >= kMaxValue, else
  /// LogBucketFor(value), read from a table indexed by the double's
  /// exponent and top mantissa bits.
  static int BucketFor(double value);
  /// The defining formula, floor(log(value / kMinValue) / log(kMaxValue /
  /// kMinValue) * kNumBuckets) clamped to the bucket range. It builds
  /// BucketFor's table, and BucketFor must equal it for every double.
  static int LogBucketFor(double value);
  /// The value reported for any sample in `bucket`: the geometric
  /// midpoint of its bounds.
  static double BucketMidpoint(int bucket);

 private:
  /// Grows the window to cover buckets [lo, hi), keeping its counts.
  void Cover(int lo, int hi);

  std::vector<uint64_t> counts_;  // buckets [lo_, lo_ + size); empty until
                                  // the first Add or Merge
  int lo_ = 0;
  uint64_t count_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_QUERY_HISTOGRAM_H_
