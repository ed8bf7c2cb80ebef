#include "query/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace scuba {
namespace {

// log(kMaxValue / kMinValue) precomputed for the bucket transform.
const double kLogSpan = std::log(Histogram::kMaxValue / Histogram::kMinValue);

// Buckets a window grows by on each side of a sample that falls outside
// it, so a group's first samples do not reallocate one by one.
constexpr int kSlack = 16;

// BucketFor's table. A cell is the doubles sharing an exponent and the
// top kCellBits mantissa bits; cells span a ratio below 1 + 2^-kCellBits,
// less than one bucket's ratio (~1.0555), so a cell holds at most one
// bucket boundary. Every step of LogBucketFor is monotone non-decreasing
// in the value, so within a cell the bucket is `base`, or base + 1 from
// the bit pattern `threshold` on. Positive doubles order as their bit
// patterns, so both the cell index and the threshold test work on bits.
constexpr int kCellBits = 6;
constexpr int kCellShift = 52 - kCellBits;
constexpr uint64_t kMinBits = std::bit_cast<uint64_t>(Histogram::kMinValue);
constexpr uint64_t kMaxBits = std::bit_cast<uint64_t>(Histogram::kMaxValue);
constexpr uint64_t kFirstCell = kMinBits >> kCellShift;
constexpr size_t kNumCells = (kMaxBits >> kCellShift) - kFirstCell + 1;

struct BucketTable {
  uint16_t base[kNumCells];
  uint64_t threshold[kNumCells];
};

int LogBucketForBits(uint64_t bits) {
  return Histogram::LogBucketFor(std::bit_cast<double>(bits));
}

// Builds each cell over the bit patterns it covers inside the open range
// (kMinValue, kMaxValue), bisecting for the boundary where it has one.
BucketTable BuildBucketTable() {
  BucketTable table;
  for (size_t c = 0; c < kNumCells; ++c) {
    const uint64_t first = (kFirstCell + c) << kCellShift;
    uint64_t lo = std::max(first, kMinBits + 1);
    uint64_t hi = std::min(first + (uint64_t{1} << kCellShift) - 1,
                           kMaxBits - 1);
    const int base = LogBucketForBits(lo);
    table.base[c] = static_cast<uint16_t>(base);
    table.threshold[c] = UINT64_MAX;
    if (LogBucketForBits(hi) == base) continue;
    // LogBucketFor(lo) == base < LogBucketFor(hi): narrow to the first
    // pattern past base.
    while (hi - lo > 1) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (LogBucketForBits(mid) == base) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    table.threshold[c] = hi;
  }
  return table;
}

}  // namespace

int Histogram::LogBucketFor(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN, <= 0
  if (value >= kMaxValue) return kNumBuckets - 1;
  double fraction = std::log(value / kMinValue) / kLogSpan;
  int bucket = static_cast<int>(fraction * kNumBuckets);
  return std::clamp(bucket, 0, kNumBuckets - 1);
}

int Histogram::BucketFor(double value) {
  if (!(value > kMinValue)) return 0;  // also catches NaN, <= 0
  if (value >= kMaxValue) return kNumBuckets - 1;
  static const BucketTable table = BuildBucketTable();
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  const size_t cell = (bits >> kCellShift) - kFirstCell;
  return table.base[cell] + (bits >= table.threshold[cell] ? 1 : 0);
}

double Histogram::BucketMidpoint(int bucket) {
  // Geometric midpoint of [lo, hi) where the bounds are exponential in
  // the bucket index.
  double lo_frac = static_cast<double>(bucket) / kNumBuckets;
  double hi_frac = static_cast<double>(bucket + 1) / kNumBuckets;
  double lo = kMinValue * std::exp(lo_frac * kLogSpan);
  double hi = kMinValue * std::exp(hi_frac * kLogSpan);
  return std::sqrt(lo * hi);
}

void Histogram::Cover(int lo, int hi) {
  const int size = static_cast<int>(counts_.size());
  if (size > 0 && lo >= lo_ && hi <= lo_ + size) return;
  const int new_lo = size > 0 ? std::min(lo, lo_) : lo;
  const int new_hi = size > 0 ? std::max(hi, lo_ + size) : hi;
  std::vector<uint64_t> grown(static_cast<size_t>(new_hi - new_lo), 0);
  if (size > 0) {
    std::copy(counts_.begin(), counts_.end(), grown.begin() + (lo_ - new_lo));
  }
  counts_ = std::move(grown);
  lo_ = new_lo;
}

void Histogram::Add(double value) {
  const int bucket = BucketFor(value);
  if (bucket < lo_ || bucket >= lo_ + static_cast<int>(counts_.size())) {
    Cover(std::max(0, bucket - kSlack),
          std::min(kNumBuckets, bucket + kSlack + 1));
  }
  ++counts_[static_cast<size_t>(bucket - lo_)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.empty()) return;
  const size_t other_size = other.counts_.size();
  Cover(other.lo_, other.lo_ + static_cast<int>(other_size));
  uint64_t* dst = counts_.data() + (other.lo_ - lo_);
  for (size_t i = 0; i < other_size; ++i) dst[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::ValueAtPercentile(double p) const {
  if (empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample (1-based, nearest-rank method).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::max<uint64_t>(rank, 1);

  // Buckets outside the window are empty, so walking the window finds the
  // same bucket as walking all of them.
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return BucketMidpoint(lo_ + static_cast<int>(i));
  }
  return BucketMidpoint(kNumBuckets - 1);
}

}  // namespace scuba
