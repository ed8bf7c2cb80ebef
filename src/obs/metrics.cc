#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace scuba {
namespace obs {

size_t ThreadShardIndex() {
  // Hash the thread id once; the counter spreads threads created in a loop
  // (worker pools) across shards even when ids are clustered.
  static std::atomic<size_t> next{0};
  thread_local size_t index =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return index;
}

size_t Histogram::BucketIndex(uint64_t v) {
  return v == 0 ? 0 : static_cast<size_t>(std::bit_width(v));
}

uint64_t Histogram::BucketLowerBound(size_t i) {
  if (i == 0) return 0;
  return uint64_t{1} << (i - 1);
}

void Histogram::Record(uint64_t v) {
  Shard& s = shards_[ThreadShardIndex()];
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = s.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  // Counted last, with release: a snapshot that sees this sample counted
  // (acquire) also sees it in min and max, so a shard's first sample never
  // shows as count 1 with the empty min UINT64_MAX above max 0.
  s.count.fetch_add(1, std::memory_order_release);
}

uint64_t Histogram::Snapshot::PercentileUpperBound(double p) const {
  if (count == 0) return 0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Upper bound of bucket i, clamped to the observed max.
      uint64_t upper = i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1;
      return upper > max ? max : upper;
    }
  }
  return max;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  // Continuous rank in [0, count]: the quantile observation's position in
  // the sorted sample. Walk the cumulative bucket counts to the bucket
  // holding it, then interpolate by its position among that bucket's
  // observations across the bucket's value range.
  double target = p * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    uint64_t before = seen;
    seen += buckets[i];
    if (static_cast<double>(seen) < target) continue;
    double value;
    if (i == 0) {
      value = 0.0;  // bucket 0 holds only the value 0
    } else {
      double lower = static_cast<double>(uint64_t{1} << (i - 1));
      double width = lower;  // bucket i spans [2^(i-1), 2^i)
      double frac = (target - static_cast<double>(before)) /
                    static_cast<double>(buckets[i]);
      value = lower + frac * width;
    }
    // The true quantile can never leave the observed value range.
    value = std::max(value, static_cast<double>(min));
    value = std::min(value, static_cast<double>(max));
    return value;
  }
  return static_cast<double>(max);
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = other.min < min ? other.min : min;
    max = other.max > max ? other.max : max;
  }
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot out;
  for (const Shard& s : shards_) {
    Snapshot part;
    part.count = s.count.load(std::memory_order_acquire);
    if (part.count == 0) continue;
    part.sum = s.sum.load(std::memory_order_relaxed);
    part.min = s.min.load(std::memory_order_relaxed);
    part.max = s.max.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kNumBuckets; ++i) {
      part.buckets[i] = s.buckets[i].load(std::memory_order_relaxed);
    }
    out.Merge(part);
  }
  return out;
}

void Histogram::ResetForTest() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(UINT64_MAX, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: subsystems (thread pools, static caches) may record during
  // process teardown.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

namespace {

void AppendEscaped(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ", ";
    first = false;
    os << '"';
    AppendEscaped(os, name);
    os << "\": " << counter->Value();
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ", ";
    first = false;
    os << '"';
    AppendEscaped(os, name);
    os << "\": " << gauge->Value();
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) os << ", ";
    first = false;
    Histogram::Snapshot snap = histogram->TakeSnapshot();
    os << '"';
    AppendEscaped(os, name);
    os << "\": {\"count\": " << snap.count << ", \"sum\": " << snap.sum
       << ", \"min\": " << snap.min << ", \"max\": " << snap.max
       << ", \"mean\": " << snap.Mean()
       << ", \"p50\": " << snap.Percentile(0.50)
       << ", \"p95\": " << snap.Percentile(0.95)
       << ", \"p99\": " << snap.Percentile(0.99)
       << ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << '[' << Histogram::BucketLowerBound(i) << ", " << snap.buckets[i]
         << ']';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

MetricsRegistry::RegistrySnapshot MetricsRegistry::TakeRegistrySnapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->TakeSnapshot());
  }
  return snap;
}

MetricsRegistry::RegistryDelta MetricsRegistry::SnapshotDelta(
    const RegistrySnapshot& before, const RegistrySnapshot& after) {
  RegistryDelta delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const uint64_t prev = it == before.counters.end() ? 0 : it->second;
    if (value == prev) continue;  // no movement, no entry
    CounterDelta d;
    if (value < prev) {
      // Went backward: `before` predates a restart (or a reset). The new
      // process's whole count is this interval's delta.
      d.delta = value;
      d.reset = true;
    } else {
      d.delta = value - prev;
    }
    delta.counters.emplace(name, d);
  }
  for (const auto& [name, value] : after.gauges) {
    auto it = before.gauges.find(name);
    // Levels: an entry on every change, plus one on first sight.
    if (it != before.gauges.end() && it->second == value) continue;
    delta.gauges.emplace(name, value);
  }
  for (const auto& [name, snap] : after.histograms) {
    auto it = before.histograms.find(name);
    const uint64_t count_prev =
        it == before.histograms.end() ? 0 : it->second.count;
    const uint64_t sum_prev =
        it == before.histograms.end() ? 0 : it->second.sum;
    if (snap.count == count_prev) continue;
    HistogramDelta d;
    if (snap.count < count_prev) {
      d.count = snap.count;
      d.sum = snap.sum;
      d.reset = true;
    } else {
      d.count = snap.count - count_prev;
      d.sum = snap.sum - sum_prev;
    }
    d.cumulative = snap;
    delta.histograms.emplace(name, d);
  }
  return delta;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->ResetForTest();
  for (auto& [name, gauge] : gauges_) gauge->Set(0);
  for (auto& [name, histogram] : histograms_) histogram->ResetForTest();
}

void IncrCounter(std::string_view name, uint64_t n) {
  MetricsRegistry::Global().GetCounter(name)->Add(n);
}

void SetGauge(std::string_view name, int64_t v) {
  MetricsRegistry::Global().GetGauge(name)->Set(v);
}

void RecordHistogram(std::string_view name, uint64_t v) {
  MetricsRegistry::Global().GetHistogram(name)->Record(v);
}

}  // namespace obs
}  // namespace scuba
