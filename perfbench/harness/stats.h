#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"
#include "query/result.h"

namespace perfbench {

/// The benchmark's percentile rule: nearest rank over the sorted samples,
/// the value at 1-based rank ceil(p/100 * n). Failed operations enter as
/// +infinity, so they count as missing every latency limit. NaN when
/// `values` is empty.
double Percentile(std::vector<double> values, double p);

/// Median under the same nearest-rank rule (Percentile(values, 50)).
double Median(std::vector<double> values);

/// Samples ranked strictly above the nearest-rank p-th percentile of n
/// samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier more or less moves the value.
inline constexpr size_t kMinSamplesBeyond = 10;

/// The sample count behind a percentile of `values`.
struct PercentileReport {
  size_t samples = 0;
  size_t beyond = 0;
  bool supported = false;  // beyond >= kMinSamplesBeyond
};
PercentileReport Report(const std::vector<double>& values, double p);

/// How one query answer fared against the unloaded reference digest.
enum class Verdict {
  kMatch,     // complete, digest equal to the reference
  kPartial,   // a leaf was Unavailable or outlived a deadline: not compared
  kMismatch,  // complete, digest differs: wrong data
};

/// The correctness gate for one answer. A partial answer (some leaf
/// missing) is an answer but cannot be compared with the all-leaf
/// reference, so only complete answers are digest-checked.
Verdict CheckAnswer(const scuba::QueryResult& result,
                    const std::vector<scuba::Aggregate>& aggregates,
                    uint32_t reference_digest);

/// JSON number text for a metric value: full precision, and a finite
/// stand-in for a percentile that failures pushed to +infinity (JSON has
/// no infinity).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
