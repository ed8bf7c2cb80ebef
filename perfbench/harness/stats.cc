#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "query/result_digest.h"

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t index = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

PercentileReport Report(const std::vector<double>& values, double p) {
  PercentileReport r;
  r.samples = values.size();
  r.beyond = SamplesBeyond(values.size(), p);
  r.supported = r.beyond >= kMinSamplesBeyond;
  return r;
}

Verdict CheckAnswer(const scuba::QueryResult& result,
                    const std::vector<scuba::Aggregate>& aggregates,
                    uint32_t reference_digest) {
  if (result.IsPartial() || result.profile().deadline_exceeded > 0) {
    return Verdict::kPartial;
  }
  return scuba::ResultDigest(result, aggregates) == reference_digest
             ? Verdict::kMatch
             : Verdict::kMismatch;
}

std::string JsonNumber(double value) {
  if (std::isnan(value)) return "0";
  if (std::isinf(value)) return value > 0 ? "1e+300" : "-1e+300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
