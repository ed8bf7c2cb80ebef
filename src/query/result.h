#ifndef SCUBA_QUERY_RESULT_H_
#define SCUBA_QUERY_RESULT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/types.h"
#include "query/histogram.h"
#include "query/query.h"
#include "query/query_profile.h"
#include "util/status.h"

namespace scuba {

/// Mergeable partial state of one aggregate. Sum/min/max/count compose
/// across leaves; avg is finalized as sum/count after the last merge.
struct AggPartial {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool has_value = false;  // min/max defined only once a row contributed

  /// Populated only for percentile aggregates (lazy inside Histogram).
  Histogram histogram;

  void AddSample(double v, bool with_histogram = false) {
    ++count;
    sum += v;
    if (!has_value || v < min) min = v;
    if (!has_value || v > max) max = v;
    has_value = true;
    if (with_histogram) histogram.Add(v);
  }
  void AddCountOnly() { ++count; }

  void Merge(const AggPartial& other) {
    count += other.count;
    sum += other.sum;
    if (other.has_value) {
      if (!has_value || other.min < min) min = other.min;
      if (!has_value || other.max > max) max = other.max;
      has_value = true;
    }
    histogram.Merge(other.histogram);
  }

  double Finalize(AggregateOp op) const {
    switch (op) {
      case AggregateOp::kCount:
        return static_cast<double>(count);
      case AggregateOp::kSum:
        return sum;
      case AggregateOp::kMin:
        return min;
      case AggregateOp::kMax:
        return max;
      case AggregateOp::kAvg:
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
      case AggregateOp::kP50:
        return histogram.ValueAtPercentile(50);
      case AggregateOp::kP90:
        return histogram.ValueAtPercentile(90);
      case AggregateOp::kP99:
        return histogram.ValueAtPercentile(99);
    }
    return 0.0;
  }
};

/// One output row after finalization: the group key values plus one double
/// per aggregate.
struct ResultRow {
  std::vector<Value> group_key;
  std::vector<double> aggregates;
};

/// The (partial) result of a query on one leaf, or the merged result of
/// many leaves. Scuba "can and does return partial query results when not
/// all servers are available" (§1): `leaves_total` vs `leaves_responded`
/// quantifies how partial.
class QueryResult {
 public:
  QueryResult() = default;
  /// All-count shape; percentile aggregates need the ops-aware ctor.
  explicit QueryResult(size_t num_aggregates)
      : ops_(num_aggregates, AggregateOp::kCount) {}
  /// Shape from the query's aggregate list (knows which partials need
  /// histograms).
  explicit QueryResult(const std::vector<Aggregate>& aggregates) {
    ops_.reserve(aggregates.size());
    for (const Aggregate& agg : aggregates) ops_.push_back(agg.op);
  }

  /// Accumulates one matching row into its group.
  /// `samples[i]` is aggregate i's sample for this row; an entry with
  /// has_sample=false contributes count only (kCount aggregates).
  struct Sample {
    double value = 0.0;
    bool has_sample = false;
  };
  void Accumulate(const std::vector<Value>& group_key,
                  const std::vector<Sample>& samples);

  /// Folds in one group aggregated beforehand: `partials[i]` is aggregate
  /// i's partial over the group's rows. For a key this result does not
  /// hold yet, that equals Accumulate()-ing those rows one by one.
  void FoldGroup(std::vector<Value> group_key,
                 std::vector<AggPartial> partials);

  /// Merges another partial result of the same query shape: a block's
  /// into its leaf's, a leaf's into the aggregator's, a cached segment's
  /// into its composition. Groups this result does not hold yet take the
  /// other side's key and partials as they are, which equals merging them
  /// into fresh partials (a sum that starts at +0.0 never becomes -0.0,
  /// histogram counts add exactly). Callers that still need `other` pass a
  /// copy.
  void Merge(QueryResult&& other);

  /// Finalized rows ordered by group key; `limit` 0 = all.
  std::vector<ResultRow> Finalize(const std::vector<Aggregate>& aggregates,
                                  uint64_t limit = 0) const;

  size_t num_groups() const { return groups_.size(); }

  /// Rough heap footprint of the accumulated groups (keys + partials +
  /// the percentile histograms' bucket windows). The aggregator's result
  /// cache charges each stored partial against its byte budget with this.
  uint64_t EstimatedHeapBytes() const;

  // Scan / pruning statistics (summed on merge). These are the historical
  // coarse counters; profile() below carries the full per-stage breakdown
  // (time- vs zone-pruned split, bytes decoded, stage timings).
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t blocks_scanned = 0;
  uint64_t blocks_pruned = 0;

  // Availability accounting (summed on merge).
  uint32_t leaves_total = 0;
  uint32_t leaves_responded = 0;
  bool IsPartial() const { return leaves_responded < leaves_total; }

  /// Execution profile, merged like the aggregate partials (associative,
  /// block-order/leaf-order deterministic counters — see QueryProfile).
  const QueryProfile& profile() const { return profile_; }
  QueryProfile& profile() { return profile_; }

 private:
  struct Group {
    std::vector<AggPartial> partials;
  };

  /// Hash/equality over raw group keys. Doubles hash and compare by BIT
  /// PATTERN, not operator==: the ordered map this replaced keyed groups by
  /// their order-preserving byte encoding, under which -0.0 and 0.0 (and
  /// distinct NaN payloads) were distinct groups, and bit semantics keep
  /// the hash from ever disagreeing with equality.
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  struct KeyEq {
    bool operator()(const std::vector<Value>& a,
                    const std::vector<Value>& b) const;
  };

  /// Order-preserving byte encoding of a group key; used only to sort the
  /// finalized rows (accumulation no longer encodes a string per row).
  static std::string EncodeKey(const std::vector<Value>& key);

  std::vector<AggregateOp> ops_;
  std::unordered_map<std::vector<Value>, Group, KeyHash, KeyEq> groups_;
  QueryProfile profile_;
};

}  // namespace scuba

#endif  // SCUBA_QUERY_RESULT_H_
