#include "query/result.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/byte_buffer.h"

namespace scuba {
namespace {

// 64-bit mix (boost::hash_combine style, golden-ratio constant widened).
void HashCombine(size_t* seed, size_t v) {
  *seed ^= v + 0x9e3779b97f4a7c15ull + (*seed << 6) + (*seed >> 2);
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

size_t QueryResult::KeyHash::operator()(const std::vector<Value>& key) const {
  size_t seed = key.size();
  for (const Value& v : key) {
    HashCombine(&seed, v.index());
    switch (ValueType(v)) {
      case ColumnType::kInt64:
        HashCombine(&seed, std::hash<uint64_t>{}(
                               static_cast<uint64_t>(std::get<int64_t>(v))));
        break;
      case ColumnType::kDouble:
        HashCombine(&seed,
                    std::hash<uint64_t>{}(DoubleBits(std::get<double>(v))));
        break;
      case ColumnType::kString:
        HashCombine(&seed, std::hash<std::string>{}(std::get<std::string>(v)));
        break;
    }
  }
  return seed;
}

bool QueryResult::KeyEq::operator()(const std::vector<Value>& a,
                                    const std::vector<Value>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index() != b[i].index()) return false;
    if (const double* da = std::get_if<double>(&a[i])) {
      if (DoubleBits(*da) != DoubleBits(std::get<double>(b[i]))) return false;
    } else if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

std::string QueryResult::EncodeKey(const std::vector<Value>& key) {
  ByteBuffer buf;
  for (const Value& v : key) {
    buf.AppendU8(static_cast<uint8_t>(ValueType(v)));
    switch (ValueType(v)) {
      case ColumnType::kInt64: {
        // Order-preserving encoding: flip the sign bit, big-endian bytes.
        uint64_t bits = static_cast<uint64_t>(std::get<int64_t>(v)) ^
                        (1ull << 63);
        for (int i = 7; i >= 0; --i) {
          buf.AppendU8(static_cast<uint8_t>(bits >> (8 * i)));
        }
        break;
      }
      case ColumnType::kDouble: {
        uint64_t bits = DoubleBits(std::get<double>(v));
        // Total-order trick: positive doubles flip sign bit, negatives
        // flip all bits.
        bits = (bits & (1ull << 63)) ? ~bits : (bits | (1ull << 63));
        for (int i = 7; i >= 0; --i) {
          buf.AppendU8(static_cast<uint8_t>(bits >> (8 * i)));
        }
        break;
      }
      case ColumnType::kString: {
        const std::string& s = std::get<std::string>(v);
        buf.Append(s.data(), s.size());
        buf.AppendU8(0);  // terminator keeps prefixes ordered
        break;
      }
    }
  }
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

void QueryResult::Accumulate(const std::vector<Value>& group_key,
                             const std::vector<Sample>& samples) {
  auto [it, inserted] = groups_.try_emplace(group_key);
  Group& group = it->second;
  if (inserted) group.partials.resize(ops_.size());
  for (size_t i = 0; i < samples.size() && i < group.partials.size(); ++i) {
    if (samples[i].has_sample) {
      group.partials[i].AddSample(samples[i].value,
                                  IsPercentileOp(ops_[i]));
    } else {
      group.partials[i].AddCountOnly();
    }
  }
}

void QueryResult::FoldGroup(std::vector<Value> group_key,
                            std::vector<AggPartial> partials) {
  auto [it, inserted] = groups_.try_emplace(std::move(group_key));
  Group& group = it->second;
  if (inserted) {
    partials.resize(ops_.size());
    group.partials = std::move(partials);
    return;
  }
  for (size_t i = 0; i < partials.size() && i < group.partials.size(); ++i) {
    group.partials[i].Merge(partials[i]);
  }
}

void QueryResult::Merge(QueryResult&& other) {
  if (ops_.empty()) ops_ = other.ops_;
  for (auto it = other.groups_.begin(); it != other.groups_.end();) {
    auto mine = groups_.find(it->first);
    if (mine == groups_.end()) {
      auto node = other.groups_.extract(it++);
      node.mapped().partials.resize(ops_.size());
      groups_.insert(std::move(node));
      continue;
    }
    std::vector<AggPartial>& partials = mine->second.partials;
    const std::vector<AggPartial>& other_partials = it->second.partials;
    for (size_t i = 0; i < other_partials.size() && i < partials.size(); ++i) {
      partials[i].Merge(other_partials[i]);
    }
    ++it;
  }
  rows_scanned += other.rows_scanned;
  rows_matched += other.rows_matched;
  blocks_scanned += other.blocks_scanned;
  blocks_pruned += other.blocks_pruned;
  leaves_total += other.leaves_total;
  leaves_responded += other.leaves_responded;
  profile_.Merge(other.profile_);
}

uint64_t QueryResult::EstimatedHeapBytes() const {
  uint64_t bytes = sizeof(QueryResult);
  for (const auto& [key, group] : groups_) {
    bytes += sizeof(std::vector<Value>) + key.size() * sizeof(Value);
    for (const Value& v : key) {
      if (const auto* s = std::get_if<std::string>(&v)) bytes += s->size();
    }
    bytes += group.partials.size() * sizeof(AggPartial);
    for (const AggPartial& p : group.partials) {
      bytes += p.histogram.HeapBytes();
    }
  }
  return bytes;
}

std::vector<ResultRow> QueryResult::Finalize(
    const std::vector<Aggregate>& aggregates, uint64_t limit) const {
  // Deterministic output order: sort group pointers by the order-preserving
  // key encoding (computed once per GROUP here, not once per ROW as the old
  // map-keyed accumulation did).
  struct SortEntry {
    std::string encoded;
    const std::vector<Value>* key;
    const Group* group;
  };
  std::vector<SortEntry> order;
  order.reserve(groups_.size());
  for (const auto& [key, group] : groups_) {
    order.push_back(SortEntry{EncodeKey(key), &key, &group});
  }
  std::sort(order.begin(), order.end(),
            [](const SortEntry& a, const SortEntry& b) {
              return a.encoded < b.encoded;
            });

  std::vector<ResultRow> rows;
  rows.reserve(limit > 0 ? std::min<uint64_t>(limit, order.size())
                         : order.size());
  for (const SortEntry& entry : order) {
    if (limit > 0 && rows.size() >= limit) break;
    ResultRow row;
    row.group_key = *entry.key;
    row.aggregates.reserve(aggregates.size());
    for (size_t i = 0; i < aggregates.size(); ++i) {
      double v = i < entry.group->partials.size()
                     ? entry.group->partials[i].Finalize(aggregates[i].op)
                     : 0.0;
      row.aggregates.push_back(v);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace scuba
