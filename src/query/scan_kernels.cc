#include "query/scan_kernels.h"

namespace scuba {
namespace scan {
namespace {

// In-place selection compaction: keeps rows passing `keep`. Writes trail
// reads (out index <= read index), so the single pass is safe.
template <typename Keep>
void Refine(const Keep& keep, SelVector* sel) {
  uint32_t* out = sel->data();
  size_t n = 0;
  for (uint32_t row : *sel) {
    if (keep(row)) out[n++] = row;
  }
  sel->resize(n);
}

// One tight loop per comparison operator: the operator dispatch happens
// once per chunk, not once per cell.
template <typename T>
void FilterCompare(CompareOp op, const std::vector<T>& v, const T& lit,
                   SelVector* sel) {
  switch (op) {
    case CompareOp::kEq:
      Refine([&](uint32_t r) { return v[r] == lit; }, sel);
      break;
    case CompareOp::kNe:
      Refine([&](uint32_t r) { return v[r] != lit; }, sel);
      break;
    case CompareOp::kLt:
      Refine([&](uint32_t r) { return v[r] < lit; }, sel);
      break;
    case CompareOp::kLe:
      Refine([&](uint32_t r) { return v[r] <= lit; }, sel);
      break;
    case CompareOp::kGt:
      Refine([&](uint32_t r) { return v[r] > lit; }, sel);
      break;
    case CompareOp::kGe:
      Refine([&](uint32_t r) { return v[r] >= lit; }, sel);
      break;
    case CompareOp::kContains:
    case CompareOp::kPrefix:
      // String-only; the typed string kernels handle these.
      sel->clear();
      break;
  }
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EvalStringOp(CompareOp op, const std::string& s,
                  const std::string& lit) {
  switch (op) {
    case CompareOp::kEq:
      return s == lit;
    case CompareOp::kNe:
      return s != lit;
    case CompareOp::kLt:
      return s < lit;
    case CompareOp::kLe:
      return s <= lit;
    case CompareOp::kGt:
      return s > lit;
    case CompareOp::kGe:
      return s >= lit;
    case CompareOp::kContains:
      return s.find(lit) != std::string::npos;
    case CompareOp::kPrefix:
      return HasPrefix(s, lit);
  }
  return false;
}

template <typename T>
bool ZoneCanPrune(CompareOp op, T zone_min, T zone_max, T lit) {
  switch (op) {
    case CompareOp::kEq:
      return lit < zone_min || lit > zone_max;
    case CompareOp::kNe:
      return zone_min == zone_max && zone_min == lit;
    case CompareOp::kLt:
      return !(zone_min < lit);
    case CompareOp::kLe:
      return !(zone_min <= lit);
    case CompareOp::kGt:
      return !(zone_max > lit);
    case CompareOp::kGe:
      return !(zone_max >= lit);
    case CompareOp::kContains:
    case CompareOp::kPrefix:
      return false;
  }
  return false;
}

}  // namespace

void SelectTimeRange(const std::vector<int64_t>& times, int64_t begin,
                     int64_t end, SelVector* sel) {
  sel->clear();
  sel->reserve(times.size());
  for (size_t r = 0; r < times.size(); ++r) {
    if (times[r] >= begin && times[r] <= end) {
      sel->push_back(static_cast<uint32_t>(r));
    }
  }
}

void FilterInt64(CompareOp op, const std::vector<int64_t>& values,
                 int64_t literal, SelVector* sel) {
  FilterCompare(op, values, literal, sel);
}

void FilterDouble(CompareOp op, const std::vector<double>& values,
                  double literal, SelVector* sel) {
  FilterCompare(op, values, literal, sel);
}

void FilterString(CompareOp op, const std::vector<std::string>& values,
                  const std::string& literal, SelVector* sel) {
  switch (op) {
    case CompareOp::kContains:
      Refine([&](uint32_t r) {
        return values[r].find(literal) != std::string::npos;
      }, sel);
      break;
    case CompareOp::kPrefix:
      Refine([&](uint32_t r) { return HasPrefix(values[r], literal); }, sel);
      break;
    default:
      FilterCompare(op, values, literal, sel);
      break;
  }
}

void FilterDictString(CompareOp op, const DictStringColumn& column,
                      const std::string& literal, SelVector* sel) {
  // Evaluate the predicate once per DISTINCT value...
  std::vector<uint8_t> keep(column.dict.size(), 0);
  size_t kept = 0;
  for (size_t i = 0; i < column.dict.size(); ++i) {
    if (EvalStringOp(op, column.dict[i], literal)) {
      keep[i] = 1;
      ++kept;
    }
  }
  // ...then filter rows by code. All-or-nothing dictionaries short-circuit.
  if (kept == 0) {
    sel->clear();
    return;
  }
  if (kept == column.dict.size()) return;
  const std::vector<uint32_t>& codes = column.codes;
  Refine([&](uint32_t r) { return keep[codes[r]] != 0; }, sel);
}

bool ZoneCanPruneInt64(CompareOp op, int64_t zone_min, int64_t zone_max,
                       int64_t literal) {
  return ZoneCanPrune(op, zone_min, zone_max, literal);
}

bool ZoneCanPruneDouble(CompareOp op, double zone_min, double zone_max,
                        double literal) {
  return ZoneCanPrune(op, zone_min, zone_max, literal);
}

bool ZoneAllMatchInt64(CompareOp op, int64_t zone_min, int64_t zone_max,
                       int64_t literal) {
  switch (op) {
    case CompareOp::kEq:
      return zone_min == zone_max && zone_min == literal;
    case CompareOp::kNe:
      return literal < zone_min || literal > zone_max;
    case CompareOp::kLt:
      return zone_max < literal;
    case CompareOp::kLe:
      return zone_max <= literal;
    case CompareOp::kGt:
      return zone_min > literal;
    case CompareOp::kGe:
      return zone_min >= literal;
    case CompareOp::kContains:
    case CompareOp::kPrefix:
      return false;
  }
  return false;
}

}  // namespace scan
}  // namespace scuba
