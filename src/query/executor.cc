#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>

#include "compress/dictionary.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/packed_column.h"
#include "query/scan_kernels.h"
#include "util/clock.h"

namespace scuba {
namespace {

using TypeMap = std::unordered_map<std::string, ColumnType>;

// Process-wide query-engine counters (scuba.query.executor.*). The
// decode/kernel split answers "where does scan time go": decode_micros is
// column decompression into scan form, kernel_micros is the vectorized
// predicate + aggregation work on the decoded vectors.
struct QueryMetrics {
  obs::Counter* queries;
  obs::Counter* blocks_scanned;
  obs::Counter* blocks_pruned;
  obs::Counter* rows_matched;
  obs::Counter* deadline_aborts;
  obs::Histogram* decode_micros;
  obs::Histogram* kernel_micros;

  static QueryMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static QueryMetrics m{
        reg.GetCounter("scuba.query.executor.queries"),
        reg.GetCounter("scuba.query.executor.blocks_scanned"),
        reg.GetCounter("scuba.query.executor.blocks_pruned"),
        reg.GetCounter("scuba.query.executor.rows_matched"),
        reg.GetCounter("scuba.query.executor.deadline_aborts"),
        reg.GetHistogram("scuba.query.executor.decode_micros"),
        reg.GetHistogram("scuba.query.executor.kernel_micros")};
    return m;
  }
};

// The deadline check the scan loop runs BETWEEN row blocks (and once
// before the write-buffer pass): cheap enough to run per block — one
// branch on the common no-deadline path, one steady_clock read otherwise
// — and coarse enough to never perturb the per-row kernels. When it
// fires, the whole leaf execution aborts; a half-scanned block set would
// be a wrong (not partial) aggregate, so the unit of abandonment is the
// leaf, and the aggregator reports the leaf as missing from the result.
Status CheckDeadline(const QueryContext* ctx) {
  if (ctx == nullptr || ctx->deadline_steady_micros == 0) return Status::OK();
  const int64_t now = SteadyNowMicros();
  if (now < ctx->deadline_steady_micros) return Status::OK();
  QueryMetrics::Get().deadline_aborts->Add(1);
  return Status::DeadlineExceeded(
      "scan abandoned " +
      std::to_string(now - ctx->deadline_steady_micros) +
      " us past the query deadline");
}

// The set of column names a query touches.
std::set<std::string> NeededColumns(const Query& query) {
  std::set<std::string> needed;
  needed.insert(kTimeColumnName);
  for (const Predicate& p : query.predicates) needed.insert(p.column);
  for (const std::string& g : query.group_by) needed.insert(g);
  for (const Aggregate& a : query.aggregates) {
    if (a.op != AggregateOp::kCount) needed.insert(a.column);
  }
  return needed;
}

// Resolves each needed column to a single type across the table; absent
// columns default to the predicate literal's type when referenced by a
// predicate, otherwise int64.
StatusOr<TypeMap> ResolveTypes(const Table& table, const Query& query,
                               const std::set<std::string>& needed) {
  TypeMap types;
  auto note = [&](const std::string& name, ColumnType type) -> Status {
    auto [it, inserted] = types.try_emplace(name, type);
    if (!inserted && it->second != type) {
      return Status::InvalidArgument("query: column '" + name +
                                     "' has conflicting types across blocks");
    }
    return Status::OK();
  };

  for (size_t b = 0; b < table.num_row_blocks(); ++b) {
    const RowBlock* block = table.row_block(b);
    if (block == nullptr) continue;
    for (const ColumnDef& col : block->schema().columns()) {
      if (needed.count(col.name) > 0) {
        SCUBA_RETURN_IF_ERROR(note(col.name, col.type));
      }
    }
  }
  for (const std::string& name : needed) {
    auto buffered = table.write_buffer().ColumnTypeOf(name);
    if (buffered.has_value()) SCUBA_RETURN_IF_ERROR(note(name, *buffered));
  }
  // Columns seen nowhere: infer from predicates, else default to int64.
  for (const Predicate& p : query.predicates) {
    types.try_emplace(p.column, ValueType(p.literal));
  }
  for (const std::string& name : needed) {
    types.try_emplace(name, ColumnType::kInt64);
  }
  return types;
}

ColumnValues DefaultColumn(ColumnType type, size_t rows) {
  switch (type) {
    case ColumnType::kInt64:
      return std::vector<int64_t>(rows, 0);
    case ColumnType::kDouble:
      return std::vector<double>(rows, 0.0);
    case ColumnType::kString:
      return std::vector<std::string>(rows);
  }
  return std::vector<int64_t>(rows, 0);
}

// Floor-divide toward negative infinity so pre-epoch times bucket
// consistently. A bucket starting below INT64_MIN (a time within `w` of
// it, when `w` does not divide INT64_MIN) starts at INT64_MIN instead.
int64_t TimeBucket(int64_t t, int64_t w) {
  int64_t q = t / w;
  if (t % w < 0) --q;
  if (q < std::numeric_limits<int64_t>::min() / w) {
    return std::numeric_limits<int64_t>::min();
  }
  return q * w;
}

// ===========================================================================
// Scalar reference path (row-at-a-time; the differential-testing oracle).
// ===========================================================================

// Decoded columns of one scan unit (a row block or the write buffer).
struct DecodedChunk {
  size_t row_count = 0;
  std::unordered_map<std::string, ColumnValues> columns;
};

Status DecodeBlock(const RowBlock& block, const std::set<std::string>& needed,
                   const TypeMap& types, DecodedChunk* chunk) {
  chunk->row_count = block.header().row_count;
  for (const std::string& name : needed) {
    const RowBlockColumn* column = block.ColumnByName(name);
    ColumnType expected = types.at(name);
    if (column == nullptr) {
      chunk->columns.emplace(name, DefaultColumn(expected, chunk->row_count));
      continue;
    }
    switch (expected) {
      case ColumnType::kInt64: {
        std::vector<int64_t> values;
        SCUBA_RETURN_IF_ERROR(column->DecodeInt64(&values));
        chunk->columns.emplace(name, std::move(values));
        break;
      }
      case ColumnType::kDouble: {
        std::vector<double> values;
        SCUBA_RETURN_IF_ERROR(column->DecodeDouble(&values));
        chunk->columns.emplace(name, std::move(values));
        break;
      }
      case ColumnType::kString: {
        std::vector<std::string> values;
        SCUBA_RETURN_IF_ERROR(column->DecodeString(&values));
        chunk->columns.emplace(name, std::move(values));
        break;
      }
    }
  }
  return Status::OK();
}

Status DecodeBuffer(const WriteBuffer& buffer,
                    const std::set<std::string>& needed, const TypeMap& types,
                    DecodedChunk* chunk) {
  chunk->row_count = buffer.row_count();
  for (const std::string& name : needed) {
    auto values = buffer.MaterializeColumn(name);
    if (values.has_value()) {
      chunk->columns.emplace(name, std::move(*values));
    } else {
      chunk->columns.emplace(name,
                             DefaultColumn(types.at(name), chunk->row_count));
    }
  }
  return Status::OK();
}

// Three-way comparison of a column cell against a literal of the same type.
template <typename T>
int Compare3(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

StatusOr<int> CompareCell(const ColumnValues& column, size_t row,
                          const Value& literal, const std::string& name) {
  if (const auto* ints = std::get_if<std::vector<int64_t>>(&column)) {
    const int64_t* lit = std::get_if<int64_t>(&literal);
    if (lit == nullptr) {
      return Status::InvalidArgument("query: predicate on int64 column '" +
                                     name + "' needs an int64 literal");
    }
    return Compare3((*ints)[row], *lit);
  }
  if (const auto* dbls = std::get_if<std::vector<double>>(&column)) {
    const double* lit = std::get_if<double>(&literal);
    if (lit == nullptr) {
      return Status::InvalidArgument("query: predicate on double column '" +
                                     name + "' needs a double literal");
    }
    return Compare3((*dbls)[row], *lit);
  }
  const auto& strs = std::get<std::vector<std::string>>(column);
  const std::string* lit = std::get_if<std::string>(&literal);
  if (lit == nullptr) {
    return Status::InvalidArgument("query: predicate on string column '" +
                                   name + "' needs a string literal");
  }
  return Compare3(strs[row], *lit);
}

bool ApplyOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    case CompareOp::kContains:
    case CompareOp::kPrefix:
      return false;  // handled by EvalPredicate before Compare3
  }
  return false;
}

// Full predicate evaluation for one cell, including the string-only text
// operators.
StatusOr<bool> EvalPredicate(const Predicate& pred, const ColumnValues& column,
                             size_t row) {
  if (pred.op == CompareOp::kContains || pred.op == CompareOp::kPrefix) {
    const auto* strs = std::get_if<std::vector<std::string>>(&column);
    const std::string* lit = std::get_if<std::string>(&pred.literal);
    if (strs == nullptr || lit == nullptr) {
      return Status::InvalidArgument(
          "query: '" + std::string(CompareOpName(pred.op)) +
          "' requires a string column and literal (column '" + pred.column +
          "')");
    }
    const std::string& cell = (*strs)[row];
    if (pred.op == CompareOp::kPrefix) {
      return cell.size() >= lit->size() &&
             cell.compare(0, lit->size(), *lit) == 0;
    }
    return cell.find(*lit) != std::string::npos;
  }
  SCUBA_ASSIGN_OR_RETURN(int cmp,
                         CompareCell(column, row, pred.literal, pred.column));
  return ApplyOp(pred.op, cmp);
}

Value CellValue(const ColumnValues& column, size_t row) {
  if (const auto* ints = std::get_if<std::vector<int64_t>>(&column)) {
    return (*ints)[row];
  }
  if (const auto* dbls = std::get_if<std::vector<double>>(&column)) {
    return (*dbls)[row];
  }
  return std::get<std::vector<std::string>>(column)[row];
}

StatusOr<double> NumericCell(const ColumnValues& column, size_t row,
                             const std::string& name) {
  if (const auto* ints = std::get_if<std::vector<int64_t>>(&column)) {
    return static_cast<double>((*ints)[row]);
  }
  if (const auto* dbls = std::get_if<std::vector<double>>(&column)) {
    return (*dbls)[row];
  }
  return Status::InvalidArgument("query: aggregate over string column '" +
                                 name + "'");
}

Status ProcessChunkScalar(const DecodedChunk& chunk, const Query& query,
                          QueryResult* result) {
  const auto& times =
      std::get<std::vector<int64_t>>(chunk.columns.at(kTimeColumnName));

  const bool bucketed = query.time_bucket_seconds > 0;
  const size_t key_offset = bucketed ? 1 : 0;
  std::vector<Value> group_key(query.group_by.size() + key_offset);
  std::vector<QueryResult::Sample> samples(query.aggregates.size());

  for (size_t row = 0; row < chunk.row_count; ++row) {
    ++result->rows_scanned;
    if (times[row] < query.begin_time || times[row] > query.end_time) {
      continue;
    }
    bool match = true;
    for (const Predicate& pred : query.predicates) {
      SCUBA_ASSIGN_OR_RETURN(
          bool ok, EvalPredicate(pred, chunk.columns.at(pred.column), row));
      if (!ok) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    ++result->rows_matched;

    if (bucketed) {
      group_key[0] = TimeBucket(times[row], query.time_bucket_seconds);
    }
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      group_key[g + key_offset] =
          CellValue(chunk.columns.at(query.group_by[g]), row);
    }
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const Aggregate& agg = query.aggregates[a];
      if (agg.op == AggregateOp::kCount) {
        samples[a] = {0.0, false};
      } else {
        SCUBA_ASSIGN_OR_RETURN(
            double v,
            NumericCell(chunk.columns.at(agg.column), row, agg.column));
        samples[a] = {v, true};
      }
    }
    result->Accumulate(group_key, samples);
  }
  return Status::OK();
}

// ===========================================================================
// Vectorized path.
// ===========================================================================

// Lazily decoded columns of one scan unit. Predicate columns load first;
// group-by and aggregate columns only load if any row survived the filters.
//
// Get() passes the CURRENT selection to the loader so block columns can
// materialize only the selected rows (selection-vector-driven partial
// decode). Caching a partial column is sound because the selection only
// ever shrinks within a chunk: every later Get sees a subset of the rows
// the cached column was materialized for.
class LazyColumns {
 public:
  using Loader = std::function<Status(
      const std::string&, const scan::SelVector*, scan::ScanColumn*)>;

  LazyColumns(size_t rows, Loader loader)
      : rows_(rows), loader_(std::move(loader)) {}

  size_t rows() const { return rows_; }

  StatusOr<const scan::ScanColumn*> Get(const std::string& name,
                                        const scan::SelVector* sel) {
    auto it = cache_.find(name);
    if (it != cache_.end()) return &it->second;
    scan::ScanColumn column;
    SCUBA_RETURN_IF_ERROR(loader_(name, sel, &column));
    auto [ins, inserted] = cache_.emplace(name, std::move(column));
    (void)inserted;
    return &ins->second;
  }

 private:
  size_t rows_;
  Loader loader_;
  std::unordered_map<std::string, scan::ScanColumn> cache_;
};

// Lazily opened compressed-domain views of one row block's int64 columns
// (filter-before-decode): predicates and the time-range select run on the
// stored bytes, and the loader above materializes only surviving rows.
// Get() returns nullptr when a column cannot execute packed — absent,
// non-int64, an unexpected chain, or a parse failure (the full-decode
// fallback then also surfaces corruption errors exactly as before).
class PackedChunk {
 public:
  PackedChunk(const RowBlock& block, const TypeMap& types)
      : block_(block), types_(types) {}

  PackedInt64Column* Get(const std::string& name) {
    auto it = views_.find(name);
    if (it == views_.end()) {
      std::unique_ptr<PackedInt64Column> view;
      auto type = types_.find(name);
      if (type != types_.end() && type->second == ColumnType::kInt64) {
        const RowBlockColumn* column = block_.ColumnByName(name);
        if (column != nullptr) view = PackedInt64Column::Open(*column);
        if (view != nullptr && view->rows() != block_.header().row_count) {
          view.reset();
        }
      }
      it = views_.emplace(name, std::move(view)).first;
    }
    return it->second.get();
  }

 private:
  const RowBlock& block_;
  const TypeMap& types_;
  std::unordered_map<std::string, std::unique_ptr<PackedInt64Column>> views_;
};

// An absent column reads as its type's default on every row (a one-entry
// dictionary for strings).
scan::ScanColumn DefaultScanColumn(ColumnType type, size_t rows) {
  switch (type) {
    case ColumnType::kInt64:
      return std::vector<int64_t>(rows, 0);
    case ColumnType::kDouble:
      return std::vector<double>(rows, 0.0);
    case ColumnType::kString:
      break;
  }
  return scan::DictStringColumn{{std::string()},
                                std::vector<uint32_t>(rows, 0)};
}

// Decodes one row block column into scan form, by the resolved type.
// String columns keep their dictionary form when the stored encoding has
// one; absent columns read as defaults.
Status LoadBlockColumn(const RowBlock& block, const TypeMap& types,
                       size_t rows, const std::string& name,
                       scan::ScanColumn* out) {
  const RowBlockColumn* column = block.ColumnByName(name);
  ColumnType expected = types.at(name);
  if (column == nullptr) {
    *out = DefaultScanColumn(expected, rows);
    return Status::OK();
  }
  switch (expected) {
    case ColumnType::kInt64: {
      std::vector<int64_t> values;
      SCUBA_RETURN_IF_ERROR(column->DecodeInt64(&values));
      *out = std::move(values);
      break;
    }
    case ColumnType::kDouble: {
      std::vector<double> values;
      SCUBA_RETURN_IF_ERROR(column->DecodeDouble(&values));
      *out = std::move(values);
      break;
    }
    case ColumnType::kString: {
      scan::DictStringColumn dict;
      Status dict_status =
          column->DecodeStringDictionary(&dict.dict, &dict.codes);
      if (dict_status.ok()) {
        *out = std::move(dict);
        break;
      }
      if (!dict_status.IsFailedPrecondition()) return dict_status;
      std::vector<std::string> values;
      SCUBA_RETURN_IF_ERROR(column->DecodeString(&values));
      *out = std::move(values);
      break;
    }
  }
  return Status::OK();
}

// Dictionary form of the selected rows of a string column (every row when
// `sel` is null), codes in first-appearance order: the column encoder's
// table, without its distinct-value limit. Unselected rows keep code 0 and
// are never read.
scan::DictStringColumn InternStrings(const std::vector<std::string>& values,
                                     const scan::SelVector* sel) {
  scan::DictStringColumn out;
  out.codes.assign(values.size(), 0);
  dictionary::CodeTable<std::string_view> table;
  if (sel == nullptr) {
    for (size_t row = 0; row < values.size(); ++row) {
      out.codes[row] = table.Intern(values[row]);
    }
  } else {
    for (uint32_t row : *sel) out.codes[row] = table.Intern(values[row]);
  }
  out.dict.assign(table.keys().begin(), table.keys().end());
  return out;
}

// Reads one buffered column in place. Strings intern only the selected
// rows, so buffered strings filter and group in dictionary form like
// sealed ones; numeric columns copy.
scan::ScanColumn LoadBufferColumn(const WriteBuffer& buffer,
                                  const TypeMap& types,
                                  const std::string& name,
                                  const scan::SelVector* sel) {
  const ColumnValues* values = buffer.ColumnView(name);
  if (values == nullptr) {
    return DefaultScanColumn(types.at(name), buffer.row_count());
  }
  if (const auto* strs = std::get_if<std::vector<std::string>>(values)) {
    return InternStrings(*strs, sel);
  }
  return std::visit([](const auto& v) { return scan::ScanColumn(v); },
                    *values);
}

// Per-chunk predicate type validation (the scalar path's per-cell errors,
// raised once per chunk instead). Only called while rows are selected, so
// a chunk whose time filter selects nothing raises no error — exactly the
// rows the scalar path would never have evaluated.
Status CheckPredicateTypes(const Predicate& pred, ColumnType column_type) {
  if (pred.op == CompareOp::kContains || pred.op == CompareOp::kPrefix) {
    if (column_type != ColumnType::kString ||
        !std::holds_alternative<std::string>(pred.literal)) {
      return Status::InvalidArgument(
          "query: '" + std::string(CompareOpName(pred.op)) +
          "' requires a string column and literal (column '" + pred.column +
          "')");
    }
    return Status::OK();
  }
  switch (column_type) {
    case ColumnType::kInt64:
      if (!std::holds_alternative<int64_t>(pred.literal)) {
        return Status::InvalidArgument("query: predicate on int64 column '" +
                                       pred.column +
                                       "' needs an int64 literal");
      }
      break;
    case ColumnType::kDouble:
      if (!std::holds_alternative<double>(pred.literal)) {
        return Status::InvalidArgument("query: predicate on double column '" +
                                       pred.column +
                                       "' needs a double literal");
      }
      break;
    case ColumnType::kString:
      if (!std::holds_alternative<std::string>(pred.literal)) {
        return Status::InvalidArgument("query: predicate on string column '" +
                                       pred.column +
                                       "' needs a string literal");
      }
      break;
  }
  return Status::OK();
}

// Bytes a decoded scan column occupies — the profile's bytes_decoded.
// Deterministic per block (lazy decode decisions depend only on the query
// and the block contents), so the merged total is part of the
// determinism contract.
uint64_t ScanColumnBytes(const scan::ScanColumn& column) {
  if (const auto* ints = std::get_if<std::vector<int64_t>>(&column)) {
    return ints->size() * sizeof(int64_t);
  }
  if (const auto* dbls = std::get_if<std::vector<double>>(&column)) {
    return dbls->size() * sizeof(double);
  }
  if (const auto* strs = std::get_if<std::vector<std::string>>(&column)) {
    uint64_t bytes = 0;
    for (const std::string& s : *strs) bytes += s.size();
    return bytes;
  }
  const auto& dict = std::get<scan::DictStringColumn>(column);
  uint64_t bytes = dict.codes.size() * sizeof(uint32_t);
  for (const std::string& s : dict.dict) bytes += s.size();
  return bytes;
}

// Refines `sel` with one (already type-checked) predicate.
void ApplyPredicate(const Predicate& pred, const scan::ScanColumn& column,
                    scan::SelVector* sel) {
  if (const auto* ints = std::get_if<std::vector<int64_t>>(&column)) {
    scan::FilterInt64(pred.op, *ints, std::get<int64_t>(pred.literal), sel);
    return;
  }
  if (const auto* dbls = std::get_if<std::vector<double>>(&column)) {
    scan::FilterDouble(pred.op, *dbls, std::get<double>(pred.literal), sel);
    return;
  }
  if (const auto* strs = std::get_if<std::vector<std::string>>(&column)) {
    scan::FilterString(pred.op, *strs, std::get<std::string>(pred.literal),
                       sel);
    return;
  }
  scan::FilterDictString(pred.op, std::get<scan::DictStringColumn>(column),
                         std::get<std::string>(pred.literal), sel);
}

// True when the block provably contains no row satisfying `pred`, decided
// from the column's footer zone map alone. Absent columns read as the
// type's default for every row, i.e. an implicit zone of [0, 0]. Columns
// with a v1 footer (no zone map) never prune. A literal whose type does
// not match the column never prunes, so the type error still surfaces at
// scan time exactly as in the scalar path.
bool ZonePrunesBlock(const RowBlock& block, const Predicate& pred,
                     ColumnType expected) {
  if (pred.op == CompareOp::kContains || pred.op == CompareOp::kPrefix) {
    return false;
  }
  if (ValueType(pred.literal) != expected) return false;
  const RowBlockColumn* column = block.ColumnByName(pred.column);
  if (expected == ColumnType::kInt64) {
    int64_t zone_min = 0, zone_max = 0;
    if (column != nullptr && !column->ZoneRangeInt64(&zone_min, &zone_max)) {
      return false;
    }
    return scan::ZoneCanPruneInt64(pred.op, zone_min, zone_max,
                                   std::get<int64_t>(pred.literal));
  }
  if (expected == ColumnType::kDouble) {
    double zone_min = 0.0, zone_max = 0.0;
    if (column != nullptr && !column->ZoneRangeDouble(&zone_min, &zone_max)) {
      return false;
    }
    return scan::ZoneCanPruneDouble(pred.op, zone_min, zone_max,
                                    std::get<double>(pred.literal));
  }
  return false;  // no zone maps for string columns
}

// ---------------------------------------------------------------------------
// Code-keyed grouping. Each group-key element maps the selected rows to
// dense per-chunk codes, the code tuples fold into one slot per group, and
// the aggregates accumulate per slot. A group's Value key is built once.
// ---------------------------------------------------------------------------

constexpr uint32_t kNoCode = std::numeric_limits<uint32_t>::max();

// Size of a direct code table for ids in [0, max_id], or 0 (hash the ids)
// when such a table would be much larger than the `rows` it codes.
uint64_t DirectTableSize(uint64_t max_id, size_t rows) {
  return max_id < std::max<uint64_t>(4 * uint64_t{rows}, 4096) ? max_id + 1
                                                               : 0;
}

// Codes ids id_at(0..n) densely in first-appearance order, through a direct
// table of `table_size` entries (every id below it) or, when 0, a hash map.
// on_new(i) runs once per code, at the first position that has it.
template <typename IdAt, typename OnNew>
std::vector<uint32_t> DenseCodes(size_t n, uint64_t table_size, IdAt id_at,
                                 OnNew on_new) {
  std::vector<uint32_t> codes(n);
  std::vector<uint32_t> table(table_size, kNoCode);
  std::unordered_map<uint64_t, uint32_t> map;
  uint32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = id_at(i);
    uint32_t& code =
        table_size > 0 ? table[id] : map.try_emplace(id, kNoCode).first->second;
    if (code == kNoCode) {
      code = next++;
      on_new(i);
    }
    codes[i] = code;
  }
  return codes;
}

// One group-key element over the selected rows: codes[i] is the code of
// row sel[i], values[c] the key value of code c.
struct KeyCodes {
  std::vector<uint32_t> codes;
  std::vector<Value> values;
};

// int64 keys (values already gathered per selected row), by value: a
// direct table over [min, max] when that span is small, else a hash.
KeyCodes CodeInt64(const std::vector<int64_t>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const uint64_t base = static_cast<uint64_t>(*lo);
  KeyCodes key;
  key.codes = DenseCodes(
      values.size(),
      DirectTableSize(static_cast<uint64_t>(*hi) - base, values.size()),
      [&](size_t i) { return static_cast<uint64_t>(values[i]) - base; },
      [&](size_t i) { key.values.push_back(values[i]); });
  return key;
}

// Codes one group-by column over the selected rows (non-empty). Doubles
// code by bit pattern, as QueryResult compares keys, so -0.0/0.0 and NaN
// payloads stay distinct groups; dictionary strings use their own codes.
KeyCodes CodeKey(const scan::ScanColumn& column, const scan::SelVector& sel) {
  const size_t n = sel.size();
  KeyCodes key;
  if (const auto* ints = std::get_if<std::vector<int64_t>>(&column)) {
    std::vector<int64_t> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = (*ints)[sel[i]];
    return CodeInt64(values);
  }
  if (const auto* dbls = std::get_if<std::vector<double>>(&column)) {
    key.codes = DenseCodes(
        n, 0,
        [&](size_t i) { return std::bit_cast<uint64_t>((*dbls)[sel[i]]); },
        [&](size_t i) { key.values.push_back((*dbls)[sel[i]]); });
    return key;
  }
  if (const auto* strs = std::get_if<std::vector<std::string>>(&column)) {
    return CodeKey(InternStrings(*strs, &sel), sel);
  }
  const auto& dict = std::get<scan::DictStringColumn>(column);
  key.codes = DenseCodes(
      n, DirectTableSize(dict.dict.size() - 1, n),
      [&](size_t i) { return dict.codes[sel[i]]; },
      [&](size_t i) { key.values.push_back(dict.dict[dict.codes[sel[i]]]); });
  return key;
}

// Folds the key elements' codes into one slot per distinct key tuple:
// slot[i] is row sel[i]'s slot, first[s] the first position in slot s.
// With no key element every row lands in the one slot.
struct Slots {
  std::vector<uint32_t> slot;
  std::vector<uint32_t> first;
};

Slots AssignSlots(const std::vector<KeyCodes>& keys, size_t n) {
  Slots out;
  out.slot.assign(n, 0);
  out.first = {0};
  for (const KeyCodes& key : keys) {
    const uint64_t card = key.values.size();
    const uint64_t count = out.first.size();
    out.first.clear();
    out.slot = DenseCodes(
        n, DirectTableSize(count * card - 1, n),
        [&](size_t i) { return out.slot[i] * card + key.codes[i]; },
        [&](size_t i) { out.first.push_back(static_cast<uint32_t>(i)); });
  }
  return out;
}

// Adds aggregate `a`'s samples of the selected rows to their slots'
// partials (laid out slot-major, `num_aggs` per slot), in row order.
template <typename T>
void AddSamples(const std::vector<T>& values, const scan::SelVector& sel,
                const Slots& slots, bool histogram, size_t a, size_t num_aggs,
                std::vector<AggPartial>* partials) {
  for (size_t i = 0; i < sel.size(); ++i) {
    (*partials)[slots.slot[i] * num_aggs + a].AddSample(
        static_cast<double>(values[sel[i]]), histogram);
  }
}

Status ProcessChunkVectorized(LazyColumns* cols, PackedChunk* packed,
                              const Query& query, const TypeMap& types,
                              QueryResult* result) {
  result->rows_scanned += cols->rows();
  result->profile().rows_scanned += cols->rows();

  // Filter-before-decode: when the time column's encoding supports it, the
  // initial time-range selection comes straight off the packed bytes —
  // mini-block (min,max) bounds admit or reject whole blocks, and only the
  // straddling ones decode. `times` stays null until (and unless) the
  // bucketed group path needs the actual values of the surviving rows.
  scan::SelVector sel;
  const std::vector<int64_t>* times = nullptr;
  PackedInt64Column* packed_time =
      packed != nullptr ? packed->Get(kTimeColumnName) : nullptr;
  if (packed_time != nullptr) {
    SCUBA_RETURN_IF_ERROR(
        packed_time->SelectTimeRange(query.begin_time, query.end_time, &sel));
  } else {
    SCUBA_ASSIGN_OR_RETURN(const scan::ScanColumn* time_col,
                           cols->Get(kTimeColumnName, nullptr));
    times = std::get_if<std::vector<int64_t>>(time_col);
    if (times == nullptr) {
      return Status::InvalidArgument("query: 'time' column is not int64");
    }
    scan::SelectTimeRange(*times, query.begin_time, query.end_time, &sel);
  }

  for (const Predicate& pred : query.predicates) {
    if (sel.empty()) break;
    SCUBA_RETURN_IF_ERROR(CheckPredicateTypes(pred, types.at(pred.column)));
    // The type check above passed, so an int64 column implies an int64
    // literal; packed evaluation is bit-identical to decode + FilterInt64.
    PackedInt64Column* view =
        packed != nullptr ? packed->Get(pred.column) : nullptr;
    if (view != nullptr) {
      SCUBA_RETURN_IF_ERROR(
          view->Filter(pred.op, std::get<int64_t>(pred.literal), &sel));
      continue;
    }
    SCUBA_ASSIGN_OR_RETURN(const scan::ScanColumn* col,
                           cols->Get(pred.column, &sel));
    ApplyPredicate(pred, *col, &sel);
  }
  result->rows_matched += sel.size();
  result->profile().rows_matched += sel.size();
  QueryMetrics::Get().rows_matched->Add(sel.size());
  if (sel.empty()) return Status::OK();

  // Only now — with survivors known — decode group-by/aggregate columns,
  // and only the surviving rows of each.
  std::vector<const scan::ScanColumn*> group_cols(query.group_by.size());
  for (size_t g = 0; g < query.group_by.size(); ++g) {
    SCUBA_ASSIGN_OR_RETURN(group_cols[g], cols->Get(query.group_by[g], &sel));
  }
  std::vector<const scan::ScanColumn*> agg_cols(query.aggregates.size(),
                                                nullptr);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const Aggregate& agg = query.aggregates[a];
    if (agg.op == AggregateOp::kCount) continue;
    if (types.at(agg.column) == ColumnType::kString) {
      return Status::InvalidArgument("query: aggregate over string column '" +
                                     agg.column + "'");
    }
    SCUBA_ASSIGN_OR_RETURN(agg_cols[a], cols->Get(agg.column, &sel));
  }

  const bool bucketed = query.time_bucket_seconds > 0;
  if (bucketed && times == nullptr) {
    // Packed time select skipped the decode; the bucketed group key needs
    // the survivors' timestamps after all.
    SCUBA_ASSIGN_OR_RETURN(const scan::ScanColumn* time_col,
                           cols->Get(kTimeColumnName, &sel));
    times = std::get_if<std::vector<int64_t>>(time_col);
    if (times == nullptr) {
      return Status::InvalidArgument("query: 'time' column is not int64");
    }
  }
  std::vector<KeyCodes> keys;
  keys.reserve(query.group_by.size() + (bucketed ? 1 : 0));
  if (bucketed) {
    std::vector<int64_t> buckets(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      buckets[i] = TimeBucket((*times)[sel[i]], query.time_bucket_seconds);
    }
    keys.push_back(CodeInt64(buckets));
  }
  for (const scan::ScanColumn* col : group_cols) {
    keys.push_back(CodeKey(*col, sel));
  }
  const Slots slots = AssignSlots(keys, sel.size());

  const size_t num_slots = slots.first.size();
  const size_t num_aggs = query.aggregates.size();
  std::vector<AggPartial> partials(num_slots * num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const bool histogram = IsPercentileOp(query.aggregates[a].op);
    if (agg_cols[a] == nullptr) {
      for (uint32_t slot : slots.slot) {
        partials[slot * num_aggs + a].AddCountOnly();
      }
    } else if (const auto* ints =
                   std::get_if<std::vector<int64_t>>(agg_cols[a])) {
      AddSamples(*ints, sel, slots, histogram, a, num_aggs, &partials);
    } else {
      AddSamples(std::get<std::vector<double>>(*agg_cols[a]), sel, slots,
                 histogram, a, num_aggs, &partials);
    }
  }
  for (size_t s = 0; s < num_slots; ++s) {
    std::vector<Value> group_key;
    group_key.reserve(keys.size());
    for (const KeyCodes& key : keys) {
      group_key.push_back(key.values[key.codes[slots.first[s]]]);
    }
    auto begin = std::make_move_iterator(partials.begin() + s * num_aggs);
    result->FoldGroup(std::move(group_key),
                      std::vector<AggPartial>(begin, begin + num_aggs));
  }
  return Status::OK();
}

Status ScanBlock(const RowBlock& block, size_t block_index,
                 const Query& query, const TypeMap& types,
                 const QueryContext* ctx, QueryResult* result) {
  // Between-blocks deadline check: ParallelFor short-circuits on the first
  // error (serial stops immediately; pooled skips unstarted blocks), so
  // one firing abandons the rest of the scan.
  SCUBA_RETURN_IF_ERROR(CheckDeadline(ctx));
  QueryMetrics& metrics = QueryMetrics::Get();
  obs::PhaseTracer* tracer = ctx != nullptr ? ctx->tracer : nullptr;
  // A worker thread has no open span, so the block span attaches under the
  // explicit parent (the leaf's execute span); on the calling thread the
  // per-thread nesting wins and gives the same shape.
  obs::PhaseTracer::Span block_span(
      tracer, ctx != nullptr ? ctx->parent_span : -1,
      "block " + std::to_string(block_index));
  const int64_t span_start = tracer != nullptr ? tracer->ElapsedMicros() : 0;

  const size_t rows = block.header().row_count;
  int64_t decode_micros = 0;
  uint64_t decode_bytes = 0;
  PackedChunk packed(block, types);
  LazyColumns cols(rows, [&](const std::string& name,
                             const scan::SelVector* sel,
                             scan::ScanColumn* out) {
    Stopwatch decode_watch;
    Status s;
    PackedInt64Column* view = packed.Get(name);
    if (view != nullptr) {
      // Partial decode: only the mini-blocks (or dictionary codes) covering
      // the selected rows materialize.
      std::vector<int64_t> values;
      s = view->MaterializeInto(sel, &values);
      if (s.ok()) *out = std::move(values);
    } else {
      s = LoadBlockColumn(block, types, rows, name, out);
    }
    decode_micros += decode_watch.ElapsedMicros();
    if (s.ok()) decode_bytes += ScanColumnBytes(*out);
    return s;
  });
  Stopwatch scan_watch;
  SCUBA_RETURN_IF_ERROR(
      ProcessChunkVectorized(&cols, &packed, query, types, result));
  // Decode happens lazily inside the kernel pass, so the split is
  // total-minus-decode rather than two disjoint timers.
  int64_t total_micros = scan_watch.ElapsedMicros();
  int64_t kernel_micros = std::max<int64_t>(0, total_micros - decode_micros);
  metrics.decode_micros->Record(static_cast<uint64_t>(decode_micros));
  metrics.kernel_micros->Record(static_cast<uint64_t>(kernel_micros));
  metrics.blocks_scanned->Add(1);
  ++result->blocks_scanned;

  QueryProfile& profile = result->profile();
  ++profile.blocks_scanned;
  profile.decode_micros += decode_micros;
  profile.kernel_micros += kernel_micros;
  profile.bytes_decoded += decode_bytes;

  if (tracer != nullptr) {
    // Decode interleaves with the kernel (lazy per column), so the
    // timeline shows the split as two back-to-back synthesized children
    // whose durations are the measured totals — the same presentation the
    // restore path uses for its disk read/translate split.
    block_span.AddBytes(decode_bytes);
    tracer->AddCompletedSpan("decode", span_start, span_start + decode_micros,
                             decode_bytes);
    tracer->AddCompletedSpan("kernel", span_start + decode_micros,
                             span_start + decode_micros + kernel_micros);
  }
  return Status::OK();
}

}  // namespace

StatusOr<QueryResult> LeafExecutor::Execute(const Table& table,
                                            const Query& query) {
  return Execute(table, query, ExecOptions{});
}

StatusOr<QueryResult> LeafExecutor::Execute(const Table& table,
                                            const Query& query,
                                            const ExecOptions& options) {
  SCUBA_RETURN_IF_ERROR(query.Validate());
  QueryMetrics& metrics = QueryMetrics::Get();
  metrics.queries->Add(1);

  QueryResult result(query.aggregates);
  if (options.ctx != nullptr) result.profile().query_id = options.ctx->query_id;
  std::set<std::string> needed = NeededColumns(query);
  SCUBA_ASSIGN_OR_RETURN(TypeMap types, ResolveTypes(table, query, needed));

  // Predicates evaluate left to right with short-circuiting, so pruning a
  // block via predicate j is only equivalent to scanning it when
  // predicates 1..j-1 cannot fail on it: a mistyped earlier predicate
  // would have raised its error on the first selected row. Only the
  // well-typed predicate prefix is prune-eligible; a block that a later
  // predicate could have pruned is scanned instead so the error surfaces
  // exactly as in the scalar engine.
  size_t prunable_predicates = 0;
  while (prunable_predicates < query.predicates.size()) {
    const Predicate& pred = query.predicates[prunable_predicates];
    if (!CheckPredicateTypes(pred, types.at(pred.column)).ok()) break;
    ++prunable_predicates;
  }

  obs::PhaseTracer* tracer = options.ctx != nullptr ? options.ctx->tracer
                                                    : nullptr;
  const int parent_span = options.ctx != nullptr ? options.ctx->parent_span
                                                 : -1;

  // Pruning pass: header time range first, then per-predicate zone maps.
  // Both decide from fixed-size metadata without decoding the block.
  Stopwatch prune_watch;
  std::vector<const RowBlock*> to_scan;
  to_scan.reserve(table.num_row_blocks());
  {
    obs::PhaseTracer::Span prune_span(tracer, parent_span, "prune");
    for (size_t b = 0; b < table.num_row_blocks(); ++b) {
      const RowBlock* block = table.row_block(b);
      if (block == nullptr) continue;
      if (!block->OverlapsTimeRange(query.begin_time, query.end_time)) {
        ++result.blocks_pruned;
        ++result.profile().blocks_time_pruned;
        metrics.blocks_pruned->Add(1);
        continue;
      }
      bool pruned = false;
      for (size_t p = 0; p < prunable_predicates; ++p) {
        const Predicate& pred = query.predicates[p];
        if (ZonePrunesBlock(*block, pred, types.at(pred.column))) {
          pruned = true;
          break;
        }
      }
      if (pruned) {
        ++result.blocks_pruned;
        ++result.profile().blocks_zone_pruned;
        metrics.blocks_pruned->Add(1);
        continue;
      }
      to_scan.push_back(block);
    }
  }
  result.profile().prune_micros = prune_watch.ElapsedMicros();

  // One partial per surviving block, merged in block order below: the
  // result is bit-identical for every thread count, serial included.
  std::vector<QueryResult> partials(to_scan.size(),
                                    QueryResult(query.aggregates));
  SCUBA_RETURN_IF_ERROR(
      ParallelFor(options.pool, to_scan.size(), [&](size_t i) {
        return ScanBlock(*to_scan[i], i, query, types, options.ctx,
                         &partials[i]);
      }));
  Stopwatch merge_watch;
  {
    obs::PhaseTracer::Span merge_span(tracer, parent_span, "merge blocks");
    for (QueryResult& partial : partials) result.Merge(std::move(partial));
  }
  // Stamped after the block merge (partials carry no merge time of their
  // own, so the += below only ever adds the buffer partial's zero).
  result.profile().merge_micros += merge_watch.ElapsedMicros();

  // The write buffer scans last, on the calling thread, into its own
  // partial: merging it like a block keeps aggregate rounding identical to
  // a run where the same rows have already been sealed into a block (the
  // restart round-trip property tests compare results bit-for-bit).
  if (!table.write_buffer().empty()) {
    SCUBA_RETURN_IF_ERROR(CheckDeadline(options.ctx));
    const WriteBuffer& buffer = table.write_buffer();
    obs::PhaseTracer::Span buffer_span(tracer, parent_span, "write buffer");
    int64_t decode_micros = 0;
    uint64_t decode_bytes = 0;
    LazyColumns cols(buffer.row_count(),
                     [&](const std::string& name, const scan::SelVector* sel,
                         scan::ScanColumn* out) {
                       Stopwatch decode_watch;
                       *out = LoadBufferColumn(buffer, types, name, sel);
                       decode_micros += decode_watch.ElapsedMicros();
                       decode_bytes += ScanColumnBytes(*out);
                       return Status::OK();
                     });
    QueryResult partial(query.aggregates);
    Stopwatch scan_watch;
    SCUBA_RETURN_IF_ERROR(
        ProcessChunkVectorized(&cols, nullptr, query, types, &partial));
    QueryProfile& buffer_profile = partial.profile();
    buffer_profile.decode_micros = decode_micros;
    buffer_profile.kernel_micros =
        std::max<int64_t>(0, scan_watch.ElapsedMicros() - decode_micros);
    buffer_profile.bytes_decoded = decode_bytes;
    buffer_span.AddBytes(decode_bytes);
    result.Merge(std::move(partial));
  }
  return result;
}

StatusOr<QueryResult> LeafExecutor::ExecuteScalar(const Table& table,
                                                  const Query& query) {
  SCUBA_RETURN_IF_ERROR(query.Validate());

  QueryResult result(query.aggregates);
  std::set<std::string> needed = NeededColumns(query);
  SCUBA_ASSIGN_OR_RETURN(auto types, ResolveTypes(table, query, needed));

  for (size_t b = 0; b < table.num_row_blocks(); ++b) {
    const RowBlock* block = table.row_block(b);
    if (block == nullptr) continue;
    if (!block->OverlapsTimeRange(query.begin_time, query.end_time)) {
      ++result.blocks_pruned;
      continue;
    }
    DecodedChunk chunk;
    SCUBA_RETURN_IF_ERROR(DecodeBlock(*block, needed, types, &chunk));
    SCUBA_RETURN_IF_ERROR(ProcessChunkScalar(chunk, query, &result));
    ++result.blocks_scanned;
  }

  if (!table.write_buffer().empty()) {
    DecodedChunk chunk;
    SCUBA_RETURN_IF_ERROR(
        DecodeBuffer(table.write_buffer(), needed, types, &chunk));
    SCUBA_RETURN_IF_ERROR(ProcessChunkScalar(chunk, query, &result));
  }
  // The oracle fills the profile's coarse counters from its legacy stats
  // (it prunes on time range only and never tracks decode), so profile
  // fields in bench output stay meaningful on the scalar legs.
  QueryProfile& profile = result.profile();
  profile.blocks_scanned = result.blocks_scanned;
  profile.blocks_time_pruned = result.blocks_pruned;
  profile.rows_scanned = result.rows_scanned;
  profile.rows_matched = result.rows_matched;
  return result;
}

}  // namespace scuba
