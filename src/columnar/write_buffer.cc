#include "columnar/write_buffer.h"

#include <algorithm>
#include <iterator>

namespace scuba {
namespace {

size_t ValuesSize(const ColumnValues& values) {
  return std::visit([](const auto& v) { return v.size(); }, values);
}

ColumnType ValuesType(const ColumnValues& values) {
  switch (values.index()) {
    case 0:
      return ColumnType::kInt64;
    case 1:
      return ColumnType::kDouble;
    default:
      return ColumnType::kString;
  }
}

// Moves values [begin, begin + n) of `from` onto the end of `to`; both hold
// the same alternative.
void MoveRange(ColumnValues* from, size_t begin, size_t n, ColumnValues* to) {
  std::visit(
      [&](auto& src) {
        auto& dst = std::get<std::decay_t<decltype(src)>>(*to);
        auto first = src.begin() + static_cast<std::ptrdiff_t>(begin);
        auto last = first + static_cast<std::ptrdiff_t>(n);
        dst.insert(dst.end(), std::make_move_iterator(first),
                   std::make_move_iterator(last));
      },
      *from);
}

}  // namespace

WriteBuffer& WriteBuffer::operator=(WriteBuffer&& other) noexcept {
  if (this != &other) {
    columns_ = std::move(other.columns_);
    index_ = std::move(other.index_);
    row_count_ = other.row_count_;
    estimated_bytes_ = other.estimated_bytes_;
    min_time_ = other.min_time_;
    max_time_ = other.max_time_;
    other.Reset();
  }
  return *this;
}

void WriteBuffer::Reset() {
  columns_.clear();
  index_.clear();
  row_count_ = 0;
  estimated_bytes_ = 0;
  min_time_ = max_time_ = 0;
}

void WriteBuffer::AppendDefaults(ColumnBuffer* col, size_t n) {
  switch (col->type) {
    case ColumnType::kInt64: {
      auto& v = std::get<std::vector<int64_t>>(col->values);
      v.insert(v.end(), n, 0);
      break;
    }
    case ColumnType::kDouble: {
      auto& v = std::get<std::vector<double>>(col->values);
      v.insert(v.end(), n, 0.0);
      break;
    }
    case ColumnType::kString: {
      auto& v = std::get<std::vector<std::string>>(col->values);
      v.insert(v.end(), n, std::string());
      break;
    }
  }
}

Status WriteBuffer::AppendValue(ColumnBuffer* col, const Value& value) {
  if (ValueType(value) != col->type) {
    return Status::InvalidArgument("write buffer: field type conflicts with "
                                   "buffered column type");
  }
  switch (col->type) {
    case ColumnType::kInt64:
      std::get<std::vector<int64_t>>(col->values)
          .push_back(std::get<int64_t>(value));
      break;
    case ColumnType::kDouble:
      std::get<std::vector<double>>(col->values)
          .push_back(std::get<double>(value));
      break;
    case ColumnType::kString:
      std::get<std::vector<std::string>>(col->values)
          .push_back(std::get<std::string>(value));
      break;
  }
  return Status::OK();
}

WriteBuffer::ColumnBuffer& WriteBuffer::FindOrAddColumn(
    const std::string& name, ColumnType type) {
  auto [it, inserted] = index_.try_emplace(name, columns_.size());
  if (!inserted) return columns_[it->second];
  ColumnBuffer col;
  col.name = name;
  col.type = type;
  switch (type) {
    case ColumnType::kInt64:
      col.values = std::vector<int64_t>();
      break;
    case ColumnType::kDouble:
      col.values = std::vector<double>();
      break;
    case ColumnType::kString:
      col.values = std::vector<std::string>();
      break;
  }
  AppendDefaults(&col, row_count_);
  columns_.push_back(std::move(col));
  return columns_.back();
}

void WriteBuffer::NoteTimes(int64_t min_time, int64_t max_time) {
  if (row_count_ == 0) {
    min_time_ = min_time;
    max_time_ = max_time;
  } else {
    min_time_ = std::min(min_time_, min_time);
    max_time_ = std::max(max_time_, max_time);
  }
}

Status WriteBuffer::AddRow(const Row& row) {
  std::optional<int64_t> time = row.Time();
  if (!time.has_value()) {
    return Status::InvalidArgument(
        "write buffer: row lacks an int64 'time' field");
  }

  // Validate types up front so a failed row leaves the buffer unchanged.
  for (const auto& [name, value] : row.fields) {
    auto it = index_.find(name);
    if (it != index_.end() && columns_[it->second].type != ValueType(value)) {
      return Status::InvalidArgument("write buffer: field '" + name +
                                     "' conflicts with buffered column type");
    }
  }

  // Append this row's values, creating new columns back-filled with
  // defaults; then densify the columns the row does not mention.
  for (const auto& [name, value] : row.fields) {
    Status s = AppendValue(&FindOrAddColumn(name, ValueType(value)), value);
    (void)s;  // Types were validated above; AppendValue cannot fail here.
  }
  for (ColumnBuffer& col : columns_) {
    size_t have = ValuesSize(col.values);
    if (have <= row_count_) AppendDefaults(&col, row_count_ + 1 - have);
  }

  NoteTimes(*time, *time);
  ++row_count_;
  estimated_bytes_ += row.EstimatedBytes();
  return Status::OK();
}

StatusOr<size_t> WriteBuffer::AppendColumns(const Schema& schema,
                                            std::vector<ColumnValues>* columns,
                                            size_t begin) {
  const size_t num_columns = schema.num_columns();
  if (columns->size() != num_columns) {
    return Status::InvalidArgument(
        "write buffer: batch column count differs from its schema");
  }
  std::optional<size_t> time_index = schema.FindColumn(kTimeColumnName);
  if (!time_index.has_value() ||
      schema.column(*time_index).type != ColumnType::kInt64) {
    return Status::InvalidArgument(
        "write buffer: batch lacks an int64 'time' column");
  }
  const size_t num_rows = ValuesSize((*columns)[0]);

  // Validate the whole batch and look each column up once.
  constexpr size_t kNewColumn = SIZE_MAX;
  std::vector<size_t> position(num_columns, kNewColumn);
  std::vector<const std::vector<std::string>*> strings(num_columns, nullptr);
  for (size_t c = 0; c < num_columns; ++c) {
    const ColumnDef& def = schema.column(c);
    if (schema.FindColumn(def.name) != c) {
      return Status::InvalidArgument("write buffer: batch repeats column '" +
                                     def.name + "'");
    }
    const ColumnValues& values = (*columns)[c];
    if (ValuesType(values) != def.type || ValuesSize(values) != num_rows) {
      return Status::InvalidArgument("write buffer: batch column '" +
                                     def.name + "' does not match its schema");
    }
    auto it = index_.find(def.name);
    if (it != index_.end()) {
      if (columns_[it->second].type != def.type) {
        return Status::InvalidArgument(
            "write buffer: field '" + def.name +
            "' conflicts with buffered column type");
      }
      position[c] = it->second;
    }
    if (def.type == ColumnType::kString) {
      strings[c] = &std::get<std::vector<std::string>>(values);
    }
  }
  if (begin >= num_rows || Full()) return size_t{0};

  // Take rows, each counting Row::EstimatedBytes of the dense row, until
  // the batch ends, the row cap is reached, or a row's bytes reach the byte
  // cap — the row after which AddRow's caller would seal.
  const size_t max_take =
      std::min(num_rows - begin, kMaxRowsPerBlock - row_count_);
  uint64_t bytes = 0;
  size_t take = 0;
  while (take < max_take) {
    const size_t r = begin + take++;
    for (size_t c = 0; c < num_columns; ++c) {
      bytes += EstimatedFieldBytes(
          schema.column(c).name.size(),
          strings[c] != nullptr ? (*strings[c])[r].size() : 0);
    }
    if (estimated_bytes_ + bytes >= kMaxRowBlockBytes) break;
  }

  for (size_t c = 0; c < num_columns; ++c) {
    ColumnBuffer& col =
        position[c] == kNewColumn
            ? FindOrAddColumn(schema.column(c).name, schema.column(c).type)
            : columns_[position[c]];
    MoveRange(&(*columns)[c], begin, take, &col.values);
  }
  for (ColumnBuffer& col : columns_) {
    size_t have = ValuesSize(col.values);
    if (have < row_count_ + take) {
      AppendDefaults(&col, row_count_ + take - have);
    }
  }

  const auto& times = std::get<std::vector<int64_t>>((*columns)[*time_index]);
  const auto first = times.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto [lo, hi] =
      std::minmax_element(first, first + static_cast<std::ptrdiff_t>(take));
  NoteTimes(*lo, *hi);
  row_count_ += take;
  estimated_bytes_ += bytes;
  return take;
}

std::optional<ColumnValues> WriteBuffer::MaterializeColumn(
    const std::string& name) const {
  const ColumnValues* values = ColumnView(name);
  if (values == nullptr) return std::nullopt;
  return *values;
}

const ColumnValues* WriteBuffer::ColumnView(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &columns_[it->second].values;
}

std::optional<ColumnType> WriteBuffer::ColumnTypeOf(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return columns_[it->second].type;
}

bool WriteBuffer::ConflictsWith(const WriteBuffer& other) const {
  for (const ColumnBuffer& col : other.columns_) {
    std::optional<ColumnType> type = ColumnTypeOf(col.name);
    if (type.has_value() && *type != col.type) return true;
  }
  return false;
}

bool WriteBuffer::ConflictsWith(const Schema& schema) const {
  for (const ColumnDef& col : schema.columns()) {
    std::optional<ColumnType> type = ColumnTypeOf(col.name);
    if (type.has_value() && *type != col.type) return true;
  }
  return false;
}

std::vector<Row> WriteBuffer::MaterializeRows() const {
  std::vector<Row> rows(row_count_);
  for (const ColumnBuffer& col : columns_) {
    std::visit(
        [&](const auto& values) {
          for (size_t i = 0; i < values.size() && i < rows.size(); ++i) {
            rows[i].Set(col.name, values[i]);
          }
        },
        col.values);
  }
  return rows;
}

void WriteBuffer::TakeColumns(Schema* schema,
                              std::vector<ColumnValues>* columns) {
  *schema = Schema();
  columns->clear();
  columns->reserve(columns_.size());
  for (ColumnBuffer& col : columns_) {
    schema->AddColumn(std::move(col.name), col.type);
    columns->push_back(std::move(col.values));
  }
  Reset();
}

StatusOr<std::unique_ptr<RowBlock>> WriteBuffer::Seal(
    int64_t creation_timestamp) {
  if (empty()) {
    return Status::FailedPrecondition("write buffer: nothing to seal");
  }
  Schema schema;
  std::vector<ColumnValues> values;
  TakeColumns(&schema, &values);
  return RowBlock::Build(std::move(schema), std::move(values),
                         creation_timestamp);
}

}  // namespace scuba
