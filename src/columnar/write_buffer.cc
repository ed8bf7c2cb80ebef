#include "columnar/write_buffer.h"

#include <algorithm>

namespace scuba {

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

Status WriteBuffer::AddRow(const Row& row) {
  std::optional<int64_t> time = row.Time();
  if (!time.has_value()) {
    return Status::InvalidArgument(
        "write buffer: row lacks an int64 'time' field");
  }

  // Validate types up front so a failed row leaves the buffer unchanged.
  for (const auto& [name, value] : row.fields) {
    auto it = columns_.find(name);
    if (it != columns_.end() && it->second.type != ValueType(value)) {
      return Status::InvalidArgument("write buffer: field '" + name +
                                     "' conflicts with buffered column type");
    }
  }

  // Create any new columns, back-filled with defaults for earlier rows.
  for (const auto& [name, value] : row.fields) {
    if (columns_.find(name) != columns_.end()) continue;
    ColumnBuffer col;
    col.type = ValueType(value);
    switch (col.type) {
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
    column_order_.push_back(name);
    columns_.emplace(name, std::move(col));
  }

  // Append this row's values; densify columns the row does not mention.
  for (const auto& [name, value] : row.fields) {
    Status s = AppendValue(&columns_.find(name)->second, value);
    (void)s;  // Types were validated above; AppendValue cannot fail here.
  }
  for (const std::string& name : column_order_) {
    ColumnBuffer& col = columns_.find(name)->second;
    size_t expect = row_count_ + 1;
    size_t have = std::visit([](const auto& v) { return v.size(); },
                             col.values);
    if (have < expect) AppendDefaults(&col, expect - have);
  }

  ++row_count_;
  estimated_bytes_ += row.EstimatedBytes();
  if (row_count_ == 1) {
    min_time_ = max_time_ = *time;
  } else {
    min_time_ = std::min(min_time_, *time);
    max_time_ = std::max(max_time_, *time);
  }
  return Status::OK();
}

std::optional<ColumnValues> WriteBuffer::MaterializeColumn(
    const std::string& name) const {
  const ColumnValues* values = ColumnView(name);
  if (values == nullptr) return std::nullopt;
  return *values;
}

const ColumnValues* WriteBuffer::ColumnView(const std::string& name) const {
  auto it = columns_.find(name);
  return it == columns_.end() ? nullptr : &it->second.values;
}

std::optional<ColumnType> WriteBuffer::ColumnTypeOf(
    const std::string& name) const {
  auto it = columns_.find(name);
  if (it == columns_.end()) return std::nullopt;
  return it->second.type;
}

std::vector<Row> WriteBuffer::MaterializeRows() const {
  std::vector<Row> rows(row_count_);
  for (const std::string& name : column_order_) {
    const ColumnBuffer& col = columns_.find(name)->second;
    std::visit(
        [&](const auto& values) {
          for (size_t i = 0; i < values.size() && i < rows.size(); ++i) {
            rows[i].Set(name, values[i]);
          }
        },
        col.values);
  }
  return rows;
}

StatusOr<std::unique_ptr<RowBlock>> WriteBuffer::Seal(
    int64_t creation_timestamp) {
  if (empty()) {
    return Status::FailedPrecondition("write buffer: nothing to seal");
  }
  Schema schema;
  std::vector<ColumnValues> values;
  values.reserve(column_order_.size());
  for (const std::string& name : column_order_) {
    ColumnBuffer& col = columns_.find(name)->second;
    schema.AddColumn(name, col.type);
    values.push_back(std::move(col.values));
  }
  auto block = RowBlock::Build(std::move(schema), std::move(values),
                               creation_timestamp);

  column_order_.clear();
  columns_.clear();
  row_count_ = 0;
  estimated_bytes_ = 0;
  min_time_ = max_time_ = 0;
  return block;
}

}  // namespace scuba
