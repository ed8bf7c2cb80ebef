#include "columnar/schema.h"

#include <string_view>

#include "compress/dictionary.h"
#include "util/varint.h"

namespace scuba {

StatusOr<Schema> Schema::OfRows(const std::vector<Row>& rows) {
  Schema schema;
  // A field's code is its column index.
  dictionary::CodeTable<std::string_view> names;
  for (const Row& row : rows) {
    if (!row.Time().has_value()) {
      return Status::InvalidArgument("batch: row lacks an int64 'time' field");
    }
    for (const auto& [name, value] : row.fields) {
      const ColumnType type = ValueType(value);
      const uint32_t code = names.Intern(name);
      if (code == schema.num_columns()) {
        schema.AddColumn(name, type);
      } else if (schema.column(code).type != type) {
        return Status::InvalidArgument("batch: field '" + name +
                                       "' has conflicting types");
      }
    }
  }
  return schema;
}

std::optional<size_t> Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

void Schema::Serialize(ByteBuffer* out) const {
  varint::AppendU64(out, columns_.size());
  for (const ColumnDef& col : columns_) {
    varint::AppendU64(out, col.name.size());
    out->Append(col.name.data(), col.name.size());
    out->AppendU8(static_cast<uint8_t>(col.type));
  }
}

StatusOr<Schema> Schema::Parse(Slice* input) {
  uint64_t count = 0;
  if (!varint::ReadU64(input, &count)) {
    return Status::Corruption("schema: truncated column count");
  }
  std::vector<ColumnDef> columns;
  columns.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    if (!varint::ReadU64(input, &name_len) || input->size() < name_len + 1) {
      return Status::Corruption("schema: truncated column definition");
    }
    std::string name(reinterpret_cast<const char*>(input->data()), name_len);
    input->RemovePrefix(name_len);
    uint8_t type_byte = (*input)[0];
    input->RemovePrefix(1);
    if (type_byte < 1 || type_byte > 3) {
      return Status::Corruption("schema: invalid column type");
    }
    columns.push_back(
        ColumnDef{std::move(name), static_cast<ColumnType>(type_byte)});
  }
  return Schema(std::move(columns));
}

}  // namespace scuba
