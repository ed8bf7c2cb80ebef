#ifndef SCUBA_COLUMNAR_ROW_H_
#define SCUBA_COLUMNAR_ROW_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "columnar/types.h"

namespace scuba {

/// The row-block byte cap's estimate for one field: a name of `name_size`
/// bytes with a value carrying `string_size` payload bytes (0 unless the
/// value is a string). Row::EstimatedBytes and WriteBuffer::AppendColumns
/// both sum it, so both cut blocks at the same row.
inline size_t EstimatedFieldBytes(size_t name_size, size_t string_size) {
  return name_size + 16 + string_size;
}

/// One ingested row: named fields. Every row must include the int64 "time"
/// field (the event's unix timestamp, §2.1). Rows within one table may have
/// different field sets; the write buffer densifies them.
struct Row {
  std::vector<std::pair<std::string, Value>> fields;

  Row() = default;
  explicit Row(std::vector<std::pair<std::string, Value>> f)
      : fields(std::move(f)) {}

  Row& Set(std::string name, Value value) {
    fields.emplace_back(std::move(name), std::move(value));
    return *this;
  }
  Row& SetTime(int64_t unix_seconds) {
    return Set(kTimeColumnName, Value(unix_seconds));
  }

  /// The value of the "time" field, if present and int64-typed.
  std::optional<int64_t> Time() const {
    for (const auto& [name, value] : fields) {
      if (name == kTimeColumnName) {
        if (const int64_t* t = std::get_if<int64_t>(&value)) return *t;
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// Rough in-memory size used for row-block byte capping.
  size_t EstimatedBytes() const {
    size_t bytes = 0;
    for (const auto& [name, value] : fields) {
      const std::string* s = std::get_if<std::string>(&value);
      bytes += EstimatedFieldBytes(name.size(), s != nullptr ? s->size() : 0);
    }
    return bytes;
  }
};

}  // namespace scuba

#endif  // SCUBA_COLUMNAR_ROW_H_
