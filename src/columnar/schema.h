#ifndef SCUBA_COLUMNAR_SCHEMA_H_
#define SCUBA_COLUMNAR_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "columnar/row.h"
#include "columnar/types.h"
#include "util/byte_buffer.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {

/// One column declaration: name and type.
struct ColumnDef {
  std::string name;
  ColumnType type;

  friend bool operator==(const ColumnDef& a, const ColumnDef& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// The schema of one row block: an ordered list of column definitions
/// (Fig 2: "Name_0, Type_0 ... Name_k, Type_k"). Different row blocks of
/// the same table may have different schemas (§2.1).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  const std::vector<ColumnDef>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }

  /// Index of the column named `name`, or nullopt.
  std::optional<size_t> FindColumn(std::string_view name) const;

  /// Appends a column. Caller guarantees the name is not already present.
  void AddColumn(std::string name, ColumnType type) {
    columns_.push_back(ColumnDef{std::move(name), type});
  }

  /// The union schema of a batch of rows, columns in first-seen order.
  /// InvalidArgument when a row lacks an int64 "time" field or a field
  /// takes two types within the batch. The disk backup encodes a batch
  /// under this schema, and the leaf checks it against the buffered
  /// columns (WriteBuffer::ConflictsWith) before any row lands.
  static StatusOr<Schema> OfRows(const std::vector<Row>& rows);

  /// Serialization: varint(count), then per column varint(name_len) + name
  /// + u8 type. Used in row block headers (heap/shm/disk all share it).
  void Serialize(ByteBuffer* out) const;
  static StatusOr<Schema> Parse(Slice* input);

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.columns_ == b.columns_;
  }

 private:
  std::vector<ColumnDef> columns_;
};

}  // namespace scuba

#endif  // SCUBA_COLUMNAR_SCHEMA_H_
