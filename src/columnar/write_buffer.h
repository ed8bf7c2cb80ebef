#ifndef SCUBA_COLUMNAR_WRITE_BUFFER_H_
#define SCUBA_COLUMNAR_WRITE_BUFFER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/row.h"
#include "columnar/row_block.h"
#include "columnar/schema.h"
#include "util/status.h"

namespace scuba {

/// Accumulates incoming rows for one table until a row block is full
/// (65,536 rows or the 1 GB pre-compression cap, §2.1), then seals them
/// into an immutable, compressed RowBlock.
///
/// Rows may carry different field sets; the buffer maintains the union
/// schema and back-fills default values, so each sealed block has a single
/// dense schema (blocks sealed at different times may differ in schema).
class WriteBuffer {
 public:
  WriteBuffer() = default;
  WriteBuffer(const WriteBuffer&) = delete;
  WriteBuffer& operator=(const WriteBuffer&) = delete;
  /// Moving leaves the source empty.
  WriteBuffer(WriteBuffer&& other) noexcept { *this = std::move(other); }
  WriteBuffer& operator=(WriteBuffer&& other) noexcept;

  /// Appends one row. Fails (leaving the buffer unchanged) if the row lacks
  /// a valid "time" field or a field's type conflicts with the buffered
  /// column's type.
  Status AddRow(const Row& row);

  /// Appends the rows of a batch given in column form — one dense value
  /// vector per `schema` column, all of one length (the shape
  /// RowBlock::Build takes) — from row `begin` until the batch ends or the
  /// buffer is Full(), moving the values out of `*columns`. Returns how
  /// many rows it took. Each column is looked up once per call, and each
  /// row counts Row::EstimatedBytes of the dense row, so appending and
  /// sealing whenever Full() cuts blocks exactly where AddRow would. Fails
  /// (leaving the buffer unchanged) if the schema lacks an int64 "time"
  /// column or repeats a name, or a column's values do not match its
  /// declared type, its length or the buffered column's type.
  StatusOr<size_t> AppendColumns(const Schema& schema,
                                 std::vector<ColumnValues>* columns,
                                 size_t begin);

  size_t row_count() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }

  /// Estimated pre-compression bytes buffered.
  uint64_t EstimatedBytes() const { return estimated_bytes_; }

  /// True when the next row must go into a fresh block.
  bool Full() const {
    return row_count_ >= kMaxRowsPerBlock ||
           estimated_bytes_ >= kMaxRowBlockBytes;
  }

  /// Seals the buffered rows into a RowBlock and resets the buffer.
  /// Fails if the buffer is empty.
  StatusOr<std::unique_ptr<RowBlock>> Seal(int64_t creation_timestamp);

  /// Moves the buffered columns out in column order — the batch
  /// AppendColumns takes — and resets the buffer.
  void TakeColumns(Schema* schema, std::vector<ColumnValues>* columns);

  /// Min/max of buffered "time" values (valid when !empty()).
  int64_t min_time() const { return min_time_; }
  int64_t max_time() const { return max_time_; }

  /// The buffered column's dense values (copy), or nullopt if no row has
  /// supplied the column yet. Lets queries see not-yet-sealed rows.
  std::optional<ColumnValues> MaterializeColumn(const std::string& name) const;

  /// The buffered column's dense values in place, or nullptr if no row has
  /// supplied the column yet. Valid until the next append or Seal.
  const ColumnValues* ColumnView(const std::string& name) const;

  /// Type of a buffered column, or nullopt.
  std::optional<ColumnType> ColumnTypeOf(const std::string& name) const;

  /// True when some column of `other` (or of a batch with `schema`) is
  /// buffered here with another type, so its rows could not be appended to
  /// this buffer.
  bool ConflictsWith(const WriteBuffer& other) const;
  bool ConflictsWith(const Schema& schema) const;

  /// Reconstructs the buffered rows (densified to the union schema, in
  /// arrival order). Used to re-seed the columnar backup's tail after a
  /// mid-batch seal rotated it away.
  std::vector<Row> MaterializeRows() const;

 private:
  struct ColumnBuffer {
    std::string name;
    ColumnType type;
    ColumnValues values;
  };

  /// The buffered column `name`, created (back-filled with defaults for
  /// the rows already buffered) when missing.
  ColumnBuffer& FindOrAddColumn(const std::string& name, ColumnType type);
  // Appends the column's default value `n` times (back-fill).
  static void AppendDefaults(ColumnBuffer* col, size_t n);
  static Status AppendValue(ColumnBuffer* col, const Value& value);
  void NoteTimes(int64_t min_time, int64_t max_time);
  void Reset();

  /// Columns in first-seen order; index_ maps a name to its position.
  std::vector<ColumnBuffer> columns_;
  std::unordered_map<std::string, size_t> index_;
  size_t row_count_ = 0;
  uint64_t estimated_bytes_ = 0;
  int64_t min_time_ = 0;
  int64_t max_time_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_COLUMNAR_WRITE_BUFFER_H_
