#ifndef SCUBA_COLUMNAR_TABLE_H_
#define SCUBA_COLUMNAR_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/row.h"
#include "columnar/row_block.h"
#include "columnar/write_buffer.h"
#include "util/status.h"

namespace scuba {

/// Retention limits: data expires by age or by total size (§2, "they also
/// delete data as it expires due to either age or size limits").
struct TableLimits {
  /// Rows older than now - max_age_seconds are dropped (0 = no age limit).
  int64_t max_age_seconds = 0;
  /// Oldest row blocks are dropped while the table exceeds this many bytes
  /// (0 = no size limit).
  uint64_t max_bytes = 0;
};

/// A table (Fig 2): name + header + a vector of POINTERS to row blocks,
/// plus the active write buffer receiving new rows. Not thread-safe; the
/// owning leaf server serializes access.
class Table {
 public:
  explicit Table(std::string name, TableLimits limits = TableLimits())
      : name_(std::move(name)), limits_(limits) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const TableLimits& limits() const { return limits_; }

  /// Observer invoked right after a row block is sealed (by AddRows or
  /// SealWriteBuffer). Used by the columnar backup (§6) to mirror sealed
  /// blocks to disk. A failing observer fails the sealing operation.
  using SealObserver = std::function<Status(const RowBlock& block)>;
  void SetSealObserver(SealObserver observer) {
    seal_observer_ = std::move(observer);
  }

  /// Appends rows, sealing the write buffer into row blocks as it fills.
  /// `now` is the unix timestamp used as block creation time.
  Status AddRows(const std::vector<Row>& rows, int64_t now);

  /// Appends a batch given in column form (WriteBuffer::AppendColumns),
  /// sealing the write buffer into row blocks at the same rows AddRows
  /// would for the batch's dense rows.
  Status AddColumns(const Schema& schema, std::vector<ColumnValues> columns,
                    int64_t now);

  /// Seals any buffered rows into a final (possibly short) row block.
  /// Called when shutdown flushes state (Fig 5c "PREPARE"). No-op when the
  /// buffer is empty.
  Status SealWriteBuffer(int64_t now);

  /// Applies the age/size limits, dropping whole expired row blocks, and
  /// the write buffer too once its newest row is past the age limit.
  /// Returns the number of blocks (and buffers) dropped.
  size_t ExpireData(int64_t now);

  size_t num_row_blocks() const { return row_blocks_.size(); }
  const RowBlock* row_block(size_t i) const { return row_blocks_[i].get(); }
  RowBlock* mutable_row_block(size_t i) { return row_blocks_[i].get(); }
  const WriteBuffer& write_buffer() const { return write_buffer_; }

  /// Rows in sealed blocks plus buffered rows.
  uint64_t RowCount() const;

  /// Heap bytes held by sealed blocks plus the buffered estimate.
  uint64_t MemoryBytes() const;

  /// Indices of row blocks whose time range intersects [begin, end].
  std::vector<size_t> BlocksInTimeRange(int64_t begin, int64_t end) const;

  // --- restart support -----------------------------------------------------

  /// Detaches row block `i` so the shutdown path can free it after copying
  /// (Fig 6 "delete row block from heap").
  std::unique_ptr<RowBlock> ReleaseRowBlock(size_t i) {
    return std::move(row_blocks_[i]);
  }

  /// Instant restore: pre-sizes the block vector with `n` null slots so
  /// blocks can land out of order while preserving the original block
  /// order (query results stay bit-identical to a blocking restore). All
  /// readers (RowCount, MemoryBytes, BlocksInTimeRange, scans) skip null
  /// slots.
  void ReserveRestoreSlots(size_t n) {
    if (row_blocks_.size() < n) row_blocks_.resize(n);
  }

  /// Installs a restored row block at slot `i` (reserved above).
  void AdoptRowBlockAt(size_t i, std::unique_ptr<RowBlock> block) {
    row_blocks_[i] = std::move(block);
  }

  /// Moves in a table rebuilt off to the side from a backup file (a .bak
  /// translate, a .cols tail): its sealed blocks are appended, its write
  /// buffer becomes this table's, and the rows this table had buffered
  /// (ingested during an instant restore) are appended after it, so they
  /// follow the file's rows. If a field's type differs between the two
  /// buffers, the recovered one is sealed into a block instead and this
  /// table's buffer stays. Leaves `recovered` empty.
  Status AdoptRecovered(Table* recovered, int64_t now);

 private:
  Status SealInternal(int64_t now);

  std::string name_;
  TableLimits limits_;
  std::vector<std::unique_ptr<RowBlock>> row_blocks_;
  WriteBuffer write_buffer_;
  SealObserver seal_observer_;
};

}  // namespace scuba

#endif  // SCUBA_COLUMNAR_TABLE_H_
