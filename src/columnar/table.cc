#include "columnar/table.h"

#include <algorithm>

namespace scuba {

Status Table::SealInternal(int64_t now) {
  SCUBA_ASSIGN_OR_RETURN(std::unique_ptr<RowBlock> block,
                         write_buffer_.Seal(now));
  row_blocks_.push_back(std::move(block));
  if (seal_observer_) {
    SCUBA_RETURN_IF_ERROR(seal_observer_(*row_blocks_.back()));
  }
  return Status::OK();
}

Status Table::AddRows(const std::vector<Row>& rows, int64_t now) {
  for (const Row& row : rows) {
    SCUBA_RETURN_IF_ERROR(write_buffer_.AddRow(row));
    if (write_buffer_.Full()) {
      SCUBA_RETURN_IF_ERROR(SealInternal(now));
    }
  }
  return Status::OK();
}

Status Table::AddColumns(const Schema& schema,
                         std::vector<ColumnValues> columns, int64_t now) {
  const size_t num_rows =
      columns.empty()
          ? 0
          : std::visit([](const auto& v) { return v.size(); }, columns[0]);
  size_t begin = 0;
  do {
    SCUBA_ASSIGN_OR_RETURN(
        size_t taken, write_buffer_.AppendColumns(schema, &columns, begin));
    begin += taken;
    if (write_buffer_.Full()) {
      SCUBA_RETURN_IF_ERROR(SealInternal(now));
    }
  } while (begin < num_rows);
  return Status::OK();
}

Status Table::AdoptRecovered(Table* recovered, int64_t now) {
  // A field whose type changed between the recovered tail and the rows
  // buffered here would fail their append: seal the tail into a block of
  // its own ahead of them instead.
  if (recovered->write_buffer_.ConflictsWith(write_buffer_)) {
    SCUBA_RETURN_IF_ERROR(recovered->SealWriteBuffer(now));
  }
  for (auto& block : recovered->row_blocks_) {
    if (block != nullptr) row_blocks_.push_back(std::move(block));
  }
  recovered->row_blocks_.clear();
  if (recovered->write_buffer_.empty()) return Status::OK();
  WriteBuffer newer = std::move(write_buffer_);
  write_buffer_ = std::move(recovered->write_buffer_);
  if (newer.empty()) return Status::OK();
  Schema schema;
  std::vector<ColumnValues> columns;
  newer.TakeColumns(&schema, &columns);
  return AddColumns(schema, std::move(columns), now);
}

Status Table::SealWriteBuffer(int64_t now) {
  if (write_buffer_.empty()) return Status::OK();
  return SealInternal(now);
}

size_t Table::ExpireData(int64_t now) {
  size_t dropped = 0;

  if (limits_.max_age_seconds > 0) {
    int64_t cutoff = now - limits_.max_age_seconds;
    auto it = row_blocks_.begin();
    while (it != row_blocks_.end()) {
      if ((*it) != nullptr && (*it)->header().max_time < cutoff) {
        it = row_blocks_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    if (!write_buffer_.empty() && write_buffer_.max_time() < cutoff) {
      write_buffer_ = WriteBuffer();
      ++dropped;
    }
  }

  if (limits_.max_bytes > 0) {
    // Rows arrive roughly chronologically, so the front blocks are oldest.
    while (row_blocks_.size() > 1 && MemoryBytes() > limits_.max_bytes) {
      row_blocks_.erase(row_blocks_.begin());
      ++dropped;
    }
  }
  return dropped;
}

uint64_t Table::RowCount() const {
  uint64_t count = write_buffer_.row_count();
  for (const auto& block : row_blocks_) {
    if (block != nullptr) count += block->header().row_count;
  }
  return count;
}

uint64_t Table::MemoryBytes() const {
  uint64_t bytes = write_buffer_.EstimatedBytes();
  for (const auto& block : row_blocks_) {
    if (block != nullptr) bytes += block->MemoryBytes();
  }
  return bytes;
}

std::vector<size_t> Table::BlocksInTimeRange(int64_t begin, int64_t end) const {
  std::vector<size_t> indices;
  for (size_t i = 0; i < row_blocks_.size(); ++i) {
    if (row_blocks_[i] != nullptr &&
        row_blocks_[i]->OverlapsTimeRange(begin, end)) {
      indices.push_back(i);
    }
  }
  return indices;
}

}  // namespace scuba
