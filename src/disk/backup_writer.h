#ifndef SCUBA_DISK_BACKUP_WRITER_H_
#define SCUBA_DISK_BACKUP_WRITER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/row.h"
#include "columnar/schema.h"
#include "disk/file.h"
#include "util/status.h"

namespace scuba {

/// Maintains a leaf server's on-disk backup: one append-only file per
/// table under the leaf's backup directory. "Scuba stores backups of all
/// incoming data to disk, so it is always possible to recover from disk"
/// (§4.1). Appends go to the OS page cache; SyncAll() is the shutdown
/// step that "finishes any pending synchronization with the data on disk"
/// — only tables dirty since the last sync are fsync'd.
class BackupWriter {
 public:
  explicit BackupWriter(std::string dir) : dir_(std::move(dir)) {}

  BackupWriter(const BackupWriter&) = delete;
  BackupWriter& operator=(const BackupWriter&) = delete;

  /// Creates the backup directory if needed.
  Status Init() { return EnsureDir(dir_); }

  /// Appends a batch of rows to `table`'s backup file (creating it with a
  /// file header on first use). `schema` is the batch's union schema,
  /// Schema::OfRows(rows).
  Status AppendBatch(const std::string& table, const Schema& schema,
                     const std::vector<Row>& rows);

  /// fsyncs every table file dirtied since its last sync.
  Status SyncAll();

  /// Path of a table's backup file: <dir>/<table>.bak.
  std::string FilePathFor(const std::string& table) const {
    return dir_ + "/" + table + ".bak";
  }

  const std::string& dir() const { return dir_; }
  uint64_t total_bytes_written() const { return total_bytes_written_; }
  size_t dirty_table_count() const;

 private:
  struct TableFile {
    std::unique_ptr<AppendableFile> file;
    bool dirty = false;
  };

  StatusOr<TableFile*> GetOrOpen(const std::string& table);

  std::string dir_;
  std::unordered_map<std::string, TableFile> files_;
  uint64_t total_bytes_written_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_DISK_BACKUP_WRITER_H_
