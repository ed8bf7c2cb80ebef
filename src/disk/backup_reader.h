#ifndef SCUBA_DISK_BACKUP_READER_H_
#define SCUBA_DISK_BACKUP_READER_H_

#include <string>

#include "columnar/table.h"
#include "disk/file.h"
#include "util/status.h"

namespace scuba {

/// The disk side of a recovery in the paper's two phases (Fig 5b): raw
/// file reads vs decode + rebuild. Filled per table by both backup readers
/// and summed by the restore engine, so with several copy workers the
/// micros are CPU time across workers rather than wall time.
struct DiskRestoreStats {
  uint64_t bytes_read = 0;
  int64_t read_micros = 0;
  int64_t translate_micros = 0;
  /// Torn or corrupt records past a table's clean prefix (or a cut at a
  /// block that failed to load); the prefix was kept.
  uint64_t records_dropped = 0;
  /// .cols tail generations other than the one matching the block count.
  uint64_t stale_tails_ignored = 0;

  void Add(const DiskRestoreStats& other) {
    bytes_read += other.bytes_read;
    read_micros += other.read_micros;
    translate_micros += other.translate_micros;
    records_dropped += other.records_dropped;
    stale_tails_ignored += other.stale_tails_ignored;
  }
};

/// Disk recovery of one row-major backup file: streams it and re-translates
/// the records into the columnar heap format. This is the slow path the
/// paper measures at 2.5-3 hours per 120 GB server (§1): the raw read is a
/// fraction of it; decode + row block building + recompression dominates.
/// The restore engine runs it once per table (core/instant_restore).
class BackupReader {
 public:
  /// Recovers the first `file_bytes` bytes of the backup file at `path` —
  /// its size when the restore began; rows appended since are ones the
  /// leaf ingested itself — into `table`, and adds the read and translate
  /// (decode + rebuild + recompress) costs to `stats`. Rows are appended as
  /// AddRows would append them: sealed into blocks as the write buffer
  /// fills, the rest left in the buffer. `now` is used as block creation
  /// time; >0 `throttle_bytes_per_sec` paces the read to model a slow disk.
  static Status RecoverTable(const std::string& path, uint64_t file_bytes,
                             Table* table, uint64_t throttle_bytes_per_sec,
                             int64_t now, DiskRestoreStats* stats);

  /// The record loop both backup formats share (the .bak file, the .cols
  /// tail): decodes each row-batch record left in `file` straight into
  /// column vectors and appends them to `table` (Table::AddColumns). A
  /// record whose field types conflict with the buffered rows first seals
  /// them into a block, so every row comes back. Table::AdoptRecovered
  /// sealed the live leaf at the restore's end instead, which the file
  /// does not record: the block boundary is the same only when the first
  /// batch ingested during the restore carried the changed field. A torn
  /// or corrupt record ends the replay, keeping the clean prefix, and is
  /// counted in `stats->records_dropped`.
  static Status ReplayRecords(ChunkedFileReader* file, Table* table,
                              int64_t now, DiskRestoreStats* stats);
};

}  // namespace scuba

#endif  // SCUBA_DISK_BACKUP_READER_H_
