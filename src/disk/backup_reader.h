#ifndef SCUBA_DISK_BACKUP_READER_H_
#define SCUBA_DISK_BACKUP_READER_H_

#include <string>

#include "columnar/table.h"
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

/// Disk recovery of one row-major backup file: reads it and re-translates
/// the records into the columnar heap format. This is the slow path the
/// paper measures at 2.5-3 hours per 120 GB server (§1): the raw read is a
/// fraction of it; decode + row block building + recompression dominates.
/// The restore engine runs it once per table (core/instant_restore).
class BackupReader {
 public:
  /// Recovers the backup file at `path` into `table`, appending sealed row
  /// blocks, and adds its read and translate (decode + rebuild +
  /// recompress) costs to `stats`. `now` is used as block creation time;
  /// >0 `throttle_bytes_per_sec` paces the read to model a slow disk.
  static Status RecoverTable(const std::string& path, Table* table,
                             uint64_t throttle_bytes_per_sec, int64_t now,
                             DiskRestoreStats* stats);
};

}  // namespace scuba

#endif  // SCUBA_DISK_BACKUP_READER_H_
