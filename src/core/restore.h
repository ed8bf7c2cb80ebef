#ifndef SCUBA_CORE_RESTORE_H_
#define SCUBA_CORE_RESTORE_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "columnar/table.h"
#include "disk/backup_reader.h"
#include "obs/trace.h"

namespace scuba {

/// Where a recovery ultimately sourced its data.
enum class RecoverySource {
  kSharedMemory,  // fast path: memcpy out of shm
  kDisk,          // slow path: read + translate the backup
  kFresh,         // nothing to recover (new leaf)
};

std::string_view RecoverySourceName(RecoverySource source);

/// Restore-side knobs, one set for every source the restore engine drains
/// (shm segments, .cols and .bak backups). The copy-thread count is
/// RestartConfig::num_copy_threads, shared with the shutdown direction.
struct RestoreOptions {
  /// Verify each column's CRC32C while loading it — shm and .cols alike
  /// (cheap insurance; the paper trusts clean-shutdown state, but the
  /// checksum catches torn segments and fat-fingered segment names).
  bool verify_checksums = true;
  /// Retention limits applied to restored tables; expiry runs once, after
  /// the engine finishes (Fig 5: "deletions are made after recovery").
  TableLimits table_limits;
  /// >0 paces backup-file reads to model a slow disk (bytes/second).
  uint64_t disk_throttle_bytes_per_sec = 0;
  /// Cap on bytes copied to the heap whose source pages have not been
  /// released yet (§4.4's footprint invariant, widened from one row block
  /// to this budget). 0 = auto: copy threads x the largest restore unit.
  uint64_t max_in_flight_bytes = 0;
  /// Optional phase tracer for RestartManager::Recover's timeline (Fig 7's
  /// open_metadata, copy_in, destroy_metadata; disk_read, disk_translate;
  /// then expire). nullptr = Recover keeps a private one for the report.
  obs::PhaseTracer* tracer = nullptr;
};

/// Counters from one restore engine run. Fields are atomics because every
/// copy worker updates them; copying the struct takes a snapshot.
///
/// This is the PER-OPERATION view; the same increments also land in the
/// process-wide MetricsRegistry under scuba.core.restore.* (cumulative
/// across operations, exported by MetricsRegistry::ToJson).
struct RestoreStats {
  std::atomic<uint64_t> tables_restored{0};
  std::atomic<uint64_t> row_blocks_restored{0};
  std::atomic<uint64_t> columns_restored{0};
  std::atomic<uint64_t> bytes_copied{0};
  std::atomic<int64_t> elapsed_micros{0};
  /// Time spent validating column checksums, summed across copy workers
  /// (so it can exceed elapsed_micros with several workers): the checksum
  /// share of shm copy-in or .cols translation, not an extra stage. 0 when
  /// verify_checksums is off and for .bak sources, whose CRCs are per
  /// record and checked by the reader.
  std::atomic<int64_t> verify_micros{0};
  /// Split of the restored units into query-driven priority pulls vs. the
  /// background sequential filler. A blocking restore has no queries, so
  /// every unit is background.
  std::atomic<uint64_t> blocks_on_demand{0};
  std::atomic<uint64_t> blocks_background{0};

  RestoreStats() = default;
  RestoreStats(const RestoreStats& other) { *this = other; }
  RestoreStats& operator=(const RestoreStats& other) {
    tables_restored = other.tables_restored.load();
    row_blocks_restored = other.row_blocks_restored.load();
    columns_restored = other.columns_restored.load();
    bytes_copied = other.bytes_copied.load();
    elapsed_micros = other.elapsed_micros.load();
    verify_micros = other.verify_micros.load();
    blocks_on_demand = other.blocks_on_demand.load();
    blocks_background = other.blocks_background.load();
    return *this;
  }
};

}  // namespace scuba

#endif  // SCUBA_CORE_RESTORE_H_
