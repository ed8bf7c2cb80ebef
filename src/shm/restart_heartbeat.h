#ifndef SCUBA_SHM_RESTART_HEARTBEAT_H_
#define SCUBA_SHM_RESTART_HEARTBEAT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "shm/shm_segment.h"
#include "util/status.h"

namespace scuba {

/// The restart pipeline phase a leaf process is currently in, as published
/// through the heartbeat block. Values are stable wire constants (they live
/// in shared memory across binaries); append only.
enum class RestartPhase : uint32_t {
  kIdle = 0,          // no restart in progress
  kPrepare = 1,       // Fig 5c PREPARE: drain, seal buffers, flush backups
  kCopyOut = 2,       // Fig 6 heap -> shm copy loop
  kSetValid = 3,      // Fig 6 final step
  kExited = 4,        // old process done; successor not attached yet
  kOpenMetadata = 5,  // Fig 7 open + validate metadata
  kCopyIn = 6,        // Fig 7 shm -> heap copy loop
  kDiskRecover = 7,   // Fig 5b disk path (read + translate)
  kAlive = 8,         // recovery finished, serving
  kFailed = 9,        // restart op failed (successor falls back / operator)
};

std::string_view RestartPhaseName(RestartPhase phase);

/// A tiny fixed-name shared-memory block through which a leaf publishes
/// restart progress to observers OUTSIDE the process (the rollover
/// orchestrator, dashboards): generation, phase, bytes copied / total, a
/// monotonic stamp, and a checksum. This is what makes the §4.3 restart
/// window externally trackable — today's alternative is a blunt 180 s
/// watchdog over an opaque process.
///
/// The block deliberately lives OUTSIDE the `<prefix>_leaf_<id>_` segment
/// namespace that ScrubSharedMemory() removes: progress reporting must
/// survive the scrub that precedes a shutdown and the cleanup that follows
/// a failed restore.
///
/// Concurrency: every slot is a lock-free `std::atomic<uint64_t>` mapped
/// in shared memory. `AddBytesCopied` / `Beat` are called from every copy
/// worker (relaxed fetch_add / store — the same discipline as the sharded
/// metrics); the slow fields (generation, phase, bytes_total) are written
/// by the single orchestrating thread and covered by a CRC32C so a reader
/// can tell a live block from the garbage a crashed predecessor (or a
/// different layout) left behind. A reader racing a slow-field update can
/// observe a transient checksum mismatch; readers poll, so they simply
/// skip that sample.
class RestartHeartbeat {
 public:
  /// Bumped when the block layout changes; a mismatch reads as stale.
  /// v2 added the instant-restore block counters and coarse bitmap.
  static constexpr uint32_t kLayoutVersion = 2;

  /// Fixed block name for `leaf_id` under `namespace_prefix`
  /// (e.g. "scuba" -> "/scuba_hb_3").
  static std::string SegmentNameForLeaf(const std::string& namespace_prefix,
                                        uint32_t leaf_id);

  /// Writer entry point: opens the leaf's block, creating it if missing or
  /// reinitializing it if its magic/version/checksum do not validate
  /// (stale garbage from a crashed predecessor). On a valid existing block
  /// the generation increments — each Attach is one process generation.
  static StatusOr<RestartHeartbeat> Attach(const std::string& namespace_prefix,
                                           uint32_t leaf_id);

  /// Removes the block (cluster cleanup, tests). OK if absent.
  static Status Remove(const std::string& namespace_prefix, uint32_t leaf_id);

  RestartHeartbeat(RestartHeartbeat&&) noexcept = default;
  RestartHeartbeat& operator=(RestartHeartbeat&&) noexcept = default;

  uint64_t generation() const { return generation_; }

  /// Publishes the phase (slow field; re-checksums) and refreshes the
  /// stamp. Called a handful of times per restart.
  void SetPhase(RestartPhase phase);

  /// Publishes the total bytes this restart op will move (slow field) and
  /// restarts the progress counter from zero, so each copy — a restore,
  /// then a later shutdown in the same generation — reads 0..1.
  void SetBytesTotal(uint64_t total);

  /// Adds to the free-running progress counter and refreshes the stamp.
  /// Called from every copy worker after each column/block lands; a
  /// handful of relaxed atomic ops, negligible next to the memcpy.
  void AddBytesCopied(uint64_t bytes);

  /// Refreshes the stamp only — "alive, still in this phase". For long
  /// phases that move no bytes (seal, fsync, metadata).
  void Beat();

  /// Buckets in the coarse restore bitmap published through the block: the
  /// leaf's row blocks are mapped onto 64 equal ranges and each bucket's
  /// bit is set once every block in its range has been restored. Observers
  /// get a spatial restore picture without a variable-size shm layout.
  static constexpr size_t kBitmapBuckets = 64;

  /// Publishes the total number of row blocks this restore will move
  /// (slow field; re-checksums). Zero outside instant restore.
  void SetBlocksTotal(uint64_t total);

  /// Counts one restored row block, attributed to a query-driven priority
  /// pull (`on_demand`) or the background sequential filler. Called from
  /// restore workers: relaxed fetch_adds plus a stamp refresh.
  void AddBlockRestored(bool on_demand);

  /// ORs bits into the coarse restore bitmap (relaxed fetch_or). The
  /// writer sets a bucket's bit when its whole range has landed.
  void OrRestoreBitmap(uint64_t bits);

  /// One validated sample of a heartbeat block.
  struct Reading {
    uint64_t generation = 0;
    RestartPhase phase = RestartPhase::kIdle;
    uint64_t bytes_copied = 0;
    uint64_t bytes_total = 0;
    /// Writer's CLOCK_MONOTONIC-domain stamp (comparable across processes
    /// on one machine) of the last SetPhase/AddBytesCopied/Beat.
    int64_t stamp_micros = 0;
    /// Instant-restore view: row blocks total/landed, how many of the
    /// landed ones were query-driven priority pulls, and the coarse
    /// 64-bucket restore bitmap. All zero outside instant restore.
    uint64_t blocks_total = 0;
    uint64_t blocks_restored = 0;
    uint64_t blocks_on_demand = 0;
    uint64_t restore_bitmap = 0;

    double Progress() const {
      return bytes_total == 0
                 ? 0.0
                 : static_cast<double>(bytes_copied) /
                       static_cast<double>(bytes_total);
    }
    double BlockProgress() const {
      return blocks_total == 0
                 ? 0.0
                 : static_cast<double>(blocks_restored) /
                       static_cast<double>(blocks_total);
    }
    /// True if this sample shows advance over `prev` (generation, phase,
    /// bytes, or stamp moved) — the unit of stall detection.
    bool AdvancedOver(const Reading& prev) const {
      return generation != prev.generation || phase != prev.phase ||
             bytes_copied != prev.bytes_copied ||
             stamp_micros != prev.stamp_micros;
    }
  };

  /// Reader entry point: opens an existing block WITHOUT reinitializing it
  /// or bumping the generation. The handle keeps the mapping, so a polling
  /// monitor maps once and samples with Read().
  ///  - NotFound — no block (leaf never published).
  static StatusOr<RestartHeartbeat> OpenForRead(
      const std::string& namespace_prefix, uint32_t leaf_id);

  /// One validated sample of this handle's block.
  ///  - Unavailable — magic/version/checksum do not validate (stale
  ///                  predecessor garbage or a racing slow-field write);
  ///                  poll again or ignore.
  StatusOr<Reading> Read() const;

  /// Convenience: OpenForRead + Read in one shot (tests, one-off probes).
  static StatusOr<Reading> ReadOnce(const std::string& namespace_prefix,
                                    uint32_t leaf_id);

  /// The monotonic clock the stamp lives in, exposed so readers can
  /// compute a sample's age in the writer's time domain.
  static int64_t MonotonicMicros();

 private:
  // Slot layout (all uint64): [0] magic|version, [1] generation,
  // [2] phase, [3] bytes_copied, [4] bytes_total, [5] stamp_micros,
  // [6] checksum over slots 0,1,2,4,7, [7] blocks_total,
  // [8] blocks_restored, [9] blocks_on_demand, [10] restore bitmap
  // (64 coarse buckets, fetch_or), [11] reserved.
  static constexpr size_t kNumSlots = 12;
  static constexpr size_t kBlockBytes = kNumSlots * sizeof(uint64_t);

  explicit RestartHeartbeat(ShmSegment segment)
      : segment_(std::move(segment)) {}

  std::atomic<uint64_t>* Slot(size_t i);
  const std::atomic<uint64_t>* Slot(size_t i) const;
  /// Recomputes and stores the slow-field checksum.
  void Seal();

  ShmSegment segment_;
  uint64_t generation_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_SHM_RESTART_HEARTBEAT_H_
