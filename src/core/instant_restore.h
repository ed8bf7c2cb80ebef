#ifndef SCUBA_CORE_INSTANT_RESTORE_H_
#define SCUBA_CORE_INSTANT_RESTORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "columnar/leaf_map.h"
#include "columnar/row_block.h"
#include "columnar/table.h"
#include "core/footprint.h"
#include "core/restart_events.h"
#include "core/restore.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace scuba {

/// One-bit-per-restore-unit tracking of what has landed on the heap, after
/// "Instant restore after a media failure" (Sauer et al.) and zero's
/// RestoreBitmap: the single source of truth for "is this block queryable
/// yet". Not thread-safe on its own — the InstantRestoreEngine guards it
/// with its mutex and projects it onto the 64-bucket coarse bitmap the shm
/// RestartHeartbeat publishes to observers outside the process.
class RestoreBitmap {
 public:
  explicit RestoreBitmap(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }
  size_t count() const { return count_; }
  bool all_set() const { return count_ == size_; }

  bool Test(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  void Set(size_t i) {
    uint64_t& w = words_[i / 64];
    uint64_t bit = 1ull << (i % 64);
    if ((w & bit) == 0) {
      w |= bit;
      ++count_;
    }
  }

  /// The coarse bucket (0..buckets-1) unit `i` falls into when `size()`
  /// units are spread over `buckets` equal ranges.
  static size_t BucketOf(size_t i, size_t size, size_t buckets) {
    if (size == 0) return 0;
    return i * buckets / size;
  }

 private:
  size_t size_;
  size_t count_ = 0;
  std::vector<uint64_t> words_;
};

/// One schedulable restore unit: a row block (shm and columnar-disk
/// sources) or a whole table (row-major .bak files, which cannot be
/// random-accessed at block granularity). Units carry the block header's
/// time range so the engine can compute the exact unit set a query's
/// [begin_time, end_time] touches without loading anything.
struct RestoreUnit {
  size_t table_index = 0;  // into RestoreSource::tables()
  /// Heap slot this unit's block lands in (Table::AdoptRowBlockAt), so
  /// out-of-order restore preserves original block order. Unused for
  /// whole-table units.
  size_t slot = 0;
  int64_t min_time = 0;
  int64_t max_time = 0;
  uint64_t bytes = 0;  // payload bytes, for the in-flight byte budget
  bool whole_table = false;

  bool OverlapsTimeRange(int64_t begin, int64_t end) const {
    return max_time >= begin && min_time <= end;
  }
};

/// What Load produced: a single block (slot units) or a whole table
/// rebuilt off to the side — its sealed blocks and its unsealed write
/// buffer (whole-table units).
struct LoadedUnit {
  std::unique_ptr<RowBlock> block;
  std::unique_ptr<Table> table;
  /// Column buffers copied (stats; 0 where the source cannot count them).
  uint64_t columns_copied = 0;
  /// File reads and translation this Load did (disk sources).
  DiskRestoreStats disk;
  /// Time this Load spent validating column checksums (shm and .cols
  /// sources with verification on; 0 otherwise).
  int64_t verify_micros = 0;

  size_t NumBlocks() const {
    if (block != nullptr) return 1;
    return table != nullptr ? table->num_row_blocks() : 0;
  }
};

/// A restorable data source the engine drains: the shm segments left by a
/// clean shutdown, a columnar .cols backup, or row-major .bak files. Open
/// (construction) enumerates tables and units without moving payloads;
/// Load copies one unit to the heap and is safe to call concurrently for
/// DISTINCT units from multiple workers.
class RestoreSource {
 public:
  struct TableInfo {
    std::string name;
    /// Heap slots to reserve before serving queries (sealed block count).
    /// 0 for whole-table sources where the count is unknown until Load.
    size_t num_slots = 0;
  };

  /// What UnitDrained released: units [first_unit, end_unit) whose source
  /// pages are gone — so their byte budget can return — and the bytes
  /// that freed.
  struct Drained {
    size_t first_unit = 0;
    size_t end_unit = 0;
    uint64_t bytes_freed = 0;
  };

  virtual ~RestoreSource() = default;

  virtual RecoverySource recovery_source() const = 0;
  virtual const std::vector<TableInfo>& tables() const = 0;
  virtual const std::vector<RestoreUnit>& units() const = 0;
  virtual uint64_t total_bytes() const = 0;
  /// File reads and translation done while opening (the .cols source reads
  /// whole files up front); per-unit work is reported by Load.
  virtual DiskRestoreStats open_stats() const { return {}; }

  /// Copies unit `i` to the heap. Thread-safe across distinct units.
  virtual StatusOr<LoadedUnit> Load(size_t i) = 0;

  /// Table `table_index`'s unsealed tail, recovered at open and handed
  /// over once at setup time (the .cols tail); null elsewhere — the .bak
  /// source returns its tail from Load instead.
  virtual std::unique_ptr<Table> TakeTail(size_t table_index) {
    (void)table_index;
    return nullptr;
  }

  /// Called once per unit, serialized under the engine mutex, after the
  /// unit's blocks were adopted. The shm source truncates the
  /// tail-contiguous drained run of the unit's segment here (Fig 7's
  /// truncate-as-you-drain, preserved under on-demand ordering) and
  /// returns that run; other sources release just `i`.
  virtual Drained UnitDrained(size_t i) { return Drained{i, i + 1, 0}; }

  /// All units drained: release the source (unlink shm segments, destroy
  /// the metadata block).
  virtual Status Finalize() { return Status::OK(); }

  /// Engine cancelled or abandoned: destroy whatever remains so the next
  /// recovery starts clean (shm scrub). Must be idempotent.
  virtual void Abandon() {}
};

/// Opens the shared-memory source, following Fig 7's open protocol up to
/// and including "set valid bit to false" (so an interrupted restore sends
/// the next process to disk):
///   - NotFound            — no metadata segment (first boot, or after a
///                           crash cleanup): the caller recovers from disk;
///   - FailedPrecondition  — metadata unreadable, valid bit false or layout
///                           version mismatch: every segment is destroyed;
///   - Corruption          — a table segment failed validation after the
///                           valid bit was cleared: likewise destroyed.
/// A later Load failure is the caller's shm->disk fallback too; Abandon
/// scrubs the segments.
StatusOr<std::unique_ptr<RestoreSource>> OpenShmRestoreSource(
    const std::string& namespace_prefix, uint32_t leaf_id,
    bool verify_checksums);

/// .cols tables cut at a block that failed to load on an earlier attempt:
/// table name -> number of leading blocks kept.
using ColsCuts = std::map<std::string, size_t>;

/// Opens the columnar (.cols) disk source: reads every table's .cols file
/// fully (the raw read is the cheap phase; translation dominates, §6),
/// keeping each table's clean prefix of block records, cut per `cuts`, and
/// replays its matching tail (ColumnarBackupReader::ReadTable). NotFound
/// when `dir` has no .cols files.
StatusOr<std::unique_ptr<RestoreSource>> OpenColsRestoreSource(
    const std::string& dir, uint64_t throttle_bytes_per_sec,
    bool verify_checksums, const ColsCuts& cuts, int64_t now);

/// Opens the row-major (.bak) disk source: one whole-table unit per file,
/// bounded by the file's size now; Load streams and translates that table.
/// NotFound when `dir` has no .bak files.
StatusOr<std::unique_ptr<RestoreSource>> OpenBakRestoreSource(
    const std::string& dir, uint64_t throttle_bytes_per_sec, int64_t now);

/// Creates every table of `source` in `leaf_map` with its block slots
/// reserved (null until their blocks land; every reader skips nulls) and
/// its unsealed tail adopted (RestoreSource::TakeTail) — so from the very
/// first query the table's SHAPE is final and only block payloads are
/// missing. Returns the tables in source order.
StatusOr<std::vector<Table*>> CreateRestoreTables(RestoreSource* source,
                                                  const TableLimits& limits,
                                                  int64_t now,
                                                  LeafMap* leaf_map);

/// Installs a loaded unit into its table: a block into its slot, or — for
/// a whole-table unit — the rebuilt table (Table::AdoptRecovered: its
/// blocks in original order, then its unsealed write buffer, then any rows
/// ingested meanwhile). The caller serializes adopts into one table.
Status AdoptRestoredUnit(Table* table, const RestoreUnit& unit,
                         LoadedUnit loaded, int64_t now);

/// The restore engine — the one loop that drains a RestoreSource. N copy
/// workers pull units from two queues — a priority deque fed by queries
/// (EnsureAvailable) and a background sequential filler — and hand each
/// loaded unit to `adopt`.
///
///   - Blocking restore (Run): no queries, so no pulls; worker 0 is the
///     calling thread (one copy thread spawns nothing) and Run returns
///     once done has fired.
///   - Instant restore (Start): the workers run in the background while
///     the leaf serves queries in kRestoring; a query computes the unit
///     set its time range touches, pulls the missing ones to the front,
///     and blocks only on those.
///
/// §4.4 footprint: a unit acquires its payload bytes from the in-flight
/// budget before it loads, in claim order (so a worker holding a later
/// unit never starves the one at the drain frontier). Background units
/// return the budget when the source releases their pages — for shm, when
/// the segment's tail watermark passes them — so heap bytes not yet freed
/// from the source never exceed the budget. Query-pulled units return it
/// at adopt, so a query can never wedge the drain.
///
/// Locking: `adopt` is called from worker threads OUTSIDE the engine
/// mutex and must do its own locking. `done` (optional) runs exactly once,
/// on the last worker to leave, with no engine lock held: Status::OK()
/// after the last unit was adopted and the source finalized, an error
/// after Cancel() or a load/adopt failure (failed_unit() names the unit).
class InstantRestoreEngine {
 public:
  struct Options {
    size_t num_copy_threads = 1;
    /// 0 = auto: num_copy_threads x the largest unit payload.
    uint64_t max_in_flight_bytes = 0;
    /// Restart-step reporting: the engine's start/finish/cancel decisions,
    /// per-table copy begin/end and per-unit byte and block progress, each
    /// stamped with the phase its source published (RestorePhase).
    RestartEvents events;
    /// Optional heap+source byte counter (§4.4): each unit's payload is
    /// added when it loads, and the source bytes UnitDrained frees are
    /// subtracted.
    FootprintCounter* footprint = nullptr;
    /// Test hook: runs after each unit is adopted (engine mutex NOT
    /// held), with the unit index. Lets tests interleave cancellation.
    std::function<void(size_t)> unit_hook;
  };

  using AdoptFn =
      std::function<Status(const RestoreUnit& unit, LoadedUnit loaded)>;
  using DoneFn = std::function<void(Status)>;

  InstantRestoreEngine(std::unique_ptr<RestoreSource> source, Options options,
                       AdoptFn adopt, DoneFn done = nullptr);
  /// Abandons (without done callback) and joins if still running.
  ~InstantRestoreEngine();

  InstantRestoreEngine(const InstantRestoreEngine&) = delete;
  InstantRestoreEngine& operator=(const InstantRestoreEngine&) = delete;

  /// Instant restore: spawns the workers and returns. Call once.
  void Start();

  /// Blocking restore: drains every unit with worker 0 on the calling
  /// thread and returns the status done received. Call once, instead of
  /// Start.
  Status Run();

  const RestoreSource& source() const { return *source_; }
  /// Index into source().tables() for `name`, or -1 when the source does
  /// not carry that table (fresh table created after restore began).
  int TableIndex(const std::string& name) const;

  struct WaitResult {
    /// Units this call newly moved to the priority queue (not yet started
    /// by the background filler when the query asked).
    uint64_t blocks_requested = 0;
    int64_t waited_micros = 0;
    /// True when the engine was cancelled before the units landed; the
    /// caller re-checks the leaf state (the fallback path owns it now).
    bool cancelled = false;
  };

  /// Blocks until every unit of `table_index` overlapping [begin, end]
  /// has been adopted, pushing missing ones to the priority front.
  WaitResult EnsureAvailable(size_t table_index, int64_t begin, int64_t end);

  /// Stops the workers; the last one out fires done(error). Non-blocking.
  void Cancel();

  /// Stops the workers WITHOUT firing done, joins them, and abandons the
  /// source. For teardown (Crash, destruction) where no fallback runs.
  void Abandon();

  struct Progress {
    uint64_t units_total = 0;
    uint64_t units_done = 0;
    uint64_t blocks_on_demand = 0;
    uint64_t blocks_background = 0;
    bool finished = false;
    bool cancelled = false;
  };
  Progress progress() const;

  bool finished() const;
  /// True for a Run() (no query pulls), false for a Start().
  bool blocking() const { return blocking_; }

  /// Per-operation stats; valid once finished.
  const RestoreStats& stats() const { return stats_; }
  /// Disk reads vs translation over the source's open and every unit;
  /// valid once finished.
  const DiskRestoreStats& disk_stats() const { return disk_stats_; }
  /// The unit whose Load or adopt failed first, or -1.
  int64_t failed_unit() const;

 private:
  /// Marks the engine started and spawns `spawn` workers.
  void Launch(size_t spawn);
  void WorkerLoop();
  /// Picks the next unit to load, or returns false to exit the loop.
  bool PickUnit(size_t* unit, bool* on_demand);
  /// Records a unit's copy-begin (first claim of its table).
  void NoteClaimedLocked(size_t unit);
  /// Stops the run after unit `u` failed with `status`.
  void FailLocked(size_t u, Status status);
  void ReleaseBudgetLocked(size_t unit);
  /// Cancellation returns every held byte so no worker wedges in Acquire.
  void ReleaseAllBudgetLocked();
  void FinishOnLastWorker();

  std::unique_ptr<RestoreSource> source_;
  Options options_;
  AdoptFn adopt_;
  DoneFn done_;
  /// The phase the source was opened in; stamps every reported step.
  RestartPhase phase_;

  ByteBudget budget_;
  int64_t started_micros_ = 0;
  bool blocking_ = false;

  /// Held across claiming a unit and acquiring its budget, so budget is
  /// granted in claim order. Taken before mutex_, never after it.
  std::mutex claim_mutex_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  // EnsureAvailable waiters + cancel
  RestoreBitmap bitmap_;                // adopted units
  std::vector<uint8_t> started_;       // claimed by a worker
  std::vector<uint8_t> priority_requested_;  // pulled by a query pre-start
  std::vector<uint8_t> holds_budget_;  // budget acquired, not yet returned
  std::deque<size_t> priority_;
  size_t next_background_ = 0;
  size_t done_count_ = 0;
  size_t active_workers_ = 0;
  bool started_flag_ = false;
  bool cancelled_ = false;
  bool abandoned_ = false;
  bool finished_ = false;
  /// Finalize or Abandon already ran against the source.
  bool source_released_ = false;
  Status first_error_;
  Status final_status_;
  int64_t failed_unit_ = -1;
  /// Units per table, in unit order (slot order), for EnsureAvailable.
  std::vector<std::vector<size_t>> table_units_;
  /// Units per table not yet adopted / whether its copy began, for the
  /// per-table copy begin/end events.
  std::vector<size_t> table_remaining_;
  std::vector<uint8_t> table_begun_;
  /// Remaining-units-per-coarse-bucket for the heartbeat bitmap.
  std::vector<size_t> bucket_remaining_;

  RestoreStats stats_;
  DiskRestoreStats disk_stats_;
  std::vector<std::thread> workers_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_INSTANT_RESTORE_H_
