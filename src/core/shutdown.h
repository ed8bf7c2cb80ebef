#ifndef SCUBA_CORE_SHUTDOWN_H_
#define SCUBA_CORE_SHUTDOWN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "columnar/leaf_map.h"
#include "core/footprint.h"
#include "core/restart_events.h"
#include "obs/trace.h"
#include "util/status.h"

namespace scuba {

/// Options for the shutdown-to-shared-memory path (Fig 6).
struct ShutdownOptions {
  /// Namespace prefix isolating clusters (and tests) in /dev/shm.
  std::string namespace_prefix = "scuba";
  /// This leaf's id; determines the hard-coded metadata segment name.
  uint32_t leaf_id = 0;
  /// Segment size estimate = table heap bytes * factor + fixed overhead.
  /// Underestimates grow the segment; overestimates are truncated.
  double size_estimate_factor = 1.05;
  /// Paper behaviour (true): copy one row block column at a time, freeing
  /// each heap column immediately, so the footprint never grows (§4.4).
  /// False keeps the heap data until the end — the naive strategy
  /// bench_footprint contrasts against (it needs ~2x the memory).
  bool free_incrementally = true;
  /// Unix timestamp used if a non-empty write buffer must be sealed.
  int64_t now = 0;
  /// Copy workers for the heap->shm memcpy fan-out (§4.2: restart speed is
  /// a memory-bandwidth problem; one stream does not saturate it). 1 keeps
  /// the paper's serial Fig 6 loop.
  size_t num_copy_threads = 1;
  /// Cap on bytes copied to shm but not yet freed from the heap — the
  /// amount by which the footprint may exceed the live data size (§4.4
  /// widened for parallelism). 0 = auto: num_copy_threads x the largest
  /// row block column.
  uint64_t max_in_flight_bytes = 0;
  /// Optional phase tracer: records the Fig 6 timeline as back-to-back
  /// root spans (seal_buffers, create_metadata, copy_out, set_valid) with
  /// per-table and segment_grow child spans. nullptr = tracing off.
  obs::PhaseTracer* tracer = nullptr;
  /// Restart-step reporting to the leaf's heartbeat and flight recorder:
  /// the copy_out/set_valid phases with the byte total, per-column byte
  /// progress, per-table copy begin/end and cancel observations — so the
  /// shutdown is observable from outside the process, and a successor can
  /// autopsy one that never finished. Default: reports nothing.
  RestartEvents events;
  /// Optional cooperative cancel, polled between row-block copies (both
  /// serial and parallel modes). When it reads true the shutdown stops,
  /// returns Aborted, and leaves the valid bit false — the phase-aware
  /// watchdog's targeted kill: the successor recovers from disk without
  /// waiting out the blunt 180 s timeout (§4.3).
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook invoked after every row-block copy, from whichever thread
  /// performed it. Fault injection uses it to freeze the copy loop and
  /// exercise heartbeat stall detection. nullptr = off.
  std::function<void()> after_block_copied;
};

/// Counters from one shutdown. Fields are atomics because the parallel
/// copy engine updates them from every worker; copying the struct takes a
/// (racy-free, quiescent-time) snapshot.
///
/// This is the PER-OPERATION view; the same increments also land in the
/// process-wide MetricsRegistry under scuba.core.shutdown.* (cumulative
/// across operations, exported by MetricsRegistry::ToJson).
struct ShutdownStats {
  std::atomic<uint64_t> tables_copied{0};
  std::atomic<uint64_t> row_blocks_copied{0};
  std::atomic<uint64_t> columns_copied{0};
  std::atomic<uint64_t> bytes_copied{0};
  std::atomic<uint64_t> segment_grow_count{0};
  std::atomic<int64_t> elapsed_micros{0};

  ShutdownStats() = default;
  ShutdownStats(const ShutdownStats& other) { *this = other; }
  ShutdownStats& operator=(const ShutdownStats& other) {
    tables_copied = other.tables_copied.load();
    row_blocks_copied = other.row_blocks_copied.load();
    columns_copied = other.columns_copied.load();
    bytes_copied = other.bytes_copied.load();
    segment_grow_count = other.segment_grow_count.load();
    elapsed_micros = other.elapsed_micros.load();
    return *this;
  }
};

/// Backs up all of `leaf_map`'s tables into shared memory segments and
/// empties the leaf map, following Fig 6 exactly:
///
///   create shared memory segment for leaf metadata
///   set valid bit to false
///   for each table
///     estimate size of table; create table shm segment; register it
///     for each row block
///       grow the table segment in size if needed
///       for each row block column
///         copy data from heap to the table segment   (one memcpy)
///         delete row block column from heap
///       delete row block from heap
///     delete table from heap
///   set valid bit to true
///
/// On failure the metadata's valid bit stays false, so the next start
/// falls back to disk recovery. The caller (leaf server) must have drained
/// in-flight work and flushed backups first (Fig 5c PREPARE).
///
/// With options.num_copy_threads > 1 the per-column copies fan out over a
/// worker pool: each table's segment layout is reserved up front (offsets
/// are computed serially, so the mapping never moves under a worker), then
/// the column memcpys run in parallel, each freeing its heap column the
/// moment it lands. A ByteBudget bounds copied-but-not-yet-freed bytes so
/// the §4.4 footprint invariant holds with the budget in place of "one row
/// block column". The valid bit is still set only after every worker has
/// finished and every segment is sealed.
///
/// `tracker` (optional) observes heap+shm footprint after every column.
Status ShutdownToShm(LeafMap* leaf_map, const ShutdownOptions& options,
                     ShutdownStats* stats, FootprintTracker* tracker = nullptr);

}  // namespace scuba

#endif  // SCUBA_CORE_SHUTDOWN_H_
