#ifndef SCUBA_CORE_RESTART_MANAGER_H_
#define SCUBA_CORE_RESTART_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "columnar/leaf_map.h"
#include "core/footprint.h"
#include "core/instant_restore.h"
#include "core/restart_events.h"
#include "core/restore.h"
#include "core/shutdown.h"
#include "obs/trace.h"
#include "util/status.h"

namespace scuba {

/// Version of the restart-report JSON artifacts
/// (leaf_<id>.{shutdown,recovery}_report.json) and of the bench --json
/// metrics section. v1 had no version field; v2 added "schema_version"
/// itself plus interpolated histogram percentiles in the metrics snapshot;
/// v3 added the per-case query profile object (QueryProfile::ToJson) and
/// the sampled-trace section to bench_query; v4 added the profile's
/// cache_hit_buckets/cache_miss_buckets fields and bench_query's
/// result_digest per case; v5 added the profile's restore_wait_micros /
/// blocks_restored_on_demand / unavailable_detail fields and the recovery
/// report's blocks_on_demand / blocks_background counters (instant
/// restore); v6 added the profile's deadline_micros / shed /
/// deadline_exceeded fields (SLO loop) and the bench_load per-phase rows;
/// v7 added the leaf_<id>.autopsy_report.json artifact (flight-recorder
/// postmortems), the `__scuba_restarts` restart-history rows, and
/// bench_shutdown_restore's recorder_overhead cases; v8 added the
/// `__scuba_alerts` alert-transition rows, the ingest-freshness watermark
/// gauges/histograms, and bench_load's health_overhead cases (E20).
/// Bump when a consumer-visible field changes shape or meaning.
inline constexpr int kRestartReportSchemaVersion = 8;

/// On-disk backup format.
enum class BackupFormatKind {
  /// The paper's production format: row-major, value-encoded — recovery
  /// must decode every value and re-run compression (§1's 2.5-3 h path).
  kRowMajor,
  /// The paper's §6 future work: sealed blocks stored in the shared-memory
  /// column format — recovery is one memcpy per column plus a short
  /// row-major tail replay.
  kColumnar,
};

std::string_view BackupFormatKindName(BackupFormatKind kind);

/// Configuration shared by both restart directions.
struct RestartConfig {
  std::string namespace_prefix = "scuba";
  uint32_t leaf_id = 0;
  /// Directory holding the leaf's per-table backup files.
  std::string backup_dir;
  /// "memory recovery disabled" edge in Fig 5b: when false, a new process
  /// always takes the disk path (and scrubs any shm segments).
  bool memory_recovery_enabled = true;
  /// Which on-disk backup format this leaf reads and writes.
  BackupFormatKind backup_format = BackupFormatKind::kRowMajor;
  /// Copy workers in both directions: the restore engine's workers, and
  /// shutdown.num_copy_threads (the constructor copies it there, like the
  /// leaf coordinates). 1 keeps the paper's serial loops — a blocking
  /// restore runs its only worker on the calling thread.
  size_t num_copy_threads = 1;
  /// Restore-side knobs, one set for every source.
  RestoreOptions restore;
  /// Shutdown-side knobs.
  ShutdownOptions shutdown;
  /// Restart-step reporting for both directions (the sinks are owned by
  /// the server for its process lifetime): recovery's open_metadata /
  /// copy_in / disk_recover / failed phases and shm->disk fallbacks, the
  /// engine's progress, and the shutdown's copy steps. Default: reports
  /// nothing.
  RestartEvents events;
};

/// Result of a recovery.
struct RecoveryResult {
  RecoverySource source = RecoverySource::kFresh;
  /// The restore engine's counters for whichever source it drained (named
  /// for the fast path; disk sources fill them too).
  RestoreStats shm_stats;
  /// Disk reads vs translation (Fig 5b) when the source was a backup.
  DiskRestoreStats disk_stats;
  /// Status of the abandoned shm attempt when source != kSharedMemory (OK
  /// when memory recovery is disabled, NotFound when there was simply
  /// nothing in shm).
  Status shm_attempt_status;
  /// Phase timeline of a blocking recovery (obs::PhaseTracer::ToJson
  /// format): shm spans (open_metadata/copy_in/destroy_metadata) or disk
  /// spans (disk_read/disk_translate), then expire.
  std::string trace_json;

  /// The recovery's duration as the leaf reports it (stats, the
  /// `__scuba_restarts` row): the engine's elapsed time for a shm restore,
  /// disk read + translate for a backup, 0 for a fresh leaf.
  int64_t TotalMicros() const {
    return source == RecoverySource::kSharedMemory
               ? shm_stats.elapsed_micros.load()
               : disk_stats.read_micros + disk_stats.translate_micros;
  }
};

/// Ties the restore sources together with the decision logic of Fig 5b /
/// §4.3 — shared memory if enabled and present; on any failure, scrub shm
/// and fall back to the on-disk backup — and drains the chosen source with
/// the restore engine.
class RestartManager {
 public:
  explicit RestartManager(RestartConfig config);

  /// Blocking recovery of a leaf's state into `leaf_map` (which must be
  /// empty): the restore engine with no query pulls. An shm load failure
  /// scrubs shm, clears the map and retries from disk; a .cols block that
  /// fails to load cuts its table there and retries, keeping the clean
  /// prefix and replaying only the matching tail. `now` is the unix
  /// timestamp for block creation / expiry decisions; `tracker` observes
  /// the heap+shm footprint of an shm restore (§4.4).
  StatusOr<RecoveryResult> Recover(LeafMap* leaf_map, int64_t now,
                                   FootprintTracker* tracker = nullptr);

  /// Fig 5b's source choice, for Recover and the leaf server's instant
  /// restore alike: shared memory when enabled and valid, else the backup
  /// in this leaf's format. An shm failure scrubs shm and is recorded in
  /// result->shm_attempt_status; shm is tried only while that status is
  /// OK, so a retry goes straight to disk. `cols_cuts` cuts .cols tables
  /// where an earlier attempt failed. Enters the chosen source's phase
  /// (RestorePhase) with its byte total. NotFound when there is nothing to
  /// restore.
  StatusOr<std::unique_ptr<RestoreSource>> OpenSource(
      int64_t now, RecoveryResult* result, obs::PhaseTracer* tracer = nullptr,
      const ColsCuts& cols_cuts = {});

  /// Engine options from this config (threads, budget, observers).
  InstantRestoreEngine::Options EngineOptions() const;

  /// Ends a recovery, blocking or instant: runs the deferred expiry over
  /// `leaf_map` (Fig 5: "deletions are made after recovery"), fills
  /// `result` from the finished `engine` (nullptr: nothing was restored),
  /// and writes the recovery report with `tracer`'s timeline into
  /// `backup_dir` ("leaf_<id>.recovery_report.json").
  void FinishRecovery(const InstantRestoreEngine* engine, LeafMap* leaf_map,
                      int64_t now, obs::PhaseTracer* tracer,
                      RecoveryResult* result);

  /// Clean-shutdown backup into shared memory (Fig 6). On failure the
  /// valid bit stays false and the caller should exit anyway — the next
  /// process will use the disk backup. Writes
  /// "leaf_<id>.shutdown_report.json" into `backup_dir`: the durable
  /// sibling of the shm leaf-metadata block, so the next process (or an
  /// operator) can see exactly how this one went down.
  Status Shutdown(LeafMap* leaf_map, ShutdownStats* stats,
                  FootprintTracker* tracker = nullptr);

  /// Removes every shm segment belonging to this leaf (crash cleanup,
  /// "memory recovery disabled" path, tests).
  size_t ScrubSharedMemory();

  const RestartConfig& config() const { return config_; }

  /// Phase timeline of the most recent Shutdown on this manager
  /// (obs::PhaseTracer::ToJson format; empty before the first shutdown).
  const std::string& last_shutdown_trace_json() const {
    return last_shutdown_trace_json_;
  }

 private:
  /// Best-effort JSON report — the phase timeline, the op's stats and a
  /// cumulative metrics snapshot. Skipped when backup_dir is empty; a
  /// failed write warns and bumps scuba.core.restart.report_write_failures
  /// instead of failing the op.
  void WriteReport(const std::string& op, const std::string& body_json);

  RestartConfig config_;
  std::string last_shutdown_trace_json_;
};

/// Restores from shared memory alone — RestartManager::Recover with no
/// disk backup — and returns OK when the data came from shm, else the
/// abandoned attempt's status: NotFound (nothing in shm),
/// FailedPrecondition (valid bit false, layout mismatch, unreadable
/// segments; all destroyed) or Corruption (a block failed to load; shm
/// scrubbed, `leaf_map` left empty). Fig 7 end to end:
///
///   if valid bit is false
///     delete shared memory segments; recover from disk    (caller's job)
///   set valid bit to false
///   for each table shared memory segment
///     for each row block
///       for each row block column
///         allocate memory in heap; copy data from table segment to heap
///       truncate the table shared memory segment if needed
///     delete the table shared memory segment
///   delete the metadata shared memory segment
///
/// If the restore is interrupted (process dies mid-restore), the valid bit
/// is already false, so the next restart goes to disk (Fig 7 caption).
Status RestoreFromShm(LeafMap* leaf_map, const RestartConfig& config,
                      RestoreStats* stats,
                      FootprintTracker* tracker = nullptr);

}  // namespace scuba

#endif  // SCUBA_CORE_RESTART_MANAGER_H_
