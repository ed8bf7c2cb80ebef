#ifndef SCUBA_SERVER_LEAF_SERVER_H_
#define SCUBA_SERVER_LEAF_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/leaf_map.h"
#include "core/autopsy.h"
#include "core/footprint.h"
#include "core/instant_restore.h"
#include "core/restart_events.h"
#include "core/restart_manager.h"
#include "core/state_machine.h"
#include "disk/backup_writer.h"
#include "disk/columnar_backup.h"
#include "obs/stats_exporter.h"
#include "query/executor.h"
#include "shm/restart_heartbeat.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace scuba {

/// Configuration of one leaf server.
struct LeafServerConfig {
  uint32_t leaf_id = 0;
  /// Isolates this cluster's shm segments (and tests) in /dev/shm.
  std::string namespace_prefix = "scuba";
  /// Directory for the per-table on-disk backups.
  std::string backup_dir;
  /// On-disk backup format: kRowMajor is the paper's production format
  /// (slow translate on recovery); kColumnar is its §6 future work
  /// (sealed blocks stored in the shm column format; fast recovery).
  BackupFormatKind backup_format = BackupFormatKind::kRowMajor;
  /// Fig 5b: when false, a new process always disk-recovers.
  bool memory_recovery_enabled = true;
  /// Instant restore: instead of blocking in Start() until every block is
  /// copied, the leaf enters the RESTORING state immediately and serves
  /// queries while the restore engine streams blocks in — background
  /// sequential fill plus query-driven priority pulls over a restore
  /// bitmap. Works over the shm segments AND both disk backup formats.
  /// Queries during restore block only on the blocks their time range
  /// touches, and return results bit-identical to a fully-restored leaf.
  bool instant_restore_enabled = false;
  /// Capacity used for free-memory reporting to the tailers' two-choice
  /// placement (§2). Scuba machines have 144 GB for 8 leaves; scale to
  /// taste in tests/benches.
  uint64_t memory_capacity_bytes = 1ull << 30;
  /// Retention limits applied to tables created via ingest.
  TableLimits default_table_limits;
  /// >0 paces disk-recovery reads to model a slow disk.
  uint64_t disk_throttle_bytes_per_sec = 0;
  /// Verify RBC checksums while restoring from shm or a .cols backup.
  bool verify_checksums_on_restore = true;
  /// Copy/translate workers for shutdown-to-shm and for the restore
  /// engine, whatever its source. 1 keeps the paper's serial loops (a
  /// blocking restore then runs on Start()'s own thread); ingest/query
  /// serving is unaffected either way.
  size_t num_copy_threads = 1;
  /// Cap on in-flight bytes for the copy paths (§4.4's footprint
  /// invariant, widened from one row-block-column to this budget). 0 =
  /// auto: num_copy_threads x the largest copy unit.
  uint64_t max_in_flight_copy_bytes = 0;
  /// Worker threads for the per-row-block scan fan-out within one query.
  /// 1 keeps the paper's single-threaded leaf (§2); >1 spawns a leaf-owned
  /// pool whose size stays fixed for the server's lifetime. Results are
  /// identical for every setting.
  size_t num_query_threads = 1;
  /// Publish restart progress through the fixed-name shm heartbeat block
  /// (/<prefix>_hb_<id>): phase, bytes copied/total, liveness stamp. The
  /// block survives this process, so rollover monitors and dashboards can
  /// watch the restart from outside (§4.3 made observable). Attach failure
  /// logs a warning and runs without a heartbeat.
  bool publish_restart_heartbeat = true;
  /// Append restart forensics to the fixed-name shm flight-recorder ring
  /// (/<prefix>_fr_<id>): leaf state transitions, restart phase changes,
  /// per-table copy begin/end, stall/cancel/fallback decisions, error
  /// strings. The ring survives the process; the successor's Start()
  /// drains it into a postmortem autopsy
  /// (leaf_<id>.autopsy_report.json + a `__scuba_restarts` row). Attach
  /// failure logs a warning and runs without a recorder.
  bool flight_recorder_enabled = true;
  /// Self-monitoring ("Scuba monitors Scuba"): run a StatsExporter that
  /// periodically collapses the process MetricsRegistry into rows of the
  /// reserved `__scuba_stats` table on this leaf — compressed, queryable
  /// through the normal leaf/aggregator path, and carried across restarts
  /// by the shm handoff. Also writes the restart history into
  /// `__scuba_restarts`: one row for this process's recovery and, when the
  /// flight recorder holds a predecessor, one for how it went down.
  bool self_stats_enabled = false;
  /// Export period for the self-stats background thread.
  int64_t self_stats_period_millis = 1000;
  /// When set, this leaf's StatsExporter also publishes the tracker's
  /// sliding-window SLO rows into the self-hosted `__scuba_slo` table
  /// (typically wired on exactly ONE leaf per cluster — every leaf shares
  /// the process-wide tracker, so more would duplicate rows). Not owned;
  /// must outlive the leaf.
  const obs::SloTracker* slo_tracker = nullptr;
  /// Time source (simulated in tests; real otherwise).
  Clock* clock = nullptr;
};

/// A Scuba leaf server (§2): stores row data, ingests batches from
/// tailers, answers aggregation queries, expires old data, and — the
/// paper's contribution — hands its memory to its successor process
/// through shared memory on clean shutdown.
///
/// All public operations are gated by the Fig 5 state machines; calls
/// arriving in the wrong state get Unavailable, which callers (tailers,
/// aggregators) treat as "pick another leaf / return partial results".
///
/// Thread-safe: one internal mutex serializes operations (the production
/// system runs 8 single-threaded leaves per machine for parallelism, §2 —
/// the same topology our cluster module uses).
class LeafServer {
 public:
  explicit LeafServer(LeafServerConfig config);

  LeafServer(const LeafServer&) = delete;
  LeafServer& operator=(const LeafServer&) = delete;

  /// Starts the server: INIT -> MEMORY_RECOVERY or DISK_RECOVERY -> ALIVE
  /// (Fig 5b). Returns the recovery outcome. Queries and adds are
  /// accepted per-state while recovery runs (§4.3); with the blocking
  /// engine Start() returns once the leaf is ALIVE. With
  /// instant_restore_enabled and restorable data present, Start() returns
  /// as soon as the metadata is open and the leaf is RESTORING — the
  /// returned result names the source, and its stats fill in when the
  /// engine finishes (last_recovery()).
  StatusOr<RecoveryResult> Start();

  /// Per-batch ingest provenance a tailer hands along with the rows, so
  /// the leaf can measure end-to-end freshness (generation in the
  /// category log -> queryable here).
  struct IngestBatchMeta {
    /// Append stamp of the batch's oldest row, on CategoryLog's steady
    /// clock (CategoryLog::SteadyNowMicros). 0 = unknown (direct inserts
    /// that never went through a log record no latency).
    int64_t oldest_append_steady_micros = 0;
  };

  /// Appends rows to a table: backs them up to disk, then inserts into the
  /// in-memory store. Unavailable unless the state accepts adds.
  /// InvalidArgument for reserved `__scuba*` system-table names — only the
  /// leaf's own exporter writes those.
  Status AddRows(const std::string& table, const std::vector<Row>& rows);

  /// Same, with ingest provenance: also advances the per-table freshness
  /// watermarks (scuba.ingest.freshness.max_ingested_unix.<table> /
  /// .visible_after_seal_unix.<table>) and records the batch's
  /// generate->queryable latency histogram.
  Status AddRows(const std::string& table, const std::vector<Row>& rows,
                 const IngestBatchMeta& meta);

  /// Executes a query. Unavailable unless the state accepts queries.
  /// Querying a table this leaf does not hold yields an empty result
  /// (leaves hold fractions of tables; aggregators merge).
  StatusOr<QueryResult> ExecuteQuery(const Query& query);

  /// Same, with the aggregator's observability context: a sampled query
  /// records a "leaf <id> execute" span (nested under ctx.parent_span)
  /// covering this leaf's whole execution, and the returned profile
  /// carries leaf_execute_micros. The context is read-only and may be
  /// shared across concurrent leaf calls.
  StatusOr<QueryResult> ExecuteQuery(const Query& query,
                                     const QueryContext& ctx);

  /// Applies retention limits across tables (delete requests). Returns
  /// blocks and write buffers dropped; 0 when the state forbids deletes.
  size_t ExpireData();

  /// Clean shutdown via shared memory (Fig 5a/5c + Fig 6):
  ///   PREPARE: reject new work, seal write buffers, flush backups
  ///   COPY_TO_SHM: chunked copy of every table, then valid bit
  ///   EXIT
  /// After this returns the server object holds no data.
  Status ShutdownToSharedMemory(ShutdownStats* stats,
                                FootprintTracker* tracker = nullptr);

  /// Simulates an unclean death: drops in-memory state WITHOUT copying to
  /// shm or setting the valid bit, and leaves the leaf in EXIT, so every
  /// later add or query gets Unavailable. Whatever shm segments exist keep
  /// their valid bits as-is (false unless a previous clean shutdown
  /// completed).
  void Crash();

  /// Failure injection: the next ShutdownToSharedMemory performs PREPARE
  /// (drain + flush) and then behaves as if the watchdog killed the
  /// process mid-copy ("we kill the leaf server if it has not shut down
  /// after 3 minutes", §4.3): partial segments are scrubbed, no valid bit
  /// is set, and Aborted is returned. The successor must disk-recover.
  void InjectShutdownKillForTest() { inject_shutdown_kill_ = true; }

  /// Asks an in-flight ShutdownToSharedMemory to stop at the next
  /// row-block boundary — the phase-aware watchdog's targeted kill, issued
  /// by a monitor whose heartbeat samples stopped advancing. Lock-free and
  /// safe to call from any thread, INCLUDING while the shutdown holds the
  /// server mutex (that is the whole point). The cancelled shutdown scrubs
  /// its partial segments, leaves the valid bit false, and returns Aborted;
  /// the successor recovers from disk.
  void RequestShutdownCancel() {
    shutdown_cancel_.store(true, std::memory_order_release);
  }

  /// Installs a hook invoked after every row-block copy during shutdown
  /// (from whichever copy thread performed it). Fault injection uses it to
  /// freeze the copy loop and exercise heartbeat stall detection. Must be
  /// set before ShutdownToSharedMemory is called.
  void SetShutdownBlockHookForTest(std::function<void()> hook) {
    shutdown_block_hook_ = std::move(hook);
  }

  /// The heartbeat generation this process attached as, or 0 when the
  /// heartbeat is disabled/unavailable.
  uint64_t heartbeat_generation() const {
    return heartbeat_.has_value() ? heartbeat_->generation() : 0;
  }

  /// Process-unique token assigned by Start(), 0 before it. Distinguishes
  /// this leaf INSTANCE from its predecessors and successors even when the
  /// heartbeat is disabled — the aggregator's result cache keys entries by
  /// it so a restarted leaf's rebuilt data never matches pre-restart
  /// entries.
  uint64_t instance_token() const {
    return instance_token_.load(std::memory_order_acquire);
  }

  /// Observer invoked (outside the server mutex) after rows land in or
  /// expire from `table` — every event that changes a non-system table's
  /// queryable contents. The aggregator's result cache hangs its
  /// invalidation off this. System-table writes by the leaf's own exporter
  /// do not fire it (`__scuba*` results are never cached).
  using IngestObserver = std::function<void(const std::string& table)>;
  void SetIngestObserver(IngestObserver observer) {
    std::lock_guard<std::mutex> lock(mutex_);
    ingest_observer_ = std::move(observer);
  }

  /// Ingest-priority hint, set by the aggregator while the cluster is
  /// overloaded: queries scan serially (nullptr pool — results are
  /// bit-identical by the determinism contract), leaving the leaf's pool
  /// workers free for ingest/restore work. Lock-free; takes effect at the
  /// next ExecuteQuery.
  void SetIngestPriorityHint(bool on) {
    ingest_priority_hint_.store(on, std::memory_order_release);
  }
  bool ingest_priority_hint() const {
    return ingest_priority_hint_.load(std::memory_order_acquire);
  }

  /// True when `table`'s write buffer holds rows overlapping [begin, end]
  /// — rows a result cache must never serve stale. False for absent
  /// tables and empty buffers.
  bool WriteBufferOverlaps(const std::string& table, int64_t begin,
                           int64_t end) const;

  /// The self-stats exporter, or nullptr when self_stats_enabled is false
  /// or the server has not started. Tests use it to force export cycles.
  obs::StatsExporter* stats_exporter() { return exporter_.get(); }

  /// The leaf's flight recorder, or nullptr when disabled or its shm
  /// attach failed. The admission controller mirrors its shed decisions
  /// into it.
  FlightRecorder* flight_recorder() {
    return recorder_.has_value() ? &*recorder_ : nullptr;
  }

  /// The leaf's restart-step reporting (heartbeat + flight recorder). The
  /// cluster watchdog reports its stall/cancel decisions through it, so
  /// they land in the same timeline the successor's autopsy drains. Valid
  /// while this leaf lives.
  RestartEvents restart_events() const { return events_; }

  /// The postmortem of the PREDECESSOR process, synthesized by Start()
  /// from the drained flight-recorder ring cross-referenced with the last
  /// heartbeat sample (captured before this process's attach reset it).
  /// has_events == false when there was no predecessor or no recorder.
  const Autopsy& last_autopsy() const { return last_autopsy_; }

  /// The instant-restore engine, or nullptr when instant restore is off or
  /// no restorable data was found. Valid from Start() until destruction
  /// (it stays around, finished, after the last block lands). Tests use it
  /// to watch progress and to Cancel() mid-restore.
  InstantRestoreEngine* instant_restore_engine() { return engine_.get(); }

  /// Test hook forwarded to the engine (runs after each restored unit,
  /// from a copy worker, no locks held). Set before Start().
  void SetInstantRestoreUnitHookForTest(std::function<void(size_t)> hook) {
    instant_unit_hook_ = std::move(hook);
  }

  // --- introspection --------------------------------------------------------

  /// Live statistics of one table.
  struct TableStats {
    std::string name;
    uint64_t row_count = 0;
    uint64_t buffered_rows = 0;
    size_t num_row_blocks = 0;
    uint64_t heap_bytes = 0;
    uint64_t uncompressed_bytes = 0;  // pre-compression size of sealed data
    double compression_ratio = 0.0;   // uncompressed / sealed heap bytes
    int64_t min_time = 0;             // across sealed blocks (0 if none)
    int64_t max_time = 0;
  };

  /// Live statistics of this leaf — what the §4.5 rollover monitoring and
  /// the tailers' placement decisions read.
  struct Stats {
    uint32_t leaf_id = 0;
    LeafState state = LeafState::kInit;
    RecoverySource last_recovery_source = RecoverySource::kFresh;
    int64_t last_recovery_micros = 0;
    uint64_t total_rows = 0;
    uint64_t memory_used_bytes = 0;
    uint64_t memory_capacity_bytes = 0;
    std::vector<TableStats> tables;
  };

  Stats GetStats() const;

  LeafState state() const;
  bool IsAlive() const { return state() == LeafState::kAlive; }
  bool CanAcceptAdds() const;
  bool CanAcceptQueries() const;

  uint64_t MemoryUsedBytes() const;
  uint64_t FreeMemoryBytes() const;
  uint64_t RowCount() const;
  std::vector<std::string> TableNames() const;

  const LeafServerConfig& config() const { return config_; }
  const RecoveryResult& last_recovery() const { return last_recovery_; }

 private:
  Clock* clock() const;
  bool UsesColumnarBackup() const {
    return config_.backup_format == BackupFormatKind::kColumnar &&
           !config_.backup_dir.empty();
  }
  /// Installs the columnar backup's seal observer on `table` (no-op for
  /// system tables, which are never backed up to disk).
  void InstallSealObserver(Table* table);
  /// Backs up one checked batch; `schema` is its Schema::OfRows union.
  Status BackupBatch(const std::string& table, const Schema& schema,
                     const std::vector<Row>& rows);
  Status SyncBackups();
  /// Shared insert body; callers hold mutex_. `system` marks the leaf's
  /// own `__scuba*` writes: no disk backup, no ingestion-metric updates,
  /// and no freshness-watermark movement (the self-amplification guard —
  /// exporting must not feed the metrics it exports).
  Status AddRowsLocked(const std::string& table, const std::vector<Row>& rows,
                       bool system, const IngestBatchMeta& meta);
  /// Advances the per-table ingest-freshness watermark gauges after a
  /// successful non-system insert; callers hold mutex_.
  void UpdateFreshnessLocked(const std::string& table,
                             const std::vector<Row>& rows, bool sealed,
                             int64_t seal_max_time,
                             const IngestBatchMeta& meta);
  /// leaf_state_.Transition wrapper that also reports the state change.
  /// Callers hold mutex_.
  Status TransitionLeaf(LeafState next);
  /// Drains the predecessor's flight-recorder events, builds the autopsy,
  /// and writes leaf_<id>.autopsy_report.json. Runs at the top of Start().
  void BuildPredecessorAutopsy();
  /// Creates + starts the self-stats exporter (after recovery; not under
  /// mutex_): one restart-history row, an immediate export of the recovery
  /// metrics, then the periodic thread.
  void StartSelfStats();
  /// Instant-restore startup (caller holds mutex_): opens the source the
  /// restart manager picks, creates the tables with reserved block slots,
  /// moves leaf + tables to RESTORING, and starts the engine. NotFound
  /// when there is nothing to restore — the caller runs the blocking path.
  Status StartInstantRestoreLocked(int64_t now);
  /// Engine adopt callback (copy worker thread): installs a restored unit
  /// into its table under mutex_.
  Status AdoptUnit(const RestoreUnit& unit, LoadedUnit loaded);
  /// Engine done callback (last copy worker): on success finishes the
  /// RESTORING -> ALIVE handoff (deferred expiry, report, heartbeat); on
  /// cancel/error clears state and runs the blocking recovery.
  void OnInstantRestoreDone(Status engine_status);

  LeafServerConfig config_;
  /// The PREDECESSOR's last heartbeat sample, read BEFORE heartbeat_
  /// attaches below — attaching resets the phase to idle, which would
  /// destroy the evidence the autopsy cross-references. An error status
  /// (NotFound, corrupt block) simply omits the cross-reference.
  StatusOr<RestartHeartbeat::Reading> pred_heartbeat_;
  /// Declared before events_, which points at it: attached first, and
  /// outlives every copy of events_ (the manager's and the engine's).
  /// Engaged only when config_.publish_restart_heartbeat and the shm
  /// attach succeeded.
  std::optional<RestartHeartbeat> heartbeat_;
  std::atomic<bool> shutdown_cancel_{false};
  std::function<void()> shutdown_block_hook_;
  /// Declared before events_ for the same reason as heartbeat_. Attach
  /// preserves the predecessor's ring contents; the autopsy drains them in
  /// Start().
  std::optional<FlightRecorder> recorder_;
  /// Every restart step this leaf reports goes through here.
  RestartEvents events_;
  RestartManager restart_manager_;
  /// Scan workers shared by every query on this leaf (null when
  /// num_query_threads <= 1). Created once; queries run one at a time
  /// under mutex_, so they never contend for the pool.
  std::unique_ptr<ThreadPool> query_pool_;

  mutable std::mutex mutex_;
  /// Signaled (with mutex_) whenever the leaf leaves RESTORING — queries
  /// whose restore wait was cancelled park here until the fallback
  /// resolves the leaf's state.
  std::condition_variable restore_cv_;
  LeafStateMachine leaf_state_;
  std::unordered_map<std::string, TableStateMachine> table_states_;
  /// Per-table ingest-freshness watermarks (unix seconds), mirrored into
  /// the scuba.ingest.freshness.* gauges. Kept here so the gauges are only
  /// Set when a watermark actually ADVANCES — the exporter emits gauge
  /// rows only on change, and the freshness-stall alert reads that
  /// silence as its signal.
  std::unordered_map<std::string, int64_t> max_ingested_watermarks_;
  std::unordered_map<std::string, int64_t> seal_watermarks_;
  LeafMap leaf_map_;
  BackupWriter backup_writer_;              // row-major format
  ColumnarBackupWriter columnar_writer_;    // columnar format (§6)
  RecoveryResult last_recovery_;
  /// What Start() learned about the predecessor's death (see
  /// last_autopsy()). Written once, under mutex_, before recovery begins.
  Autopsy last_autopsy_;
  bool inject_shutdown_kill_ = false;
  std::atomic<uint64_t> instance_token_{0};
  std::atomic<bool> ingest_priority_hint_{false};
  IngestObserver ingest_observer_;
  std::function<void(size_t)> instant_unit_hook_;
  /// Declared after everything its copy workers touch (mutex_, leaf_map_,
  /// table_states_, restart_manager_) so its destructor — which joins the
  /// workers — runs before any of them are destroyed.
  std::unique_ptr<InstantRestoreEngine> engine_;
  /// Declared last so it is destroyed FIRST: the exporter thread's sink
  /// takes mutex_ and touches leaf_map_, so it must join before any of
  /// them go away.
  std::unique_ptr<obs::StatsExporter> exporter_;
};

}  // namespace scuba

#endif  // SCUBA_SERVER_LEAF_SERVER_H_
