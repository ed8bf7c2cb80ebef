#include "server/leaf_server.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/logging.h"

namespace scuba {
namespace {

// Process-wide leaf-server counters (scuba.server.leaf.*), summed across
// every leaf in the process.
struct ServerMetrics {
  obs::Counter* add_batches;
  obs::Counter* rows_added;
  obs::Counter* adds_rejected;
  obs::Counter* queries;
  obs::Counter* queries_rejected;
  obs::Counter* rows_expired;

  static ServerMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ServerMetrics m{
        reg.GetCounter("scuba.server.leaf.add_batches"),
        reg.GetCounter("scuba.server.leaf.rows_added"),
        reg.GetCounter("scuba.server.leaf.adds_rejected"),
        reg.GetCounter("scuba.server.leaf.queries"),
        reg.GetCounter("scuba.server.leaf.queries_rejected"),
        reg.GetCounter("scuba.server.leaf.rows_expired")};
    return m;
  }
};

std::optional<RestartHeartbeat> AttachHeartbeat(
    const LeafServerConfig& config) {
  if (!config.publish_restart_heartbeat) return std::nullopt;
  auto hb = RestartHeartbeat::Attach(config.namespace_prefix, config.leaf_id);
  if (!hb.ok()) {
    SCUBA_WARN << "leaf " << config.leaf_id
               << ": restart heartbeat unavailable: "
               << hb.status().ToString();
    return std::nullopt;
  }
  return std::move(hb).value();
}

// The predecessor's final heartbeat sample, captured before our own attach
// resets the block's phase to idle. NotFound doubles as "heartbeat
// disabled"; any error just omits the autopsy's cross-reference.
StatusOr<RestartHeartbeat::Reading> ReadPredecessorHeartbeat(
    const LeafServerConfig& config) {
  if (!config.publish_restart_heartbeat) {
    return Status::NotFound("restart heartbeat disabled");
  }
  return RestartHeartbeat::ReadOnce(config.namespace_prefix, config.leaf_id);
}

std::optional<FlightRecorder> AttachRecorder(const LeafServerConfig& config) {
  if (!config.flight_recorder_enabled) return std::nullopt;
  auto fr = FlightRecorder::Attach(config.namespace_prefix, config.leaf_id);
  if (!fr.ok()) {
    SCUBA_WARN << "leaf " << config.leaf_id
               << ": flight recorder unavailable: " << fr.status().ToString();
    return std::nullopt;
  }
  return std::move(fr).value();
}

RestartConfig MakeRestartConfig(const LeafServerConfig& config,
                                RestartEvents events) {
  RestartConfig rc;
  rc.events = events;
  rc.namespace_prefix = config.namespace_prefix;
  rc.leaf_id = config.leaf_id;
  rc.backup_dir = config.backup_dir;
  rc.backup_format = config.backup_format;
  rc.memory_recovery_enabled = config.memory_recovery_enabled;
  rc.num_copy_threads = config.num_copy_threads;
  rc.restore.verify_checksums = config.verify_checksums_on_restore;
  rc.restore.table_limits = config.default_table_limits;
  rc.restore.disk_throttle_bytes_per_sec = config.disk_throttle_bytes_per_sec;
  rc.restore.max_in_flight_bytes = config.max_in_flight_copy_bytes;
  rc.shutdown.max_in_flight_bytes = config.max_in_flight_copy_bytes;
  return rc;
}

}  // namespace

LeafServer::LeafServer(LeafServerConfig config)
    : config_(std::move(config)),
      pred_heartbeat_(ReadPredecessorHeartbeat(config_)),
      heartbeat_(AttachHeartbeat(config_)),
      recorder_(AttachRecorder(config_)),
      events_(heartbeat_.has_value() ? &*heartbeat_ : nullptr,
              recorder_.has_value() ? &*recorder_ : nullptr),
      restart_manager_(MakeRestartConfig(config_, events_)),
      backup_writer_(config_.backup_dir),
      columnar_writer_(config_.backup_dir) {
  if (config_.num_query_threads > 1) {
    query_pool_ = std::make_unique<ThreadPool>(config_.num_query_threads);
  }
}

void LeafServer::InstallSealObserver(Table* table) {
  if (!UsesColumnarBackup()) return;
  if (obs::IsSystemTable(table->name())) return;
  std::string name = table->name();
  table->SetSealObserver([this, name](const RowBlock& block) {
    return columnar_writer_.OnBlockSealed(name, block);
  });
}

Status LeafServer::BackupBatch(const std::string& table, const Schema& schema,
                               const std::vector<Row>& rows) {
  if (config_.backup_dir.empty()) return Status::OK();
  if (UsesColumnarBackup()) {
    return columnar_writer_.AppendBatch(table, schema, rows);
  }
  return backup_writer_.AppendBatch(table, schema, rows);
}

Status LeafServer::SyncBackups() {
  if (config_.backup_dir.empty()) return Status::OK();
  if (UsesColumnarBackup()) return columnar_writer_.SyncAll();
  return backup_writer_.SyncAll();
}

Clock* LeafServer::clock() const {
  return config_.clock != nullptr ? config_.clock : RealClock::Get();
}

Status LeafServer::TransitionLeaf(LeafState next) {
  LeafState old = leaf_state_.state();
  Status s = leaf_state_.Transition(next);
  if (s.ok()) events_.State(next, old);
  return s;
}

void LeafServer::BuildPredecessorAutopsy() {
  if (!recorder_.has_value()) return;
  auto drained = recorder_->Drain();
  if (drained.ok()) {
    AutopsyOptions aopts;
    aopts.leaf_id = config_.leaf_id;
    // Only events from OLDER generations are the predecessor's; our own
    // (recorded from here on) are excluded by the generation filter.
    aopts.successor_generation = recorder_->generation();
    last_autopsy_ = BuildAutopsy(drained.value(), pred_heartbeat_, aopts);
    if (last_autopsy_.has_events) {
      SCUBA_INFO << "leaf " << config_.leaf_id
                 << " autopsy: " << last_autopsy_.Summary();
      WriteAutopsyReport(config_.backup_dir, config_.leaf_id, last_autopsy_);
    }
  } else {
    SCUBA_WARN << "leaf " << config_.leaf_id
               << ": flight-recorder drain failed: "
               << drained.status().ToString();
  }
  events_.Info("process start");
}

StatusOr<RecoveryResult> LeafServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (leaf_state_.state() != LeafState::kInit) {
      return Status::FailedPrecondition("leaf server already started");
    }
    // Postmortem first, before any recovery work: even a recovery that
    // hangs or fails leaves the predecessor's autopsy artifact behind.
    BuildPredecessorAutopsy();
    // Process-wide monotonic token: every started leaf instance, across
    // every restart, gets a distinct value (cache keys depend on that).
    static std::atomic<uint64_t> next_instance_token{1};
    instance_token_.store(next_instance_token.fetch_add(1),
                          std::memory_order_release);
    if (!config_.backup_dir.empty()) {
      SCUBA_RETURN_IF_ERROR(UsesColumnarBackup() ? columnar_writer_.Init()
                                                 : backup_writer_.Init());
    }

    // Fig 5b: INIT -> MEMORY_RECOVERY if enabled, else DISK_RECOVERY.
    if (config_.memory_recovery_enabled) {
      SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kMemoryRecovery));
    } else {
      SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kDiskRecovery));
    }

    if (config_.instant_restore_enabled) {
      Status s = StartInstantRestoreLocked(clock()->NowUnixSeconds());
      if (s.ok()) {
        // The leaf is RESTORING and already serving; blocks stream in
        // behind the queries. OnInstantRestoreDone finishes the handoff.
        SCUBA_INFO << "leaf " << config_.leaf_id << " restoring ("
                   << RecoverySourceName(last_recovery_.source)
                   << " instant restore, "
                   << engine_->source().units().size() << " units)";
        return last_recovery_;
      }
      if (!s.IsNotFound()) {
        SCUBA_WARN << "leaf " << config_.leaf_id
                   << ": instant restore unavailable (" << s.ToString()
                   << "); using the blocking path";
      }
      // Nothing an incremental source can serve (or its open failed):
      // the blocking path below covers fresh leaves and odd states.
    }

    SCUBA_ASSIGN_OR_RETURN(
        last_recovery_,
        restart_manager_.Recover(&leaf_map_, clock()->NowUnixSeconds()));

    // Exception edge: memory recovery attempted but the data came from disk.
    if (leaf_state_.state() == LeafState::kMemoryRecovery &&
        last_recovery_.source != RecoverySource::kSharedMemory) {
      SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kDiskRecovery));
    }
    SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kAlive));

    // Table state machines mirror the leaf's recovery path (Fig 5d).
    for (const std::string& name : leaf_map_.TableNames()) {
      TableStateMachine& ts = table_states_[name];
      Status s = ts.Transition(last_recovery_.source ==
                                       RecoverySource::kSharedMemory
                                   ? TableState::kMemoryRecovery
                                   : TableState::kDiskRecovery);
      if (s.ok()) s = ts.Transition(TableState::kAlive);
      SCUBA_RETURN_IF_ERROR(s);
      InstallSealObserver(leaf_map_.GetTable(name));
    }

    events_.EnterPhase(RestartPhase::kAlive,
                       RecoverySourceName(last_recovery_.source),
                       leaf_map_.TotalRowCount());
    SCUBA_INFO << "leaf " << config_.leaf_id << " alive ("
               << RecoverySourceName(last_recovery_.source) << " recovery, "
               << leaf_map_.TotalRowCount() << " rows)";
  }  // release mutex_: the exporter's sink inserts through it

  if (config_.self_stats_enabled) StartSelfStats();
  return last_recovery_;
}

Status LeafServer::StartInstantRestoreLocked(int64_t now) {
  // The same source choice as a blocking recovery (Fig 5b): shared memory
  // first when enabled (a failed open scrubs and falls through), then the
  // disk backup in whichever format this leaf writes.
  SCUBA_ASSIGN_OR_RETURN(std::unique_ptr<RestoreSource> source,
                         restart_manager_.OpenSource(now, &last_recovery_));

  const RecoverySource source_kind = source->recovery_source();
  auto fail = [&](Status s) {
    leaf_map_.Clear();
    table_states_.clear();
    source->Abandon();
    return s;
  };
  auto tables_or = CreateRestoreTables(
      source.get(), config_.default_table_limits, now, &leaf_map_);
  if (!tables_or.ok()) return fail(tables_or.status());
  for (Table* table : tables_or.value()) {
    InstallSealObserver(table);
    TableStateMachine& ts = table_states_[table->name()];
    Status s = ts.Transition(source_kind == RecoverySource::kSharedMemory
                                 ? TableState::kMemoryRecovery
                                 : TableState::kDiskRecovery);
    if (s.ok()) s = ts.Transition(TableState::kRestoring);
    if (!s.ok()) return fail(s);
  }

  // Exception edge first when the data came from disk, then RESTORING.
  if (leaf_state_.state() == LeafState::kMemoryRecovery &&
      source_kind != RecoverySource::kSharedMemory) {
    Status s = TransitionLeaf(LeafState::kDiskRecovery);
    if (!s.ok()) return fail(s);
  }
  {
    Status s = TransitionLeaf(LeafState::kRestoring);
    if (!s.ok()) return fail(s);
  }
  last_recovery_.source = source_kind;

  InstantRestoreEngine::Options eopts = restart_manager_.EngineOptions();
  eopts.unit_hook = instant_unit_hook_;
  engine_ = std::make_unique<InstantRestoreEngine>(
      std::move(source), std::move(eopts),
      [this](const RestoreUnit& unit, LoadedUnit loaded) {
        return AdoptUnit(unit, std::move(loaded));
      },
      [this](Status s) { OnInstantRestoreDone(std::move(s)); });
  engine_->Start();
  return Status::OK();
}

Status LeafServer::AdoptUnit(const RestoreUnit& unit, LoadedUnit loaded) {
  std::lock_guard<std::mutex> lock(mutex_);
  const RestoreSource::TableInfo& info =
      engine_->source().tables()[unit.table_index];
  Table* table = leaf_map_.GetTable(info.name);
  if (table == nullptr) {
    return Status::Internal("restore target table '" + info.name +
                            "' disappeared");
  }
  return AdoptRestoredUnit(table, unit, std::move(loaded),
                           clock()->NowUnixSeconds());
}

void LeafServer::OnInstantRestoreDone(Status engine_status) {
  bool start_self_stats = false;
  if (engine_status.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    Status s = TransitionLeaf(LeafState::kAlive);
    for (auto& [name, ts] : table_states_) {
      if (s.ok() && ts.state() == TableState::kRestoring) {
        s = ts.Transition(TableState::kAlive);
      }
    }
    if (!s.ok()) {
      SCUBA_WARN << "leaf " << config_.leaf_id
                 << ": instant restore handoff failed: " << s.ToString();
    }
    // Expiry was deferred for the whole RESTORING window so adoption
    // order never raced block dropping; it runs here, with the stats and
    // the report, exactly as after a blocking recovery.
    restart_manager_.FinishRecovery(engine_.get(), &leaf_map_,
                                    clock()->NowUnixSeconds(),
                                    /*tracer=*/nullptr, &last_recovery_);
    events_.EnterPhase(RestartPhase::kAlive,
                       RecoverySourceName(last_recovery_.source),
                       leaf_map_.TotalRowCount());
    SCUBA_INFO << "leaf " << config_.leaf_id << " alive ("
               << RecoverySourceName(last_recovery_.source)
               << " instant restore, " << leaf_map_.TotalRowCount()
               << " rows)";
    start_self_stats = config_.self_stats_enabled;
    restore_cv_.notify_all();
  } else {
    // Cancelled or a unit failed to load: drop the partial heap state and
    // run the blocking disk path (the shm valid bit is already false and
    // its segments are scrubbed; with a disk source the files are
    // untouched). One mutex hold end to end, so no query ever observes a
    // partially-cleared leaf.
    std::lock_guard<std::mutex> lock(mutex_);
    obs::IncrCounter("scuba.core.restart.instant_restore_fallbacks");
    SCUBA_WARN << "leaf " << config_.leaf_id << ": instant restore failed ("
               << engine_status.ToString()
               << "); falling back to blocking disk recovery";
    leaf_map_.Clear();
    table_states_.clear();
    events_.Fallback(RestorePhase(last_recovery_.source),
                     "instant->blocking disk: " + engine_status.ToString());
    Status s = TransitionLeaf(LeafState::kDiskRecovery);
    if (s.ok()) {
      auto rec_or =
          restart_manager_.Recover(&leaf_map_, clock()->NowUnixSeconds());
      if (rec_or.ok()) {
        last_recovery_ = std::move(rec_or).value();
        s = TransitionLeaf(LeafState::kAlive);
        for (const std::string& name : leaf_map_.TableNames()) {
          TableStateMachine& ts = table_states_[name];
          Status ts_status = ts.Transition(TableState::kDiskRecovery);
          if (ts_status.ok()) ts_status = ts.Transition(TableState::kAlive);
          if (s.ok()) s = ts_status;
          InstallSealObserver(leaf_map_.GetTable(name));
        }
        events_.EnterPhase(RestartPhase::kAlive, "disk fallback",
                           leaf_map_.TotalRowCount());
        start_self_stats = config_.self_stats_enabled && s.ok();
        SCUBA_INFO << "leaf " << config_.leaf_id
                   << " alive (disk fallback after cancelled instant "
                   << "restore, " << leaf_map_.TotalRowCount() << " rows)";
      } else {
        s = rec_or.status();
      }
    }
    if (!s.ok()) {
      // Unrecoverable: the leaf stays in DISK_RECOVERY with no data —
      // the same terminal shape a failed blocking Start() leaves behind.
      events_.Fail(s.ToString());
      SCUBA_WARN << "leaf " << config_.leaf_id
                 << ": disk fallback failed: " << s.ToString();
    }
    restore_cv_.notify_all();
  }
  if (start_self_stats) StartSelfStats();
}

void LeafServer::StartSelfStats() {
  obs::StatsExporterOptions opts;
  opts.period_millis = config_.self_stats_period_millis;
  opts.generation = heartbeat_generation();
  opts.leaf_id = config_.leaf_id;
  opts.now_unix_seconds = [this] { return clock()->NowUnixSeconds(); };
  opts.slo_tracker = config_.slo_tracker;
  exporter_ = std::make_unique<obs::StatsExporter>(
      std::move(opts),
      [this](const std::string& table, const std::vector<Row>& rows) {
        std::lock_guard<std::mutex> lock(mutex_);
        return AddRowsLocked(table, rows, /*system=*/true, IngestBatchMeta());
      });
  // `__scuba_restarts`: the restart history, one row per restart
  // transition (never per export cycle — bounded width), so "how long did
  // the last N restarts take, and from which source" is a query spanning
  // generations. Row one summarizes how the PREDECESSOR went down, from
  // the autopsy; row two is this process's own recovery.
  // outcome=crash-fallback marks the paper's §4.3 bad case: the
  // predecessor did not exit cleanly and this process had to take the slow
  // disk path. Then an immediate export, so the recovery metrics land
  // before the first periodic tick.
  if (last_autopsy_.has_events) {
    Row row;
    row.Set("kind", std::string("shutdown"))
        .Set("path", std::string("shm"))
        .Set("outcome", last_autopsy_.outcome)
        .Set("phase", last_autopsy_.last_phase)
        .Set("detail", last_autopsy_.last_copying_table)
        .Set("pred_generation",
             static_cast<int64_t>(last_autopsy_.pred_generation))
        .Set("prepare_micros", last_autopsy_.PhaseMicros("prepare"))
        .Set("copy_micros", last_autopsy_.PhaseMicros("copy_out"))
        .Set("total_micros", last_autopsy_.TotalPhaseMicros())
        .Set("bytes", static_cast<int64_t>(last_autopsy_.bytes_copied))
        .Set("autopsy_events",
             static_cast<int64_t>(last_autopsy_.events.size()));
    (void)exporter_->ExportSystemRow(obs::kRestartsTableName, std::move(row));
  }
  {
    std::string outcome = "ok";
    if (last_recovery_.source == RecoverySource::kDisk &&
        last_autopsy_.has_events && last_autopsy_.outcome != "clean-exit") {
      outcome = "crash-fallback";
    }
    uint64_t bytes =
        last_recovery_.source == RecoverySource::kSharedMemory
            ? last_recovery_.shm_stats.bytes_copied.load()
            : last_recovery_.disk_stats.bytes_read;
    Row row;
    row.Set("kind", std::string("restore"))
        .Set("path", std::string(RecoverySourceName(last_recovery_.source)))
        .Set("outcome", outcome)
        .Set("phase", std::string(RestartPhaseName(RestartPhase::kAlive)))
        .Set("pred_generation",
             static_cast<int64_t>(last_autopsy_.pred_generation))
        .Set("read_micros", last_recovery_.disk_stats.read_micros)
        .Set("translate_micros", last_recovery_.disk_stats.translate_micros)
        .Set("verify_micros", last_recovery_.shm_stats.verify_micros.load())
        .Set("total_micros", last_recovery_.TotalMicros())
        .Set("bytes", static_cast<int64_t>(bytes))
        .Set("blocks_on_demand",
             static_cast<int64_t>(
                 last_recovery_.shm_stats.blocks_on_demand.load()));
    (void)exporter_->ExportSystemRow(obs::kRestartsTableName, std::move(row));
  }

  (void)exporter_->ExportOnce();
  exporter_->Start();
}

Status LeafServer::AddRows(const std::string& table,
                           const std::vector<Row>& rows) {
  return AddRows(table, rows, IngestBatchMeta());
}

Status LeafServer::AddRows(const std::string& table,
                           const std::vector<Row>& rows,
                           const IngestBatchMeta& meta) {
  if (obs::IsSystemTable(table)) {
    // Reserved namespace: only the leaf's own exporter writes here, via
    // the system path below. Letting external ingest in would mix workload
    // data into the self-stats (and bypass its no-backup rules).
    return Status::InvalidArgument("table name '" + table +
                                   "' is reserved for system tables");
  }
  IngestObserver observer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SCUBA_RETURN_IF_ERROR(AddRowsLocked(table, rows, /*system=*/false, meta));
    observer = ingest_observer_;
  }
  // Fired outside the mutex: the observer typically takes the result
  // cache's own lock, and holding both invites ordering trouble.
  if (observer) observer(table);
  return Status::OK();
}

Status LeafServer::AddRowsLocked(const std::string& table,
                                 const std::vector<Row>& rows, bool system,
                                 const IngestBatchMeta& meta) {
  ServerMetrics& metrics = ServerMetrics::Get();
  if (!leaf_state_.CanAcceptAdds()) {
    if (!system) metrics.adds_rejected->Add(1);
    return Status::Unavailable("leaf " + std::to_string(config_.leaf_id) +
                               " not accepting adds (state " +
                               std::string(LeafStateName(leaf_state_.state())) +
                               ")");
  }
  auto [it, inserted] = table_states_.try_emplace(table);
  if (inserted) {
    // Fresh table created by ingest goes straight to ALIVE.
    SCUBA_RETURN_IF_ERROR(it->second.Transition(TableState::kAlive));
  }
  if (!it->second.CanAcceptAdds()) {
    if (!system) metrics.adds_rejected->Add(1);
    return Status::Unavailable("table '" + table + "' not accepting adds");
  }

  // The batch is checked whole before any row lands, on disk or in memory:
  // every row has an int64 time, each field keeps one type in the batch
  // (Schema::OfRows), and none conflicts with the table's buffered column
  // (the test the disk replay seals on). A backed-up batch the table
  // refused part-way would make the next disk recovery fail.
  SCUBA_ASSIGN_OR_RETURN(Schema schema, Schema::OfRows(rows));
  Table* t = leaf_map_.GetTable(table);
  if (t != nullptr && t->write_buffer().ConflictsWith(schema)) {
    return Status::InvalidArgument(
        "table '" + table + "': batch conflicts with a buffered column type");
  }
  if (t == nullptr) {
    SCUBA_ASSIGN_OR_RETURN(
        t, leaf_map_.CreateTable(table, config_.default_table_limits));
    InstallSealObserver(t);
  }
  // Backup first ("Scuba stores backups of all incoming data to disk",
  // §4.1), then the in-memory store. System tables skip the backup: their
  // durability is the shm handoff, and their contents are regenerated by
  // the next process anyway — a disk copy would only amplify every export
  // into disk writes.
  if (!system) SCUBA_RETURN_IF_ERROR(BackupBatch(table, schema, rows));
  size_t blocks_before = t->num_row_blocks();
  SCUBA_RETURN_IF_ERROR(t->AddRows(rows, clock()->NowUnixSeconds()));

  // Columnar backup: a seal during this batch rotated the tail away,
  // taking the batch's unsealed suffix with it — re-seed the fresh tail
  // from the write buffer so blocks + tail always cover every row.
  if (!system && UsesColumnarBackup() &&
      t->num_row_blocks() != blocks_before && !t->write_buffer().empty()) {
    std::vector<Row> tail = t->write_buffer().MaterializeRows();
    SCUBA_ASSIGN_OR_RETURN(Schema tail_schema, Schema::OfRows(tail));
    SCUBA_RETURN_IF_ERROR(
        columnar_writer_.AppendBatch(table, tail_schema, tail));
  }
  if (!system) {
    // Self-amplification guard: the exporter's own inserts must not move
    // the ingestion counters it is about to export, or every export cycle
    // would manufacture the next cycle's rows.
    metrics.add_batches->Add(1);
    metrics.rows_added->Add(rows.size());

    const bool sealed = t->num_row_blocks() != blocks_before;
    int64_t seal_max_time = 0;
    for (size_t b = blocks_before; b < t->num_row_blocks(); ++b) {
      const RowBlock* block = t->row_block(b);
      if (block != nullptr) {
        seal_max_time = std::max(seal_max_time, block->header().max_time);
      }
    }
    UpdateFreshnessLocked(table, rows, sealed, seal_max_time, meta);
  }
  return Status::OK();
}

void LeafServer::UpdateFreshnessLocked(const std::string& table,
                                       const std::vector<Row>& rows,
                                       bool sealed, int64_t seal_max_time,
                                       const IngestBatchMeta& meta) {
  auto& reg = obs::MetricsRegistry::Global();

  // Watermark 1: the newest event time this table has ingested. Gauges
  // export only on CHANGE, so Set only when the watermark advances — a
  // frozen producer freezes the gauge, the export delta goes silent, and
  // the ingest_freshness_stall absence rule reads the silence.
  int64_t batch_max_time = 0;
  for (const Row& row : rows) {
    if (std::optional<int64_t> t = row.Time(); t.has_value()) {
      batch_max_time = std::max(batch_max_time, *t);
    }
  }
  if (batch_max_time > 0) {
    int64_t& mark = max_ingested_watermarks_[table];
    if (batch_max_time > mark) {
      mark = batch_max_time;
      reg.GetGauge("scuba.ingest.freshness.max_ingested_unix." + table)
          ->Set(batch_max_time);
    }
  }

  // Watermark 2: the newest event time that has made it into a SEALED
  // (compressed, prunable, shm-handoff-visible) block.
  if (sealed && seal_max_time > 0) {
    int64_t& mark = seal_watermarks_[table];
    if (seal_max_time > mark) {
      mark = seal_max_time;
      reg.GetGauge("scuba.ingest.freshness.visible_after_seal_unix." + table)
          ->Set(seal_max_time);
    }
  }

  // End-to-end latency: category-log append (generation) to queryable
  // here. Batches that never went through a log (direct test inserts)
  // carry no stamp and record nothing.
  if (meta.oldest_append_steady_micros > 0) {
    const int64_t now = SteadyNowMicros();
    const int64_t lag = now - meta.oldest_append_steady_micros;
    reg.GetHistogram("scuba.ingest.freshness.generate_to_queryable_micros")
        ->Record(lag > 0 ? static_cast<uint64_t>(lag) : 0);
  }
}

StatusOr<QueryResult> LeafServer::ExecuteQuery(const Query& query) {
  return ExecuteQuery(query, QueryContext{});
}

StatusOr<QueryResult> LeafServer::ExecuteQuery(const Query& query,
                                               const QueryContext& ctx) {
  std::unique_lock<std::mutex> lock(mutex_);
  ServerMetrics& metrics = ServerMetrics::Get();
  if (!leaf_state_.CanAcceptQueries()) {
    metrics.queries_rejected->Add(1);
    return Status::Unavailable("leaf " + std::to_string(config_.leaf_id) +
                               " not accepting queries (state " +
                               std::string(LeafStateName(leaf_state_.state())) +
                               ")");
  }
  metrics.queries->Add(1);

  // RESTORING: pull the exact unit set this query's time range touches to
  // the front of the restore queue and block only on those — then execute
  // against a table whose relevant blocks are all resident, so the result
  // is bit-identical to a fully-restored leaf.
  InstantRestoreEngine::WaitResult restore_wait;
  if (leaf_state_.state() == LeafState::kRestoring && engine_ != nullptr) {
    int table_index = engine_->TableIndex(query.table);
    if (table_index >= 0) {
      // EnsureAvailable blocks on the engine; the adopt callback needs
      // mutex_, so it must be dropped here.
      lock.unlock();
      restore_wait = engine_->EnsureAvailable(
          static_cast<size_t>(table_index), query.begin_time, query.end_time);
      lock.lock();
      if (restore_wait.cancelled) {
        // Instant restore fell over mid-wait; the fallback path owns the
        // leaf now and does all its work under one mutex hold — waking on
        // a non-RESTORING state means it either finished (ALIVE) or
        // failed for good.
        restore_cv_.wait(lock, [&] {
          return leaf_state_.state() != LeafState::kRestoring;
        });
        if (leaf_state_.state() != LeafState::kAlive) {
          metrics.queries_rejected->Add(1);
          return Status::Unavailable(
              "leaf " + std::to_string(config_.leaf_id) +
              " restore failed (state " +
              std::string(LeafStateName(leaf_state_.state())) + ")");
        }
      }
    }
  }
  // The leaf's whole execution under one span; on a parallel fan-out this
  // runs on a pool worker with an empty span stack, so it attaches under
  // the aggregator's fan-out root via the explicit parent.
  obs::PhaseTracer::Span leaf_span(
      ctx.tracer, ctx.parent_span,
      "leaf " + std::to_string(config_.leaf_id) + " execute");
  Stopwatch leaf_watch;

  const Table* table = leaf_map_.GetTable(query.table);
  if (table == nullptr) {
    // This leaf holds no fraction of the table: empty (not an error).
    QueryResult empty(query.aggregates);
    empty.leaves_total = 1;
    empty.leaves_responded = 1;
    empty.profile().leaves_total = 1;
    empty.profile().leaves_responded = 1;
    empty.profile().leaf_execute_micros = leaf_watch.ElapsedMicros();
    return empty;
  }
  auto ts_it = table_states_.find(query.table);
  if (ts_it != table_states_.end() && !ts_it->second.CanAcceptQueries()) {
    return Status::Unavailable("table '" + query.table +
                               "' not accepting queries");
  }
  // Executor-level spans (prune / per-block scans / merge) nest under the
  // leaf span: on this thread via the open-span stack, on scan workers via
  // the explicit parent.
  QueryContext leaf_ctx = ctx;
  leaf_ctx.parent_span = leaf_span.id();
  LeafExecutor::ExecOptions options;
  // Overload: the aggregator's ingest-priority hint parks the scan pool so
  // its workers stay free for ingest/restore; the serial scan returns
  // bit-identical results (the determinism contract num_query_threads is
  // tested under).
  options.pool = ingest_priority_hint() ? nullptr : query_pool_.get();
  options.ctx = &leaf_ctx;
  SCUBA_ASSIGN_OR_RETURN(QueryResult result,
                         LeafExecutor::Execute(*table, query, options));
  result.leaves_total = 1;
  result.leaves_responded = 1;
  result.profile().leaves_total = 1;
  result.profile().leaves_responded = 1;
  result.profile().leaf_execute_micros = leaf_watch.ElapsedMicros();
  result.profile().restore_wait_micros += restore_wait.waited_micros;
  result.profile().blocks_restored_on_demand += restore_wait.blocks_requested;
  return result;
}

size_t LeafServer::ExpireData() {
  size_t dropped = 0;
  std::vector<std::string> changed;
  IngestObserver observer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!leaf_state_.CanDeleteExpired()) return 0;
    int64_t now = clock()->NowUnixSeconds();
    for (const std::string& name : leaf_map_.TableNames()) {
      auto ts_it = table_states_.find(name);
      if (ts_it != table_states_.end() && !ts_it->second.CanDeleteExpired()) {
        // "Scuba stops deleting expired table data once shutdown starts"
        // (Fig 5 caption).
        continue;
      }
      size_t table_dropped = leaf_map_.GetTable(name)->ExpireData(now);
      if (table_dropped > 0) changed.push_back(name);
      dropped += table_dropped;
    }
    ServerMetrics::Get().rows_expired->Add(dropped);
    observer = ingest_observer_;
  }
  // Expiry changes a table's queryable contents just like ingest does;
  // cached partials over the dropped blocks must go.
  if (observer) {
    for (const std::string& name : changed) observer(name);
  }
  return dropped;
}

bool LeafServer::WriteBufferOverlaps(const std::string& table, int64_t begin,
                                     int64_t end) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Table* t = leaf_map_.GetTable(table);
  if (t == nullptr || t->write_buffer().empty()) return false;
  return t->write_buffer().min_time() <= end &&
         t->write_buffer().max_time() >= begin;
}

Status LeafServer::ShutdownToSharedMemory(ShutdownStats* stats,
                                          FootprintTracker* tracker) {
  // Self-stats wind-down happens BEFORE taking mutex_: the exporter's sink
  // inserts through it, so stopping under the lock would deadlock. The
  // final flush captures every delta since the last tick — all of it rides
  // to the successor in the shm copy below.
  if (exporter_ != nullptr) exporter_->Stop();

  std::lock_guard<std::mutex> lock(mutex_);
  int64_t now = clock()->NowUnixSeconds();

  // Fig 5a: ALIVE -> COPY_TO_SHM. The mutex we hold IS the drain: no add,
  // query, or delete can be in flight past this point.
  SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kCopyToShm));
  events_.EnterPhase(RestartPhase::kPrepare, "", leaf_map_.TotalMemoryBytes(),
                     leaf_map_.TableNames().size());

  // Fig 5c per-table PREPARE: reject new work (done via state), finish
  // in-flight work (mutex), seal buffers, flush data to disk.
  for (const std::string& name : leaf_map_.TableNames()) {
    TableStateMachine& ts = table_states_[name];
    if (ts.state() == TableState::kInit) {
      SCUBA_RETURN_IF_ERROR(ts.Transition(TableState::kAlive));
    }
    SCUBA_RETURN_IF_ERROR(ts.Transition(TableState::kPrepare));
    SCUBA_RETURN_IF_ERROR(leaf_map_.GetTable(name)->SealWriteBuffer(now));
  }
  SCUBA_RETURN_IF_ERROR(SyncBackups());
  for (auto& [name, ts] : table_states_) {
    if (ts.state() == TableState::kPrepare) {
      SCUBA_RETURN_IF_ERROR(ts.Transition(TableState::kCopyToShm));
    }
  }

  // Failure injection (§4.3 watchdog): the process is "killed" mid-copy.
  // Any partial segments have valid=false and are scrubbed; the backups
  // flushed above are the successor's only source. The heartbeat is
  // deliberately NOT advanced here — a killed process writes nothing, and
  // that silence is exactly what a stall monitor should observe.
  if (inject_shutdown_kill_) {
    inject_shutdown_kill_ = false;
    events_.Cancel(RestartPhase::kPrepare,
                   "shutdown killed by watchdog (injected)");
    restart_manager_.ScrubSharedMemory();
    leaf_map_.Clear();
    table_states_.clear();
    SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kExit));
    return Status::Aborted("shutdown killed by watchdog (injected)");
  }

  // Fig 6: the chunked copy itself.
  RestartConfig rc = restart_manager_.config();
  rc.shutdown.now = now;
  rc.shutdown.cancel = &shutdown_cancel_;
  rc.shutdown.after_block_copied = shutdown_block_hook_;
  RestartManager manager(rc);
  Status s = manager.Shutdown(&leaf_map_, stats, tracker);
  if (s.IsAborted()) {
    // Cooperative watchdog kill: the copy stopped at a block boundary with
    // the valid bit still false. Same aftermath as the injected kill —
    // scrub partial segments, drop state, exit; the successor
    // disk-recovers from the backups flushed above.
    events_.Fail(s.ToString());
    restart_manager_.ScrubSharedMemory();
    leaf_map_.Clear();
    table_states_.clear();
    SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kExit));
    return s;
  }
  SCUBA_RETURN_IF_ERROR(s);

  for (auto& [name, ts] : table_states_) {
    if (ts.state() == TableState::kCopyToShm) {
      SCUBA_RETURN_IF_ERROR(ts.Transition(TableState::kDone));
    }
  }
  SCUBA_RETURN_IF_ERROR(TransitionLeaf(LeafState::kExit));
  events_.EnterPhase(RestartPhase::kExited, "",
                     stats != nullptr ? stats->bytes_copied.load() : 0);
  return Status::OK();
}

void LeafServer::Crash() {
  // Stop the instant-restore workers first (they take mutex_ to adopt
  // blocks; Abandon joins them, so it must run before we lock). No done
  // callback fires — a crash preserves nothing.
  if (engine_ != nullptr) engine_->Abandon();
  // Join the exporter thread next (its sink takes mutex_; no final flush).
  exporter_.reset();
  std::lock_guard<std::mutex> lock(mutex_);
  // The one deliberate last word an unclean death gets to leave: real
  // crashes leave the ring mid-sentence, a simulated one says so.
  events_.Error("simulated crash");
  // A dead process answers nothing: from here every add and query gets
  // Unavailable, so aggregators report the leaf missing instead of
  // counting its empty map as a complete answer. Queries parked on the
  // restore wake up and see the same.
  leaf_state_.ForceExit();
  restore_cv_.notify_all();
  leaf_map_.Clear();
  table_states_.clear();
  // No valid bit is ever set on this path; the next process will find
  // either nothing or a stale metadata segment with valid=false and will
  // recover from disk (§4, "we do not use shared memory to recover from a
  // crash").
}

LeafServer::Stats LeafServer::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.leaf_id = config_.leaf_id;
  stats.state = leaf_state_.state();
  stats.last_recovery_source = last_recovery_.source;
  stats.last_recovery_micros = last_recovery_.TotalMicros();
  stats.total_rows = leaf_map_.TotalRowCount();
  stats.memory_used_bytes = leaf_map_.TotalMemoryBytes();
  stats.memory_capacity_bytes = config_.memory_capacity_bytes;

  for (const std::string& name : leaf_map_.TableNames()) {
    const Table* table = leaf_map_.GetTable(name);
    TableStats ts;
    ts.name = name;
    ts.row_count = table->RowCount();
    ts.buffered_rows = table->write_buffer().row_count();
    ts.num_row_blocks = table->num_row_blocks();
    ts.heap_bytes = table->MemoryBytes();
    bool first_block = true;
    uint64_t sealed_bytes = 0;
    for (size_t b = 0; b < table->num_row_blocks(); ++b) {
      const RowBlock* block = table->row_block(b);
      if (block == nullptr) continue;
      sealed_bytes += block->MemoryBytes();
      for (size_t c = 0; c < block->num_columns(); ++c) {
        if (block->column(c) != nullptr) {
          ts.uncompressed_bytes += block->column(c)->uncompressed_bytes();
        }
      }
      if (first_block) {
        ts.min_time = block->header().min_time;
        ts.max_time = block->header().max_time;
        first_block = false;
      } else {
        ts.min_time = std::min(ts.min_time, block->header().min_time);
        ts.max_time = std::max(ts.max_time, block->header().max_time);
      }
    }
    ts.compression_ratio =
        sealed_bytes == 0 ? 0.0
                          : static_cast<double>(ts.uncompressed_bytes) /
                                static_cast<double>(sealed_bytes);
    stats.tables.push_back(std::move(ts));
  }
  return stats;
}

LeafState LeafServer::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leaf_state_.state();
}

bool LeafServer::CanAcceptAdds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leaf_state_.CanAcceptAdds();
}

bool LeafServer::CanAcceptQueries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leaf_state_.CanAcceptQueries();
}

uint64_t LeafServer::MemoryUsedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leaf_map_.TotalMemoryBytes();
}

uint64_t LeafServer::FreeMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t used = leaf_map_.TotalMemoryBytes();
  return used >= config_.memory_capacity_bytes
             ? 0
             : config_.memory_capacity_bytes - used;
}

uint64_t LeafServer::RowCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leaf_map_.TotalRowCount();
}

std::vector<std::string> LeafServer::TableNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leaf_map_.TableNames();
}

}  // namespace scuba
