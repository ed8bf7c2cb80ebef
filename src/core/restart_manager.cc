#include "core/restart_manager.h"

#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "disk/file.h"
#include "obs/metrics.h"
#include "shm/shm_segment.h"
#include "util/clock.h"
#include "util/logging.h"

namespace scuba {
namespace {

// Reconstructs the paper's disk-recovery phase split (Fig 5b: raw read vs
// decode+rebuild) as a timeline. The sources accumulate read/translate
// micros per unit, so the spans are laid end to end inside the measured
// disk window — same convention as Fig 7's stacked bars.
void AddDiskPhaseSpans(obs::PhaseTracer* tracer, int64_t window_start,
                       const DiskRestoreStats& disk) {
  tracer->AddCompletedSpan("disk_read", window_start,
                           window_start + disk.read_micros, disk.bytes_read);
  tracer->AddCompletedSpan(
      "disk_translate", window_start + disk.read_micros,
      window_start + disk.read_micros + disk.translate_micros);
}

}  // namespace

std::string_view BackupFormatKindName(BackupFormatKind kind) {
  switch (kind) {
    case BackupFormatKind::kRowMajor:
      return "row-major";
    case BackupFormatKind::kColumnar:
      return "columnar";
  }
  return "unknown";
}

RestartManager::RestartManager(RestartConfig config)
    : config_(std::move(config)) {
  // The shutdown direction reads its own options; keep them in sync with
  // the top-level settings so callers only have to set them once.
  config_.shutdown.namespace_prefix = config_.namespace_prefix;
  config_.shutdown.leaf_id = config_.leaf_id;
  config_.shutdown.num_copy_threads = config_.num_copy_threads;
}

size_t RestartManager::ScrubSharedMemory() {
  return ShmSegment::RemoveAll("/" + config_.namespace_prefix + "_leaf_" +
                               std::to_string(config_.leaf_id) + "_");
}

InstantRestoreEngine::Options RestartManager::EngineOptions() const {
  InstantRestoreEngine::Options options;
  options.num_copy_threads = config_.num_copy_threads;
  options.max_in_flight_bytes = config_.restore.max_in_flight_bytes;
  options.events = config_.events;
  return options;
}

StatusOr<std::unique_ptr<RestoreSource>> RestartManager::OpenSource(
    int64_t now, RecoveryResult* result, obs::PhaseTracer* tracer,
    const ColsCuts& cols_cuts) {
  const RestartEvents& events = config_.events;
  std::unique_ptr<RestoreSource> source;
  if (!config_.memory_recovery_enabled) {
    // Fig 5b "memory recovery disabled": free any shared memory in use.
    size_t scrubbed = ScrubSharedMemory();
    if (scrubbed > 0) {
      SCUBA_INFO << "leaf " << config_.leaf_id << ": memory recovery "
                 << "disabled; removed " << scrubbed << " shm segments";
    }
  } else if (result->shm_attempt_status.ok()) {
    // Opens immediately so the existence probe does not show up as a hole
    // at the front of the timeline.
    obs::PhaseTracer::Span open_span(tracer, "open_metadata");
    events.EnterPhase(RestartPhase::kOpenMetadata);
    auto shm_or = OpenShmRestoreSource(config_.namespace_prefix,
                                       config_.leaf_id,
                                       config_.restore.verify_checksums);
    if (shm_or.ok()) {
      source = std::move(shm_or).value();
    } else {
      result->shm_attempt_status = shm_or.status();
      if (!shm_or.status().IsNotFound()) {
        obs::IncrCounter("scuba.core.restart.shm_recovery_failures");
        SCUBA_WARN << "leaf " << config_.leaf_id
                   << ": memory recovery unavailable ("
                   << shm_or.status().ToString() << "); recovering from disk";
        events.Fallback(RestartPhase::kOpenMetadata,
                        "shm->disk: " + shm_or.status().ToString());
      }
      // The open already scrubbed what it could; again defensively
      // (idempotent).
      ScrubSharedMemory();
    }
  }

  // Disk path (Fig 5b DISK RECOVERY), in whichever format this leaf
  // writes.
  if (source == nullptr) {
    const uint64_t throttle = config_.restore.disk_throttle_bytes_per_sec;
    SCUBA_ASSIGN_OR_RETURN(
        source,
        config_.backup_format == BackupFormatKind::kColumnar
            ? OpenColsRestoreSource(config_.backup_dir, throttle,
                                    config_.restore.verify_checksums,
                                    cols_cuts, now)
            : OpenBakRestoreSource(config_.backup_dir, throttle, now));
  }

  events.EnterCopyPhase(RestorePhase(source->recovery_source()),
                        source->total_bytes(), source->units().size(),
                        RecoverySourceName(source->recovery_source()));
  return source;
}

StatusOr<RecoveryResult> RestartManager::Recover(LeafMap* leaf_map,
                                                 int64_t now,
                                                 FootprintTracker* tracker) {
  if (leaf_map->num_tables() != 0) {
    return Status::FailedPrecondition("recover: leaf map must be empty");
  }
  RecoveryResult result;
  obs::PhaseTracer own_tracer;
  obs::PhaseTracer* tracer = config_.restore.tracer != nullptr
                                 ? config_.restore.tracer
                                 : &own_tracer;
  auto fail = [&](Status s) {
    config_.events.Fail(s.ToString());
    return s;
  };

  ColsCuts cols_cuts;
  for (;;) {
    const int64_t open_start = tracer->ElapsedMicros();
    StatusOr<std::unique_ptr<RestoreSource>> source_or =
        OpenSource(now, &result, tracer, cols_cuts);
    if (!source_or.ok()) {
      if (!source_or.status().IsNotFound()) return fail(source_or.status());
      FinishRecovery(nullptr, leaf_map, now, tracer, &result);
      return result;
    }
    std::unique_ptr<RestoreSource> source = std::move(source_or).value();
    const RecoverySource kind = source->recovery_source();
    const int64_t copy_start = tracer->ElapsedMicros();
    auto tables_or = CreateRestoreTables(
        source.get(), config_.restore.table_limits, now, leaf_map);
    if (!tables_or.ok()) {
      source->Abandon();
      leaf_map->Clear();
      return fail(tables_or.status());
    }
    std::vector<Table*> tables = std::move(tables_or).value();

    std::optional<FootprintCounter> footprint;
    if (tracker != nullptr) {
      footprint.emplace(kind == RecoverySource::kSharedMemory
                            ? TotalShmBytes("/" + config_.namespace_prefix +
                                            "_leaf_" +
                                            std::to_string(config_.leaf_id) +
                                            "_")
                            : 0,
                        tracker);
    }
    InstantRestoreEngine::Options options = EngineOptions();
    options.footprint = footprint.has_value() ? &*footprint : nullptr;
    // No query can reach these tables yet, so adoption only has to be
    // serialized against the other copy workers.
    std::mutex adopt_mutex;
    int64_t last_adopt = copy_start;
    InstantRestoreEngine engine(
        std::move(source), std::move(options),
        [&](const RestoreUnit& unit, LoadedUnit loaded) {
          std::lock_guard<std::mutex> lock(adopt_mutex);
          Status s = AdoptRestoredUnit(tables[unit.table_index], unit,
                                       std::move(loaded), now);
          last_adopt = tracer->ElapsedMicros();
          return s;
        });
    Status s = engine.Run();
    if (s.ok()) {
      if (kind == RecoverySource::kSharedMemory) {
        // Fig 7's phases back to back: the copy ends with the last adopted
        // block; unlinking the segments and the metadata follows.
        tracer->AddCompletedSpan("copy_in", copy_start, last_adopt,
                                 engine.stats().bytes_copied.load());
        tracer->AddCompletedSpan("destroy_metadata", last_adopt,
                                 tracer->ElapsedMicros());
      } else {
        AddDiskPhaseSpans(tracer, open_start, engine.disk_stats());
      }
      FinishRecovery(&engine, leaf_map, now, tracer, &result);
      return result;
    }

    leaf_map->Clear();
    if (kind == RecoverySource::kSharedMemory) {
      // The engine already scrubbed the segments; the valid bit went with
      // them, so nothing of this attempt survives.
      result.shm_attempt_status =
          Status::Corruption("memory recovery failed: " + s.ToString());
      obs::IncrCounter("scuba.core.restart.shm_recovery_failures");
      SCUBA_WARN << "leaf " << config_.leaf_id << ": "
                 << result.shm_attempt_status.ToString()
                 << "; falling back to disk";
      config_.events.Fallback(RestartPhase::kCopyIn,
                              "shm->disk: " + s.ToString());
      ScrubSharedMemory();
      continue;
    }
    const int64_t failed = engine.failed_unit();
    if (config_.backup_format == BackupFormatKind::kColumnar && failed >= 0) {
      // A .cols block that fails to load ends its table's clean prefix,
      // exactly like a torn record: keep the blocks before it and replay
      // the tail generation that matches that count.
      const RestoreUnit& unit = engine.source().units()[failed];
      const std::string& table =
          engine.source().tables()[unit.table_index].name;
      SCUBA_WARN << "leaf " << config_.leaf_id << ": columnar backup "
                 << table << ": block " << unit.slot << " failed to load ("
                 << s.ToString() << "); keeping the blocks before it";
      cols_cuts[table] = unit.slot;
      continue;
    }
    return fail(s);
  }
}

void RestartManager::FinishRecovery(const InstantRestoreEngine* engine,
                                    LeafMap* leaf_map, int64_t now,
                                    obs::PhaseTracer* tracer,
                                    RecoveryResult* result) {
  {
    obs::PhaseTracer::Span expire_span(tracer, "expire");
    size_t dropped = 0;
    for (const std::string& name : leaf_map->TableNames()) {
      dropped += leaf_map->GetTable(name)->ExpireData(now);
    }
    if (dropped > 0) {
      SCUBA_INFO << "leaf " << config_.leaf_id << ": post-restore expiry "
                 << "dropped " << dropped << " blocks and buffers";
    }
  }
  // The epilogue — result, gauge and the report write — is covered by its
  // own span, as the shutdown's is, so the timeline accounts for (nearly)
  // all wall time. The report's own copy of the trace shows it still open.
  obs::PhaseTracer::Span report_span(tracer, "report");
  result->source = engine == nullptr ? RecoverySource::kFresh
                                     : engine->source().recovery_source();
  if (engine != nullptr) {
    result->shm_stats = engine->stats();
    result->disk_stats = engine->disk_stats();
  }
  result->trace_json = tracer != nullptr ? tracer->ToJson() : "{}";
  obs::SetGauge("scuba.core.restart.last_recovery_source",
                static_cast<int64_t>(result->source));

  const RestoreStats& stats = result->shm_stats;
  std::ostringstream body;
  body << "\"source\": \"" << RecoverySourceName(result->source)
       << "\", \"instant\": "
       << (engine != nullptr && !engine->blocking() ? "true" : "false")
       << ", \"tables_restored\": " << stats.tables_restored.load()
       << ", \"row_blocks_restored\": " << stats.row_blocks_restored.load()
       << ", \"blocks_on_demand\": " << stats.blocks_on_demand.load()
       << ", \"blocks_background\": " << stats.blocks_background.load()
       << ", \"bytes_copied\": " << stats.bytes_copied.load()
       << ", \"elapsed_micros\": " << stats.elapsed_micros.load()
       << ", \"verify_micros\": " << stats.verify_micros.load()
       << ", \"trace\": " << result->trace_json;
  WriteReport("recovery", body.str());
}

Status RestartManager::Shutdown(LeafMap* leaf_map, ShutdownStats* stats,
                                FootprintTracker* tracker) {
  // A leftover metadata segment (e.g. the previous shutdown was killed
  // before its new process consumed it) would fail Create; scrub first.
  // Its valid bit semantics make this safe: either it was consumed, or the
  // disk backup is authoritative anyway.
  ScrubSharedMemory();
  obs::PhaseTracer tracer;
  ShutdownOptions shutdown_options = config_.shutdown;
  shutdown_options.tracer = &tracer;
  shutdown_options.events = config_.events;
  Status s = ShutdownToShm(leaf_map, shutdown_options, stats, tracker);
  last_shutdown_trace_json_ = tracer.ToJson();
  std::ostringstream body;
  body << "\"status\": \"" << (s.ok() ? "ok" : s.ToString())
       << "\", \"bytes_copied\": " << stats->bytes_copied.load()
       << ", \"tables_copied\": " << stats->tables_copied.load()
       << ", \"elapsed_micros\": " << stats->elapsed_micros.load()
       << ", \"trace\": " << last_shutdown_trace_json_;
  WriteReport("shutdown", body.str());
  return s;
}

void RestartManager::WriteReport(const std::string& op,
                                 const std::string& body_json) {
  if (config_.backup_dir.empty()) return;
  std::string path = config_.backup_dir + "/leaf_" +
                     std::to_string(config_.leaf_id) + "." + op +
                     "_report.json";
  std::ofstream out(path, std::ios::trunc);
  if (out) {
    out << "{\"schema_version\": " << kRestartReportSchemaVersion
        << ", \"leaf_id\": " << config_.leaf_id << ", \"op\": \"" << op
        << "\", " << body_json
        << ", \"metrics\": " << obs::MetricsRegistry::Global().ToJson()
        << "}\n";
    out.flush();
  }
  if (!out) {
    // Never fail the restart over a report, but never be silent either:
    // the operator loses the artifact, the dashboard sees the counter.
    obs::IncrCounter("scuba.core.restart.report_write_failures");
    SCUBA_WARN << "leaf " << config_.leaf_id << ": failed to write " << op
               << " report to " << path;
  }
}

Status RestoreFromShm(LeafMap* leaf_map, const RestartConfig& config,
                      RestoreStats* stats, FootprintTracker* tracker) {
  RestartConfig shm_only = config;
  shm_only.backup_dir.clear();
  shm_only.memory_recovery_enabled = true;
  SCUBA_ASSIGN_OR_RETURN(
      RecoveryResult result,
      RestartManager(std::move(shm_only))
          .Recover(leaf_map, RealClock::Get()->NowUnixSeconds(), tracker));
  *stats = result.shm_stats;
  return result.source == RecoverySource::kSharedMemory
             ? Status::OK()
             : result.shm_attempt_status;
}

}  // namespace scuba
