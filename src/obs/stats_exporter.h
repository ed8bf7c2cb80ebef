#ifndef SCUBA_OBS_STATS_EXPORTER_H_
#define SCUBA_OBS_STATS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "columnar/row.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace scuba {
namespace obs {

/// Table names starting with this prefix are reserved for self-hosted
/// system tables ("Scuba monitors Scuba"): external ingestion into them is
/// rejected, they are never backed up to disk (shm handoff + regeneration
/// are their durability), and writes to them do not count in the leaf's
/// ingestion metrics.
inline constexpr std::string_view kSystemTablePrefix = "__scuba";

/// The per-leaf self-stats table StatsExporter appends to.
inline constexpr const char* kStatsTableName = "__scuba_stats";

/// The self-hosted slow-query log: one row per slow (or 1-in-N sampled)
/// query, written through the same system-table sink as __scuba_stats and
/// therefore equally compressed, queryable, and restart-surviving.
inline constexpr const char* kQueriesTableName = "__scuba_queries";

/// The self-hosted SLO table: one row per scope (cluster + each active
/// table) per export cycle with the sliding-window p50/p95/p99, the
/// overload state, and the cycle's shed/deadline-abandon deltas — written
/// through the same system-table sink, so equally compressed, queryable,
/// and restart-surviving.
inline constexpr const char* kSloTableName = "__scuba_slo";

/// The self-hosted restart-history table: one summary row per restart
/// transition (kind=shutdown/restore, path=shm/disk/fresh, per-phase
/// micros, bytes, outcome — including "crash-fallback" when a successor
/// disk-recovered after an unclean predecessor death). Written through the
/// same system-table sink, so equally compressed, queryable through the
/// aggregator, and carried across restarts by the shm handoff.
inline constexpr const char* kRestartsTableName = "__scuba_restarts";

/// The self-hosted alert-state table: one row per alert firing/clear
/// TRANSITION (never per evaluation cycle — a rule that stays firing for
/// an hour contributes exactly one row), written by the HealthMonitor's
/// AlertEngine through the same system-table sink. Equally compressed,
/// queryable through the aggregator, and carried across restarts by the
/// shm handoff, so "when did this cluster last page" is itself a Scuba
/// query.
inline constexpr const char* kAlertsTableName = "__scuba_alerts";

/// True for names under the reserved system-table prefix.
bool IsSystemTable(std::string_view table);

class SloTracker;

/// Knobs for one leaf's stats exporter.
struct StatsExporterOptions {
  /// When set, every ExportOnce cycle also samples this tracker's
  /// cluster/table windows into `__scuba_slo` rows (scopes whose window is
  /// empty produce no row — zero traffic, zero rows). Not owned; must
  /// outlive the exporter.
  const SloTracker* slo_tracker = nullptr;
  /// Delta-snapshot period for the background thread.
  int64_t period_millis = 1000;
  /// Restart-heartbeat generation of this process; stamped on every row so
  /// history spanning process generations stays attributable.
  uint64_t generation = 0;
  /// Stamped on every row (the table is per-leaf, but reports merge).
  uint32_t leaf_id = 0;
  /// Registry to snapshot; nullptr = MetricsRegistry::Global().
  MetricsRegistry* registry = nullptr;
  /// Row timestamp source (unix seconds); nullptr = system clock. Tests
  /// inject a simulated clock here.
  std::function<int64_t()> now_unix_seconds;
};

/// Periodically collapses the MetricsRegistry into rows of a self-hosted
/// `__scuba_stats` table, through the normal ingestion path (the sink is
/// LeafServer's system-table insert): counters as per-cycle deltas + rates,
/// gauges as levels, histograms as delta count/sum plus interpolated
/// p50/p95/p99. The rows land in the columnar store like any other data —
/// compressed, queryable through the leaf/aggregator fan-out, and carried
/// across restarts by the shared-memory handoff, which is what makes
/// historical restart behaviour queryable across process generations.
///
/// Self-amplification guard: exporting is itself ingestion, so a naive
/// exporter feeds its own metrics back into the table it writes. Two
/// breaks in the loop keep it bounded: (1) system-table inserts are
/// excluded from the leaf ingestion metrics at the sink (tagged by the
/// reserved name), and (2) the exporter's own scuba.obs.stats_exporter.*
/// metrics are excluded from export. Counters/histograms that do not move
/// produce no row, so an idle process converges to a small fixed row set
/// per cycle.
///
/// Threading: Start spawns one background thread; ExportOnce may also be
/// called directly (initial export after recovery, final flush before
/// shutdown, tests) and is serialized with the thread by an internal
/// mutex. The sink is invoked WITHOUT that mutex's caller holding any
/// exporter state; it must be safe to call from the exporter thread.
class StatsExporter {
 public:
  using Sink = std::function<Status(const std::string& table,
                                    const std::vector<Row>& rows)>;

  StatsExporter(StatsExporterOptions options, Sink sink);
  ~StatsExporter();  // Stop()s if still running (no final flush)

  StatsExporter(const StatsExporter&) = delete;
  StatsExporter& operator=(const StatsExporter&) = delete;

  /// Spawns the background export thread. No-op if already running.
  void Start();

  /// Stops and joins the background thread, then runs one final
  /// ExportOnce so the deltas accumulated since the last tick are not
  /// lost. Call before the sink's target stops accepting rows (the leaf
  /// does this before PREPARE). No-op on a second call except the flush.
  void Stop();

  /// One delta cycle: snapshot the registry, diff against the previous
  /// snapshot, append the resulting rows to `__scuba_stats` (and
  /// `__scuba_slo`) through the sink. Rows carry the cycle timestamp,
  /// generation, and leaf id.
  Status ExportOnce();

  /// Appends one event row to the system table `table` — the slow-query
  /// log (`__scuba_queries`, rows built by the aggregator), the restart
  /// history (`__scuba_restarts`, built by the leaf from its autopsy and
  /// recovery result) or the alert transitions (`__scuba_alerts`, built by
  /// the AlertEngine) — stamping the generation and leaf id, and the
  /// current time unless the caller stamped its own event time. Callers
  /// write once per event, never per export cycle, so each table's width
  /// stays bounded by how often its events happen. InvalidArgument for a
  /// table outside `__scuba*`: the sink inserts with no disk backup.
  Status ExportSystemRow(std::string_view table, Row row);

  /// Completed export cycles (ExportOnce calls that reached the sink).
  uint64_t cycles() const { return cycles_.load(std::memory_order_relaxed); }

 private:
  void ThreadMain();
  /// Appends this cycle's `__scuba_slo` rows (one per non-empty scope),
  /// pulling the shed/deadline counter movement out of the same
  /// RegistryDelta the __scuba_stats rows were built from.
  void AppendSloRows(const MetricsRegistry::RegistryDelta& delta, int64_t now,
                     int64_t generation, int64_t leaf,
                     std::vector<Row>* slo_rows) const;
  int64_t NowUnixSeconds() const;
  MetricsRegistry& registry() const;
  /// True for metrics excluded from export (the exporter's own).
  static bool ExcludedFromExport(const std::string& name);

  StatsExporterOptions options_;
  Sink sink_;

  std::mutex export_mutex_;  // serializes ExportOnce bodies
  MetricsRegistry::RegistrySnapshot prev_;
  int64_t prev_stamp_millis_ = 0;

  std::mutex thread_mutex_;  // guards thread_/stopping_
  std::condition_variable cv_;
  std::thread thread_;
  bool stopping_ = false;

  std::atomic<uint64_t> cycles_{0};
};

}  // namespace obs
}  // namespace scuba

#endif  // SCUBA_OBS_STATS_EXPORTER_H_
