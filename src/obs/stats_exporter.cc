#include "obs/stats_exporter.h"

#include <chrono>
#include <ctime>
#include <utility>

#include "obs/slo_tracker.h"

namespace scuba {
namespace obs {
namespace {

int64_t SteadyMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exporter's own bookkeeping (excluded from export — see the guard note
/// in the class comment).
struct ExporterMetrics {
  Counter* cycles;
  Counter* rows;
  Counter* sink_failures;

  static ExporterMetrics& Get() {
    auto& reg = MetricsRegistry::Global();
    static ExporterMetrics m{
        reg.GetCounter("scuba.obs.stats_exporter.cycles"),
        reg.GetCounter("scuba.obs.stats_exporter.rows_exported"),
        reg.GetCounter("scuba.obs.stats_exporter.sink_failures")};
    return m;
  }
};

}  // namespace

bool IsSystemTable(std::string_view table) {
  return table.substr(0, kSystemTablePrefix.size()) == kSystemTablePrefix;
}

StatsExporter::StatsExporter(StatsExporterOptions options, Sink sink)
    : options_(std::move(options)), sink_(std::move(sink)) {
  // Baseline the delta snapshot at construction: this exporter reports
  // only movement during its own generation's lifetime. Against a real
  // per-process registry this is a no-op (counters start at zero); with
  // the simulated multi-leaf process sharing one global registry it keeps
  // a successor's first export from re-claiming the predecessor's entire
  // cumulative history under a fresh timestamp (which would double-count
  // every Sum() over __scuba_stats spanning generations, and re-fire
  // delta-window alert rules on every restart).
  prev_ = registry().TakeRegistrySnapshot();
}

StatsExporter::~StatsExporter() {
  // Join without the final flush: during destruction the sink's target may
  // already be gone. Orderly shutdown calls Stop() explicitly first.
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

MetricsRegistry& StatsExporter::registry() const {
  return options_.registry != nullptr ? *options_.registry
                                      : MetricsRegistry::Global();
}

int64_t StatsExporter::NowUnixSeconds() const {
  if (options_.now_unix_seconds) return options_.now_unix_seconds();
  return static_cast<int64_t>(std::time(nullptr));
}

bool StatsExporter::ExcludedFromExport(const std::string& name) {
  return name.rfind("scuba.obs.stats_exporter.", 0) == 0;
}

void StatsExporter::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] { ThreadMain(); });
}

void StatsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final flush: whatever moved since the last tick still makes it into
  // the table before the caller seals it for shutdown.
  (void)ExportOnce();
}

void StatsExporter::ThreadMain() {
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (!stopping_) {
    // Tick-then-export: the first export happens one period in, so a
    // freshly started leaf's immediate post-recovery ExportOnce (done by
    // the caller) is not duplicated.
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.period_millis),
                     [this] { return stopping_; })) {
      break;
    }
    lock.unlock();
    (void)ExportOnce();
    lock.lock();
  }
}

Status StatsExporter::ExportOnce() {
  std::lock_guard<std::mutex> lock(export_mutex_);
  ExporterMetrics& em = ExporterMetrics::Get();

  MetricsRegistry::RegistrySnapshot snap = registry().TakeRegistrySnapshot();
  int64_t now_millis = SteadyMillis();
  double period_secs =
      prev_stamp_millis_ == 0
          ? 0.0
          : static_cast<double>(now_millis - prev_stamp_millis_) / 1000.0;
  int64_t now = NowUnixSeconds();
  int64_t generation = static_cast<int64_t>(options_.generation);
  int64_t leaf = static_cast<int64_t>(options_.leaf_id);

  // The one shared delta implementation (MetricsRegistry::SnapshotDelta):
  // metrics that did not move are absent, which is what keeps an idle
  // process's export converging to zero rows per cycle.
  const MetricsRegistry::RegistryDelta delta =
      MetricsRegistry::SnapshotDelta(prev_, snap);

  std::vector<Row> rows;
  for (const auto& [name, d] : delta.counters) {
    if (ExcludedFromExport(name)) continue;
    Row row;
    row.SetTime(now)
        .Set("metric", name)
        .Set("kind", std::string("counter"))
        .Set("generation", generation)
        .Set("leaf", leaf)
        .Set("value", static_cast<int64_t>(d.delta));
    if (period_secs > 0) {
      row.Set("rate", static_cast<double>(d.delta) / period_secs);
    }
    rows.push_back(std::move(row));
  }
  for (const auto& [name, value] : delta.gauges) {
    if (ExcludedFromExport(name)) continue;
    Row row;
    row.SetTime(now)
        .Set("metric", name)
        .Set("kind", std::string("gauge"))
        .Set("generation", generation)
        .Set("leaf", leaf)
        .Set("value", static_cast<int64_t>(value));
    rows.push_back(std::move(row));
  }
  for (const auto& [name, d] : delta.histograms) {
    if (ExcludedFromExport(name)) continue;
    Row row;
    // Deltas for volume; percentiles from the cumulative distribution
    // (log2-bucket interpolation — see Histogram::Snapshot::Percentile).
    row.SetTime(now)
        .Set("metric", name)
        .Set("kind", std::string("histogram"))
        .Set("generation", generation)
        .Set("leaf", leaf)
        .Set("count", static_cast<int64_t>(d.count))
        .Set("sum", static_cast<int64_t>(d.sum))
        .Set("p50", d.cumulative.Percentile(0.50))
        .Set("p95", d.cumulative.Percentile(0.95))
        .Set("p99", d.cumulative.Percentile(0.99));
    rows.push_back(std::move(row));
  }

  std::vector<Row> slo_rows;
  if (options_.slo_tracker != nullptr) {
    AppendSloRows(delta, now, generation, leaf, &slo_rows);
  }

  prev_ = std::move(snap);
  prev_stamp_millis_ = now_millis;

  if (!rows.empty()) {
    Status s = sink_(kStatsTableName, rows);
    if (!s.ok()) {
      em.sink_failures->Add(1);
      return s;
    }
    em.rows->Add(rows.size());
  }
  if (!slo_rows.empty()) {
    Status s = sink_(kSloTableName, slo_rows);
    if (!s.ok()) {
      em.sink_failures->Add(1);
      return s;
    }
    em.rows->Add(slo_rows.size());
  }
  em.cycles->Add(1);
  cycles_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void StatsExporter::AppendSloRows(const MetricsRegistry::RegistryDelta& delta,
                                  int64_t now, int64_t generation,
                                  int64_t leaf,
                                  std::vector<Row>* slo_rows) const {
  const SloTracker& tracker = *options_.slo_tracker;
  // This cycle's admission movement comes from the SAME RegistryDelta the
  // __scuba_stats rows used — shed/deadline deltas, not lifetime totals.
  auto counter_delta = [&delta](const char* name) -> int64_t {
    auto it = delta.counters.find(name);
    return it == delta.counters.end()
               ? 0
               : static_cast<int64_t>(it->second.delta);
  };
  const int64_t shed = counter_delta("scuba.server.admission.shed");
  const int64_t deadline_abandons =
      counter_delta("scuba.server.aggregator.deadline_exceeded_leaves");

  auto make_row = [&](const std::string& scope,
                      const SloTracker::WindowStats& w) {
    Row row;
    row.SetTime(now)
        .Set("scope", scope)
        .Set("generation", generation)
        .Set("leaf", leaf)
        .Set("window_seconds",
             static_cast<int64_t>(tracker.options().window_seconds))
        .Set("count", static_cast<int64_t>(w.count))
        .Set("p50_micros", w.p50_micros)
        .Set("p95_micros", w.p95_micros)
        .Set("p99_micros", w.p99_micros)
        .Set("max_micros", static_cast<int64_t>(w.max_micros))
        .Set("slo_p99_micros",
             static_cast<int64_t>(tracker.options().slo_p99_micros))
        .Set("overloaded", static_cast<int64_t>(w.overloaded ? 1 : 0))
        .Set("shed", shed)
        .Set("deadline_abandons", deadline_abandons);
    return row;
  };

  // Zero queries in the window -> zero rows: the bounded-width guarantee.
  // Shed queries never reach the tracker (they are not served), so an
  // overload bad enough to shed EVERYTHING still emits the cluster row as
  // long as the shed counter moved.
  SloTracker::WindowStats cluster = tracker.Window();
  if (cluster.count > 0 || shed > 0) {
    slo_rows->push_back(make_row("cluster", cluster));
  }
  for (const auto& [table, w] : tracker.TableWindows()) {
    slo_rows->push_back(make_row(table, w));
  }
}

Status StatsExporter::ExportSystemRow(std::string_view table, Row row) {
  if (!IsSystemTable(table)) {
    return Status::InvalidArgument("'" + std::string(table) +
                                   "' is not a system table");
  }
  // Callers may stamp their own event time (the alert engine stamps the
  // evaluation instant); `Set` appends rather than replaces, so stamping
  // unconditionally would leave two "time" fields and desynchronize the
  // densified columns.
  if (!row.Time().has_value()) row.SetTime(NowUnixSeconds());
  row.Set("generation", static_cast<int64_t>(options_.generation))
      .Set("leaf", static_cast<int64_t>(options_.leaf_id));
  Status s = sink_(std::string(table), {row});
  ExporterMetrics& em = ExporterMetrics::Get();
  if (!s.ok()) {
    em.sink_failures->Add(1);
    return s;
  }
  em.rows->Add(1);
  return s;
}

}  // namespace obs
}  // namespace scuba
