#include "obs/stats_exporter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "columnar/row.h"
#include "obs/metrics.h"

namespace scuba {
namespace obs {
namespace {

const Value* FindField(const Row& row, const std::string& name) {
  for (const auto& [k, v] : row.fields) {
    if (k == name) return &v;
  }
  return nullptr;
}

int64_t IntField(const Row& row, const std::string& name) {
  const Value* v = FindField(row, name);
  EXPECT_NE(v, nullptr) << "missing field " << name;
  if (v == nullptr || !std::holds_alternative<int64_t>(*v)) return -1;
  return std::get<int64_t>(*v);
}

std::string StringField(const Row& row, const std::string& name) {
  const Value* v = FindField(row, name);
  if (v == nullptr || !std::holds_alternative<std::string>(*v)) return "";
  return std::get<std::string>(*v);
}

/// An exporter over its own private registry, sinking into a vector.
struct ExporterFixture {
  MetricsRegistry registry;
  std::vector<Row> sunk;
  std::vector<size_t> batch_sizes;
  StatsExporter exporter;

  explicit ExporterFixture(int64_t period_millis = 3600 * 1000)
      : exporter(MakeOptions(period_millis),
                 [this](const std::string& table, const std::vector<Row>& rows) {
                   EXPECT_EQ(table, std::string(kStatsTableName));
                   batch_sizes.push_back(rows.size());
                   sunk.insert(sunk.end(), rows.begin(), rows.end());
                   return Status::OK();
                 }) {}

  StatsExporterOptions MakeOptions(int64_t period_millis) {
    StatsExporterOptions o;
    o.period_millis = period_millis;
    o.generation = 3;
    o.leaf_id = 7;
    o.registry = &registry;
    o.now_unix_seconds = [] { return int64_t{1700000000}; };
    return o;
  }
};

TEST(StatsExporterTest, SystemTableNames) {
  EXPECT_TRUE(IsSystemTable("__scuba_stats"));
  EXPECT_TRUE(IsSystemTable("__scuba"));
  EXPECT_TRUE(IsSystemTable("__scuba_anything"));
  EXPECT_FALSE(IsSystemTable("requests"));
  EXPECT_FALSE(IsSystemTable("_scuba"));
  EXPECT_FALSE(IsSystemTable("scuba_stats"));
}

TEST(StatsExporterTest, CountersExportAsDeltas) {
  ExporterFixture fx;
  Counter* c = fx.registry.GetCounter("scuba.test.widgets");
  c->Add(10);
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_EQ(fx.sunk.size(), 1u);
  EXPECT_EQ(StringField(fx.sunk[0], "metric"), "scuba.test.widgets");
  EXPECT_EQ(StringField(fx.sunk[0], "kind"), "counter");
  EXPECT_EQ(IntField(fx.sunk[0], "value"), 10);
  EXPECT_EQ(IntField(fx.sunk[0], "generation"), 3);
  EXPECT_EQ(IntField(fx.sunk[0], "leaf"), 7);

  // Second cycle sees only the delta, with a rate (time has passed since
  // the first snapshot stamp; back-to-back cycles in the same millisecond
  // would omit it, hence the sleep).
  c->Add(5);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_EQ(fx.sunk.size(), 2u);
  EXPECT_EQ(IntField(fx.sunk[1], "value"), 5);
  EXPECT_NE(FindField(fx.sunk[1], "rate"), nullptr);
}

TEST(StatsExporterTest, NoMovementNoRows) {
  ExporterFixture fx;
  fx.registry.GetCounter("scuba.test.static")->Add(1);
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  // Only the first cycle produced a row; idle cycles are row-free.
  EXPECT_EQ(fx.sunk.size(), 1u);
  EXPECT_EQ(fx.exporter.cycles(), 3u);
}

TEST(StatsExporterTest, GaugesExportOnChange) {
  ExporterFixture fx;
  Gauge* g = fx.registry.GetGauge("scuba.test.level");
  g->Set(42);
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_EQ(fx.sunk.size(), 1u);  // first sight
  EXPECT_EQ(StringField(fx.sunk[0], "kind"), "gauge");
  EXPECT_EQ(IntField(fx.sunk[0], "value"), 42);

  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  EXPECT_EQ(fx.sunk.size(), 1u);  // unchanged level, no row

  g->Set(41);
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_EQ(fx.sunk.size(), 2u);
  EXPECT_EQ(IntField(fx.sunk[1], "value"), 41);
}

TEST(StatsExporterTest, HistogramsExportDeltaVolumeAndPercentiles) {
  ExporterFixture fx;
  Histogram* h = fx.registry.GetHistogram("scuba.test.latency");
  for (int i = 0; i < 100; ++i) h->Record(1000);
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_EQ(fx.sunk.size(), 1u);
  EXPECT_EQ(StringField(fx.sunk[0], "kind"), "histogram");
  EXPECT_EQ(IntField(fx.sunk[0], "count"), 100);
  EXPECT_EQ(IntField(fx.sunk[0], "sum"), 100 * 1000);
  const Value* p50 = FindField(fx.sunk[0], "p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>(*p50), 1000.0);

  // Next cycle exports only the new observations' volume.
  h->Record(2000);
  ASSERT_TRUE(fx.exporter.ExportOnce().ok());
  ASSERT_EQ(fx.sunk.size(), 2u);
  EXPECT_EQ(IntField(fx.sunk[1], "count"), 1);
  EXPECT_EQ(IntField(fx.sunk[1], "sum"), 2000);
}

// One writer for every event row: it stamps generation, leaf and time
// (keeping a caller's own time), and refuses tables outside `__scuba*`,
// whose rows the sink would insert with no disk backup.
TEST(StatsExporterTest, SystemRowStampsAndStaysInSystemTables) {
  std::vector<std::pair<std::string, Row>> sunk;
  StatsExporterOptions options;
  options.generation = 3;
  options.leaf_id = 7;
  options.now_unix_seconds = [] { return int64_t{1700000000}; };
  StatsExporter exporter(
      options, [&](const std::string& table, const std::vector<Row>& rows) {
        for (const Row& row : rows) sunk.emplace_back(table, row);
        return Status::OK();
      });

  Row stamped;
  stamped.SetTime(1600000000).Set("rule", std::string("slo_breach"));
  ASSERT_TRUE(exporter.ExportSystemRow(kAlertsTableName, stamped).ok());
  ASSERT_TRUE(exporter.ExportSystemRow(kRestartsTableName, Row()).ok());
  EXPECT_TRUE(exporter.ExportSystemRow("requests", Row()).IsInvalidArgument());

  ASSERT_EQ(sunk.size(), 2u);
  EXPECT_EQ(sunk[0].first, kAlertsTableName);
  EXPECT_EQ(sunk[0].second.Time(), 1600000000);
  EXPECT_EQ(IntField(sunk[0].second, "generation"), 3);
  EXPECT_EQ(IntField(sunk[0].second, "leaf"), 7);
  EXPECT_EQ(sunk[1].first, kRestartsTableName);
  EXPECT_EQ(sunk[1].second.Time(), 1700000000);
}

TEST(StatsExporterTest, OwnMetricsExcludedFromExport) {
  // The exporter's bookkeeping lives in the GLOBAL registry; exporting
  // from the global registry must never produce rows about the exporter
  // itself (break #2 of the self-amplification guard).
  MetricsRegistry::Global().ResetForTest();
  std::vector<Row> sunk;
  StatsExporterOptions options;
  options.now_unix_seconds = [] { return int64_t{1700000000}; };
  StatsExporter exporter(options,
                         [&](const std::string&, const std::vector<Row>& rows) {
                           sunk.insert(sunk.end(), rows.begin(), rows.end());
                           return Status::OK();
                         });
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(exporter.ExportOnce().ok());
  for (const Row& row : sunk) {
    std::string metric = StringField(row, "metric");
    EXPECT_NE(metric.rfind("scuba.obs.stats_exporter.", 0), 0u)
        << "exporter exported its own metric: " << metric;
  }
}

// Satellite regression: 100 export cycles with steady outside activity
// must converge to a stable per-cycle row count and a bounded row width —
// the exporter must not amplify its own ingestion.
TEST(StatsExporterTest, HundredCyclesStayBounded) {
  ExporterFixture fx;
  Counter* work = fx.registry.GetCounter("scuba.test.steady_work");
  Histogram* lat = fx.registry.GetHistogram("scuba.test.steady_latency");

  size_t max_fields = 0;
  std::vector<size_t> per_cycle_rows;
  for (int cycle = 0; cycle < 100; ++cycle) {
    work->Add(10);       // the same outside activity every cycle
    lat->Record(500);
    size_t before = fx.sunk.size();
    ASSERT_TRUE(fx.exporter.ExportOnce().ok());
    per_cycle_rows.push_back(fx.sunk.size() - before);
    for (size_t i = before; i < fx.sunk.size(); ++i) {
      max_fields = std::max(max_fields, fx.sunk[i].fields.size());
    }
  }
  // After the first cycle (first-sight rows), every cycle exports exactly
  // the two moving metrics — no growth over 100 cycles.
  for (size_t cycle = 1; cycle < per_cycle_rows.size(); ++cycle) {
    EXPECT_EQ(per_cycle_rows[cycle], 2u) << "cycle " << cycle;
  }
  // Row width is the fixed sparse schema: time, metric, kind, generation,
  // leaf + kind-specific value columns. Nothing accretes onto it.
  EXPECT_LE(max_fields, 10u);
  EXPECT_EQ(fx.exporter.cycles(), 100u);
}

}  // namespace
}  // namespace obs
}  // namespace scuba
