#include <gtest/gtest.h>

#include <ctime>
#include <string>
#include <vector>

#include "obs/stats_exporter.h"
#include "server/leaf_server.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

class AlertsTableTest : public ::testing::Test {
 protected:
  AlertsTableTest() : ns_("alerts_tbl"), dir_("alerts_tbl") {}

  LeafServerConfig MakeConfig() {
    LeafServerConfig config;
    config.leaf_id = 0;
    config.namespace_prefix = ns_.prefix();
    config.backup_dir = dir_.path();
    config.self_stats_enabled = true;
    config.self_stats_period_millis = 3600 * 1000;  // explicit cycles only
    return config;
  }

  /// One alert-transition row shaped like AlertEngine::EmitTransition's.
  static Row AlertRow(const std::string& rule, const std::string& state) {
    Row row;
    row.SetTime(static_cast<int64_t>(std::time(nullptr)))
        .Set("rule", rule)
        .Set("severity", std::string("warning"))
        .Set("state", state)
        .Set("kind", std::string("threshold"))
        .Set("value", 1.0)
        .Set("baseline", 0.0)
        .Set("threshold", 0.0)
        .Set("detail", std::string("test alert"));
    return row;
  }

  static Query AlertsCount(const std::string& rule = "",
                           const std::string& state = "") {
    Query q;
    q.table = obs::kAlertsTableName;
    if (!rule.empty()) {
      q.predicates.push_back({"rule", CompareOp::kEq, Value(rule)});
    }
    if (!state.empty()) {
      q.predicates.push_back({"state", CompareOp::kEq, Value(state)});
    }
    q.aggregates = {Count()};
    return q;
  }

  static double CountOf(LeafServer& leaf, const Query& q) {
    auto result = leaf.ExecuteQuery(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1;
    auto rows = result->Finalize({Count()});
    return rows.empty() ? 0.0 : rows[0].aggregates[0];
  }

  ShmNamespace ns_;
  TempDir dir_;
};

TEST_F(AlertsTableTest, ExternalIngestIntoAlertsTableRejected) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  EXPECT_TRUE(
      leaf.AddRows(obs::kAlertsTableName, MakeRows(4)).IsInvalidArgument());
}

TEST_F(AlertsTableTest, TransitionRowsAreQueryable) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  ASSERT_TRUE(leaf.stats_exporter()
                  ->ExportSystemRow(obs::kAlertsTableName,
                                    AlertRow("slo_breach", "firing"))
                  .ok());
  ASSERT_TRUE(leaf.stats_exporter()
                  ->ExportSystemRow(obs::kAlertsTableName,
                                    AlertRow("slo_breach", "clear"))
                  .ok());

  EXPECT_EQ(CountOf(leaf, AlertsCount()), 2.0);
  EXPECT_EQ(CountOf(leaf, AlertsCount("slo_breach", "firing")), 1.0);
  EXPECT_EQ(CountOf(leaf, AlertsCount("slo_breach", "clear")), 1.0);
}

// Self-amplification guard: alert rows are written per TRANSITION, never
// per export cycle — 100 cycles must not add a single `__scuba_alerts`
// row (the engine's own scuba.obs.health.* bookkeeping is bounded too,
// but whatever it adds lands in `__scuba_stats`, not here).
TEST_F(AlertsTableTest, AlertRowsBoundedAcrossExportCycles) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  ASSERT_TRUE(leaf.stats_exporter()
                  ->ExportSystemRow(obs::kAlertsTableName,
                                    AlertRow("stuck", "firing"))
                  .ok());
  ASSERT_EQ(CountOf(leaf, AlertsCount()), 1.0);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(leaf.stats_exporter()->ExportOnce().ok());
  }
  EXPECT_EQ(CountOf(leaf, AlertsCount()), 1.0);
}

// "When did this cluster last page" must survive a binary rollover: the
// alert history rides the shm handoff like any other system table.
TEST_F(AlertsTableTest, AlertHistorySurvivesShmHandoff) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.stats_exporter()
                    ->ExportSystemRow(obs::kAlertsTableName,
                                      AlertRow("shed_storm", "firing"))
                    .ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  ASSERT_EQ(recovery->source, RecoverySource::kSharedMemory);
  EXPECT_EQ(CountOf(successor, AlertsCount("shed_storm", "firing")), 1.0);
}

// System tables are never backed up to disk: after a crash (no handoff,
// segments scrubbed) the alert history is gone by design while workload
// data disk-recovers. The guard this verifies is "no disk amplification
// for self-stats", not durability.
TEST_F(AlertsTableTest, AlertHistoryIsShmOnlyByDesign) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("requests", MakeRows(100)).ok());
    ASSERT_TRUE(leaf.stats_exporter()
                    ->ExportSystemRow(obs::kAlertsTableName,
                                      AlertRow("lost", "firing"))
                    .ok());
    // Simulated crash: no shutdown; scrub the shm namespace so the
    // successor cannot recover from it.
  }
  ShmSegment::RemoveAll("/" + ns_.prefix());
  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->source, RecoverySource::kDisk);
  EXPECT_EQ(CountOf(successor, AlertsCount()), 0.0);
  Query q;
  q.table = "requests";
  q.aggregates = {Count()};
  EXPECT_EQ(CountOf(successor, q), 100.0);
}

}  // namespace
}  // namespace scuba
