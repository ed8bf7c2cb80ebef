#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "disk/file.h"
#include "obs/stats_exporter.h"
#include "server/leaf_server.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

class SelfStatsTableTest : public ::testing::Test {
 protected:
  SelfStatsTableTest() : ns_("selfstats"), dir_("selfstats") {}

  LeafServerConfig MakeConfig(uint32_t leaf_id = 0) {
    LeafServerConfig config;
    config.leaf_id = leaf_id;
    config.namespace_prefix = ns_.prefix();
    config.backup_dir = dir_.path();
    config.self_stats_enabled = true;
    // Effectively disable the periodic thread: tests drive cycles via
    // ExportOnce() so row counts are deterministic.
    config.self_stats_period_millis = 3600 * 1000;
    return config;
  }

  static Query CountStatsQuery() {
    Query q;
    q.table = obs::kStatsTableName;
    q.aggregates = {Count()};
    return q;
  }

  static Query RestartRowsByGeneration() {
    Query q;
    q.table = obs::kRestartsTableName;
    q.aggregates = {Count()};
    q.group_by = {"generation"};
    return q;
  }

  ShmNamespace ns_;
  TempDir dir_;
};

TEST_F(SelfStatsTableTest, ExternalIngestIntoReservedNamespaceRejected) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  EXPECT_TRUE(
      leaf.AddRows("__scuba_stats", MakeRows(4)).IsInvalidArgument());
  EXPECT_TRUE(
      leaf.AddRows("__scuba_anything", MakeRows(4)).IsInvalidArgument());
  // Normal tables are unaffected.
  EXPECT_TRUE(leaf.AddRows("requests", MakeRows(4)).ok());
}

TEST_F(SelfStatsTableTest, ExporterFillsQueryableSystemTable) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  ASSERT_NE(leaf.stats_exporter(), nullptr);

  // Real ingestion moves the server metrics; the next cycle exports them.
  ASSERT_TRUE(leaf.AddRows("requests", MakeRows(100)).ok());
  ASSERT_TRUE(leaf.stats_exporter()->ExportOnce().ok());

  auto result = leaf.ExecuteQuery(CountStatsQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = result->Finalize({Count()});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].aggregates[0], 0.0);

  // The recovery restart-history row is present from Start().
  auto restarts = leaf.ExecuteQuery(RestartRowsByGeneration());
  ASSERT_TRUE(restarts.ok());
  EXPECT_GE(restarts->Finalize({Count()}).size(), 1u);
}

TEST_F(SelfStatsTableTest, SystemTableHasNoDiskBackup) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  ASSERT_TRUE(leaf.AddRows("requests", MakeRows(50)).ok());
  ASSERT_TRUE(leaf.stats_exporter()->ExportOnce().ok());

  ShutdownStats stats;
  ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());

  auto files = ListFiles(dir_.path(), "");
  ASSERT_TRUE(files.ok());
  bool workload_backed_up = false;
  for (const std::string& f : *files) {
    EXPECT_EQ(f.find("__scuba"), std::string::npos)
        << "system table leaked into disk backups: " << f;
    if (f.find("requests") != std::string::npos) workload_backed_up = true;
  }
  EXPECT_TRUE(workload_backed_up);
}

// The tentpole acceptance check at leaf scope: restart-history rows written
// by generation 1 ride the shm handoff and are queryable from generation 2,
// alongside generation 2's own recovery row.
TEST_F(SelfStatsTableTest, RestartHistorySurvivesShmHandoff) {
  uint64_t gen1 = 0;
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    gen1 = leaf.heartbeat_generation();
    ASSERT_TRUE(leaf.AddRows("requests", MakeRows(200)).ok());
    ASSERT_TRUE(leaf.stats_exporter()->ExportOnce().ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }

  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->source, RecoverySource::kSharedMemory);
  EXPECT_EQ(successor.heartbeat_generation(), gen1 + 1);

  auto restarts = successor.ExecuteQuery(RestartRowsByGeneration());
  ASSERT_TRUE(restarts.ok()) << restarts.status().ToString();
  auto groups = restarts->Finalize({Count()});
  // At least the predecessor's generation and the successor's: history
  // spans process generations.
  ASSERT_GE(groups.size(), 2u);
  bool saw_gen1 = false;
  bool saw_gen2 = false;
  for (const auto& g : groups) {
    ASSERT_EQ(g.group_key.size(), 1u);
    int64_t generation = std::get<int64_t>(g.group_key[0]);
    if (generation == static_cast<int64_t>(gen1)) saw_gen1 = true;
    if (generation == static_cast<int64_t>(gen1 + 1)) saw_gen2 = true;
  }
  EXPECT_TRUE(saw_gen1) << "predecessor's restart rows lost in handoff";
  EXPECT_TRUE(saw_gen2) << "successor wrote no recovery row";

  // The workload table also made it over.
  Query q;
  q.table = "requests";
  q.aggregates = {Count()};
  auto workload = successor.ExecuteQuery(q);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->Finalize({Count()})[0].aggregates[0], 200.0);
}

// A cancelled shutdown (the phase-aware watchdog's targeted kill) leaves
// the valid bit unset; the successor falls back to disk recovery without
// losing workload data.
TEST_F(SelfStatsTableTest, CancelledShutdownFallsBackToDisk) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("requests", MakeRows(300)).ok());
    // Cancel before the copy starts: the first row-block boundary check
    // aborts the shutdown.
    leaf.RequestShutdownCancel();
    ShutdownStats stats;
    Status s = leaf.ShutdownToSharedMemory(&stats);
    EXPECT_TRUE(s.IsAborted()) << s.ToString();
    // The heartbeat records the failure for external observers.
    auto reading = RestartHeartbeat::ReadOnce(ns_.prefix(), 0);
    ASSERT_TRUE(reading.ok());
    EXPECT_EQ(reading->phase, RestartPhase::kFailed);
  }

  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->source, RecoverySource::kDisk);
  Query q;
  q.table = "requests";
  q.aggregates = {Count()};
  auto workload = successor.ExecuteQuery(q);
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload->Finalize({Count()})[0].aggregates[0], 300.0);
}

}  // namespace
}  // namespace scuba
