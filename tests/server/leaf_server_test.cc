#include "server/leaf_server.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

LeafServerConfig MakeConfig(const ShmNamespace& ns, const TempDir& dir,
                            uint32_t leaf_id = 0) {
  LeafServerConfig config;
  config.leaf_id = leaf_id;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path() + "/leaf_" + std::to_string(leaf_id);
  return config;
}

Query CountQuery(const std::string& table) {
  Query q;
  q.table = table;
  q.aggregates = {Count()};
  return q;
}

double CountOf(const StatusOr<QueryResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  auto rows = result->Finalize({Count()});
  return rows.empty() ? 0.0 : rows[0].aggregates[0];
}

TEST(LeafServerTest, StartFreshAndServe) {
  ShmNamespace ns("ls1");
  TempDir dir("ls1");
  LeafServer leaf(MakeConfig(ns, dir));
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, RecoverySource::kFresh);
  EXPECT_TRUE(leaf.IsAlive());

  ASSERT_TRUE(leaf.AddRows("events", MakeRows(100)).ok());
  EXPECT_EQ(leaf.RowCount(), 100u);
  EXPECT_EQ(CountOf(leaf.ExecuteQuery(CountQuery("events"))), 100.0);
}

TEST(LeafServerTest, DoubleStartFails) {
  ShmNamespace ns("ls2");
  TempDir dir("ls2");
  LeafServer leaf(MakeConfig(ns, dir));
  ASSERT_TRUE(leaf.Start().ok());
  EXPECT_TRUE(leaf.Start().status().IsFailedPrecondition());
}

TEST(LeafServerTest, OpsRejectedBeforeStart) {
  ShmNamespace ns("ls3");
  TempDir dir("ls3");
  LeafServer leaf(MakeConfig(ns, dir));
  EXPECT_TRUE(leaf.AddRows("t", MakeRows(1)).IsUnavailable());
  EXPECT_TRUE(leaf.ExecuteQuery(CountQuery("t")).status().IsUnavailable());
  EXPECT_EQ(leaf.ExpireData(), 0u);
}

TEST(LeafServerTest, QueryUnknownTableIsEmptyNotError) {
  ShmNamespace ns("ls4");
  TempDir dir("ls4");
  LeafServer leaf(MakeConfig(ns, dir));
  ASSERT_TRUE(leaf.Start().ok());
  auto result = leaf.ExecuteQuery(CountQuery("not_here"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 0u);
  EXPECT_EQ(result->leaves_responded, 1u);
}

TEST(LeafServerTest, ShmRestartCycle) {
  ShmNamespace ns("ls5");
  TempDir dir("ls5");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(500)).ok());
    ASSERT_TRUE(leaf.AddRows("errors", MakeRows(50)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
    EXPECT_EQ(leaf.state(), LeafState::kExit);
    EXPECT_EQ(stats.tables_copied, 2u);
    // Post-shutdown: nothing accepted.
    EXPECT_TRUE(leaf.AddRows("events", MakeRows(1)).IsUnavailable());
  }
  // "New binary" for the same leaf id.
  LeafServer fresh(MakeConfig(ns, dir));
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, RecoverySource::kSharedMemory);
  EXPECT_EQ(fresh.RowCount(), 550u);
  EXPECT_EQ(CountOf(fresh.ExecuteQuery(CountQuery("events"))), 500.0);
  EXPECT_EQ(CountOf(fresh.ExecuteQuery(CountQuery("errors"))), 50.0);
}

TEST(LeafServerTest, CrashRecoversFromDisk) {
  ShmNamespace ns("ls6");
  TempDir dir("ls6");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(300)).ok());
    leaf.Crash();  // no shm handoff, no valid bit
  }
  LeafServer fresh(MakeConfig(ns, dir));
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  // All rows were backed up before insertion, so nothing is lost here.
  EXPECT_EQ(fresh.RowCount(), 300u);
}

TEST(LeafServerTest, MemoryRecoveryDisabledUsesDisk) {
  ShmNamespace ns("ls7");
  TempDir dir("ls7");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(200)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServerConfig config = MakeConfig(ns, dir);
  config.memory_recovery_enabled = false;
  LeafServer fresh(config);
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  EXPECT_EQ(fresh.RowCount(), 200u);
}

TEST(LeafServerTest, ExpireDataHonorsLimits) {
  ShmNamespace ns("ls8");
  TempDir dir("ls8");
  LeafServerConfig config = MakeConfig(ns, dir);
  config.default_table_limits.max_age_seconds = 60;
  SimulatedClock clock(2000 * 1000000ll);  // unix time 2000
  config.clock = &clock;
  LeafServer leaf(config);
  ASSERT_TRUE(leaf.Start().ok());

  // Rows at time ~1000: already older than 60s at clock time 2000. A write
  // buffer whose newest row is past the age limit is dropped whole, just
  // as such a block is.
  ASSERT_TRUE(leaf.AddRows("events", MakeRows(100, 1000)).ok());
  clock.AdvanceMicros(1000000);
  EXPECT_EQ(leaf.ExpireData(), 1u);
  EXPECT_EQ(leaf.RowCount(), 0u);
  // A buffer holding one row still inside the limit stays.
  ASSERT_TRUE(leaf.AddRows("events", MakeRows(100, 1000)).ok());
  ASSERT_TRUE(leaf.AddRows("events", MakeRows(1, 1990)).ok());
  EXPECT_EQ(leaf.ExpireData(), 0u);
  EXPECT_EQ(leaf.RowCount(), 101u);

  // Fill enough rows to seal a block, then expire it.
  LeafServerConfig config2 = MakeConfig(ns, dir, 1);
  config2.default_table_limits.max_age_seconds = 60;
  config2.clock = &clock;
  LeafServer leaf2(config2);
  ASSERT_TRUE(leaf2.Start().ok());
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(leaf2.AddRows("events", MakeRows(1000, 1000)).ok());
  }
  ASSERT_GT(leaf2.ExpireData(), 0u);
}

TEST(LeafServerTest, FreeMemoryReporting) {
  ShmNamespace ns("ls9");
  TempDir dir("ls9");
  LeafServerConfig config = MakeConfig(ns, dir);
  config.memory_capacity_bytes = 1 << 20;
  LeafServer leaf(config);
  ASSERT_TRUE(leaf.Start().ok());
  uint64_t free_before = leaf.FreeMemoryBytes();
  EXPECT_EQ(free_before, 1u << 20);
  ASSERT_TRUE(leaf.AddRows("events", MakeRows(1000)).ok());
  EXPECT_LT(leaf.FreeMemoryBytes(), free_before);
  EXPECT_GT(leaf.MemoryUsedBytes(), 0u);
}

TEST(LeafServerTest, RestartPreservesBackupForLaterCrash) {
  // shm restart -> more data -> crash -> disk recovery sees ALL rows.
  ShmNamespace ns("ls10");
  TempDir dir("ls10");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(100, 1000)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(50, 2000)).ok());
    leaf.Crash();
  }
  LeafServer leaf(MakeConfig(ns, dir));
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  EXPECT_EQ(leaf.RowCount(), 150u);
}

TEST(LeafServerTest, NoBackupDirStillWorksViaShm) {
  ShmNamespace ns("ls11");
  LeafServerConfig config;
  config.leaf_id = 0;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = "";  // memory-only leaf
  {
    LeafServer leaf(config);
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(25)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServer fresh(config);
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->source, RecoverySource::kSharedMemory);
  EXPECT_EQ(fresh.RowCount(), 25u);
}

}  // namespace
}  // namespace scuba
