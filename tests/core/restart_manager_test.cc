#include "core/restart_manager.h"

#include <gtest/gtest.h>

#include "disk/backup_writer.h"
#include "shm/leaf_metadata.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

RestartConfig MakeConfig(const ShmNamespace& ns, const TempDir& dir,
                         uint32_t leaf_id = 0) {
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.leaf_id = leaf_id;
  config.backup_dir = dir.path();
  return config;
}

void FillAndBackup(LeafMap* leaf_map, const std::string& backup_dir,
                   size_t rows = 300) {
  BackupWriter writer(backup_dir);
  ASSERT_TRUE(writer.Init().ok());
  std::vector<Row> data = MakeRows(rows, 1000);
  auto schema = Schema::OfRows(data);
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(writer.AppendBatch("events", *schema, data).ok());
  ASSERT_TRUE(writer.SyncAll().ok());
  Table* table = leaf_map->GetOrCreateTable("events");
  ASSERT_TRUE(table->AddRows(data, 0).ok());
  ASSERT_TRUE(table->SealWriteBuffer(0).ok());
}

TEST(RestartManagerTest, FreshLeafWithNothingToRecover) {
  ShmNamespace ns("rm1");
  TempDir dir("rm1");
  RestartManager manager(MakeConfig(ns, dir));
  LeafMap leaf_map;
  auto result = manager.Recover(&leaf_map, 2000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->source, RecoverySource::kFresh);
  EXPECT_EQ(leaf_map.num_tables(), 0u);
}

TEST(RestartManagerTest, ShmPathPreferred) {
  ShmNamespace ns("rm2");
  TempDir dir("rm2");
  RestartManager manager(MakeConfig(ns, dir));

  LeafMap leaf_map;
  FillAndBackup(&leaf_map, dir.path());
  ShutdownStats sstats;
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());

  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->source, RecoverySource::kSharedMemory);
  EXPECT_EQ(recovered.TotalRowCount(), 300u);
  EXPECT_GT(result->shm_stats.bytes_copied, 0u);
}

TEST(RestartManagerTest, FallsBackToDiskWhenShmInvalid) {
  ShmNamespace ns("rm3");
  TempDir dir("rm3");
  RestartManager manager(MakeConfig(ns, dir));

  LeafMap leaf_map;
  FillAndBackup(&leaf_map, dir.path());
  ShutdownStats sstats;
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());

  // Crash simulation: valid bit cleared.
  {
    auto meta = LeafMetadata::Open(ns.prefix(), 0);
    ASSERT_TRUE(meta.ok());
    ASSERT_TRUE(meta->SetValid(false).ok());
  }

  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->source, RecoverySource::kDisk);
  EXPECT_TRUE(result->shm_attempt_status.IsFailedPrecondition());
  EXPECT_EQ(recovered.TotalRowCount(), 300u);  // same data, slow path
  EXPECT_GT(result->disk_stats.translate_micros, 0);
}

TEST(RestartManagerTest, DiskPathWhenNoShmAtAll) {
  ShmNamespace ns("rm4");
  TempDir dir("rm4");
  {
    LeafMap scratch;
    FillAndBackup(&scratch, dir.path());
  }
  RestartManager manager(MakeConfig(ns, dir));
  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, RecoverySource::kDisk);
  EXPECT_TRUE(result->shm_attempt_status.IsNotFound());
  EXPECT_EQ(recovered.TotalRowCount(), 300u);
}

TEST(RestartManagerTest, MemoryRecoveryDisabledScrubsAndUsesDisk) {
  ShmNamespace ns("rm5");
  TempDir dir("rm5");
  RestartConfig config = MakeConfig(ns, dir);

  {
    RestartManager manager(config);
    LeafMap leaf_map;
    FillAndBackup(&leaf_map, dir.path());
    ShutdownStats sstats;
    ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());
  }
  ASSERT_FALSE(ShmSegment::List("/" + ns.prefix()).empty());

  // Fig 5b "memory recovery disabled": disk path + segments freed.
  config.memory_recovery_enabled = false;
  RestartManager manager(config);
  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, RecoverySource::kDisk);
  EXPECT_EQ(recovered.TotalRowCount(), 300u);
  EXPECT_TRUE(ShmSegment::List("/" + ns.prefix()).empty());
}

TEST(RestartManagerTest, RecoverRequiresEmptyLeafMap) {
  ShmNamespace ns("rm6");
  TempDir dir("rm6");
  RestartManager manager(MakeConfig(ns, dir));
  LeafMap leaf_map;
  leaf_map.GetOrCreateTable("already_here");
  EXPECT_TRUE(
      manager.Recover(&leaf_map, 0).status().IsFailedPrecondition());
}

TEST(RestartManagerTest, ShutdownScrubsStaleSegments) {
  ShmNamespace ns("rm7");
  TempDir dir("rm7");
  RestartManager manager(MakeConfig(ns, dir));

  // A stale metadata segment from a previous kill.
  ASSERT_TRUE(LeafMetadata::Create(ns.prefix(), 0).ok());

  LeafMap leaf_map;
  FillAndBackup(&leaf_map, dir.path());
  ShutdownStats sstats;
  // Shutdown succeeds despite the leftover (it scrubs first).
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());

  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, RecoverySource::kSharedMemory);
}

TEST(RestartManagerTest, RoundTripsThroughBothPathsAgree) {
  ShmNamespace ns("rm8");
  TempDir dir("rm8");
  RestartManager manager(MakeConfig(ns, dir));

  LeafMap leaf_map;
  FillAndBackup(&leaf_map, dir.path(), 1000);
  ShutdownStats sstats;
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());

  LeafMap via_shm;
  auto shm_result = manager.Recover(&via_shm, 2000);
  ASSERT_TRUE(shm_result.ok());
  ASSERT_EQ(shm_result->source, RecoverySource::kSharedMemory);

  LeafMap via_disk;
  auto disk_result = manager.Recover(&via_disk, 2000);
  ASSERT_TRUE(disk_result.ok());
  ASSERT_EQ(disk_result->source, RecoverySource::kDisk);

  // Both recoveries see the same logical data.
  EXPECT_EQ(via_shm.TotalRowCount(), via_disk.TotalRowCount());
  EXPECT_EQ(via_shm.TableNames(), via_disk.TableNames());
}

}  // namespace
}  // namespace scuba
