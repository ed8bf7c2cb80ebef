#include <gtest/gtest.h>

#include "core/restart_manager.h"
#include "disk/backup_reader.h"
#include "disk/backup_writer.h"
#include "disk/file.h"
#include "test_util.h"
#include "util/clock.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

// Blocking disk recovery of every .bak file in `dir` — the path a leaf
// takes after a crash.
RecoveryResult RecoverBackups(const TempDir& dir, LeafMap* leaf_map,
                              int64_t now, TableLimits limits = {}) {
  ShmNamespace ns("bw_recover");
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path();
  config.restore.table_limits = limits;
  auto result = RestartManager(config).Recover(leaf_map, now);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return RecoveryResult();
  EXPECT_EQ(result->source, RecoverySource::kDisk);
  return std::move(result).value();
}

TEST(BackupWriterTest, WritesAndTracksDirtyTables) {
  TempDir dir("bw1");
  BackupWriter writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());

  ASSERT_TRUE(writer.AppendBatch("events", MakeRows(100)).ok());
  ASSERT_TRUE(writer.AppendBatch("errors", MakeRows(10)).ok());
  EXPECT_EQ(writer.dirty_table_count(), 2u);
  EXPECT_GT(writer.total_bytes_written(), 0u);

  ASSERT_TRUE(writer.SyncAll().ok());
  EXPECT_EQ(writer.dirty_table_count(), 0u);

  EXPECT_TRUE(FileExists(writer.FilePathFor("events")));
  EXPECT_TRUE(FileExists(writer.FilePathFor("errors")));
}

TEST(BackupRoundTripTest, RecoverLeafRebuildsTables) {
  TempDir dir("bw2");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(writer.AppendBatch("events", MakeRows(500, 1000)).ok());
    ASSERT_TRUE(writer.AppendBatch("events", MakeRows(500, 2000)).ok());
    ASSERT_TRUE(writer.AppendBatch("errors", MakeRows(42, 1000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }

  LeafMap leaf_map;
  RecoveryResult result = RecoverBackups(dir, &leaf_map, 5000);

  EXPECT_EQ(result.shm_stats.tables_restored, 2u);
  EXPECT_EQ(result.disk_stats.bytes_read,
            FileSize(dir.path() + "/events.bak") +
                FileSize(dir.path() + "/errors.bak"));
  EXPECT_EQ(result.disk_stats.records_dropped, 0u);
  EXPECT_EQ(leaf_map.TotalRowCount(), 1042u);
  ASSERT_NE(leaf_map.GetTable("events"), nullptr);
  EXPECT_EQ(leaf_map.GetTable("events")->RowCount(), 1000u);
  // Recovery seals blocks: recovered data is in row blocks, not buffers.
  EXPECT_GE(leaf_map.GetTable("events")->num_row_blocks(), 1u);
}

TEST(BackupRoundTripTest, TornTailKeepsPrefix) {
  TempDir dir("bw3");
  std::string path;
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(writer.AppendBatch("events", MakeRows(100, 1000)).ok());
    ASSERT_TRUE(writer.AppendBatch("events", MakeRows(100, 2000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
    path = writer.FilePathFor("events");
  }
  // Simulate a crash mid-append: chop off the last 10 bytes.
  uint64_t size = FileSize(path);
  ASSERT_GT(size, 10u);
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size - 10)), 0);

  Table table("events");
  DiskRestoreStats stats;
  ASSERT_TRUE(BackupReader::RecoverTable(path, &table, /*throttle=*/0, 5000,
                                         &stats)
                  .ok());
  EXPECT_EQ(table.RowCount(), 100u);  // first batch survives
  EXPECT_EQ(stats.records_dropped, 1u);
}

TEST(BackupRoundTripTest, StatsSplitReadAndTranslate) {
  TempDir dir("bw4");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          writer.AppendBatch("events", MakeRows(1000, 1000 + i)).ok());
    }
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  LeafMap leaf_map;
  RecoveryResult result = RecoverBackups(dir, &leaf_map, 5000);
  // Translation (decode + rebuild + recompress) dominates the raw read —
  // the paper's key disk-recovery property (§1).
  EXPECT_GT(result.disk_stats.translate_micros,
            result.disk_stats.read_micros);
}

TEST(BackupRoundTripTest, ThrottleSlowsRead) {
  TempDir dir("bw5");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(writer.AppendBatch("events", MakeRows(5000, 1000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  uint64_t file_bytes = FileSize(dir.path() + "/events.bak");

  auto run = [&](uint64_t throttle) {
    Table table("events");
    DiskRestoreStats stats;
    EXPECT_TRUE(BackupReader::RecoverTable(dir.path() + "/events.bak", &table,
                                           throttle, 5000, &stats)
                    .ok());
    return stats.read_micros;
  };
  int64_t unthrottled = run(0);
  // Throttle to make the read take ~0.2s regardless of disk speed.
  int64_t throttled = run(file_bytes * 5);
  EXPECT_GT(throttled, unthrottled);
  EXPECT_GT(throttled, 100000);  // >= 0.1 s
}

TEST(BackupRoundTripTest, RecoveryAppliesRetentionLimits) {
  TempDir dir("bw6");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(writer.AppendBatch("events", MakeRows(100, 1000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  LeafMap leaf_map;
  TableLimits limits;
  limits.max_age_seconds = 10;  // rows at t~1000, now=99999
  RecoverBackups(dir, &leaf_map, 99999, limits);
  EXPECT_EQ(leaf_map.GetTable("events")->RowCount(), 0u);
}

TEST(FileTest, ListFilesFiltersBySuffix) {
  TempDir dir("bw7");
  {
    auto f1 = AppendableFile::Open(dir.path() + "/a.bak");
    ASSERT_TRUE(f1.ok());
    auto f2 = AppendableFile::Open(dir.path() + "/b.tmp");
    ASSERT_TRUE(f2.ok());
  }
  auto files = ListFiles(dir.path(), ".bak");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ((*files)[0], "a.bak");
}

TEST(FileTest, ReadMissingFileIsNotFound) {
  ByteBuffer buf;
  EXPECT_TRUE(ReadFileFully("/tmp/definitely_missing_scuba", &buf)
                  .IsNotFound());
}

}  // namespace
}  // namespace scuba
