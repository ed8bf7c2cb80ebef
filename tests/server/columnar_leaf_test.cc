// End-to-end tests of a LeafServer configured with the §6 columnar disk
// format: ingest mirrors sealed blocks + tail, crash recovery takes the
// fast columnar path, and shm recovery still wins when available.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "server/leaf_server.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

LeafServerConfig MakeConfig(const ShmNamespace& ns, const TempDir& dir) {
  LeafServerConfig config;
  config.leaf_id = 0;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path() + "/leaf_0";
  config.backup_format = BackupFormatKind::kColumnar;
  return config;
}

// Rows in "events"' write buffer: after a disk recovery, the tail replayed.
uint64_t BufferedRows(const LeafServer& leaf) {
  for (const LeafServer::TableStats& table : leaf.GetStats().tables) {
    if (table.name == "events") return table.buffered_rows;
  }
  return 0;
}

TEST(ColumnarLeafTest, CrashRecoversFromColumnarBackup) {
  ShmNamespace ns("cl1");
  TempDir dir("cl1");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    // Enough rows to seal a block (65,536) plus a tail.
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(leaf.AddRows("events", MakeRows(8192, 1000 + i)).ok());
    }
    EXPECT_EQ(leaf.RowCount(), 9u * 8192);
    leaf.Crash();
  }
  // .cols file holds the sealed block; tail holds the rest.
  EXPECT_TRUE(FileExists(dir.path() + "/leaf_0/events.cols"));

  LeafServer fresh(MakeConfig(ns, dir));
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  EXPECT_EQ(started->shm_stats.row_blocks_restored, 1u);
  EXPECT_EQ(BufferedRows(fresh), 9u * 8192 - 65536);  // the tail replayed
  EXPECT_EQ(fresh.RowCount(), 9u * 8192);
}

TEST(ColumnarLeafTest, ShmStillPreferredOverColumnarDisk) {
  ShmNamespace ns("cl2");
  TempDir dir("cl2");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(500, 1000)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServer fresh(MakeConfig(ns, dir));
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->source, RecoverySource::kSharedMemory);
  EXPECT_EQ(fresh.RowCount(), 500u);
}

TEST(ColumnarLeafTest, SealObserverSurvivesShmRestart) {
  // After an shm restart the new process must keep mirroring seals to the
  // .cols file, resuming the block count K from the file.
  ShmNamespace ns("cl3");
  TempDir dir("cl3");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    for (int i = 0; i < 8; ++i) {  // exactly one sealed block
      ASSERT_TRUE(leaf.AddRows("events", MakeRows(8192, 1000 + i)).ok());
    }
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  {
    LeafServer leaf(MakeConfig(ns, dir));
    auto started = leaf.Start();
    ASSERT_TRUE(started.ok());
    ASSERT_EQ(started->source, RecoverySource::kSharedMemory);
    // Another block's worth of rows seals in the NEW process.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(leaf.AddRows("events", MakeRows(8192, 2000 + i)).ok());
    }
    leaf.Crash();
  }
  // Disk recovery must see BOTH blocks (the shutdown seal from process 1
  // and the ingest seal from process 2).
  LeafServer fresh(MakeConfig(ns, dir));
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  EXPECT_EQ(started->shm_stats.row_blocks_restored, 2u);
  EXPECT_EQ(fresh.RowCount(), 16u * 8192);
}

TEST(ColumnarLeafTest, CleanShutdownFlushesTailViaSeal) {
  // PREPARE seals the write buffer; the seal observer mirrors it to disk,
  // so even with the shm segments scrubbed (forced disk path) no rows are
  // lost.
  ShmNamespace ns("cl4");
  TempDir dir("cl4");
  {
    LeafServer leaf(MakeConfig(ns, dir));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(777, 1000)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  ShmSegment::RemoveAll("/" + ns.prefix());  // lose the shm handoff

  LeafServer fresh(MakeConfig(ns, dir));
  auto started = fresh.Start();
  ASSERT_TRUE(started.ok());
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  EXPECT_EQ(fresh.RowCount(), 777u);
  // The 777 rows were sealed at shutdown, so they come from a block.
  EXPECT_EQ(started->shm_stats.row_blocks_restored, 1u);
  EXPECT_EQ(BufferedRows(fresh), 0u);
}

TEST(ColumnarLeafTest, BothFormatsRecoverSameData) {
  ShmNamespace ns("cl5");
  TempDir dir("cl5");
  std::vector<Row> rows = MakeRows(3000, 1000);

  auto run = [&](BackupFormatKind format, uint32_t leaf_id) -> uint64_t {
    LeafServerConfig config;
    config.leaf_id = leaf_id;
    config.namespace_prefix = ns.prefix();
    config.backup_dir =
        dir.path() + "/leaf_" + std::to_string(leaf_id);
    config.backup_format = format;
    {
      LeafServer leaf(config);
      EXPECT_TRUE(leaf.Start().ok());
      EXPECT_TRUE(leaf.AddRows("events", rows).ok());
      leaf.Crash();
    }
    LeafServer fresh(config);
    auto started = fresh.Start();
    EXPECT_TRUE(started.ok());
    EXPECT_EQ(started->source, RecoverySource::kDisk);
    return fresh.RowCount();
  };

  EXPECT_EQ(run(BackupFormatKind::kRowMajor, 1), 3000u);
  EXPECT_EQ(run(BackupFormatKind::kColumnar, 2), 3000u);
}

// Checksum validation is its own restart layer: the shm and .cols sources
// time it into verify_micros, which the recovery report carries, and it
// stays 0 when verification is off.
TEST(ColumnarLeafTest, VerifyMicrosTimesTheChecksumLayer) {
  for (bool verify : {true, false}) {
    const std::string tag = verify ? "cl6v" : "cl6n";
    ShmNamespace ns(tag);
    TempDir dir(tag);
    LeafServerConfig config = MakeConfig(ns, dir);
    config.verify_checksums_on_restore = verify;
    {
      LeafServer leaf(config);
      ASSERT_TRUE(leaf.Start().ok());
      for (int i = 0; i < 9; ++i) {  // one sealed block plus a tail
        ASSERT_TRUE(leaf.AddRows("events", MakeRows(8192, 1000 + i)).ok());
      }
      ShutdownStats stats;
      ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
    }
    for (RecoverySource want :
         {RecoverySource::kSharedMemory, RecoverySource::kDisk}) {
      LeafServer leaf(config);
      auto started = leaf.Start();
      ASSERT_TRUE(started.ok()) << started.status().ToString();
      ASSERT_EQ(started->source, want);
      const int64_t verify_micros = started->shm_stats.verify_micros.load();
      if (verify) {
        EXPECT_GT(verify_micros, 0) << RecoverySourceName(want);
      } else {
        EXPECT_EQ(verify_micros, 0) << RecoverySourceName(want);
      }
      std::ifstream in(config.backup_dir + "/leaf_0.recovery_report.json");
      std::stringstream report;
      report << in.rdbuf();
      EXPECT_NE(report.str().find("\"verify_micros\": " +
                                  std::to_string(verify_micros)),
                std::string::npos);
      leaf.Crash();  // the next start reads the .cols backup
    }
  }
}

}  // namespace
}  // namespace scuba
