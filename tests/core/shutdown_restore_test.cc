#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include "core/restart_manager.h"
#include "core/shutdown.h"
#include "shm/leaf_metadata.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;

void FillLeaf(LeafMap* leaf_map, size_t tables = 3, size_t rows = 500) {
  for (size_t t = 0; t < tables; ++t) {
    Table* table = leaf_map->GetOrCreateTable("table_" + std::to_string(t));
    ASSERT_TRUE(
        table->AddRows(MakeRows(rows, 1000 * (t + 1), /*seed=*/t + 1), 0)
            .ok());
    ASSERT_TRUE(table->SealWriteBuffer(0).ok());
  }
}

ShutdownOptions MakeShutdownOptions(const ShmNamespace& ns,
                                    uint32_t leaf_id = 0) {
  ShutdownOptions options;
  options.namespace_prefix = ns.prefix();
  options.leaf_id = leaf_id;
  return options;
}

RestartConfig MakeRestoreOptions(const ShmNamespace& ns,
                                 uint32_t leaf_id = 0) {
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.leaf_id = leaf_id;
  return config;
}

TEST(ShutdownRestoreTest, FullCycleRoundTrips) {
  ShmNamespace ns("cycle");
  LeafMap leaf_map;
  FillLeaf(&leaf_map);
  uint64_t rows_before = leaf_map.TotalRowCount();
  uint64_t bytes_before = leaf_map.TotalMemoryBytes();

  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());
  EXPECT_EQ(leaf_map.num_tables(), 0u);  // heap emptied (Fig 6)
  EXPECT_EQ(sstats.tables_copied, 3u);
  EXPECT_EQ(sstats.bytes_copied, bytes_before);

  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(
      RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats).ok());
  EXPECT_EQ(restored.TotalRowCount(), rows_before);
  EXPECT_EQ(restored.num_tables(), 3u);
  EXPECT_EQ(rstats.bytes_copied, sstats.bytes_copied);
  EXPECT_EQ(rstats.columns_restored, sstats.columns_copied);

  // Segments are consumed: a second restore finds nothing (Fig 7 deletes).
  LeafMap again;
  RestoreStats rstats2;
  EXPECT_TRUE(RestoreFromShm(&again, MakeRestoreOptions(ns), &rstats2)
                  .IsNotFound());
}

TEST(ShutdownRestoreTest, RestoredDataIsBitIdentical) {
  ShmNamespace ns("bits");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 1, 2000);
  // Capture decoded values before shutdown.
  const RowBlock* block = leaf_map.GetTable("table_0")->row_block(0);
  std::vector<int64_t> times_before;
  ASSERT_TRUE(block->ColumnByName("time")->DecodeInt64(&times_before).ok());
  std::vector<std::string> services_before;
  ASSERT_TRUE(
      block->ColumnByName("service")->DecodeString(&services_before).ok());

  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());
  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(
      RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats).ok());

  const RowBlock* rblock = restored.GetTable("table_0")->row_block(0);
  std::vector<int64_t> times_after;
  ASSERT_TRUE(rblock->ColumnByName("time")->DecodeInt64(&times_after).ok());
  std::vector<std::string> services_after;
  ASSERT_TRUE(
      rblock->ColumnByName("service")->DecodeString(&services_after).ok());
  EXPECT_EQ(times_after, times_before);
  EXPECT_EQ(services_after, services_before);
}

TEST(ShutdownRestoreTest, BlockOrderPreserved) {
  ShmNamespace ns("order");
  LeafMap leaf_map;
  Table* table = leaf_map.GetOrCreateTable("t");
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(table->AddRows(MakeRows(100, 1000 * (b + 1)), 0).ok());
    ASSERT_TRUE(table->SealWriteBuffer(0).ok());
  }
  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());
  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(
      RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats).ok());
  Table* rt = restored.GetTable("t");
  ASSERT_EQ(rt->num_row_blocks(), 5u);
  for (int b = 0; b < 5; ++b) {
    EXPECT_EQ(rt->row_block(b)->header().min_time,
              1000 * (b + 1) + 0)  // MakeRows starts exactly at start_time
        << "block " << b;
  }
}

TEST(ShutdownRestoreTest, UnsealedWriteBufferIsFlushedBackstop) {
  ShmNamespace ns("buf");
  LeafMap leaf_map;
  Table* table = leaf_map.GetOrCreateTable("t");
  ASSERT_TRUE(table->AddRows(MakeRows(77), 0).ok());  // stays buffered

  ShutdownStats sstats;
  ShutdownOptions options = MakeShutdownOptions(ns);
  options.now = 4242;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, options, &sstats).ok());

  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(
      RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats).ok());
  EXPECT_EQ(restored.TotalRowCount(), 77u);
  EXPECT_EQ(restored.GetTable("t")->row_block(0)->header().creation_timestamp,
            4242);
}

TEST(ShutdownRestoreTest, EmptyLeafRoundTrips) {
  ShmNamespace ns("empty");
  LeafMap leaf_map;
  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());
  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(
      RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats).ok());
  EXPECT_EQ(restored.num_tables(), 0u);
}

TEST(ShutdownRestoreTest, InvalidBitForcesDiskPath) {
  ShmNamespace ns("invalid");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 1, 100);
  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());

  // Clear the valid bit, simulating an interrupted previous restore.
  {
    auto meta = LeafMetadata::Open(ns.prefix(), 0);
    ASSERT_TRUE(meta.ok());
    ASSERT_TRUE(meta->SetValid(false).ok());
  }

  LeafMap restored;
  RestoreStats rstats;
  Status s = RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  // Fig 7: segments are deleted so they cannot be mistaken for good state.
  EXPECT_FALSE(LeafMetadata::Exists(ns.prefix(), 0));
  EXPECT_TRUE(ShmSegment::List("/" + ns.prefix()).empty());
}

TEST(ShutdownRestoreTest, CorruptColumnFallsBackAndScrubs) {
  ShmNamespace ns("corrupt");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 1, 1000);
  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());

  // Flip a byte inside the table segment payload.
  auto names = ShmSegment::List("/" + ns.prefix());
  std::string table_seg;
  for (const auto& n : names) {
    if (n.find("_table_") != std::string::npos) table_seg = n;
  }
  ASSERT_FALSE(table_seg.empty());
  {
    auto raw = ShmSegment::Open(table_seg);
    ASSERT_TRUE(raw.ok());
    raw->data()[raw->size() / 2] ^= 0x40;
  }

  LeafMap restored;
  RestoreStats rstats;
  Status s = RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(restored.num_tables(), 0u);  // partial state discarded
  EXPECT_TRUE(ShmSegment::List("/" + ns.prefix()).empty());
}

TEST(ShutdownRestoreTest, LayoutVersionMismatchForcesDiskPath) {
  ShmNamespace ns("version");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 1, 10);
  ShutdownStats sstats;
  ASSERT_TRUE(
      ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats).ok());

  // Rewrite the version field in the metadata segment.
  {
    auto raw = ShmSegment::Open(LeafMetadata::SegmentNameForLeaf(ns.prefix(), 0));
    ASSERT_TRUE(raw.ok());
    raw->data()[4] = static_cast<uint8_t>(kShmLayoutVersion + 1);
  }
  LeafMap restored;
  RestoreStats rstats;
  Status s = RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats);
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  EXPECT_TRUE(ShmSegment::List("/" + ns.prefix()).empty());
}

TEST(ShutdownRestoreTest, FootprintStaysFlatWithChunkedCopy) {
  ShmNamespace ns("flat");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 2, 5000);
  uint64_t live_bytes = leaf_map.TotalMemoryBytes();

  // Shutdown frees per column, so its overshoot is bounded by one column;
  // restore truncates the segment per row BLOCK (Fig 7), so its overshoot
  // is bounded by one block.
  uint64_t max_column = 0;
  uint64_t max_block = 0;
  for (const std::string& name : leaf_map.TableNames()) {
    Table* table = leaf_map.GetTable(name);
    for (size_t b = 0; b < table->num_row_blocks(); ++b) {
      const RowBlock* block = table->row_block(b);
      max_block = std::max(max_block, block->MemoryBytes());
      for (size_t c = 0; c < block->num_columns(); ++c) {
        max_column = std::max(max_column, block->column(c)->total_bytes());
      }
    }
  }

  FootprintTracker tracker;
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, MakeShutdownOptions(ns), &sstats,
                            &tracker)
                  .ok());
  // Peak <= live + one column + small per-segment overhead.
  EXPECT_LE(tracker.peak(), live_bytes + max_column + 64 * 1024);

  FootprintTracker restore_tracker;
  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(RestoreFromShm(&restored, MakeRestoreOptions(ns), &rstats,
                             &restore_tracker)
                  .ok());
  // Slack: the 64 KiB metadata segment + per-segment headers/alignment.
  EXPECT_LE(restore_tracker.peak(), live_bytes + max_block + 160 * 1024);
}

TEST(ShutdownRestoreTest, NaiveCopyDoublesFootprint) {
  ShmNamespace ns("naive");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 2, 5000);
  uint64_t live_bytes = leaf_map.TotalMemoryBytes();

  FootprintTracker tracker;
  ShutdownOptions options = MakeShutdownOptions(ns);
  options.free_incrementally = false;
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, options, &sstats, &tracker).ok());
  // Peak ~= 2x live: heap copy + shm copy coexist.
  EXPECT_GE(tracker.peak(), live_bytes + live_bytes * 9 / 10);
}

TEST(ShutdownRestoreTest, ShutdownTwiceFails) {
  ShmNamespace ns("twice");
  LeafMap a;
  FillLeaf(&a, 1, 10);
  ShutdownStats stats;
  ASSERT_TRUE(ShutdownToShm(&a, MakeShutdownOptions(ns), &stats).ok());
  LeafMap b;
  FillLeaf(&b, 1, 10);
  ShutdownStats stats2;
  // The metadata segment already exists: AlreadyExists.
  EXPECT_TRUE(ShutdownToShm(&b, MakeShutdownOptions(ns), &stats2)
                  .IsAlreadyExists());
}

// The real thing: the state crosses a PROCESS boundary. The child fills a
// leaf and copies it to shared memory; the parent (a different process)
// restores it.
TEST(ShutdownRestoreTest, SurvivesProcessBoundary) {
  ShmNamespace ns("proc");

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: build state, hand it to shm, exit without cleanup.
    LeafMap leaf_map;
    Table* table = leaf_map.GetOrCreateTable("events");
    if (!table->AddRows(MakeRows(1234, 5000), 0).ok()) _exit(2);
    if (!table->SealWriteBuffer(0).ok()) _exit(3);
    ShutdownOptions options;
    options.namespace_prefix = ns.prefix();
    options.leaf_id = 9;
    ShutdownStats stats;
    if (!ShutdownToShm(&leaf_map, options, &stats).ok()) _exit(4);
    _exit(0);
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Parent: the child is gone; its memory lives on.
  LeafMap restored;
  RestoreStats rstats;
  ASSERT_TRUE(
      RestoreFromShm(&restored, MakeRestoreOptions(ns, 9), &rstats).ok());
  ASSERT_NE(restored.GetTable("events"), nullptr);
  EXPECT_EQ(restored.GetTable("events")->RowCount(), 1234u);
}

}  // namespace
}  // namespace scuba
