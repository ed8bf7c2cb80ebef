// Tests for the parallel copy engine: equivalence with the serial Fig 6/7
// loops, the widened §4.4 footprint budget, and failure fallback under
// concurrency.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/footprint.h"
#include "core/restart_manager.h"
#include "core/shutdown.h"
#include "shm/leaf_metadata.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;

// Several tables x several sealed blocks, deterministic contents.
void FillLeaf(LeafMap* leaf_map, size_t tables = 3, size_t blocks = 4,
              size_t rows = 400) {
  for (size_t t = 0; t < tables; ++t) {
    Table* table = leaf_map->GetOrCreateTable("table_" + std::to_string(t));
    for (size_t b = 0; b < blocks; ++b) {
      ASSERT_TRUE(table
                      ->AddRows(MakeRows(rows, 1000 * (t + 1) + 100 * b,
                                         /*seed=*/t * 31 + b + 1),
                                0)
                      .ok());
      ASSERT_TRUE(table->SealWriteBuffer(0).ok());
    }
  }
}

struct LeafShape {
  uint64_t live_bytes = 0;
  uint64_t max_column_bytes = 0;
  uint64_t max_block_bytes = 0;
};

LeafShape ShapeOf(const LeafMap& leaf_map) {
  LeafShape shape;
  shape.live_bytes = leaf_map.TotalMemoryBytes();
  for (const std::string& name : leaf_map.TableNames()) {
    const Table* table = leaf_map.GetTable(name);
    for (size_t b = 0; b < table->num_row_blocks(); ++b) {
      const RowBlock* block = table->row_block(b);
      if (block == nullptr) continue;
      uint64_t payload = 0;
      for (size_t c = 0; c < block->num_columns(); ++c) {
        uint64_t bytes = block->column(c)->total_bytes();
        shape.max_column_bytes = std::max(shape.max_column_bytes, bytes);
        payload += bytes;
      }
      shape.max_block_bytes = std::max(shape.max_block_bytes, payload);
    }
  }
  return shape;
}

// Every raw RBC buffer of `a` byte-equal to its counterpart in `b`.
void ExpectLeafMapsByteIdentical(const LeafMap& a, const LeafMap& b) {
  ASSERT_EQ(a.TableNames(), b.TableNames());
  for (const std::string& name : a.TableNames()) {
    const Table* ta = a.GetTable(name);
    const Table* tb = b.GetTable(name);
    ASSERT_EQ(ta->num_row_blocks(), tb->num_row_blocks()) << name;
    for (size_t blk = 0; blk < ta->num_row_blocks(); ++blk) {
      const RowBlock* ba = ta->row_block(blk);
      const RowBlock* bb = tb->row_block(blk);
      ASSERT_EQ(ba->num_columns(), bb->num_columns()) << name << "/" << blk;
      for (size_t c = 0; c < ba->num_columns(); ++c) {
        Slice sa = ba->column(c)->AsSlice();
        Slice sb = bb->column(c)->AsSlice();
        ASSERT_EQ(sa.size(), sb.size()) << name << "/" << blk << "/" << c;
        EXPECT_EQ(0, std::memcmp(sa.data(), sb.data(), sa.size()))
            << name << "/" << blk << "/" << c;
      }
    }
  }
}

TEST(ParallelCopyTest, ParallelRoundTripMatchesSerialByteForByte) {
  ShmNamespace ns_serial("pc_ser");
  ShmNamespace ns_parallel("pc_par");

  LeafMap leaf_serial;
  LeafMap leaf_parallel;
  FillLeaf(&leaf_serial);
  FillLeaf(&leaf_parallel);
  uint64_t bytes_before = leaf_serial.TotalMemoryBytes();
  ASSERT_EQ(bytes_before, leaf_parallel.TotalMemoryBytes());

  ShutdownOptions so_serial;
  so_serial.namespace_prefix = ns_serial.prefix();
  so_serial.num_copy_threads = 1;
  ShutdownStats ss_serial;
  ASSERT_TRUE(ShutdownToShm(&leaf_serial, so_serial, &ss_serial).ok());

  ShutdownOptions so_parallel;
  so_parallel.namespace_prefix = ns_parallel.prefix();
  so_parallel.num_copy_threads = 4;
  ShutdownStats ss_parallel;
  ASSERT_TRUE(ShutdownToShm(&leaf_parallel, so_parallel, &ss_parallel).ok());

  EXPECT_EQ(ss_parallel.bytes_copied, ss_serial.bytes_copied);
  EXPECT_EQ(ss_parallel.columns_copied, ss_serial.columns_copied);
  EXPECT_EQ(ss_parallel.row_blocks_copied, ss_serial.row_blocks_copied);
  EXPECT_EQ(ss_parallel.tables_copied, ss_serial.tables_copied);
  EXPECT_EQ(leaf_parallel.num_tables(), 0u);  // heap emptied either way

  // Restore with checksums ON so every copied column is verified.
  RestartConfig ro_serial;
  ro_serial.namespace_prefix = ns_serial.prefix();
  ro_serial.num_copy_threads = 1;
  ro_serial.restore.verify_checksums = true;
  RestoreStats rs_serial;
  LeafMap restored_serial;
  ASSERT_TRUE(RestoreFromShm(&restored_serial, ro_serial, &rs_serial).ok());

  RestartConfig ro_parallel;
  ro_parallel.namespace_prefix = ns_parallel.prefix();
  ro_parallel.num_copy_threads = 4;
  ro_parallel.restore.verify_checksums = true;
  RestoreStats rs_parallel;
  LeafMap restored_parallel;
  ASSERT_TRUE(
      RestoreFromShm(&restored_parallel, ro_parallel, &rs_parallel).ok());

  EXPECT_EQ(rs_parallel.bytes_copied, rs_serial.bytes_copied);
  EXPECT_EQ(rs_parallel.bytes_copied, bytes_before);
  EXPECT_EQ(rs_parallel.row_blocks_restored, rs_serial.row_blocks_restored);
  ExpectLeafMapsByteIdentical(restored_serial, restored_parallel);

  // Both namespaces fully consumed.
  EXPECT_TRUE(ShmSegment::List("/" + ns_serial.prefix()).empty());
  EXPECT_TRUE(ShmSegment::List("/" + ns_parallel.prefix()).empty());
}

TEST(ParallelCopyTest, ParallelShutdownSurvivesSegmentGrowth) {
  ShmNamespace ns("pc_grow");
  LeafMap leaf_map;
  LeafMap reference;
  FillLeaf(&leaf_map);
  FillLeaf(&reference);
  uint64_t bytes_before = leaf_map.TotalMemoryBytes();

  // Deliberately worthless size estimate: every table segment must Grow
  // (remap, possibly moving the mapping) many times during reservation
  // while earlier tables' copies are already in flight. A table's copy
  // tasks must therefore not start until its layout is fully reserved —
  // this is the regression test for submitting them too early.
  ShutdownOptions soptions;
  soptions.namespace_prefix = ns.prefix();
  soptions.num_copy_threads = 4;
  soptions.size_estimate_factor = 0.0;
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, soptions, &sstats).ok());
  EXPECT_GT(sstats.segment_grow_count.load(), 0u);

  RestartConfig roptions;
  roptions.namespace_prefix = ns.prefix();
  roptions.num_copy_threads = 4;
  roptions.restore.verify_checksums = true;
  RestoreStats rstats;
  LeafMap restored;
  ASSERT_TRUE(RestoreFromShm(&restored, roptions, &rstats).ok());
  EXPECT_EQ(rstats.bytes_copied, bytes_before);
  ExpectLeafMapsByteIdentical(reference, restored);
}

TEST(ParallelCopyTest, FootprintStaysWithinBudgetBound) {
  ShmNamespace ns("pc_foot");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 2, 6, 600);
  LeafShape shape = ShapeOf(leaf_map);
  const uint64_t kSlack = 256 * 1024;  // headers + segment meta

  // Shutdown: budget = explicit cap; overshoot above the live data must
  // stay within it (§4.4 widened to the in-flight budget).
  ShutdownOptions soptions;
  soptions.namespace_prefix = ns.prefix();
  soptions.num_copy_threads = 4;
  soptions.max_in_flight_bytes = 2 * shape.max_column_bytes;
  FootprintTracker stracker;
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, soptions, &sstats, &stracker).ok());
  EXPECT_LE(stracker.peak(),
            shape.live_bytes + soptions.max_in_flight_bytes + kSlack);

  uint64_t shm_bytes = TotalShmBytes("/" + ns.prefix());
  ASSERT_GT(shm_bytes, 0u);

  // Restore: the budget bounds heap bytes whose shm pages have not been
  // truncated yet, so peak <= initial shm size + budget (+ slack).
  RestartConfig roptions;
  roptions.namespace_prefix = ns.prefix();
  roptions.num_copy_threads = 4;
  roptions.restore.max_in_flight_bytes = 2 * shape.max_block_bytes;
  FootprintTracker rtracker;
  RestoreStats rstats;
  LeafMap restored;
  ASSERT_TRUE(RestoreFromShm(&restored, roptions, &rstats, &rtracker).ok());
  EXPECT_LE(rtracker.peak(),
            shm_bytes + roptions.restore.max_in_flight_bytes + kSlack);
  EXPECT_EQ(rstats.bytes_copied, sstats.bytes_copied);
}

TEST(ParallelCopyTest, CorruptColumnMidParallelRestoreFallsBack) {
  ShmNamespace ns("pc_corrupt");
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 2, 4, 500);
  ShutdownOptions soptions;
  soptions.namespace_prefix = ns.prefix();
  soptions.num_copy_threads = 4;
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, soptions, &sstats).ok());

  // Flip a byte inside one table segment's payload.
  std::string table_seg;
  for (const auto& n : ShmSegment::List("/" + ns.prefix())) {
    if (n.find("_table_") != std::string::npos) table_seg = n;
  }
  ASSERT_FALSE(table_seg.empty());
  {
    auto raw = ShmSegment::Open(table_seg);
    ASSERT_TRUE(raw.ok());
    raw->data()[raw->size() / 2] ^= 0x40;
  }

  RestartConfig roptions;
  roptions.namespace_prefix = ns.prefix();
  roptions.num_copy_threads = 4;
  roptions.restore.verify_checksums = true;
  RestoreStats rstats;
  LeafMap restored;
  Status s = RestoreFromShm(&restored, roptions, &rstats);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // Partial state discarded, so the caller's disk recovery starts clean.
  EXPECT_EQ(restored.num_tables(), 0u);
  // Every segment scrubbed, valid bit gone with the metadata.
  EXPECT_TRUE(ShmSegment::List("/" + ns.prefix()).empty());
}

}  // namespace
}  // namespace scuba
