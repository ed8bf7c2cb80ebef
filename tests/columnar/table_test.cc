#include "columnar/table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;

TEST(TableTest, AddRowsBuffersUntilSealed) {
  Table table("events");
  ASSERT_TRUE(table.AddRows(MakeRows(100), 5000).ok());
  EXPECT_EQ(table.RowCount(), 100u);
  EXPECT_EQ(table.num_row_blocks(), 0u);  // all buffered
  ASSERT_TRUE(table.SealWriteBuffer(5000).ok());
  EXPECT_EQ(table.num_row_blocks(), 1u);
  EXPECT_EQ(table.RowCount(), 100u);
}

TEST(TableTest, SealEmptyBufferIsNoOp) {
  Table table("events");
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  EXPECT_EQ(table.num_row_blocks(), 0u);
}

TEST(TableTest, BlocksInTimeRangePrunes) {
  Table table("events");
  ASSERT_TRUE(table.AddRows(MakeRows(50, /*start_time=*/1000), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  ASSERT_TRUE(table.AddRows(MakeRows(50, /*start_time=*/2000), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  ASSERT_TRUE(table.AddRows(MakeRows(50, /*start_time=*/3000), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());

  EXPECT_EQ(table.BlocksInTimeRange(0, 500).size(), 0u);
  EXPECT_EQ(table.BlocksInTimeRange(1000, 1004).size(), 1u);
  EXPECT_EQ(table.BlocksInTimeRange(1000, 2004).size(), 2u);
  EXPECT_EQ(table.BlocksInTimeRange(0, 100000).size(), 3u);
}

TEST(TableTest, ExpireByAgeDropsOldBlocks) {
  TableLimits limits;
  limits.max_age_seconds = 100;
  Table table("events", limits);
  ASSERT_TRUE(table.AddRows(MakeRows(50, /*start_time=*/1000), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  ASSERT_TRUE(table.AddRows(MakeRows(50, /*start_time=*/5000), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());

  // now=5050: cutoff 4950 -> first block (max_time ~1004) expires.
  EXPECT_EQ(table.ExpireData(5050), 1u);
  EXPECT_EQ(table.num_row_blocks(), 1u);
  // Nothing more to expire.
  EXPECT_EQ(table.ExpireData(5050), 0u);
}

TEST(TableTest, ExpireBySizeDropsOldestFirst) {
  TableLimits limits;
  limits.max_bytes = 1;  // absurdly small: everything but the last goes
  Table table("events", limits);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(table.AddRows(MakeRows(50, 1000 * (i + 1)), 0).ok());
    ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  }
  EXPECT_EQ(table.ExpireData(99999), 2u);
  ASSERT_EQ(table.num_row_blocks(), 1u);
  // The newest block survives.
  EXPECT_GE(table.row_block(0)->header().min_time, 3000 - 2);
}

TEST(TableTest, NoLimitsNeverExpires) {
  Table table("events");
  ASSERT_TRUE(table.AddRows(MakeRows(50), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  EXPECT_EQ(table.ExpireData(1ll << 40), 0u);
}

TEST(TableTest, MemoryBytesTracksBlocksAndBuffer) {
  Table table("events");
  EXPECT_EQ(table.MemoryBytes(), 0u);
  ASSERT_TRUE(table.AddRows(MakeRows(100), 0).ok());
  uint64_t buffered = table.MemoryBytes();
  EXPECT_GT(buffered, 0u);
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(TableTest, ReleaseAndAdoptRowBlock) {
  Table table("events");
  ASSERT_TRUE(table.AddRows(MakeRows(10), 0).ok());
  ASSERT_TRUE(table.SealWriteBuffer(0).ok());
  auto block = table.ReleaseRowBlock(0);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(table.RowCount(), 0u);
  table.AdoptRowBlockAt(0, std::move(block));
  EXPECT_EQ(table.RowCount(), 10u);
}

// The column form Table::AddColumns takes, built the way Seal builds it.
void ToColumns(const std::vector<Row>& rows, Schema* schema,
               std::vector<ColumnValues>* columns) {
  WriteBuffer scratch;
  for (const Row& row : rows) ASSERT_TRUE(scratch.AddRow(row).ok());
  scratch.TakeColumns(schema, columns);
}

TEST(TableTest, AddColumnsSealsWhereAddRowsWould) {
  // Batches of 3,000 rows: the 65,536-row boundary falls inside one.
  Table rowwise("events");
  Table colwise("events");
  for (int b = 0; b < 24; ++b) {
    std::vector<Row> rows = MakeRows(3000, 1000 + 300 * b, 7 + b);
    ASSERT_TRUE(rowwise.AddRows(rows, 42).ok());
    Schema schema;
    std::vector<ColumnValues> columns;
    ToColumns(rows, &schema, &columns);
    ASSERT_TRUE(colwise.AddColumns(schema, std::move(columns), 42).ok());
  }
  ASSERT_EQ(rowwise.num_row_blocks(), 1u);
  ASSERT_EQ(colwise.num_row_blocks(), rowwise.num_row_blocks());
  const RowBlockHeader& want = rowwise.row_block(0)->header();
  const RowBlockHeader& got = colwise.row_block(0)->header();
  EXPECT_EQ(got.row_count, want.row_count);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.min_time, want.min_time);
  EXPECT_EQ(got.max_time, want.max_time);
  EXPECT_EQ(colwise.write_buffer().row_count(),
            rowwise.write_buffer().row_count());
  EXPECT_EQ(colwise.MemoryBytes(), rowwise.MemoryBytes());
}

TEST(TableTest, AdoptRecoveredPutsNewerRowsAfterTheTail) {
  Table recovered("events");
  ASSERT_TRUE(recovered.AddRows(MakeRows(70000, 1000), 0).ok());
  ASSERT_EQ(recovered.num_row_blocks(), 1u);
  const size_t tail_rows = recovered.write_buffer().row_count();

  // Rows ingested while the recovery ran.
  Table table("events");
  ASSERT_TRUE(table.AddRows(MakeRows(10, 9000), 0).ok());
  ASSERT_TRUE(table.AdoptRecovered(&recovered, 0).ok());

  EXPECT_EQ(recovered.RowCount(), 0u);
  EXPECT_EQ(table.num_row_blocks(), 1u);
  ASSERT_EQ(table.write_buffer().row_count(), tail_rows + 10);
  const auto* times = table.write_buffer().ColumnView("time");
  ASSERT_NE(times, nullptr);
  const auto& t = std::get<std::vector<int64_t>>(*times);
  EXPECT_LT(t[tail_rows - 1], 9000);
  EXPECT_EQ(t[tail_rows], 9000);
}

TEST(TableTest, AdoptRecoveredSealsATailOfAnotherType) {
  Table recovered("events");
  ASSERT_TRUE(recovered.AddRows(MakeRows(70000, 1000), 0).ok());
  const size_t tail_rows = recovered.write_buffer().row_count();

  // Rows ingested while the recovery ran carry "status" as a string; the
  // recovered tail buffers it as int64.
  std::vector<Row> newer = MakeRows(10, 9000);
  for (Row& row : newer) {
    for (auto& [name, value] : row.fields) {
      if (name == "status") value = std::string("ok");
    }
  }
  Table table("events");
  ASSERT_TRUE(table.AddRows(newer, 0).ok());
  ASSERT_TRUE(table.AdoptRecovered(&recovered, 0).ok());

  EXPECT_EQ(recovered.RowCount(), 0u);
  ASSERT_EQ(table.num_row_blocks(), 2u);
  EXPECT_EQ(table.row_block(1)->header().row_count, tail_rows);
  EXPECT_EQ(table.write_buffer().row_count(), 10u);
  EXPECT_EQ(table.write_buffer().ColumnTypeOf("status"), ColumnType::kString);
  EXPECT_EQ(table.RowCount(), 70010u);
}

TEST(TableTest, ExpireByAgeDropsStaleWriteBuffer) {
  TableLimits limits;
  limits.max_age_seconds = 100;
  Table table("events", limits);
  ASSERT_TRUE(table.AddRows(MakeRows(50, /*start_time=*/1000), 0).ok());
  // now=5050: cutoff 4950; the buffer's newest row (~1004) is past it.
  EXPECT_EQ(table.ExpireData(5050), 1u);
  EXPECT_EQ(table.RowCount(), 0u);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  // A buffer with any row inside the limit stays whole.
  ASSERT_TRUE(table.AddRows(MakeRows(50, 1000), 0).ok());
  ASSERT_TRUE(table.AddRows(MakeRows(1, 5000), 0).ok());
  EXPECT_EQ(table.ExpireData(5050), 0u);
  EXPECT_EQ(table.RowCount(), 51u);
}

}  // namespace
}  // namespace scuba
