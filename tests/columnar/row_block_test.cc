#include "columnar/row_block.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "columnar/write_buffer.h"
#include "ingest/row_generator.h"

namespace scuba {
namespace {

Schema TwoColumnSchema() {
  Schema schema;
  schema.AddColumn("time", ColumnType::kInt64);
  schema.AddColumn("service", ColumnType::kString);
  return schema;
}

std::unique_ptr<RowBlock> MakeBlock(int64_t t0 = 100, size_t rows = 4) {
  std::vector<int64_t> times;
  std::vector<std::string> services;
  for (size_t i = 0; i < rows; ++i) {
    times.push_back(t0 + static_cast<int64_t>(i));
    services.push_back(i % 2 == 0 ? "web" : "api");
  }
  auto block = RowBlock::Build(
      TwoColumnSchema(), {ColumnValues(times), ColumnValues(services)}, 999);
  EXPECT_TRUE(block.ok()) << block.status().ToString();
  return std::move(block).value();
}

TEST(RowBlockTest, HeaderCapturesTimeRangeAndCounts) {
  auto block = MakeBlock(100, 10);
  EXPECT_EQ(block->header().row_count, 10u);
  EXPECT_EQ(block->header().min_time, 100);
  EXPECT_EQ(block->header().max_time, 109);
  EXPECT_EQ(block->header().creation_timestamp, 999);
  EXPECT_GT(block->header().size_bytes, 0u);
  EXPECT_EQ(block->header().size_bytes, block->MemoryBytes());
}

TEST(RowBlockTest, RequiresTimeColumn) {
  Schema schema;
  schema.AddColumn("value", ColumnType::kInt64);
  auto block = RowBlock::Build(
      schema, {ColumnValues(std::vector<int64_t>{1})}, 0);
  EXPECT_TRUE(block.status().IsInvalidArgument());
}

TEST(RowBlockTest, RequiresInt64TimeColumn) {
  Schema schema;
  schema.AddColumn("time", ColumnType::kString);
  auto block = RowBlock::Build(
      schema, {ColumnValues(std::vector<std::string>{"x"})}, 0);
  EXPECT_TRUE(block.status().IsInvalidArgument());
}

TEST(RowBlockTest, RejectsRaggedColumns) {
  auto block = RowBlock::Build(
      TwoColumnSchema(),
      {ColumnValues(std::vector<int64_t>{1, 2}),
       ColumnValues(std::vector<std::string>{"only-one"})},
      0);
  EXPECT_TRUE(block.status().IsInvalidArgument());
}

TEST(RowBlockTest, RejectsEmptyAndOversized) {
  auto empty = RowBlock::Build(
      TwoColumnSchema(),
      {ColumnValues(std::vector<int64_t>{}),
       ColumnValues(std::vector<std::string>{})},
      0);
  EXPECT_TRUE(empty.status().IsInvalidArgument());

  std::vector<int64_t> too_many(kMaxRowsPerBlock + 1, 1);
  std::vector<std::string> strs(kMaxRowsPerBlock + 1, "x");
  auto oversized = RowBlock::Build(
      TwoColumnSchema(), {ColumnValues(too_many), ColumnValues(strs)}, 0);
  EXPECT_TRUE(oversized.status().IsInvalidArgument());
}

TEST(RowBlockTest, RejectsTypeMismatchVsSchema) {
  auto block = RowBlock::Build(
      TwoColumnSchema(),
      {ColumnValues(std::vector<int64_t>{1}),
       ColumnValues(std::vector<int64_t>{2})},  // schema says string
      0);
  EXPECT_TRUE(block.status().IsInvalidArgument());
}

TEST(RowBlockTest, ColumnByName) {
  auto block = MakeBlock();
  EXPECT_NE(block->ColumnByName("service"), nullptr);
  EXPECT_EQ(block->ColumnByName("missing"), nullptr);
  EXPECT_EQ(block->ColumnByName("service")->type(), ColumnType::kString);
}

TEST(RowBlockTest, TimeRangeOverlap) {
  auto block = MakeBlock(100, 10);  // [100, 109]
  EXPECT_TRUE(block->OverlapsTimeRange(0, 100));
  EXPECT_TRUE(block->OverlapsTimeRange(109, 200));
  EXPECT_TRUE(block->OverlapsTimeRange(104, 105));
  EXPECT_TRUE(block->OverlapsTimeRange(0, 1000));
  EXPECT_FALSE(block->OverlapsTimeRange(0, 99));
  EXPECT_FALSE(block->OverlapsTimeRange(110, 1000));
}

TEST(RowBlockTest, MetaSerializationRoundTrip) {
  auto block = MakeBlock(50, 7);
  ByteBuffer buf;
  block->SerializeMeta(&buf);
  Slice in = buf.AsSlice();
  auto meta = RowBlock::ParseMeta(&in);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(meta->header.row_count, 7u);
  EXPECT_EQ(meta->header.min_time, 50);
  EXPECT_EQ(meta->header.max_time, 56);
  EXPECT_EQ(meta->schema, block->schema());
  ASSERT_EQ(meta->column_sizes.size(), 2u);
  EXPECT_EQ(meta->column_sizes[0], block->column(0)->total_bytes());
}

TEST(RowBlockTest, FromPartsReassembles) {
  auto block = MakeBlock(10, 5);
  RowBlockHeader header = block->header();
  Schema schema = block->schema();
  std::vector<std::unique_ptr<RowBlockColumn>> columns;
  columns.push_back(block->ReleaseColumn(0));
  columns.push_back(block->ReleaseColumn(1));

  auto rebuilt = RowBlock::FromParts(header, schema, std::move(columns));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  std::vector<int64_t> times;
  ASSERT_TRUE((*rebuilt)->ColumnByName("time")->DecodeInt64(&times).ok());
  EXPECT_EQ(times, (std::vector<int64_t>{10, 11, 12, 13, 14}));
}

TEST(RowBlockTest, FromPartsRejectsCountMismatch) {
  auto block = MakeBlock(10, 5);
  RowBlockHeader header = block->header();
  header.row_count = 4;  // lie
  Schema schema = block->schema();
  std::vector<std::unique_ptr<RowBlockColumn>> columns;
  columns.push_back(block->ReleaseColumn(0));
  columns.push_back(block->ReleaseColumn(1));
  EXPECT_TRUE(RowBlock::FromParts(header, schema, std::move(columns))
                  .status()
                  .IsCorruption());
}

TEST(RowBlockTest, ReleaseColumnFreesMemoryAccounting) {
  auto block = MakeBlock(10, 5);
  uint64_t before = block->MemoryBytes();
  auto released = block->ReleaseColumn(0);
  EXPECT_NE(released, nullptr);
  EXPECT_LT(block->MemoryBytes(), before);
  EXPECT_EQ(block->column(0), nullptr);
}

TEST(RowBlockTest, ParseMetaRejectsTruncation) {
  auto block = MakeBlock();
  ByteBuffer buf;
  block->SerializeMeta(&buf);
  for (size_t cut = 1; cut < buf.size(); cut += 5) {
    Slice in(buf.data(), buf.size() - cut);
    EXPECT_FALSE(RowBlock::ParseMeta(&in).ok()) << "cut " << cut;
  }
}

// Every column image of a block, concatenated.
std::string BlockBytes(const RowBlock& block) {
  std::string bytes;
  for (size_t i = 0; i < block.num_columns(); ++i) {
    const RowBlockColumn* column = block.column(i);
    bytes.append(reinterpret_cast<const char*>(column->data()),
                 column->total_bytes());
  }
  return bytes;
}

// Blocks are built concurrently: leaves ingest on their own threads, and
// the restore engine translates .bak files on its copy workers. The
// encoders share no state but LZ4's per-thread hash table, so four threads
// building the same blocks must emit the serial build's bytes (and TSan
// must see no race).
TEST(RowBlockTest, ConcurrentBuildsMatchSerialBytes) {
  constexpr size_t kBlocks = 4;
  constexpr size_t kRows = 16384;
  constexpr size_t kThreads = 4;
  std::vector<Schema> schemas(kBlocks);
  std::vector<std::vector<ColumnValues>> inputs(kBlocks);
  std::vector<std::string> serial(kBlocks);
  for (size_t b = 0; b < kBlocks; ++b) {
    RowGeneratorConfig config;
    config.seed = b + 1;
    RowGenerator generator(config);
    WriteBuffer buffer;
    for (const Row& row : generator.NextBatch(kRows)) {
      ASSERT_TRUE(buffer.AddRow(row).ok());
    }
    buffer.TakeColumns(&schemas[b], &inputs[b]);
    auto block = RowBlock::Build(schemas[b], inputs[b], 1000);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    serial[b] = BlockBytes(**block);
  }

  std::vector<std::vector<std::string>> built(
      kThreads, std::vector<std::string>(kBlocks));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at another block, so different columns are
      // being encoded at the same moment.
      for (size_t k = 0; k < kBlocks; ++k) {
        const size_t b = (t + k) % kBlocks;
        auto block = RowBlock::Build(schemas[b], inputs[b], 1000);
        if (block.ok()) built[t][b] = BlockBytes(**block);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t b = 0; b < kBlocks; ++b) {
      EXPECT_TRUE(built[t][b] == serial[b])
          << "thread " << t << ", block " << b;
    }
  }
}

}  // namespace
}  // namespace scuba
