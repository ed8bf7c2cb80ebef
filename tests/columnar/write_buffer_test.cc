#include "columnar/write_buffer.h"

#include <gtest/gtest.h>

namespace scuba {
namespace {

Row MakeRow(int64_t time, const std::string& service, int64_t status) {
  Row row;
  row.SetTime(time);
  row.Set("service", service);
  row.Set("status", status);
  return row;
}

TEST(WriteBufferTest, StartsEmpty) {
  WriteBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(buffer.Full());
  EXPECT_TRUE(buffer.Seal(0).status().IsFailedPrecondition());
}

TEST(WriteBufferTest, RejectsRowWithoutTime) {
  WriteBuffer buffer;
  Row row;
  row.Set("service", std::string("web"));
  EXPECT_TRUE(buffer.AddRow(row).IsInvalidArgument());
  EXPECT_TRUE(buffer.empty());
}

TEST(WriteBufferTest, RejectsNonIntTime) {
  WriteBuffer buffer;
  Row row;
  row.Set("time", std::string("yesterday"));
  EXPECT_TRUE(buffer.AddRow(row).IsInvalidArgument());
}

TEST(WriteBufferTest, TracksTimeBounds) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(50, "a", 200)).ok());
  ASSERT_TRUE(buffer.AddRow(MakeRow(10, "b", 200)).ok());
  ASSERT_TRUE(buffer.AddRow(MakeRow(99, "c", 200)).ok());
  EXPECT_EQ(buffer.min_time(), 10);
  EXPECT_EQ(buffer.max_time(), 99);
  EXPECT_EQ(buffer.row_count(), 3u);
}

TEST(WriteBufferTest, SealsToRowBlockPreservingValues) {
  WriteBuffer buffer;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buffer.AddRow(MakeRow(100 + i, "svc", 200 + i)).ok());
  }
  auto block = buffer.Seal(12345);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ((*block)->header().row_count, 10u);
  EXPECT_EQ((*block)->header().creation_timestamp, 12345);

  std::vector<int64_t> statuses;
  ASSERT_TRUE((*block)->ColumnByName("status")->DecodeInt64(&statuses).ok());
  ASSERT_EQ(statuses.size(), 10u);
  EXPECT_EQ(statuses[0], 200);
  EXPECT_EQ(statuses[9], 209);
}

TEST(WriteBufferTest, DensifiesSparseRows) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  // New column appears on row 2: rows before it get defaults.
  Row with_extra = MakeRow(2, "b", 500);
  with_extra.Set("error_msg", std::string("boom"));
  ASSERT_TRUE(buffer.AddRow(with_extra).ok());
  // Row 3 omits error_msg AND status: both densify.
  Row sparse;
  sparse.SetTime(3);
  ASSERT_TRUE(buffer.AddRow(sparse).ok());

  auto block = buffer.Seal(0);
  ASSERT_TRUE(block.ok());
  std::vector<std::string> errors;
  ASSERT_TRUE(
      (*block)->ColumnByName("error_msg")->DecodeString(&errors).ok());
  EXPECT_EQ(errors, (std::vector<std::string>{"", "boom", ""}));
  std::vector<int64_t> statuses;
  ASSERT_TRUE((*block)->ColumnByName("status")->DecodeInt64(&statuses).ok());
  EXPECT_EQ(statuses, (std::vector<int64_t>{200, 500, 0}));
  std::vector<std::string> services;
  ASSERT_TRUE(
      (*block)->ColumnByName("service")->DecodeString(&services).ok());
  EXPECT_EQ(services, (std::vector<std::string>{"a", "b", ""}));
}

TEST(WriteBufferTest, TypeConflictRejectsRowAtomically) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  Row bad;
  bad.SetTime(2);
  bad.Set("status", std::string("five hundred"));  // was int64
  EXPECT_TRUE(buffer.AddRow(bad).IsInvalidArgument());
  EXPECT_EQ(buffer.row_count(), 1u);  // buffer unchanged
}

TEST(WriteBufferTest, ConflictsWithSchemaComparesBufferedColumns) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  auto schema_of = [](const std::vector<Row>& rows) {
    auto schema = Schema::OfRows(rows);
    EXPECT_TRUE(schema.ok()) << schema.status().ToString();
    return schema.ok() ? *schema : Schema();
  };
  EXPECT_FALSE(buffer.ConflictsWith(schema_of({MakeRow(2, "b", 500)})));
  Row other;
  other.SetTime(2);
  other.Set("other", std::string("x"));
  EXPECT_FALSE(buffer.ConflictsWith(schema_of({other})));
  // The buffered column conflicts also when the field first appears in a
  // later row of the batch.
  Row retyped;
  retyped.SetTime(3);
  retyped.Set("status", std::string("ok"));
  EXPECT_TRUE(buffer.ConflictsWith(schema_of({other, retyped})));
}

TEST(WriteBufferTest, FullAtRowCap) {
  WriteBuffer buffer;
  Row row = MakeRow(1, "x", 1);
  for (size_t i = 0; i < kMaxRowsPerBlock; ++i) {
    ASSERT_TRUE(buffer.AddRow(row).ok());
  }
  EXPECT_TRUE(buffer.Full());
}

TEST(WriteBufferTest, MaterializeColumn) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  ASSERT_TRUE(buffer.AddRow(MakeRow(2, "b", 500)).ok());

  auto services = buffer.MaterializeColumn("service");
  ASSERT_TRUE(services.has_value());
  EXPECT_EQ(std::get<std::vector<std::string>>(*services),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(buffer.MaterializeColumn("nope").has_value());
  EXPECT_EQ(buffer.ColumnTypeOf("status"), ColumnType::kInt64);
  EXPECT_FALSE(buffer.ColumnTypeOf("nope").has_value());
}

TEST(WriteBufferTest, SealResetsForReuse) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  ASSERT_TRUE(buffer.Seal(0).ok());
  ASSERT_TRUE(buffer.AddRow(MakeRow(9, "z", 300)).ok());
  auto block = buffer.Seal(0);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->header().min_time, 9);
  EXPECT_EQ((*block)->header().row_count, 1u);
}

// The column form AppendColumns takes, built the way Seal builds it.
void ToColumns(const std::vector<Row>& rows, Schema* schema,
               std::vector<ColumnValues>* columns) {
  WriteBuffer scratch;
  for (const Row& row : rows) ASSERT_TRUE(scratch.AddRow(row).ok());
  scratch.TakeColumns(schema, columns);
}

TEST(WriteBufferTest, AppendColumnsMatchesAddRow) {
  // Dense rows in a schema order unlike the buffered one, with a new
  // column and empty, short and >15-byte strings.
  std::vector<Row> batch;
  for (int i = 0; i < 3; ++i) {
    Row row;
    row.Set("error_msg",
            std::string(i == 0   ? ""
                        : i == 1 ? "x"
                                 : "a string longer than fifteen bytes"));
    row.SetTime(10 - i);
    row.Set("status", int64_t{500 + i});
    row.Set("service", std::string("svc"));
    batch.push_back(row);
  }
  WriteBuffer rowwise;
  WriteBuffer colwise;
  ASSERT_TRUE(rowwise.AddRow(MakeRow(20, "a", 200)).ok());
  ASSERT_TRUE(colwise.AddRow(MakeRow(20, "a", 200)).ok());
  for (const Row& row : batch) ASSERT_TRUE(rowwise.AddRow(row).ok());

  Schema schema;
  std::vector<ColumnValues> columns;
  ToColumns(batch, &schema, &columns);
  auto taken = colwise.AppendColumns(schema, &columns, 0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(*taken, 3u);

  EXPECT_EQ(colwise.row_count(), rowwise.row_count());
  EXPECT_EQ(colwise.EstimatedBytes(), rowwise.EstimatedBytes());
  EXPECT_EQ(colwise.min_time(), 8);
  EXPECT_EQ(colwise.max_time(), 20);
  std::vector<Row> want = rowwise.MaterializeRows();
  std::vector<Row> got = colwise.MaterializeRows();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].fields, want[i].fields) << i;
  }
}

TEST(WriteBufferTest, AppendColumnsStopsAtRowCap) {
  std::vector<Row> rows(kMaxRowsPerBlock + 10, MakeRow(1, "x", 1));
  Schema schema;
  std::vector<ColumnValues> columns;
  ToColumns(rows, &schema, &columns);
  WriteBuffer buffer;
  auto taken = buffer.AppendColumns(schema, &columns, 0);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(*taken, kMaxRowsPerBlock);
  EXPECT_TRUE(buffer.Full());
  // A full buffer takes nothing until sealed.
  EXPECT_EQ(buffer.AppendColumns(schema, &columns, *taken).value(), 0u);
  ASSERT_TRUE(buffer.Seal(0).ok());
  EXPECT_EQ(buffer.AppendColumns(schema, &columns, *taken).value(), 10u);
  EXPECT_EQ(buffer.row_count(), 10u);
}

TEST(WriteBufferTest, AppendColumnsRejectsBadBatchAtomically) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  auto append = [&](std::vector<ColumnDef> defs,
                    std::vector<ColumnValues> columns) {
    return buffer.AppendColumns(Schema(std::move(defs)), &columns, 0).status();
  };
  using Ints = std::vector<int64_t>;
  using Strings = std::vector<std::string>;
  // The buffered column's type differs.
  EXPECT_TRUE(append({{"time", ColumnType::kInt64},
                      {"status", ColumnType::kString}},
                     {Ints{2}, Strings{"five hundred"}})
                  .IsInvalidArgument());
  // No int64 time column.
  EXPECT_TRUE(append({{"status", ColumnType::kInt64}}, {Ints{2}})
                  .IsInvalidArgument());
  EXPECT_TRUE(append({{"time", ColumnType::kDouble}},
                     {std::vector<double>{2.0}})
                  .IsInvalidArgument());
  // A repeated name, values unlike the declared type, ragged columns.
  EXPECT_TRUE(append({{"time", ColumnType::kInt64},
                      {"time", ColumnType::kInt64}},
                     {Ints{2}, Ints{3}})
                  .IsInvalidArgument());
  EXPECT_TRUE(append({{"time", ColumnType::kInt64}, {"x", ColumnType::kInt64}},
                     {Ints{2}, Strings{"x"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(append({{"time", ColumnType::kInt64}, {"x", ColumnType::kInt64}},
                     {Ints{2, 3}, Ints{4}})
                  .IsInvalidArgument());
  EXPECT_EQ(buffer.row_count(), 1u);  // buffer unchanged
  EXPECT_FALSE(buffer.ColumnTypeOf("x").has_value());
}

TEST(WriteBufferTest, MoveLeavesSourceEmpty) {
  WriteBuffer buffer;
  ASSERT_TRUE(buffer.AddRow(MakeRow(1, "a", 200)).ok());
  WriteBuffer moved = std::move(buffer);
  EXPECT_EQ(moved.row_count(), 1u);
  EXPECT_TRUE(buffer.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(buffer.EstimatedBytes(), 0u);
  EXPECT_FALSE(buffer.ColumnTypeOf("service").has_value());
  ASSERT_TRUE(buffer.AddRow(MakeRow(2, "b", 200)).ok());
  EXPECT_EQ(buffer.row_count(), 1u);
}

}  // namespace
}  // namespace scuba
