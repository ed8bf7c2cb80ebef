#include "columnar/schema.h"

#include <gtest/gtest.h>

namespace scuba {
namespace {

Schema MakeSchema() {
  Schema schema;
  schema.AddColumn("time", ColumnType::kInt64);
  schema.AddColumn("service", ColumnType::kString);
  schema.AddColumn("latency_ms", ColumnType::kDouble);
  return schema;
}

TEST(SchemaTest, FindColumn) {
  Schema schema = MakeSchema();
  EXPECT_EQ(schema.num_columns(), 3u);
  ASSERT_TRUE(schema.FindColumn("service").has_value());
  EXPECT_EQ(*schema.FindColumn("service"), 1u);
  EXPECT_FALSE(schema.FindColumn("missing").has_value());
}

TEST(SchemaTest, OfRowsIsTheBatchUnionInFirstSeenOrder) {
  auto row = [](int64_t time, const std::string& field, Value value) {
    Row r;
    r.SetTime(time);
    r.Set(field, std::move(value));
    return r;
  };
  auto schema = Schema::OfRows({row(1, "x", int64_t{1}), row(2, "y", 1.5),
                                row(3, "x", int64_t{2})});
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(*schema, Schema({{"time", ColumnType::kInt64},
                             {"x", ColumnType::kInt64},
                             {"y", ColumnType::kDouble}}));
  // A field with two types within the batch, across rows laid out
  // differently.
  EXPECT_TRUE(Schema::OfRows({row(1, "x", int64_t{1}), row(2, "y", 1.5),
                              row(3, "x", std::string("one"))})
                  .status()
                  .IsInvalidArgument());
  Row untimed;
  untimed.Set("x", int64_t{1});
  EXPECT_TRUE(Schema::OfRows({row(1, "x", int64_t{1}), untimed})
                  .status()
                  .IsInvalidArgument());
  Row string_time;
  string_time.Set("time", std::string("noon"));
  EXPECT_TRUE(Schema::OfRows({string_time}).status().IsInvalidArgument());
  auto empty = Schema::OfRows({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_columns(), 0u);
}

TEST(SchemaTest, SerializationRoundTrip) {
  Schema schema = MakeSchema();
  ByteBuffer buf;
  schema.Serialize(&buf);
  Slice in = buf.AsSlice();
  auto parsed = Schema::Parse(&in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, schema);
  EXPECT_TRUE(in.empty());
}

TEST(SchemaTest, EmptySchemaRoundTrips) {
  Schema schema;
  ByteBuffer buf;
  schema.Serialize(&buf);
  Slice in = buf.AsSlice();
  auto parsed = Schema::Parse(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_columns(), 0u);
}

TEST(SchemaTest, ParseLeavesTrailingBytes) {
  Schema schema = MakeSchema();
  ByteBuffer buf;
  schema.Serialize(&buf);
  buf.Append("tail", 4);
  Slice in = buf.AsSlice();
  ASSERT_TRUE(Schema::Parse(&in).ok());
  EXPECT_EQ(in.size(), 4u);
}

TEST(SchemaTest, TruncatedInputIsCorruption) {
  Schema schema = MakeSchema();
  ByteBuffer buf;
  schema.Serialize(&buf);
  for (size_t cut = 1; cut < buf.size(); cut += 3) {
    Slice in(buf.data(), buf.size() - cut);
    EXPECT_FALSE(Schema::Parse(&in).ok()) << "cut " << cut;
  }
}

TEST(SchemaTest, InvalidTypeByteIsCorruption) {
  ByteBuffer buf;
  Schema schema;
  schema.AddColumn("x", ColumnType::kInt64);
  schema.Serialize(&buf);
  buf.data()[buf.size() - 1] = 99;  // clobber the type byte
  Slice in = buf.AsSlice();
  EXPECT_FALSE(Schema::Parse(&in).ok());
}

TEST(TypesTest, ValueTypeAndDefaults) {
  EXPECT_EQ(ValueType(Value(int64_t{5})), ColumnType::kInt64);
  EXPECT_EQ(ValueType(Value(2.5)), ColumnType::kDouble);
  EXPECT_EQ(ValueType(Value(std::string("x"))), ColumnType::kString);
  EXPECT_EQ(std::get<int64_t>(DefaultValue(ColumnType::kInt64)), 0);
  EXPECT_EQ(std::get<double>(DefaultValue(ColumnType::kDouble)), 0.0);
  EXPECT_EQ(std::get<std::string>(DefaultValue(ColumnType::kString)), "");
}

}  // namespace
}  // namespace scuba
