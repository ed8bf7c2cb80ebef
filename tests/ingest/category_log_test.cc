#include "ingest/category_log.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;

TEST(CategoryLogTest, AppendAndRead) {
  CategoryLog log;
  log.AppendBatch("events", MakeRows(100));
  EXPECT_EQ(log.Size("events"), 100u);
  EXPECT_EQ(log.Size("other"), 0u);

  std::vector<Row> out;
  EXPECT_EQ(log.Read("events", 0, 30, &out), 30u);
  EXPECT_EQ(out.size(), 30u);
  out.clear();
  EXPECT_EQ(log.Read("events", 90, 30, &out), 10u);  // clipped at end
  out.clear();
  EXPECT_EQ(log.Read("events", 100, 30, &out), 0u);  // caught up
  EXPECT_EQ(log.Read("missing", 0, 30, &out), 0u);
}

TEST(CategoryLogTest, SingleAppend) {
  CategoryLog log;
  Row row;
  row.SetTime(5);
  log.Append("events", row);
  EXPECT_EQ(log.Size("events"), 1u);
  std::vector<Row> out;
  ASSERT_EQ(log.Read("events", 0, 10, &out), 1u);
  EXPECT_EQ(out[0].Time(), 5);
}

TEST(CategoryLogTest, ReadAppendsToExistingVector) {
  CategoryLog log;
  log.AppendBatch("a", MakeRows(5, 100));
  log.AppendBatch("b", MakeRows(5, 200));
  std::vector<Row> out;
  log.Read("a", 0, 5, &out);
  log.Read("b", 0, 5, &out);
  EXPECT_EQ(out.size(), 10u);
}

TEST(CategoryLogTest, CategoriesLists) {
  CategoryLog log;
  log.AppendBatch("zeta", MakeRows(1));
  log.AppendBatch("alpha", MakeRows(1));
  auto cats = log.Categories();
  EXPECT_EQ(cats.size(), 2u);
}

TEST(CategoryLogTest, OffsetsAreStable) {
  CategoryLog log;
  log.AppendBatch("events", MakeRows(10, 100));
  std::vector<Row> first;
  log.Read("events", 3, 2, &first);
  log.AppendBatch("events", MakeRows(10, 200));
  std::vector<Row> second;
  log.Read("events", 3, 2, &second);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(first[0].Time(), second[0].Time());
}

// Many small batches (the tailer's shape): every row reads back in append
// order, each with the stamp taken when its batch was appended.
TEST(CategoryLogTest, ManyBatchesReadBackInOrderWithStamps) {
  constexpr int kBatches = 2000;
  constexpr int kBatchRows = 128;
  CategoryLog log;
  std::vector<std::pair<int64_t, int64_t>> stamp_bounds;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Row> batch(kBatchRows);
    for (int r = 0; r < kBatchRows; ++r) {
      batch[r].SetTime(int64_t{b} * kBatchRows + r);
    }
    const int64_t lo = CategoryLog::SteadyNowMicros();
    log.AppendBatch("events", std::move(batch));
    stamp_bounds.emplace_back(lo, CategoryLog::SteadyNowMicros());
  }
  ASSERT_EQ(log.Size("events"), uint64_t{kBatches} * kBatchRows);

  int64_t last_stamp = 0;
  std::vector<Row> out;
  for (uint64_t i = 0; i < log.Size("events"); ++i) {
    out.clear();
    int64_t stamp = -1;
    ASSERT_EQ(log.Read("events", i, 1, &out, &stamp), 1u);
    ASSERT_EQ(out[0].Time(), static_cast<int64_t>(i));
    const auto& [lo, hi] = stamp_bounds[i / kBatchRows];
    ASSERT_GE(stamp, lo) << "row " << i;
    ASSERT_LE(stamp, hi) << "row " << i;
    ASSERT_GE(stamp, last_stamp) << "row " << i;
    last_stamp = stamp;
  }
}

}  // namespace
}  // namespace scuba
