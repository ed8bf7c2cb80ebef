// Time-bucketed grouping: the per-minute dashboard series.

#include <gtest/gtest.h>

#include <limits>

#include "query/executor.h"
#include "server/aggregator.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::ShmNamespace;
using testing_util::TempDir;

Row EventAt(int64_t time, const std::string& svc = "web") {
  Row row;
  row.SetTime(time);
  row.Set("service", svc);
  row.Set("latency_ms", 1.0);
  return row;
}

TEST(TimeBucketTest, CountsPerBucket) {
  Table table("events");
  // 3 events in [0,60), 2 in [60,120), 1 in [180,240).
  std::vector<Row> rows = {EventAt(5),   EventAt(10), EventAt(59),
                           EventAt(60),  EventAt(119), EventAt(185)};
  ASSERT_TRUE(table.AddRows(rows, 0).ok());

  Query q;
  q.table = "events";
  q.time_bucket_seconds = 60;
  q.aggregates = {Count()};
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto out = result->Finalize(q.aggregates);
  ASSERT_EQ(out.size(), 3u);
  // Chronological order via the order-preserving int key encoding.
  EXPECT_EQ(std::get<int64_t>(out[0].group_key[0]), 0);
  EXPECT_EQ(out[0].aggregates[0], 3.0);
  EXPECT_EQ(std::get<int64_t>(out[1].group_key[0]), 60);
  EXPECT_EQ(out[1].aggregates[0], 2.0);
  EXPECT_EQ(std::get<int64_t>(out[2].group_key[0]), 180);
  EXPECT_EQ(out[2].aggregates[0], 1.0);
}

TEST(TimeBucketTest, BucketComposesWithGroupBy) {
  Table table("events");
  std::vector<Row> rows = {EventAt(5, "web"), EventAt(10, "api"),
                           EventAt(65, "web"), EventAt(70, "web")};
  ASSERT_TRUE(table.AddRows(rows, 0).ok());

  Query q;
  q.table = "events";
  q.time_bucket_seconds = 60;
  q.group_by = {"service"};
  q.aggregates = {Count()};
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok());
  auto out = result->Finalize(q.aggregates);
  ASSERT_EQ(out.size(), 3u);
  // (0, api)=1, (0, web)=1, (60, web)=2; bucket is the FIRST key element.
  EXPECT_EQ(std::get<int64_t>(out[0].group_key[0]), 0);
  EXPECT_EQ(std::get<std::string>(out[0].group_key[1]), "api");
  EXPECT_EQ(std::get<int64_t>(out[2].group_key[0]), 60);
  EXPECT_EQ(out[2].aggregates[0], 2.0);
}

TEST(TimeBucketTest, NegativeTimesFloorConsistently) {
  Table table("events");
  std::vector<Row> rows = {EventAt(-1), EventAt(-60), EventAt(-61),
                           EventAt(0)};
  ASSERT_TRUE(table.AddRows(rows, 0).ok());
  Query q;
  q.table = "events";
  q.begin_time = std::numeric_limits<int64_t>::min();
  q.time_bucket_seconds = 60;
  q.aggregates = {Count()};
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok());
  auto out = result->Finalize(q.aggregates);
  // Buckets: [-120,-60) holds -61; [-60,0) holds -60 and -1; [0,60) holds 0.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(out[0].group_key[0]), -120);
  EXPECT_EQ(out[0].aggregates[0], 1.0);
  EXPECT_EQ(std::get<int64_t>(out[1].group_key[0]), -60);
  EXPECT_EQ(out[1].aggregates[0], 2.0);
}

TEST(TimeBucketTest, BucketsNearInt64MinStayDefined) {
  // With w = 3, floor(INT64_MIN / 3) * 3 lies below INT64_MIN: that bucket
  // starts at INT64_MIN instead. Both engines must agree.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Table table("events");
  std::vector<Row> rows = {EventAt(kMin), EventAt(kMin + 1),
                           EventAt(kMin + 2), EventAt(kMin + 3)};
  ASSERT_TRUE(table.AddRows(rows, 0).ok());
  Query q;
  q.table = "events";
  q.begin_time = kMin;
  q.time_bucket_seconds = 3;
  q.aggregates = {Count()};
  for (bool scalar : {false, true}) {
    auto result = scalar ? LeafExecutor::ExecuteScalar(table, q)
                         : LeafExecutor::Execute(table, q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto out = result->Finalize(q.aggregates);
    ASSERT_EQ(out.size(), 2u) << "scalar=" << scalar;
    EXPECT_EQ(std::get<int64_t>(out[0].group_key[0]), kMin);
    EXPECT_EQ(out[0].aggregates[0], 2.0);
    EXPECT_EQ(std::get<int64_t>(out[1].group_key[0]), kMin + 2);
    EXPECT_EQ(out[1].aggregates[0], 2.0);
  }
}

TEST(TimeBucketTest, MergesAcrossLeaves) {
  ShmNamespace ns("tb1");
  TempDir dir("tb1");
  std::vector<std::unique_ptr<LeafServer>> leaves;
  Aggregator aggregator;
  for (uint32_t i = 0; i < 2; ++i) {
    LeafServerConfig config;
    config.leaf_id = i;
    config.namespace_prefix = ns.prefix();
    config.backup_dir = dir.path() + "/leaf_" + std::to_string(i);
    leaves.push_back(std::make_unique<LeafServer>(config));
    ASSERT_TRUE(leaves.back()->Start().ok());
    aggregator.AddLeaf(leaves.back().get());
  }
  // Bucket [0,60): 2 rows on leaf 0, 3 on leaf 1.
  ASSERT_TRUE(leaves[0]->AddRows("events", {EventAt(1), EventAt(2)}).ok());
  ASSERT_TRUE(
      leaves[1]->AddRows("events", {EventAt(3), EventAt(4), EventAt(5)})
          .ok());

  Query q;
  q.table = "events";
  q.time_bucket_seconds = 60;
  q.aggregates = {Count()};
  auto result = aggregator.Execute(q);
  ASSERT_TRUE(result.ok());
  auto out = result->Finalize(q.aggregates);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].aggregates[0], 5.0);
}

TEST(TimeBucketTest, ZeroMeansDisabledNegativeRejected) {
  Table table("events");
  ASSERT_TRUE(table.AddRows({EventAt(5)}, 0).ok());
  Query q;
  q.table = "events";
  q.aggregates = {Count()};
  q.time_bucket_seconds = 0;
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Finalize(q.aggregates)[0].group_key.empty());

  q.time_bucket_seconds = -5;
  EXPECT_TRUE(LeafExecutor::Execute(table, q).status().IsInvalidArgument());
}

TEST(TimeBucketTest, PercentilePerBucket) {
  Table table("events");
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    Row row;
    row.SetTime(i < 50 ? 10 : 70);             // two buckets
    row.Set("latency_ms", i < 50 ? 5.0 : 50.0);  // distinct latencies
    rows.push_back(row);
  }
  ASSERT_TRUE(table.AddRows(rows, 0).ok());
  Query q;
  q.table = "events";
  q.time_bucket_seconds = 60;
  q.aggregates = {P50("latency_ms")};
  auto result = LeafExecutor::Execute(table, q);
  ASSERT_TRUE(result.ok());
  auto out = result->Finalize(q.aggregates);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NEAR(out[0].aggregates[0], 5.0, 0.5);
  EXPECT_NEAR(out[1].aggregates[0], 50.0, 5.0);
}

}  // namespace
}  // namespace scuba
