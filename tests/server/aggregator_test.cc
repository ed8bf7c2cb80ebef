#include "server/aggregator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() : ns_("agg"), dir_("agg") {}

  void StartLeaves(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      LeafServerConfig config;
      config.leaf_id = static_cast<uint32_t>(i);
      config.namespace_prefix = ns_.prefix();
      config.backup_dir = dir_.path() + "/leaf_" + std::to_string(i);
      leaves_.push_back(std::make_unique<LeafServer>(config));
      ASSERT_TRUE(leaves_.back()->Start().ok());
      aggregator_.AddLeaf(leaves_.back().get());
    }
  }

  Query CountQuery(const std::string& table) {
    Query q;
    q.table = table;
    q.aggregates = {Count()};
    return q;
  }

  ShmNamespace ns_;
  TempDir dir_;
  std::vector<std::unique_ptr<LeafServer>> leaves_;
  Aggregator aggregator_;
};

TEST_F(AggregatorTest, MergesAcrossLeaves) {
  StartLeaves(4);
  // Spread 1000 rows over 4 leaves (250 each).
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        leaves_[i]->AddRows("events", MakeRows(250, 1000 + i)).ok());
  }
  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->leaves_total, 4u);
  EXPECT_EQ(result->leaves_responded, 4u);
  EXPECT_FALSE(result->IsPartial());
  auto rows = result->Finalize({Count()});
  EXPECT_EQ(rows[0].aggregates[0], 1000.0);
}

TEST_F(AggregatorTest, CrashedLeafYieldsPartialNotShortCount) {
  StartLeaves(2);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        leaves_[i]->AddRows("events", MakeRows(250, 1000 + i)).ok());
  }
  // A crashed leaf answers nothing: its empty map must never be merged as
  // a complete (and short) answer, and it takes no more ingest.
  leaves_[1]->Crash();
  EXPECT_TRUE(leaves_[1]->ExecuteQuery(CountQuery("events"))
                  .status()
                  .IsUnavailable());
  EXPECT_TRUE(
      leaves_[1]->AddRows("events", MakeRows(10, 2000)).IsUnavailable());

  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->leaves_total, 2u);
  EXPECT_EQ(result->leaves_responded, 1u);
  EXPECT_TRUE(result->IsPartial());
  auto rows = result->Finalize({Count()});
  EXPECT_EQ(rows[0].aggregates[0], 250.0);  // leaf 0's rows only
}

TEST_F(AggregatorTest, PartialResultsWhenLeafRestarting) {
  StartLeaves(4);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        leaves_[i]->AddRows("events", MakeRows(250, 1000 + i)).ok());
  }
  // Take one leaf down (clean shutdown -> EXIT: rejects queries).
  ShutdownStats stats;
  ASSERT_TRUE(leaves_[2]->ShutdownToSharedMemory(&stats).ok());

  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->leaves_total, 4u);
  EXPECT_EQ(result->leaves_responded, 3u);
  EXPECT_TRUE(result->IsPartial());
  auto rows = result->Finalize({Count()});
  EXPECT_EQ(rows[0].aggregates[0], 750.0);  // missing leaf 2's 250 rows
}

TEST_F(AggregatorTest, AvailableFractionTracksStates) {
  StartLeaves(4);
  EXPECT_DOUBLE_EQ(aggregator_.AvailableFraction(), 1.0);
  ShutdownStats stats;
  ASSERT_TRUE(leaves_[0]->ShutdownToSharedMemory(&stats).ok());
  EXPECT_DOUBLE_EQ(aggregator_.AvailableFraction(), 0.75);
}

TEST_F(AggregatorTest, GroupByMergesSemantically) {
  StartLeaves(2);
  // Leaf 0: 10 "web" rows; leaf 1: 5 "web" + 5 "api" rows.
  std::vector<Row> web_rows, mixed_rows;
  for (int i = 0; i < 10; ++i) {
    Row row;
    row.SetTime(100 + i);
    row.Set("service", std::string("web"));
    row.Set("latency_ms", 10.0);
    web_rows.push_back(row);
  }
  for (int i = 0; i < 10; ++i) {
    Row row;
    row.SetTime(100 + i);
    row.Set("service", std::string(i < 5 ? "web" : "api"));
    row.Set("latency_ms", 20.0);
    mixed_rows.push_back(row);
  }
  ASSERT_TRUE(leaves_[0]->AddRows("requests", web_rows).ok());
  ASSERT_TRUE(leaves_[1]->AddRows("requests", mixed_rows).ok());

  Query q;
  q.table = "requests";
  q.group_by = {"service"};
  q.aggregates = {Count(), Avg("latency_ms")};
  auto result = aggregator_.Execute(q);
  ASSERT_TRUE(result.ok());
  auto rows = result->Finalize(q.aggregates);
  ASSERT_EQ(rows.size(), 2u);
  // api: 5 rows at 20ms. web: 15 rows, avg (10*10 + 5*20)/15.
  EXPECT_EQ(std::get<std::string>(rows[0].group_key[0]), "api");
  EXPECT_EQ(rows[0].aggregates[0], 5.0);
  EXPECT_DOUBLE_EQ(rows[0].aggregates[1], 20.0);
  EXPECT_EQ(rows[1].aggregates[0], 15.0);
  EXPECT_DOUBLE_EQ(rows[1].aggregates[1], (100.0 + 100.0) / 15.0);
}

TEST_F(AggregatorTest, RealQueryErrorsPropagate) {
  StartLeaves(2);
  ASSERT_TRUE(leaves_[0]->AddRows("events", MakeRows(10)).ok());
  Query bad;
  bad.table = "events";
  bad.aggregates = {Sum("service")};  // aggregate over string
  EXPECT_TRUE(aggregator_.Execute(bad).status().IsInvalidArgument());
}

TEST_F(AggregatorTest, ParallelFanoutMatchesSequential) {
  StartLeaves(4);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        leaves_[i]->AddRows("events", MakeRows(500, 1000 + i, i + 1)).ok());
  }
  Query q;
  q.table = "events";
  q.group_by = {"service"};
  q.aggregates = {Count(), Sum("latency_ms"), P99("latency_ms")};

  auto sequential = aggregator_.Execute(q);
  ASSERT_TRUE(sequential.ok());
  aggregator_.SetParallelFanout(true);
  auto parallel = aggregator_.Execute(q);
  ASSERT_TRUE(parallel.ok());

  auto a = sequential->Finalize(q.aggregates);
  auto b = parallel->Finalize(q.aggregates);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_TRUE(a[r].group_key == b[r].group_key);
    for (size_t c = 0; c < a[r].aggregates.size(); ++c) {
      // Merge order differs between runs, so sums may differ in the last
      // ulp; counts/percentiles are exact.
      EXPECT_NEAR(a[r].aggregates[c], b[r].aggregates[c],
                  std::abs(a[r].aggregates[c]) * 1e-12);
    }
  }
  EXPECT_EQ(parallel->leaves_responded, 4u);
}

TEST_F(AggregatorTest, ParallelFanoutHandlesUnavailableLeaves) {
  StartLeaves(4);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        leaves_[i]->AddRows("events", MakeRows(100, 1000 + i)).ok());
  }
  ShutdownStats stats;
  ASSERT_TRUE(leaves_[1]->ShutdownToSharedMemory(&stats).ok());
  aggregator_.SetParallelFanout(true);
  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsPartial());
  EXPECT_EQ(result->leaves_responded, 3u);
  EXPECT_EQ(result->Finalize({Count()})[0].aggregates[0], 300.0);
}

TEST_F(AggregatorTest, NoLeavesMeansEmptyResult) {
  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->leaves_total, 0u);
  EXPECT_EQ(result->num_groups(), 0u);
  EXPECT_DOUBLE_EQ(aggregator_.AvailableFraction(), 1.0);
}

}  // namespace
}  // namespace scuba
