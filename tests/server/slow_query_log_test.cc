// The self-hosted slow-query log: slow / sampled queries become rows in
// `__scuba_queries`, queryable through the aggregator like any table; the
// self-amplification guards keep `__scuba*` queries out of the log, the
// per-table histograms, and the sampler; errors and unavailability are
// attributed to specific leaves in the profile.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats_exporter.h"
#include "server/aggregator.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

class SlowQueryLogTest : public ::testing::Test {
 protected:
  SlowQueryLogTest() : ns_("slowlog"), dir_("slowlog") {}

  void StartLeaves(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      LeafServerConfig config;
      config.leaf_id = static_cast<uint32_t>(i);
      config.namespace_prefix = ns_.prefix();
      config.backup_dir = dir_.path() + "/leaf_" + std::to_string(i);
      config.self_stats_enabled = true;
      // Tests drive export cycles; the periodic thread would add noise.
      config.self_stats_period_millis = 3600 * 1000;
      leaves_.push_back(std::make_unique<LeafServer>(config));
      ASSERT_TRUE(leaves_.back()->Start().ok());
      aggregator_.AddLeaf(leaves_.back().get());
      ASSERT_TRUE(
          leaves_.back()->AddRows("events", MakeRows(200, 1000 + i)).ok());
    }
  }

  Query CountQuery(const std::string& table) {
    Query q;
    q.table = table;
    q.aggregates = {Count()};
    return q;
  }

  // Rows currently in `__scuba_queries` (across all leaves) whose `kind`
  // matches, counted through the aggregator — the log is itself data.
  double CountLogRows(const std::string& kind = "") {
    Query q = CountQuery(obs::kQueriesTableName);
    if (!kind.empty()) {
      q.predicates.push_back({"kind", CompareOp::kEq, Value(kind)});
    }
    auto result = aggregator_.Execute(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1.0;
    auto rows = result->Finalize({Count()});
    return rows.empty() ? 0.0 : rows[0].aggregates[0];
  }

  // Rows in one leaf's own `__scuba_queries` shard.
  double CountLeafLogRows(size_t leaf) {
    auto result =
        leaves_[leaf]->ExecuteQuery(CountQuery(obs::kQueriesTableName));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1.0;
    auto rows = result->Finalize({Count()});
    return rows.empty() ? 0.0 : rows[0].aggregates[0];
  }

  ShmNamespace ns_;
  TempDir dir_;
  std::vector<std::unique_ptr<LeafServer>> leaves_;
  Aggregator aggregator_;
};

TEST_F(SlowQueryLogTest, SlowQueryRowQueryableThroughAggregator) {
  StartLeaves(2);
  aggregator_.SetSlowQueryLog(/*threshold_micros=*/1, /*sample_every_n=*/0);

  ASSERT_EQ(CountLogRows(), 0.0);
  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(CountLogRows("slow"), 1.0);
  // The row rode the first live leaf's exporter.
  EXPECT_EQ(CountLeafLogRows(0), 1.0);

  // The row carries the fingerprint and profile counters as columns.
  Query q = CountQuery(obs::kQueriesTableName);
  q.predicates.push_back(
      {"table", CompareOp::kEq, Value(std::string("events"))});
  q.group_by = {"fingerprint"};
  auto log = aggregator_.Execute(q);
  ASSERT_TRUE(log.ok());
  auto rows = log->Finalize({Count()});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rows[0].group_key[0]),
            CountQuery("events").Fingerprint());
}

TEST_F(SlowQueryLogTest, SampledQueriesGetKindSample) {
  StartLeaves(2);
  // No threshold; every 2nd non-system query sampled (first included).
  aggregator_.SetSlowQueryLog(/*threshold_micros=*/0, /*sample_every_n=*/2);

  ASSERT_TRUE(aggregator_.Execute(CountQuery("events")).ok());  // sampled
  ASSERT_TRUE(aggregator_.Execute(CountQuery("events")).ok());  // skipped
  ASSERT_TRUE(aggregator_.Execute(CountQuery("events")).ok());  // sampled

  EXPECT_EQ(CountLogRows("sample"), 2.0);
  EXPECT_EQ(CountLogRows("slow"), 0.0);
}

TEST_F(SlowQueryLogTest, SystemTableQueriesNeverLoggedOrSampled) {
  StartLeaves(2);
  aggregator_.SetSlowQueryLog(/*threshold_micros=*/1, /*sample_every_n=*/1);

  // Hammer the system tables: none of these may produce a log row, or the
  // log would feed itself.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(aggregator_.Execute(CountQuery(obs::kQueriesTableName)).ok());
    ASSERT_TRUE(aggregator_.Execute(CountQuery(obs::kStatsTableName)).ok());
  }
  EXPECT_EQ(CountLogRows(), 0.0);

  // System tables get no per-table latency histogram either.
  auto snapshot = obs::MetricsRegistry::Global().TakeRegistrySnapshot();
  for (const auto& [name, hist] : snapshot.histograms) {
    EXPECT_EQ(name.find("query_latency_micros.__scuba"), std::string::npos)
        << name;
  }

  // A normal query is still logged.
  ASSERT_TRUE(aggregator_.Execute(CountQuery("events")).ok());
  EXPECT_EQ(CountLeafLogRows(0), 1.0);
}

// The PR-4-style bounded-width regression: 100 cycles of (user query +
// log inspection + export cycle) grow the log by exactly one row per user
// query — reading the log, and exporting stats, never amplifies it.
TEST_F(SlowQueryLogTest, HundredCyclesBoundedWidth) {
  StartLeaves(2);
  aggregator_.SetSlowQueryLog(/*threshold_micros=*/1, /*sample_every_n=*/0);

  for (int cycle = 0; cycle < 100; ++cycle) {
    ASSERT_TRUE(aggregator_.Execute(CountQuery("events")).ok());
    ASSERT_GE(CountLogRows(), 0.0);  // reading the log is itself a query
    if (cycle % 10 == 0) {
      ASSERT_TRUE(leaves_[0]->stats_exporter()->ExportOnce().ok());
    }
  }
  EXPECT_EQ(CountLogRows(), 100.0);
  EXPECT_EQ(CountLeafLogRows(0), 100.0);
}

TEST_F(SlowQueryLogTest, ErrorAttributedToOffendingLeaf) {
  StartLeaves(2);
  // Leaf 0 holds numeric payloads, leaf 1 strings: Sum("payload") fails
  // only on leaf 1, and the error must say so.
  std::vector<Row> good, bad;
  for (int i = 0; i < 10; ++i) {
    Row g;
    g.SetTime(2000 + i);
    g.Set("payload", 1.5);
    good.push_back(g);
    Row b;
    b.SetTime(2000 + i);
    b.Set("payload", std::string("oops"));
    bad.push_back(b);
  }
  ASSERT_TRUE(leaves_[0]->AddRows("mixed", good).ok());
  ASSERT_TRUE(leaves_[1]->AddRows("mixed", bad).ok());

  Query q;
  q.table = "mixed";
  q.aggregates = {Sum("payload")};

  for (bool parallel : {false, true}) {
    aggregator_.SetParallelFanout(parallel);
    Status status = aggregator_.Execute(q).status();
    ASSERT_FALSE(status.ok()) << (parallel ? "parallel" : "sequential");
    EXPECT_NE(status.message().find("leaf 1:"), std::string::npos)
        << (parallel ? "parallel" : "sequential") << ": "
        << status.ToString();
  }
}

TEST_F(SlowQueryLogTest, UnavailableLeafRecordedInProfile) {
  StartLeaves(3);
  ShutdownStats stats;
  ASSERT_TRUE(leaves_[1]->ShutdownToSharedMemory(&stats).ok());

  for (bool parallel : {false, true}) {
    aggregator_.SetParallelFanout(parallel);
    auto result = aggregator_.Execute(CountQuery("events"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->profile().leaves_total, 3u);
    EXPECT_EQ(result->profile().leaves_responded, 2u);
    ASSERT_EQ(result->profile().unavailable_leaves.size(), 1u);
    EXPECT_EQ(result->profile().unavailable_leaves[0], 1u);
  }
}

TEST_F(SlowQueryLogTest, ParallelFanoutRecordsQueueWait) {
  StartLeaves(4);
  aggregator_.SetParallelFanout(true);

  auto before = obs::MetricsRegistry::Global()
                    .GetHistogram("scuba.server.aggregator."
                                  "fanout_queue_wait_micros")
                    ->TakeSnapshot();
  auto result = aggregator_.Execute(CountQuery("events"));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->profile().fanout_queue_wait_micros, 0);
  auto after = obs::MetricsRegistry::Global()
                   .GetHistogram("scuba.server.aggregator."
                                 "fanout_queue_wait_micros")
                   ->TakeSnapshot();
  // One sample per responding leaf.
  EXPECT_EQ(after.count - before.count, 4u);
}

}  // namespace
}  // namespace scuba
