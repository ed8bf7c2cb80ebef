// Golden invariant, property-style: for randomized workloads, query
// results are IDENTICAL before and after every recovery path —
//   (a) shutdown-to-shm -> restore-from-shm            (planned upgrade)
//   (b) crash -> row-major disk recovery               (paper's format)
//   (c) crash -> columnar disk recovery                (§6's format)
// — each both blocking and instant (queries served while the restore
// engine drains, and again once the leaf is ALIVE). Aggregations
// accumulate in row order, which every path preserves, so even
// floating-point sums must match bit for bit.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "ingest/row_generator.h"
#include "query/executor.h"
#include "server/leaf_server.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::ShmNamespace;
using testing_util::TempDir;

// The query battery every scenario is checked against.
std::vector<Query> QueryBattery() {
  std::vector<Query> queries;
  {
    Query q;
    q.table = "service_logs";
    q.aggregates = {Count(), Sum("bytes_out"), Min("latency_ms"),
                    Max("latency_ms"), Avg("latency_ms")};
    queries.push_back(q);
  }
  {
    Query q;
    q.table = "service_logs";
    q.group_by = {"service"};
    q.aggregates = {Count(), Sum("latency_ms")};
    queries.push_back(q);
  }
  {
    Query q;
    q.table = "service_logs";
    q.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
    q.group_by = {"endpoint"};
    q.aggregates = {Count(), P99("latency_ms")};
    queries.push_back(q);
  }
  {
    Query q;
    q.table = "service_logs";
    q.time_bucket_seconds = 7;
    q.aggregates = {Count(), Avg("bytes_out")};
    queries.push_back(q);
  }
  return queries;
}

std::vector<std::vector<ResultRow>> Snapshot(LeafServer* leaf) {
  std::vector<std::vector<ResultRow>> results;
  for (const Query& q : QueryBattery()) {
    auto result = leaf->ExecuteQuery(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(result->Finalize(q.aggregates));
  }
  return results;
}

void ExpectIdentical(const std::vector<std::vector<ResultRow>>& a,
                     const std::vector<std::vector<ResultRow>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (size_t r = 0; r < a[q].size(); ++r) {
      EXPECT_TRUE(a[q][r].group_key == b[q][r].group_key)
          << "query " << q << " row " << r;
      ASSERT_EQ(a[q][r].aggregates.size(), b[q][r].aggregates.size());
      for (size_t c = 0; c < a[q][r].aggregates.size(); ++c) {
        EXPECT_DOUBLE_EQ(a[q][r].aggregates[c], b[q][r].aggregates[c])
            << "query " << q << " row " << r << " agg " << c;
      }
    }
  }
}

struct Scenario {
  const char* name;
  BackupFormatKind format;
  bool crash;  // false = clean shm handoff
  RecoverySource expected_source;
  bool instant;
};

class RoundTripPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

const Scenario kScenarios[] = {
    {"shm", BackupFormatKind::kRowMajor, false,
     RecoverySource::kSharedMemory, false},
    {"rowmajor_disk", BackupFormatKind::kRowMajor, true,
     RecoverySource::kDisk, false},
    {"columnar_disk", BackupFormatKind::kColumnar, true,
     RecoverySource::kDisk, false},
    {"shm_instant", BackupFormatKind::kRowMajor, false,
     RecoverySource::kSharedMemory, true},
    {"rowmajor_disk_instant", BackupFormatKind::kRowMajor, true,
     RecoverySource::kDisk, true},
    {"columnar_disk_instant", BackupFormatKind::kColumnar, true,
     RecoverySource::kDisk, true},
};

TEST_P(RoundTripPropertyTest, QueriesIdenticalAcrossRecovery) {
  auto [seed, scenario_index] = GetParam();
  const Scenario& scenario = kScenarios[scenario_index];

  ShmNamespace ns("prop" + std::to_string(seed) + "_" +
                  std::to_string(scenario_index));
  TempDir dir("prop" + std::to_string(seed) + "_" +
              std::to_string(scenario_index));

  LeafServerConfig config;
  config.leaf_id = 0;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path() + "/leaf";
  config.backup_format = scenario.format;

  std::vector<std::vector<ResultRow>> before;
  {
    LeafServer leaf(config);
    ASSERT_TRUE(leaf.Start().ok());
    RowGeneratorConfig gconfig;
    gconfig.seed = seed;
    RowGenerator gen(gconfig);
    Random random(seed * 31 + 7);
    // Random batch sizes; total large enough to seal blocks sometimes.
    size_t remaining = 20000 + random.Uniform(80000);
    while (remaining > 0) {
      size_t n = std::min<size_t>(remaining, 1 + random.Uniform(9000));
      ASSERT_TRUE(leaf.AddRows("service_logs", gen.NextBatch(n)).ok());
      remaining -= n;
    }
    before = Snapshot(&leaf);

    if (scenario.crash) {
      leaf.Crash();
    } else {
      ShutdownStats stats;
      ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
    }
  }

  config.instant_restore_enabled = scenario.instant;
  LeafServer recovered(config);
  auto started = recovered.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_EQ(started->source, scenario.expected_source) << scenario.name;

  ExpectIdentical(before, Snapshot(&recovered));
  if (scenario.instant) {
    for (int i = 0; i < 5000 && recovered.state() != LeafState::kAlive; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(recovered.state(), LeafState::kAlive);
    ExpectIdentical(before, Snapshot(&recovered));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScenarios, RoundTripPropertyTest,
    ::testing::Combine(::testing::Values(1u, 17u, 99u),
                       ::testing::Values(0, 1, 2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, int>>& info) {
      return std::string(kScenarios[std::get<1>(info.param)].name) + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace scuba
