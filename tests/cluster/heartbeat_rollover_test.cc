#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/dashboard.h"
#include "ingest/row_generator.h"
#include "obs/stats_exporter.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::ShmNamespace;
using testing_util::TempDir;

class HeartbeatRolloverTest : public ::testing::Test {
 protected:
  HeartbeatRolloverTest() : ns_("hbroll"), dir_("hbroll") {}

  ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.num_machines = 1;
    config.leaves_per_machine = 2;
    config.namespace_prefix = ns_.prefix();
    config.backup_root = dir_.path() + "/backups";
    config.self_stats_enabled = true;
    config.self_stats_period_millis = 3600 * 1000;  // explicit cycles only
    return config;
  }

  void Fill(Cluster* cluster, size_t rows = 4000) {
    RowGenerator gen;
    cluster->log().AppendBatch("requests", gen.NextBatch(rows));
    cluster->AddTailer("requests", /*batch_rows=*/256);
    auto pumped = cluster->PumpTailers(true);
    ASSERT_TRUE(pumped.ok());
    ASSERT_EQ(*pumped, rows);
  }

  static Query WorkloadQuery() {
    Query q;
    q.table = "requests";
    q.aggregates = {Count()};
    return q;
  }

  static Query RestartRowsQuery() {
    Query q;
    q.table = obs::kRestartsTableName;
    q.aggregates = {Count()};
    return q;
  }

  static double CountOf(Aggregator& agg, const Query& q) {
    auto result = agg.Execute(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1;
    auto rows = result->Finalize({Count()});
    return rows.empty() ? 0.0 : rows[0].aggregates[0];
  }

  ShmNamespace ns_;
  TempDir dir_;
};

// The monitor observes live restart phases through the heartbeat block and
// records them (with progress bytes) into the rollover timeline, which the
// dashboard renders.
TEST_F(HeartbeatRolloverTest, MonitoredRolloverRecordsLivePhases) {
  Cluster cluster(MakeConfig());
  ASSERT_TRUE(cluster.Start().ok());
  Fill(&cluster);

  // Slow each row-block copy enough for the 5 ms poll to observe the
  // copy_out phase in flight.
  for (size_t i = 0; i < cluster.num_leaves(); ++i) {
    cluster.leaf(i)->SetShutdownBlockHookForTest(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(40)); });
  }

  RealRolloverOptions options;
  options.batch_fraction = 0.5;  // one leaf per batch
  options.heartbeat_poll_millis = 5;
  options.heartbeat_stall_millis = 10'000;  // far above the injected delay
  auto report = cluster.Rollover(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaves_rolled, 2u);
  EXPECT_EQ(report->shm_recoveries, 2u);
  EXPECT_EQ(report->heartbeat_stall_cancels, 0u);
  // Workload data is intact (self-stats rows grow during the rollover, so
  // raw row totals are not comparable).
  EXPECT_EQ(CountOf(cluster.aggregator(), WorkloadQuery()), 4000.0);

  bool saw_live_phase = false;
  for (const DashboardSample& s : report->timeline) {
    if (s.phase == "copy_out" && s.bytes_total > 0) {
      saw_live_phase = true;
      EXPECT_LE(s.bytes_copied, s.bytes_total);
      // The dashboard renders the heartbeat progress for such samples.
      std::string line = Dashboard::RenderDetailedSample(s);
      EXPECT_NE(line.find("copy_out"), std::string::npos);
      EXPECT_NE(line.find('%'), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_live_phase)
      << "no copy_out sample with progress bytes in the timeline";
  cluster.Cleanup();
}

// Fault injection for the phase-aware watchdog: a frozen copy loop stops
// advancing the heartbeat; the monitor cancels the shutdown and the
// successor recovers from disk. No data is lost.
TEST_F(HeartbeatRolloverTest, StalledShutdownIsCancelledAndFallsBackToDisk) {
  Cluster cluster(MakeConfig());
  ASSERT_TRUE(cluster.Start().ok());
  Fill(&cluster);

  // Freeze far longer than the stall threshold on every block copy.
  for (size_t i = 0; i < cluster.num_leaves(); ++i) {
    cluster.leaf(i)->SetShutdownBlockHookForTest(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(600)); });
  }

  RealRolloverOptions options;
  options.batch_fraction = 0.5;
  options.heartbeat_poll_millis = 10;
  options.heartbeat_stall_millis = 120;
  auto report = cluster.Rollover(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaves_rolled, 2u);
  EXPECT_GE(report->heartbeat_stall_cancels, 1u);
  EXPECT_GE(report->watchdog_kills, 1u);
  EXPECT_GE(report->disk_recoveries, 1u);
  // Disk backups make the fallback lossless for workload data.
  EXPECT_EQ(CountOf(cluster.aggregator(), WorkloadQuery()), 4000.0);
  cluster.Cleanup();
}

// Tentpole acceptance: each leaf's __scuba_stats restart history is
// queryable through the aggregator BEFORE the rollover and still there —
// now spanning two process generations — AFTER it, because the system
// table rides the shm handoff.
TEST_F(HeartbeatRolloverTest, RestartHistorySurvivesRolloverViaAggregator) {
  Cluster cluster(MakeConfig());
  ASSERT_TRUE(cluster.Start().ok());
  Fill(&cluster);

  double before = CountOf(cluster.aggregator(), RestartRowsQuery());
  // One restore row per leaf from generation 1.
  EXPECT_GE(before, 2.0);

  RealRolloverOptions options;
  options.batch_fraction = 0.5;
  auto report = cluster.Rollover(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shm_recoveries, 2u);

  double after = CountOf(cluster.aggregator(), RestartRowsQuery());
  // Generation 1's rows survived AND generation 2 added its own (the
  // predecessor's shutdown summary + its own restore row).
  EXPECT_GE(after, before + 2.0);
  cluster.Cleanup();
}

}  // namespace
}  // namespace scuba
