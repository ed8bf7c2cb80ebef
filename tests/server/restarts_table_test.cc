#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/autopsy.h"
#include "obs/stats_exporter.h"
#include "server/leaf_server.h"
#include "shm/flight_recorder.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

class RestartsTableTest : public ::testing::Test {
 protected:
  RestartsTableTest() : ns_("restarts_tbl"), dir_("restarts_tbl") {}

  LeafServerConfig MakeConfig() {
    LeafServerConfig config;
    config.leaf_id = 0;
    config.namespace_prefix = ns_.prefix();
    config.backup_dir = dir_.path();
    config.self_stats_enabled = true;
    config.self_stats_period_millis = 3600 * 1000;  // explicit cycles only
    return config;
  }

  static Query RestartsCount(const std::string& kind = "",
                             const std::string& outcome = "") {
    Query q;
    q.table = obs::kRestartsTableName;
    if (!kind.empty()) {
      q.predicates.push_back({"kind", CompareOp::kEq, Value(kind)});
    }
    if (!outcome.empty()) {
      q.predicates.push_back({"outcome", CompareOp::kEq, Value(outcome)});
    }
    q.aggregates = {Count()};
    return q;
  }

  static double CountOf(LeafServer& leaf, const Query& q) {
    auto result = leaf.ExecuteQuery(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1;
    auto rows = result->Finalize({Count()});
    return rows.empty() ? 0.0 : rows[0].aggregates[0];
  }

  ShmNamespace ns_;
  TempDir dir_;
};

TEST_F(RestartsTableTest, FreshStartWritesOneRestoreRowOnly) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  // No predecessor: no autopsy, no shutdown row — just this generation's
  // own recovery row.
  EXPECT_FALSE(leaf.last_autopsy().has_events);
  EXPECT_EQ(CountOf(leaf, RestartsCount()), 1.0);
  EXPECT_EQ(CountOf(leaf, RestartsCount("restore", "ok")), 1.0);
  EXPECT_EQ(CountOf(leaf, RestartsCount("shutdown")), 0.0);
}

TEST_F(RestartsTableTest, CleanHandoffWritesShutdownAndRestoreRows) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("requests", MakeRows(200)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->source, RecoverySource::kSharedMemory);

  const Autopsy& a = successor.last_autopsy();
  ASSERT_TRUE(a.has_events);
  EXPECT_EQ(a.outcome, "clean-exit");
  EXPECT_EQ(a.pred_generation, 1u);

  // Generation 1's fresh-start row rode the handoff; generation 2 added
  // the predecessor's shutdown summary and its own shm restore row.
  EXPECT_EQ(CountOf(successor, RestartsCount("shutdown", "clean-exit")), 1.0);
  EXPECT_EQ(CountOf(successor, RestartsCount("restore", "ok")), 2.0);
  EXPECT_EQ(CountOf(successor, RestartsCount("restore", "crash-fallback")),
            0.0);
}

// The §4.3 bad case at leaf scope: the copy engine is cancelled mid-copy
// (the watchdog's targeted kill), the successor disk-recovers, and the
// successor's autopsy carries the predecessor's final events — the
// cancel, the phases, the table whose copy began but never ended — with
// the restore row marked crash-fallback.
TEST_F(RestartsTableTest, CancelledCopyYieldsCrashFallbackRowAndAutopsy) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("requests", MakeRows(300)).ok());
    // Cancel right after the first copied block: the engine aborts at the
    // next block boundary, mid table copy.
    leaf.SetShutdownBlockHookForTest([&leaf] { leaf.RequestShutdownCancel(); });
    ShutdownStats stats;
    Status s = leaf.ShutdownToSharedMemory(&stats);
    EXPECT_TRUE(s.IsAborted()) << s.ToString();
  }

  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  ASSERT_EQ(recovery->source, RecoverySource::kDisk);

  const Autopsy& a = successor.last_autopsy();
  ASSERT_TRUE(a.has_events);
  EXPECT_EQ(a.outcome, "cancelled") << a.json;
  // The predecessor's last events made it across the kill: the prepare
  // phase transition, the cancel itself, and a table copy that began but
  // never ended.
  bool saw_prepare = false;
  bool saw_cancel = false;
  bool begun_without_end = false;
  for (const FlightRecorder::Event& ev : a.events) {
    if (ev.type == FlightRecorder::EventType::kPhase &&
        ev.phase == RestartPhase::kPrepare) {
      saw_prepare = true;
    }
    if (ev.type == FlightRecorder::EventType::kCancel) saw_cancel = true;
    if (ev.type == FlightRecorder::EventType::kTableCopyBegin &&
        ev.detail == a.last_copying_table) {
      begun_without_end = true;
    }
    if (ev.type == FlightRecorder::EventType::kTableCopyEnd &&
        ev.detail == a.last_copying_table) {
      begun_without_end = false;
    }
  }
  EXPECT_TRUE(saw_prepare) << a.json;
  EXPECT_TRUE(saw_cancel) << a.json;
  EXPECT_FALSE(a.last_copying_table.empty()) << a.json;
  EXPECT_TRUE(begun_without_end) << a.json;

  EXPECT_EQ(CountOf(successor, RestartsCount("restore", "crash-fallback")),
            1.0);
  // Workload data still recovered in full from disk.
  Query q;
  q.table = "requests";
  q.aggregates = {Count()};
  EXPECT_EQ(CountOf(successor, q), 300.0);
}

// Self-amplification guard: restart rows are written once per restart
// transition, never per export cycle — 100 export cycles must not widen
// the table by a single row.
TEST_F(RestartsTableTest, RestartRowsBoundedAcrossExportCycles) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  double before = CountOf(leaf, RestartsCount());
  EXPECT_EQ(before, 1.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(leaf.stats_exporter()->ExportOnce().ok());
  }
  EXPECT_EQ(CountOf(leaf, RestartsCount()), before);
  EXPECT_EQ(CountOf(leaf, RestartsCount("restore")), 1.0);
}

// The checksum layer is its own column: the restore row's verify_micros is
// the engine's RestoreStats::verify_micros, > 0 for a verified shm restart.
TEST_F(RestartsTableTest, RestoreRowCarriesVerifyMicros) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    for (int i = 0; i < 9; ++i) {  // one sealed block plus a tail
      ASSERT_TRUE(leaf.AddRows("events", MakeRows(8192, 1000 + i)).ok());
    }
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServer successor(MakeConfig());
  auto recovery = successor.Start();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  ASSERT_EQ(recovery->source, RecoverySource::kSharedMemory);
  const int64_t verify_micros =
      successor.last_recovery().shm_stats.verify_micros.load();
  EXPECT_GT(verify_micros, 0);

  Query q = RestartsCount("restore");
  q.predicates.push_back(
      {"generation", CompareOp::kEq,
       Value(static_cast<int64_t>(successor.heartbeat_generation()))});
  q.aggregates = {Count(), Max("verify_micros")};
  auto result = successor.ExecuteQuery(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = result->Finalize(q.aggregates);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggregates[0], 1.0);
  EXPECT_EQ(rows[0].aggregates[1], static_cast<double>(verify_micros));
}

TEST_F(RestartsTableTest, ExternalIngestIntoRestartsTableRejected) {
  LeafServer leaf(MakeConfig());
  ASSERT_TRUE(leaf.Start().ok());
  EXPECT_TRUE(
      leaf.AddRows(obs::kRestartsTableName, MakeRows(4)).IsInvalidArgument());
}

// Recorder disabled: the leaf runs, produces no autopsy, and still writes
// its restore history (the table does not depend on the ring existing).
TEST_F(RestartsTableTest, RecorderDisabledStillWritesRestoreRow) {
  LeafServerConfig config = MakeConfig();
  config.flight_recorder_enabled = false;
  LeafServer leaf(config);
  ASSERT_TRUE(leaf.Start().ok());
  EXPECT_EQ(leaf.flight_recorder(), nullptr);
  EXPECT_FALSE(leaf.last_autopsy().has_events);
  EXPECT_EQ(CountOf(leaf, RestartsCount("restore", "ok")), 1.0);
  auto fr = FlightRecorder::OpenForRead(ns_.prefix(), 0);
  EXPECT_TRUE(fr.status().IsNotFound());
}

}  // namespace
}  // namespace scuba
