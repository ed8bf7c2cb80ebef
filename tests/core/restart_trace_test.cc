// Phase-timeline observability of the restart pipeline: a full
// shutdown -> restore round trip must produce Fig 6/7 span timelines whose
// roots cover >95% of the measured wall time, and the RestartManager must
// leave its JSON report artifacts behind.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/restart_manager.h"
#include "core/restore.h"
#include "core/shutdown.h"
#include "disk/backup_writer.h"
#include "disk/file.h"
#include "obs/trace.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

// The coverage tests need enough data that the copy phases dominate the
// fixed inter-span gaps (a few tens of microseconds), hence the large
// default. Manager tests that only check artifacts use a smaller fill.
void FillLeaf(LeafMap* leaf_map, size_t rows = 200000) {
  Table* table = leaf_map->GetOrCreateTable("events");
  ASSERT_TRUE(table->AddRows(MakeRows(rows, 1000), 0).ok());
  ASSERT_TRUE(table->SealWriteBuffer(0).ok());
}

std::set<std::string> SpanNames(const std::vector<obs::TraceSpan>& spans) {
  std::set<std::string> names;
  for (const obs::TraceSpan& s : spans) names.insert(s.name);
  return names;
}

// One traced round trip; returns true if both timelines cover >95% of
// their measured wall time. The deterministic checks (span names, row
// count, byte attribution) assert unconditionally; the coverage check is
// returned so the caller can retry — on a loaded 1-core CI box a
// scheduler preemption landing exactly between two spans can poke a hole
// in any threshold, and one clean pass proves the instrumentation covers
// the operation.
bool TracedRoundTripCovers(ShmNamespace* ns, size_t num_copy_threads,
                           std::string* dump) {
  LeafMap leaf_map;
  FillLeaf(&leaf_map);

  // Shutdown with a tracer attached: Fig 6 phases, back to back.
  obs::PhaseTracer shutdown_tracer;
  ShutdownOptions soptions;
  soptions.namespace_prefix = ns->prefix();
  soptions.num_copy_threads = num_copy_threads;
  soptions.tracer = &shutdown_tracer;
  ShutdownStats sstats;
  EXPECT_TRUE(ShutdownToShm(&leaf_map, soptions, &sstats).ok());
  int64_t shutdown_wall = shutdown_tracer.ElapsedMicros();

  std::set<std::string> names = SpanNames(shutdown_tracer.Snapshot());
  EXPECT_TRUE(names.count("seal_buffers"));
  EXPECT_TRUE(names.count("create_metadata"));
  EXPECT_TRUE(names.count("copy_out"));
  EXPECT_TRUE(names.count("set_valid"));
  if (num_copy_threads > 1) {
    // Parallel mode adds the drain phase.
    EXPECT_TRUE(names.count("drain"));
  } else {
    EXPECT_TRUE(names.count("table:events"));
  }

  // Restore with a tracer: Fig 7 phases.
  obs::PhaseTracer restore_tracer;
  RestartConfig roptions;
  roptions.namespace_prefix = ns->prefix();
  roptions.num_copy_threads = num_copy_threads;
  roptions.restore.tracer = &restore_tracer;
  RestoreStats rstats;
  LeafMap restored;
  EXPECT_TRUE(RestoreFromShm(&restored, roptions, &rstats).ok());
  int64_t restore_wall = restore_tracer.ElapsedMicros();
  EXPECT_EQ(restored.TotalRowCount(), 200000u);

  names = SpanNames(restore_tracer.Snapshot());
  EXPECT_TRUE(names.count("open_metadata"));
  EXPECT_TRUE(names.count("copy_in"));
  EXPECT_TRUE(names.count("destroy_metadata"));

  // The copy_in span carries the bytes moved.
  for (const obs::TraceSpan& s : restore_tracer.Snapshot()) {
    if (s.name == "copy_in") {
      EXPECT_EQ(s.bytes, rstats.bytes_copied.load());
    }
  }

  *dump = shutdown_tracer.ToJson() + "\n" + restore_tracer.ToJson();
  EXPECT_GT(shutdown_wall, 0);
  EXPECT_GT(restore_wall, 0);
  // The named root phases must cover >95% of the measured wall time.
  return static_cast<double>(shutdown_tracer.RootCoverageMicros()) >
             0.95 * static_cast<double>(shutdown_wall) &&
         static_cast<double>(restore_tracer.RootCoverageMicros()) >
             0.95 * static_cast<double>(restore_wall);
}

TEST(RestartTraceTest, RoundTripTimelineCoversWallTime) {
  ShmNamespace ns("rt1");
  bool covered = false;
  std::string dump;
  for (int attempt = 0; attempt < 3 && !covered; ++attempt) {
    covered = TracedRoundTripCovers(&ns, 1, &dump);
  }
  EXPECT_TRUE(covered) << dump;
}

TEST(RestartTraceTest, ParallelRoundTripStillCovers) {
  ShmNamespace ns("rt2");
  bool covered = false;
  std::string dump;
  for (int attempt = 0; attempt < 3 && !covered; ++attempt) {
    covered = TracedRoundTripCovers(&ns, 4, &dump);
  }
  EXPECT_TRUE(covered) << dump;
}

TEST(RestartTraceTest, ManagerRecoveryResultCarriesTraceJson) {
  ShmNamespace ns("rt3");
  TempDir dir("rt3");
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path();
  RestartManager manager(config);

  LeafMap leaf_map;
  FillLeaf(&leaf_map, 500);
  ShutdownStats sstats;
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());
  EXPECT_NE(manager.last_shutdown_trace_json().find("copy_out"),
            std::string::npos);

  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->source, RecoverySource::kSharedMemory);
  EXPECT_NE(result->trace_json.find("\"spans\""), std::string::npos);
  EXPECT_NE(result->trace_json.find("copy_in"), std::string::npos);
}

TEST(RestartTraceTest, ManagerWritesReportArtifacts) {
  ShmNamespace ns("rt4");
  TempDir dir("rt4");
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path();
  RestartManager manager(config);

  LeafMap leaf_map;
  FillLeaf(&leaf_map, 500);
  ShutdownStats sstats;
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());
  std::string shutdown_path = dir.path() + "/leaf_0.shutdown_report.json";
  ASSERT_TRUE(FileExists(shutdown_path));

  LeafMap recovered;
  ASSERT_TRUE(manager.Recover(&recovered, 2000).ok());
  std::string recovery_path = dir.path() + "/leaf_0.recovery_report.json";
  ASSERT_TRUE(FileExists(recovery_path));

  // Both artifacts name the leaf, the op, the trace, and a metrics block.
  for (const std::string& path : {shutdown_path, recovery_path}) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string body = buffer.str();
    EXPECT_NE(body.find("\"leaf_id\": 0"), std::string::npos) << path;
    EXPECT_NE(body.find("\"trace\""), std::string::npos) << path;
    EXPECT_NE(body.find("\"metrics\""), std::string::npos) << path;
    EXPECT_NE(body.find("\"counters\""), std::string::npos) << path;
  }
}

TEST(RestartTraceTest, ReportsSkippedWithoutBackupDir) {
  ShmNamespace ns("rt5");
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  // No backup_dir: reports silently skipped, shutdown still works.
  RestartManager manager(config);
  LeafMap leaf_map;
  FillLeaf(&leaf_map, 100);
  ShutdownStats sstats;
  ASSERT_TRUE(manager.Shutdown(&leaf_map, &sstats).ok());
  EXPECT_FALSE(manager.last_shutdown_trace_json().empty());
}

TEST(RestartTraceTest, DiskRecoveryTimelineHasReadAndTranslate) {
  ShmNamespace ns("rt6");
  TempDir dir("rt6");
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path();
  // Memory recovery disabled: the recovery must take the disk path and
  // synthesize the disk_read/disk_translate spans from the reader stats.
  config.memory_recovery_enabled = false;
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    const std::vector<Row> rows = MakeRows(300, 1000);
    auto schema = Schema::OfRows(rows);
    ASSERT_TRUE(schema.ok());
    ASSERT_TRUE(writer.AppendBatch("events", *schema, rows).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  RestartManager manager(config);
  LeafMap recovered;
  auto result = manager.Recover(&recovered, 2000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->source, RecoverySource::kDisk);
  EXPECT_NE(result->trace_json.find("disk_read"), std::string::npos);
  EXPECT_NE(result->trace_json.find("disk_translate"), std::string::npos);
}

}  // namespace
}  // namespace scuba
