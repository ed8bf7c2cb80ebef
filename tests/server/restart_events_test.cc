// Every restart step reaches the heartbeat and the flight recorder through
// one RestartEvents call, so the two shm sinks agree: the heartbeat's phase
// is the phase of the ring's last kPhase frame, and the restore engine's
// frames carry the phase its source published.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/leaf_server.h"
#include "shm/flight_recorder.h"
#include "shm/restart_heartbeat.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;
using EventType = FlightRecorder::EventType;

class RestartEventsTest : public ::testing::Test {
 protected:
  RestartEventsTest() : ns_("restart_events"), dir_("restart_events") {}

  LeafServerConfig MakeConfig() {
    LeafServerConfig config;
    config.leaf_id = 0;
    config.namespace_prefix = ns_.prefix();
    config.backup_dir = dir_.path();
    return config;
  }

  std::vector<FlightRecorder::Event> Frames() {
    auto recorder = FlightRecorder::OpenForRead(ns_.prefix(), 0);
    EXPECT_TRUE(recorder.ok()) << recorder.status().ToString();
    if (!recorder.ok()) return {};
    auto frames = recorder->Drain();
    EXPECT_TRUE(frames.ok()) << frames.status().ToString();
    return frames.ok() ? std::move(frames).value()
                       : std::vector<FlightRecorder::Event>();
  }

  FlightRecorder::Event LastPhaseFrame() {
    FlightRecorder::Event last;
    for (const FlightRecorder::Event& ev : Frames()) {
      if (ev.type == EventType::kPhase) last = ev;
    }
    return last;
  }

  // Counts generation `generation`'s restore-engine frames (engine start
  // and done, table copy begin and end), expecting each to carry `want`.
  size_t EngineFramesIn(uint64_t generation, RestartPhase want) {
    size_t count = 0;
    for (const FlightRecorder::Event& ev : Frames()) {
      if (ev.generation != generation) continue;
      if (ev.type != EventType::kRestore &&
          ev.type != EventType::kTableCopyBegin &&
          ev.type != EventType::kTableCopyEnd) {
        continue;
      }
      ++count;
      EXPECT_EQ(RestartPhaseName(ev.phase), RestartPhaseName(want))
          << FlightRecorder::EventTypeName(ev.type) << " " << ev.detail;
    }
    return count;
  }

  // Both sinks say `want`: the heartbeat's phase and the last phase frame.
  void ExpectSinksAgree(RestartPhase want) {
    SCOPED_TRACE(std::string(RestartPhaseName(want)));
    auto reading = RestartHeartbeat::ReadOnce(ns_.prefix(), 0);
    ASSERT_TRUE(reading.ok()) << reading.status().ToString();
    EXPECT_EQ(RestartPhaseName(reading->phase), RestartPhaseName(want));
    EXPECT_EQ(RestartPhaseName(LastPhaseFrame().phase),
              RestartPhaseName(want));
  }

  ShmNamespace ns_;
  TempDir dir_;
};

// A recovery that fails reports `failed` to both sinks, and the failed
// phase frame carries the reason an autopsy shows.
TEST_F(RestartEventsTest, FailedRecoveryIsFailedInBothSinks) {
  {
    std::ofstream bak(dir_.path() + "/events.bak", std::ios::binary);
    bak << "this is not a backup file header";
  }
  LeafServer leaf(MakeConfig());
  auto started = leaf.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_NE(started.status().ToString().find("magic"), std::string::npos)
      << started.status().ToString();

  ExpectSinksAgree(RestartPhase::kFailed);
  EXPECT_NE(LastPhaseFrame().detail.find("magic"), std::string::npos)
      << LastPhaseFrame().detail;
}

// A .bak restore runs in disk_recover, and so do the engine's frames.
TEST_F(RestartEventsTest, BakRestoreFramesCarryDiskRecover) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(500)).ok());
    leaf.Crash();
  }
  LeafServer successor(MakeConfig());
  auto started = successor.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_EQ(started->source, RecoverySource::kDisk);
  ASSERT_NE(successor.flight_recorder(), nullptr);
  // Engine start and done, and one table's copy begin and end.
  EXPECT_EQ(EngineFramesIn(successor.flight_recorder()->generation(),
                           RestartPhase::kDiskRecover),
            4u);
  ExpectSinksAgree(RestartPhase::kAlive);
}

// The sinks agree at the end of every restart op — a clean shutdown, an
// shm start, a cancelled shutdown, and an instant restore from disk — and
// each restore's engine frames carry its source's phase.
TEST_F(RestartEventsTest, HeartbeatAgreesWithLastPhaseFrame) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(500)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
    ExpectSinksAgree(RestartPhase::kExited);
  }
  {
    LeafServer leaf(MakeConfig());
    auto started = leaf.Start();
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    ASSERT_EQ(started->source, RecoverySource::kSharedMemory);
    EXPECT_GE(EngineFramesIn(leaf.flight_recorder()->generation(),
                             RestartPhase::kCopyIn),
              4u);
    ExpectSinksAgree(RestartPhase::kAlive);

    leaf.RequestShutdownCancel();
    ShutdownStats stats;
    Status s = leaf.ShutdownToSharedMemory(&stats);
    ASSERT_TRUE(s.IsAborted()) << s.ToString();
    ExpectSinksAgree(RestartPhase::kFailed);
  }
  LeafServerConfig config = MakeConfig();
  config.instant_restore_enabled = true;
  LeafServer leaf(config);
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_EQ(started->source, RecoverySource::kDisk);
  ASSERT_NE(leaf.instant_restore_engine(), nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!leaf.IsAlive() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(leaf.IsAlive());
  EXPECT_EQ(EngineFramesIn(leaf.flight_recorder()->generation(),
                           RestartPhase::kDiskRecover),
            4u);
  ExpectSinksAgree(RestartPhase::kAlive);
}

// Each copy counts its heartbeat progress from zero: a leaf that restored
// from shm and then shuts down reads at most 1.0 — not its restore bytes
// plus its shutdown bytes over the shutdown's total.
TEST_F(RestartEventsTest, ProgressRestartsWithEachCopy) {
  {
    LeafServer leaf(MakeConfig());
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(20000)).ok());
    ShutdownStats stats;
    ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  LeafServer leaf(MakeConfig());
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_EQ(started->source, RecoverySource::kSharedMemory);
  ShutdownStats stats;
  ASSERT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());

  auto reading = RestartHeartbeat::ReadOnce(ns_.prefix(), 0);
  ASSERT_TRUE(reading.ok()) << reading.status().ToString();
  EXPECT_EQ(RestartPhaseName(reading->phase),
            RestartPhaseName(RestartPhase::kExited));
  EXPECT_GT(reading->bytes_total, 0u);
  EXPECT_GT(reading->Progress(), 0.0);
  EXPECT_LE(reading->Progress(), 1.0);
}

}  // namespace
}  // namespace scuba
