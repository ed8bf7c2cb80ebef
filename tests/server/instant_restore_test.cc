// Instant restore: queries race the incremental restore engine. N query
// threads hammer a leaf while its blocks stream in (priority pulls racing
// the background sequential filler); every result must be bit-identical
// (same CRC32C digest) to the fully-restored leaf, with zero Unavailable
// once the leaf's metadata is open. Cancellation mid-restore falls back to
// the blocking disk path without losing a row. Runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "server/leaf_server.h"
#include "test_util.h"
#include "util/crc32c.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

LeafServerConfig MakeConfig(const ShmNamespace& ns, const TempDir& dir,
                            BackupFormatKind format, bool memory_recovery,
                            bool instant, int copy_threads = 2) {
  LeafServerConfig config;
  config.leaf_id = 0;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path() + "/leaf_0";
  config.backup_format = format;
  config.memory_recovery_enabled = memory_recovery;
  config.instant_restore_enabled = instant;
  config.num_copy_threads = copy_threads;
  return config;
}

Query FullQuery(const std::string& table) {
  Query q;
  q.table = table;
  q.group_by = {"service"};
  q.aggregates = {Count(), Avg("latency_ms"), Sum("status")};
  return q;
}

// Same digest the query benches use: order-independent of engine,
// order-dependent of content — CRC32C over the finalized rows.
uint32_t ResultDigest(const QueryResult& result,
                      const std::vector<Aggregate>& aggregates) {
  uint32_t crc = 0;
  auto add = [&crc](const void* p, size_t n) {
    crc = crc32c::Extend(crc, static_cast<const uint8_t*>(p), n);
  };
  for (const ResultRow& row : result.Finalize(aggregates)) {
    for (const Value& v : row.group_key) {
      uint8_t tag = static_cast<uint8_t>(v.index());
      add(&tag, 1);
      if (const auto* i = std::get_if<int64_t>(&v)) {
        add(i, sizeof(*i));
      } else if (const auto* d = std::get_if<double>(&v)) {
        add(d, sizeof(*d));
      } else {
        const std::string& s = std::get<std::string>(v);
        uint64_t len = s.size();
        add(&len, sizeof(len));
        add(s.data(), s.size());
      }
    }
    for (double a : row.aggregates) add(&a, sizeof(a));
  }
  return crc;
}

constexpr int kCycles = 3;
constexpr size_t kRowsPerCycle = 1200;
const char* const kTables[] = {"events", "metrics"};

// Builds restorable state through `kCycles` shutdown/restart cycles (each
// clean shutdown seals the write buffer, so every cycle adds one sealed
// block per table with a distinct time range) and returns the expected
// digest per table, computed on the live leaf just before the final
// shutdown. After this the shm segments hold the full state and the disk
// backups mirror it.
std::map<std::string, uint32_t> SeedData(const ShmNamespace& ns,
                                         const TempDir& dir,
                                         BackupFormatKind format) {
  std::map<std::string, uint32_t> digests;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    LeafServer leaf(MakeConfig(ns, dir, format, /*memory_recovery=*/true,
                               /*instant=*/false));
    EXPECT_TRUE(leaf.Start().ok());
    for (size_t t = 0; t < 2; ++t) {
      EXPECT_TRUE(leaf.AddRows(kTables[t],
                               MakeRows(kRowsPerCycle, 1000 + cycle * 1000,
                                        /*seed=*/99 + t * 100 +
                                            static_cast<uint64_t>(cycle)))
                      .ok());
    }
    if (cycle == kCycles - 1) {
      for (const char* table : kTables) {
        Query q = FullQuery(table);
        auto result = leaf.ExecuteQuery(q);
        EXPECT_TRUE(result.ok());
        digests[table] = ResultDigest(*result, q.aggregates);
      }
    }
    ShutdownStats stats;
    EXPECT_TRUE(leaf.ShutdownToSharedMemory(&stats).ok());
  }
  return digests;
}

// The digest the blocking disk path produces from the current backups —
// the bit-identity baseline for the disk-sourced instant restores (disk
// translation regroups rows, so float aggregation merges differently than
// on the pre-shutdown live leaf). Scrubs shm as a side effect
// (memory_recovery off); leaves the disk backups untouched.
std::map<std::string, uint32_t> BlockingDiskDigests(const ShmNamespace& ns,
                                                    const TempDir& dir,
                                                    BackupFormatKind format) {
  LeafServer leaf(MakeConfig(ns, dir, format, /*memory_recovery=*/false,
                             /*instant=*/false));
  EXPECT_TRUE(leaf.Start().ok());
  std::map<std::string, uint32_t> digests;
  for (const char* table : kTables) {
    Query q = FullQuery(table);
    auto result = leaf.ExecuteQuery(q);
    EXPECT_TRUE(result.ok());
    digests[table] = ResultDigest(*result, q.aggregates);
  }
  leaf.Crash();
  return digests;
}

// Sum of the Count aggregate across all groups — completeness check that
// is independent of float merge order.
double TotalCount(const QueryResult& result,
                  const std::vector<Aggregate>& aggregates) {
  double total = 0;
  for (const ResultRow& row : result.Finalize(aggregates)) {
    total += row.aggregates[0];
  }
  return total;
}

// The core race: query threads hammer every table of a restoring leaf
// while the engine streams blocks in (slowed down by the unit hook so the
// queries actually overlap the restore). Every query must succeed and
// match the fully-restored digest.
void HammerDuringRestore(const ShmNamespace& ns, const TempDir& dir,
                         BackupFormatKind format, bool memory_recovery,
                         RecoverySource expected_source,
                         const std::map<std::string, uint32_t>& expected,
                         int copy_threads = 2, int unit_sleep_ms = 5) {
  LeafServer leaf(MakeConfig(ns, dir, format, memory_recovery,
                             /*instant=*/true, copy_threads));
  leaf.SetInstantRestoreUnitHookForTest([unit_sleep_ms](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(unit_sleep_ms));
  });
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, expected_source);
  ASSERT_NE(leaf.instant_restore_engine(), nullptr);

  std::atomic<uint64_t> queries_run{0};
  std::atomic<int64_t> total_wait_micros{0};
  std::atomic<uint64_t> total_on_demand{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      const std::string table = kTables[r % 2];
      Query q = FullQuery(table);
      do {
        auto result = leaf.ExecuteQuery(q);
        // Zero Unavailable during a restore: the RESTORING leaf serves.
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(ResultDigest(*result, q.aggregates), expected.at(table))
            << "query during restore diverged for " << table;
        queries_run.fetch_add(1, std::memory_order_relaxed);
        total_wait_micros.fetch_add(result->profile().restore_wait_micros,
                                    std::memory_order_relaxed);
        total_on_demand.fetch_add(
            result->profile().blocks_restored_on_demand,
            std::memory_order_relaxed);
      } while (!leaf.instant_restore_engine()->finished());
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_GT(queries_run.load(), 0u);

  // Wait for the handoff (the done callback flips RESTORING -> ALIVE).
  for (int i = 0; i < 1000 && leaf.state() != LeafState::kAlive; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(leaf.state(), LeafState::kAlive);

  // Post-restore results are (still) identical.
  for (const char* table : kTables) {
    Query q = FullQuery(table);
    auto result = leaf.ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ResultDigest(*result, q.aggregates), expected.at(table));
  }

  auto progress = leaf.instant_restore_engine()->progress();
  EXPECT_TRUE(progress.finished);
  EXPECT_EQ(progress.units_done, progress.units_total);
  EXPECT_GT(progress.units_total, 0u);
  // The first queries land while most units are still queued, so at least
  // one block must have been pulled ahead of the background filler.
  EXPECT_GT(total_on_demand.load() + progress.blocks_on_demand, 0u);
  leaf.Crash();
}

TEST(InstantRestoreTest, ShmQueriesDuringRestoreMatchBlocking) {
  ShmNamespace ns("ir_shm");
  TempDir dir("ir_shm");
  // Shm restore reproduces the pre-shutdown block structure exactly, so
  // the live leaf's digest is the blocking-restore digest.
  auto expected = SeedData(ns, dir, BackupFormatKind::kRowMajor);
  HammerDuringRestore(ns, dir, BackupFormatKind::kRowMajor,
                      /*memory_recovery=*/true,
                      RecoverySource::kSharedMemory, expected);
}

TEST(InstantRestoreTest, ColumnarDiskQueriesDuringRestoreMatchBlocking) {
  ShmNamespace ns("ir_cols");
  TempDir dir("ir_cols");
  // memory_recovery off: the leaf scrubs shm and instant-restores from
  // the .cols backup at block granularity.
  (void)SeedData(ns, dir, BackupFormatKind::kColumnar);
  auto expected = BlockingDiskDigests(ns, dir, BackupFormatKind::kColumnar);
  HammerDuringRestore(ns, dir, BackupFormatKind::kColumnar,
                      /*memory_recovery=*/false, RecoverySource::kDisk,
                      expected);
}

TEST(InstantRestoreTest, RowMajorDiskQueriesDuringRestoreMatchBlocking) {
  ShmNamespace ns("ir_bak");
  TempDir dir("ir_bak");
  // .bak files cannot be random-accessed per block: whole-table units,
  // queries wait for their table, results still bit-identical.
  (void)SeedData(ns, dir, BackupFormatKind::kRowMajor);
  auto expected = BlockingDiskDigests(ns, dir, BackupFormatKind::kRowMajor);
  // One copy thread: with whole-table units, the second table stays
  // queued behind the first long enough for a query to pull it forward —
  // otherwise both units start instantly and on-demand never triggers.
  HammerDuringRestore(ns, dir, BackupFormatKind::kRowMajor,
                      /*memory_recovery=*/false, RecoverySource::kDisk,
                      expected, /*copy_threads=*/1, /*unit_sleep_ms=*/25);
}

TEST(InstantRestoreTest, CancelMidRestoreFallsBackToDisk) {
  ShmNamespace ns("ir_cancel");
  TempDir dir("ir_cancel");
  (void)SeedData(ns, dir, BackupFormatKind::kRowMajor);

  LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                             /*memory_recovery=*/true, /*instant=*/true));
  std::atomic<bool> cancelled{false};
  LeafServer* leaf_ptr = &leaf;
  leaf.SetInstantRestoreUnitHookForTest([&, leaf_ptr](size_t) {
    if (!cancelled.exchange(true)) {
      leaf_ptr->instant_restore_engine()->Cancel();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, RecoverySource::kSharedMemory);

  // Queries issued across the cancellation either ride the restore or
  // block until the disk fallback finishes — never an error, never a
  // partial result. (The block structure differs between the interrupted
  // shm restore and the disk fallback, so the digest can legitimately
  // change across the cancellation; completeness is checked via the
  // order-independent row count instead.)
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const std::string table = kTables[r % 2];
      Query q = FullQuery(table);
      for (int i = 0; i < 5; ++i) {
        auto result = leaf.ExecuteQuery(q);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(TotalCount(*result, q.aggregates),
                  static_cast<double>(kCycles * kRowsPerCycle))
            << "partial result across cancellation for " << table;
      }
    });
  }
  for (auto& t : readers) t.join();

  for (int i = 0; i < 5000 && leaf.state() != LeafState::kAlive; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(leaf.state(), LeafState::kAlive);
  // The fallback went through the disk backups (the interrupted shm state
  // was scrubbed) and recovered everything.
  EXPECT_EQ(leaf.GetStats().last_recovery_source, RecoverySource::kDisk);
  EXPECT_EQ(leaf.RowCount(), kCycles * kRowsPerCycle * 2);
  std::map<std::string, uint32_t> after_fallback;
  for (const char* table : kTables) {
    Query q = FullQuery(table);
    auto result = leaf.ExecuteQuery(q);
    ASSERT_TRUE(result.ok());
    after_fallback[table] = ResultDigest(*result, q.aggregates);
  }
  leaf.Crash();

  // Bit-identity baseline: a blocking restore from the same disk backups
  // must produce the same digests the fallback served.
  auto expected = BlockingDiskDigests(ns, dir, BackupFormatKind::kRowMajor);
  for (const char* table : kTables) {
    EXPECT_EQ(after_fallback[table], expected[table])
        << "disk fallback diverged from blocking disk restore for "
        << table;
  }
}

TEST(InstantRestoreTest, IngestDuringRestoreLands) {
  ShmNamespace ns("ir_ingest");
  TempDir dir("ir_ingest");
  (void)SeedData(ns, dir, BackupFormatKind::kRowMajor);

  LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                             /*memory_recovery=*/true, /*instant=*/true));
  leaf.SetInstantRestoreUnitHookForTest([](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  });
  ASSERT_TRUE(leaf.Start().ok());

  // RESTORING accepts adds (the paper's leaves take new data as soon as
  // the process is up); the fresh rows coexist with the streaming blocks.
  const uint64_t before = kCycles * kRowsPerCycle * 2;
  ASSERT_TRUE(leaf.AddRows("events", MakeRows(500, 50'000)).ok());

  for (int i = 0; i < 5000 && leaf.state() != LeafState::kAlive; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(leaf.state(), LeafState::kAlive);
  EXPECT_EQ(leaf.RowCount(), before + 500);
  leaf.Crash();
}

// Engine-driven disk restores keep the paper's read/translate split
// (Fig 5b) in both modes: every backup byte read is counted — the .bak
// files, or the .cols files plus each table's matching tail — and neither
// phase reads zero.
TEST(InstantRestoreTest, DiskRecoveryReportsReadAndTranslateInBothModes) {
  for (BackupFormatKind format :
       {BackupFormatKind::kRowMajor, BackupFormatKind::kColumnar}) {
    const std::string tag =
        format == BackupFormatKind::kRowMajor ? "ir_io_bak" : "ir_io_cols";
    ShmNamespace ns(tag);
    TempDir dir(tag);
    (void)SeedData(ns, dir, format);
    const std::string leaf_dir = dir.path() + "/leaf_0/";
    uint64_t file_bytes = 0;
    for (const std::string table : kTables) {
      if (format == BackupFormatKind::kRowMajor) {
        file_bytes += FileSize(leaf_dir + table + ".bak");
        continue;
      }
      auto blocks = ColumnarBackupReader::CountBlocks(leaf_dir + table +
                                                      ".cols");
      ASSERT_TRUE(blocks.ok());
      const std::string tail =
          leaf_dir + table + ".tail." + std::to_string(*blocks);
      file_bytes += FileSize(leaf_dir + table + ".cols") +
                    (FileExists(tail) ? FileSize(tail) : 0);
    }

    for (bool instant : {false, true}) {
      SCOPED_TRACE(tag + (instant ? " instant" : " blocking"));
      LeafServer leaf(MakeConfig(ns, dir, format, /*memory_recovery=*/false,
                                 instant));
      ASSERT_TRUE(leaf.Start().ok());
      for (int i = 0; i < 5000 && leaf.state() != LeafState::kAlive; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(leaf.state(), LeafState::kAlive);
      ASSERT_EQ(leaf.last_recovery().source, RecoverySource::kDisk);
      const DiskRestoreStats& disk = leaf.last_recovery().disk_stats;
      EXPECT_GT(disk.read_micros, 0);
      EXPECT_GT(disk.translate_micros, 0);
      EXPECT_EQ(disk.bytes_read, file_bytes);
      leaf.Crash();
    }
  }
}

// What a leaf holds for one table: its layout and the full query's digest.
struct Layout {
  size_t blocks = 0;
  uint64_t buffered_rows = 0;
  uint64_t rows = 0;
  uint32_t digest = 0;
};

Layout LayoutOf(LeafServer& leaf, const std::string& table) {
  Layout out;
  for (const LeafServer::TableStats& stats : leaf.GetStats().tables) {
    if (stats.name != table) continue;
    out.blocks = stats.num_row_blocks;
    out.buffered_rows = stats.buffered_rows;
    out.rows = stats.row_count;
  }
  Query q = FullQuery(table);
  auto result = leaf.ExecuteQuery(q);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) out.digest = ResultDigest(*result, q.aggregates);
  return out;
}

void WaitAlive(const LeafServer& leaf) {
  for (int i = 0; i < 10000 && leaf.state() != LeafState::kAlive; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(leaf.state(), LeafState::kAlive);
}

// Ingests `rows` rows into "events" the way a tailer does, in 5,000-row
// batches: the 65,536-row seal falls inside a batch.
void IngestEvents(LeafServer* leaf, size_t rows, int64_t start_time) {
  for (size_t done = 0; done < rows; done += 5000) {
    ASSERT_TRUE(leaf->AddRows("events",
                              MakeRows(std::min<size_t>(5000, rows - done),
                                       start_time +
                                           static_cast<int64_t>(done / 10),
                                       /*seed=*/done))
                    .ok());
  }
}

// A leaf that crashes with a non-empty write buffer comes back from its
// .bak with the crashed leaf's layout — the blocks it had sealed and the
// rows it still buffered, unsealed — in both modes, and so answers with
// the crashed leaf's exact digest.
TEST(InstantRestoreTest, RowMajorCrashKeepsTheWriteBufferLayout) {
  ShmNamespace ns("ir_layout");
  TempDir dir("ir_layout");
  Layout crashed;
  {
    LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, /*instant=*/false));
    ASSERT_TRUE(leaf.Start().ok());
    IngestEvents(&leaf, 70000, 1000);
    crashed = LayoutOf(leaf, "events");
    leaf.Crash();
  }
  ASSERT_EQ(crashed.blocks, 1u);
  ASSERT_EQ(crashed.buffered_rows, 70000u - kMaxRowsPerBlock);

  for (bool instant : {false, true}) {
    SCOPED_TRACE(instant ? "instant" : "blocking");
    LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, instant));
    auto started = leaf.Start();
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    EXPECT_EQ(started->source, RecoverySource::kDisk);
    WaitAlive(leaf);
    Layout recovered = LayoutOf(leaf, "events");
    EXPECT_EQ(recovered.blocks, crashed.blocks);
    EXPECT_EQ(recovered.buffered_rows, crashed.buffered_rows);
    EXPECT_EQ(recovered.rows, crashed.rows);
    EXPECT_EQ(recovered.digest, crashed.digest);
    leaf.Crash();
  }
}

// Rows ingested while an instant .bak restore runs land after the file's
// rows, exactly as if they had arrived after a blocking restore — and are
// not replayed from the file they were also appended to.
TEST(InstantRestoreTest, RowMajorIngestDuringRestoreFollowsTheFilesRows) {
  ShmNamespace ns("ir_order");
  TempDir dir("ir_order");
  TempDir copy("ir_order_copy");
  {
    LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, /*instant=*/false));
    ASSERT_TRUE(leaf.Start().ok());
    IngestEvents(&leaf, 70000, 1000);
    leaf.Crash();
  }
  std::filesystem::copy(dir.path() + "/leaf_0", copy.path() + "/leaf_0");
  const std::vector<Row> fresh = MakeRows(300, 90000, /*seed=*/5);

  Layout instant;
  {
    LeafServerConfig config = MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                                         /*memory_recovery=*/false,
                                         /*instant=*/true);
    // A slow disk keeps the .bak unit loading while the rows arrive.
    config.disk_throttle_bytes_per_sec =
        FileSize(dir.path() + "/leaf_0/events.bak") * 2;
    LeafServer leaf(config);
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_EQ(leaf.state(), LeafState::kRestoring);
    ASSERT_TRUE(leaf.AddRows("events", fresh).ok());
    ASSERT_EQ(leaf.state(), LeafState::kRestoring);
    WaitAlive(leaf);
    instant = LayoutOf(leaf, "events");
    leaf.Crash();
  }
  Layout blocking;
  {
    LeafServer leaf(MakeConfig(ns, copy, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, /*instant=*/false));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", fresh).ok());
    blocking = LayoutOf(leaf, "events");
    leaf.Crash();
  }
  EXPECT_EQ(instant.rows, 70300u);
  EXPECT_EQ(instant.rows, blocking.rows);
  EXPECT_EQ(instant.blocks, blocking.blocks);
  EXPECT_EQ(instant.buffered_rows, blocking.buffered_rows);
  EXPECT_EQ(instant.digest, blocking.digest);
}

// A field whose type changed across the crash: rows ingested during an
// instant .bak restore carry "status" as a string while the file's tail
// buffers it as int64. The tail is sealed into a block of its own ahead of
// them, and the leaf keeps every row.
TEST(InstantRestoreTest, RowMajorIngestOfAnotherTypeDuringRestoreKeepsRows) {
  ShmNamespace ns("ir_retype");
  TempDir dir("ir_retype");
  Layout crashed;
  {
    LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, /*instant=*/false));
    ASSERT_TRUE(leaf.Start().ok());
    IngestEvents(&leaf, 70000, 1000);
    crashed = LayoutOf(leaf, "events");
    leaf.Crash();
  }
  std::vector<Row> fresh = MakeRows(300, 90000, /*seed=*/5);
  for (Row& row : fresh) {
    for (auto& [name, value] : row.fields) {
      if (name == "status") value = std::string("ok");
    }
  }

  LeafServerConfig config = MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                                       /*memory_recovery=*/false,
                                       /*instant=*/true);
  // A slow disk keeps the .bak unit loading while the rows arrive.
  config.disk_throttle_bytes_per_sec =
      FileSize(dir.path() + "/leaf_0/events.bak") * 2;
  LeafServer leaf(config);
  ASSERT_TRUE(leaf.Start().ok());
  ASSERT_EQ(leaf.state(), LeafState::kRestoring);
  ASSERT_TRUE(leaf.AddRows("events", fresh).ok());
  ASSERT_EQ(leaf.state(), LeafState::kRestoring);
  WaitAlive(leaf);
  LeafServer::TableStats events;
  for (const LeafServer::TableStats& stats : leaf.GetStats().tables) {
    if (stats.name == "events") events = stats;
  }
  EXPECT_EQ(events.num_row_blocks, crashed.blocks + 1);
  EXPECT_EQ(events.buffered_rows, 300u);
  EXPECT_EQ(events.row_count, 70300u);
  Query count;
  count.table = "events";
  count.aggregates = {Count()};
  auto result = leaf.ExecuteQuery(count);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<ResultRow> rows = result->Finalize(count.aggregates);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggregates[0], 70300.0);
  leaf.Crash();
}

// Rows with a string `status`, after 70,000 rows where it is int64.
std::vector<Row> RetypedRows(size_t n, int64_t start_time, uint64_t seed) {
  std::vector<Row> rows = MakeRows(n, start_time, seed);
  for (Row& row : rows) {
    for (auto& [name, value] : row.fields) {
      if (name == "status") value = std::string("ok");
    }
  }
  return rows;
}

LeafServer::TableStats EventsStats(LeafServer& leaf) {
  LeafServer::TableStats events;
  for (const LeafServer::TableStats& stats : leaf.GetStats().tables) {
    if (stats.name == "events") events = stats;
  }
  return events;
}

// 70,000 rows with an int64 `status`, a crash, an instant restore that
// ingests `during` (`status` a string, or absent), a second crash, then a
// blocking Start(). `status` has two types across blocks, so the full
// query refuses it: the layout and a row count say what came back.
void RetypeAcrossTwoCrashes(const std::string& name,
                            const std::vector<std::vector<Row>>& during,
                            LeafServer::TableStats* before,
                            LeafServer::TableStats* after) {
  ShmNamespace ns(name);
  TempDir dir(name);
  {
    LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, /*instant=*/false));
    ASSERT_TRUE(leaf.Start().ok());
    IngestEvents(&leaf, 70000, 1000);
    leaf.Crash();
  }
  {
    LeafServerConfig config = MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                                         /*memory_recovery=*/false,
                                         /*instant=*/true);
    config.disk_throttle_bytes_per_sec =
        FileSize(dir.path() + "/leaf_0/events.bak") * 2;
    LeafServer leaf(config);
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_EQ(leaf.state(), LeafState::kRestoring);
    for (const std::vector<Row>& batch : during) {
      ASSERT_TRUE(leaf.AddRows("events", batch).ok());
    }
    WaitAlive(leaf);
    *before = EventsStats(leaf);
    leaf.Crash();
  }
  LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                             /*memory_recovery=*/false, /*instant=*/false));
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  *after = EventsStats(leaf);
  Query count;
  count.table = "events";
  count.aggregates = {Count()};
  auto result = leaf.ExecuteQuery(count);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<ResultRow> rows = result->Finalize(count.aggregates);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].aggregates[0], static_cast<double>(after->row_count));
  leaf.Crash();
}

// The .bak records no seal, so the replay seals before the first record
// it cannot append: after the type change above, a second crash recovers
// every row, here with the live leaf's layout. Without that seal the
// replay appends the string record onto the int64 tail and fails, and so
// does the blocking Start().
TEST(InstantRestoreTest, RowMajorTypeChangeSurvivesASecondCrash) {
  LeafServer::TableStats before;
  LeafServer::TableStats after;
  RetypeAcrossTwoCrashes("ir_retype2", {RetypedRows(300, 90000, 5)}, &before,
                         &after);
  ASSERT_EQ(before.row_count, 70300u);
  EXPECT_EQ(after.row_count, 70300u);
  EXPECT_EQ(after.num_row_blocks, before.num_row_blocks);
  EXPECT_EQ(after.buffered_rows, before.buffered_rows);
}

// The .bak does not record where the restore ended either. When the first
// rows ingested during the restore lack the retyped field, the live leaf
// seals the recovered tail ahead of them, but the replay appends them to
// that tail (their `status` densified to int64 0, not "") and seals at the
// first string record. Every row still comes back; the block boundary
// moves by those rows.
TEST(InstantRestoreTest, RowMajorTypeChangeAfterRowsWithoutTheFieldKeepsRows) {
  std::vector<Row> untyped = MakeRows(100, 90000, /*seed=*/6);
  for (Row& row : untyped) {
    std::erase_if(row.fields,
                  [](const auto& field) { return field.first == "status"; });
  }
  LeafServer::TableStats before;
  LeafServer::TableStats after;
  RetypeAcrossTwoCrashes("ir_retype3",
                         {untyped, RetypedRows(200, 90010, 5)}, &before,
                         &after);
  ASSERT_EQ(before.row_count, 70300u);
  EXPECT_EQ(before.buffered_rows, 300u);
  EXPECT_EQ(after.row_count, 70300u);
  EXPECT_EQ(after.num_row_blocks, before.num_row_blocks);
  EXPECT_EQ(after.buffered_rows, 200u);
}

// A batch whose field type conflicts with the buffered column is refused
// whole: none of its rows land in memory or in the .bak. The batch is
// consistent in itself (its first rows lack `status`, the rest carry it as
// a string), so the backup encoder alone would take it; checked only row
// by row in the write buffer, its first two rows would land in memory,
// the whole batch in the .bak, and the next Start() would fail on it.
TEST(InstantRestoreTest, RejectedBatchReachesNeitherMemoryNorBackup) {
  ShmNamespace ns("ir_reject");
  TempDir dir("ir_reject");
  {
    LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                               /*memory_recovery=*/false, /*instant=*/false));
    ASSERT_TRUE(leaf.Start().ok());
    ASSERT_TRUE(leaf.AddRows("events", MakeRows(10)).ok());
    std::vector<Row> conflicting = MakeRows(5, 2000, /*seed=*/7);
    for (size_t i = 0; i < conflicting.size(); ++i) {
      auto& fields = conflicting[i].fields;
      for (auto it = fields.begin(); it != fields.end(); ++it) {
        if (it->first != "status") continue;
        if (i < 2) {
          fields.erase(it);
        } else {
          it->second = std::string("ok");
        }
        break;
      }
    }
    EXPECT_TRUE(leaf.AddRows("events", conflicting).IsInvalidArgument());
    EXPECT_EQ(leaf.RowCount(), 10u);
    leaf.Crash();
  }
  LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                             /*memory_recovery=*/false, /*instant=*/false));
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_EQ(started->source, RecoverySource::kDisk);
  EXPECT_EQ(leaf.RowCount(), 10u);
  leaf.Crash();
}

TEST(InstantRestoreTest, FreshLeafFallsThroughToBlockingPath) {
  ShmNamespace ns("ir_fresh");
  TempDir dir("ir_fresh");
  LeafServer leaf(MakeConfig(ns, dir, BackupFormatKind::kRowMajor,
                             /*memory_recovery=*/true, /*instant=*/true));
  auto started = leaf.Start();
  ASSERT_TRUE(started.ok());
  // Nothing to restore: no engine, straight to ALIVE as a fresh leaf.
  EXPECT_EQ(started->source, RecoverySource::kFresh);
  EXPECT_EQ(leaf.instant_restore_engine(), nullptr);
  EXPECT_EQ(leaf.state(), LeafState::kAlive);
  ASSERT_TRUE(leaf.AddRows("events", MakeRows(10)).ok());
  EXPECT_EQ(leaf.RowCount(), 10u);
  leaf.Crash();
}

}  // namespace
}  // namespace scuba
