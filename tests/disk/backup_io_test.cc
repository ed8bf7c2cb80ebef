#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include "core/restart_manager.h"
#include "disk/backup_reader.h"
#include "disk/backup_writer.h"
#include "disk/file.h"
#include "query/executor.h"
#include "query/result_digest.h"
#include "test_util.h"
#include "util/clock.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;
using testing_util::TempDir;

// Appends `rows` under their union schema, as the leaf does.
Status AppendBatch(BackupWriter* writer, const std::string& table,
                   const std::vector<Row>& rows) {
  SCUBA_ASSIGN_OR_RETURN(Schema schema, Schema::OfRows(rows));
  return writer->AppendBatch(table, schema, rows);
}

// Blocking disk recovery of every .bak file in `dir` — the path a leaf
// takes after a crash.
RecoveryResult RecoverBackups(const TempDir& dir, LeafMap* leaf_map,
                              int64_t now, TableLimits limits = {}) {
  ShmNamespace ns("bw_recover");
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.backup_dir = dir.path();
  config.restore.table_limits = limits;
  auto result = RestartManager(config).Recover(leaf_map, now);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return RecoveryResult();
  EXPECT_EQ(result->source, RecoverySource::kDisk);
  return std::move(result).value();
}

TEST(BackupWriterTest, WritesAndTracksDirtyTables) {
  TempDir dir("bw1");
  BackupWriter writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());

  ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100)).ok());
  ASSERT_TRUE(AppendBatch(&writer, "errors", MakeRows(10)).ok());
  EXPECT_EQ(writer.dirty_table_count(), 2u);
  EXPECT_GT(writer.total_bytes_written(), 0u);

  ASSERT_TRUE(writer.SyncAll().ok());
  EXPECT_EQ(writer.dirty_table_count(), 0u);

  EXPECT_TRUE(FileExists(writer.FilePathFor("events")));
  EXPECT_TRUE(FileExists(writer.FilePathFor("errors")));
}

TEST(BackupRoundTripTest, RecoverLeafRebuildsTables) {
  TempDir dir("bw2");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(500, 1000)).ok());
    ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(500, 2000)).ok());
    ASSERT_TRUE(AppendBatch(&writer, "errors", MakeRows(42, 1000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }

  LeafMap leaf_map;
  RecoveryResult result = RecoverBackups(dir, &leaf_map, 5000);

  EXPECT_EQ(result.shm_stats.tables_restored, 2u);
  EXPECT_EQ(result.disk_stats.bytes_read,
            FileSize(dir.path() + "/events.bak") +
                FileSize(dir.path() + "/errors.bak"));
  EXPECT_EQ(result.disk_stats.records_dropped, 0u);
  EXPECT_EQ(leaf_map.TotalRowCount(), 1042u);
  ASSERT_NE(leaf_map.GetTable("events"), nullptr);
  EXPECT_EQ(leaf_map.GetTable("events")->RowCount(), 1000u);
  // Recovery leaves the rows no block was sealed for where the crashed
  // leaf had them: in the write buffer, not in a short sealed block.
  EXPECT_EQ(leaf_map.GetTable("events")->num_row_blocks(), 0u);
  EXPECT_EQ(leaf_map.GetTable("events")->write_buffer().row_count(), 1000u);
}

TEST(BackupRoundTripTest, TornTailKeepsPrefix) {
  TempDir dir("bw3");
  std::string path;
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 1000)).ok());
    ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 2000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
    path = writer.FilePathFor("events");
  }
  // Simulate a crash mid-append: chop off the last 10 bytes.
  uint64_t size = FileSize(path);
  ASSERT_GT(size, 10u);
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size - 10)), 0);

  Table table("events");
  DiskRestoreStats stats;
  ASSERT_TRUE(BackupReader::RecoverTable(path, FileSize(path), &table,
                                         /*throttle=*/0, 5000, &stats)
                  .ok());
  EXPECT_EQ(table.RowCount(), 100u);  // first batch survives
  EXPECT_EQ(stats.records_dropped, 1u);
}

TEST(BackupRoundTripTest, StatsSplitReadAndTranslate) {
  TempDir dir("bw4");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          AppendBatch(&writer, "events", MakeRows(1000, 1000 + i)).ok());
    }
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  LeafMap leaf_map;
  RecoveryResult result = RecoverBackups(dir, &leaf_map, 5000);
  // Translation (decode + rebuild + recompress) dominates the raw read —
  // the paper's key disk-recovery property (§1).
  EXPECT_GT(result.disk_stats.translate_micros,
            result.disk_stats.read_micros);
}

TEST(BackupRoundTripTest, ThrottleSlowsRead) {
  TempDir dir("bw5");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(5000, 1000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  uint64_t file_bytes = FileSize(dir.path() + "/events.bak");

  auto run = [&](uint64_t throttle) {
    Table table("events");
    DiskRestoreStats stats;
    EXPECT_TRUE(BackupReader::RecoverTable(dir.path() + "/events.bak",
                                           file_bytes, &table, throttle, 5000,
                                           &stats)
                    .ok());
    return stats.read_micros;
  };
  int64_t unthrottled = run(0);
  // Throttle to make the read take ~0.2s regardless of disk speed.
  int64_t throttled = run(file_bytes * 5);
  EXPECT_GT(throttled, unthrottled);
  EXPECT_GT(throttled, 100000);  // >= 0.1 s
}

TEST(BackupRoundTripTest, RecoveryAppliesRetentionLimits) {
  TempDir dir("bw6");
  {
    BackupWriter writer(dir.path());
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 1000)).ok());
    ASSERT_TRUE(writer.SyncAll().ok());
  }
  LeafMap leaf_map;
  TableLimits limits;
  limits.max_age_seconds = 10;  // rows at t~1000, now=99999
  RecoverBackups(dir, &leaf_map, 99999, limits);
  EXPECT_EQ(leaf_map.GetTable("events")->RowCount(), 0u);
}

TEST(BackupRoundTripTest, CorruptLengthKeepsPrefix) {
  TempDir dir("bw8");
  BackupWriter writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());
  ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 1000)).ok());
  ASSERT_TRUE(writer.SyncAll().ok());
  const std::string path = writer.FilePathFor("events");
  const uint64_t second_record = FileSize(path);
  ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 2000)).ok());
  ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 3000)).ok());
  ASSERT_TRUE(writer.SyncAll().ok());

  // The second record's length field now points ~4 GiB past the end.
  int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  const uint8_t length[4] = {0xF0, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::pwrite(fd, length, 4, static_cast<off_t>(second_record)), 4);
  ::close(fd);

  Table table("events");
  DiskRestoreStats stats;
  ASSERT_TRUE(BackupReader::RecoverTable(path, FileSize(path), &table,
                                         /*throttle=*/0, 5000, &stats)
                  .ok());
  EXPECT_EQ(table.RowCount(), 100u);
  EXPECT_EQ(stats.records_dropped, 1u);
  EXPECT_EQ(stats.bytes_read, FileSize(path));
}

TEST(BackupRoundTripTest, ReadStopsAtTheSizeTheRestoreBeganWith) {
  TempDir dir("bw9");
  BackupWriter writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());
  ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(100, 1000)).ok());
  ASSERT_TRUE(writer.SyncAll().ok());
  const std::string path = writer.FilePathFor("events");
  const uint64_t at_open = FileSize(path);
  // Rows the leaf ingests after the restore began land in the file too;
  // the leaf holds them already, so recovery must not replay them.
  ASSERT_TRUE(AppendBatch(&writer, "events", MakeRows(50, 2000)).ok());
  ASSERT_TRUE(writer.SyncAll().ok());

  Table table("events");
  DiskRestoreStats stats;
  ASSERT_TRUE(
      BackupReader::RecoverTable(path, at_open, &table, 0, 5000, &stats).ok());
  EXPECT_EQ(table.RowCount(), 100u);
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_EQ(stats.bytes_read, at_open);
}

// `rows` as a .bak record stores them: every row carries the batch's union
// of fields, in first-seen order, defaults back-filled.
std::vector<Row> Densify(const std::vector<Row>& rows) {
  std::vector<std::pair<std::string, ColumnType>> fields;
  for (const Row& row : rows) {
    for (const auto& [name, value] : row.fields) {
      bool seen = false;
      for (const auto& f : fields) seen = seen || f.first == name;
      if (!seen) fields.emplace_back(name, ValueType(value));
    }
  }
  std::vector<Row> dense;
  for (const Row& row : rows) {
    Row d;
    for (const auto& [name, type] : fields) {
      Value value = DefaultValue(type);
      for (const auto& [n, v] : row.fields) {
        if (n == name) value = v;
      }
      d.Set(name, value);
    }
    dense.push_back(std::move(d));
  }
  return dense;
}

// Randomized batches whose sparse schemas shift from record to record —
// int64, double and string fields, strings empty, short and longer than
// the 15-byte small-string buffer — recovered through a .bak file must
// rebuild exactly what feeding the same rows (as the file stores them) to
// Table::AddRows builds: the same blocks (row counts, schemas, column
// bytes), the same buffered rows, the same group-by Avg digest.
TEST(BackupRoundTripTest, RecoveryMatchesAddRowsOnShiftingSparseBatches) {
  TempDir dir("bw10");
  BackupWriter writer(dir.path());
  ASSERT_TRUE(writer.Init().ok());
  Table reference("events");

  struct Field {
    const char* name;
    ColumnType type;
  };
  const Field kFields[] = {{"service", ColumnType::kString},
                           {"latency", ColumnType::kDouble},
                           {"status", ColumnType::kInt64},
                           {"message", ColumnType::kString},
                           {"bytes", ColumnType::kInt64},
                           {"ratio", ColumnType::kDouble}};
  Random random(20261019);
  auto random_string = [&]() {
    switch (random.Uniform(3)) {
      case 0:
        return std::string();
      case 1:
        return "s" + std::to_string(random.Uniform(12));
      default:
        return "a value past the small-string buffer #" +
               std::to_string(random.Uniform(50));
    }
  };

  size_t total = 0;
  bool boundary_inside_record = false;
  int64_t time = 1000;
  while (total < 2 * kMaxRowsPerBlock + 5000) {
    // Each record draws its own field subset; each row a subset of that.
    std::vector<const Field*> fields;
    for (const Field& f : kFields) {
      if (random.Bernoulli(0.6)) fields.push_back(&f);
    }
    const size_t n = 1 + random.Uniform(6000);
    std::vector<Row> rows(n);
    for (Row& row : rows) {
      row.SetTime(time + static_cast<int64_t>(random.Uniform(20)));
      for (const Field* f : fields) {
        if (!random.Bernoulli(0.8)) continue;
        switch (f->type) {
          case ColumnType::kInt64:
            row.Set(f->name, static_cast<int64_t>(random.Uniform(1000)) - 500);
            break;
          case ColumnType::kDouble:
            row.Set(f->name, random.NextDouble() * 100.0);
            break;
          case ColumnType::kString:
            row.Set(f->name, random_string());
            break;
        }
      }
      ++time;
    }
    const size_t before = total % kMaxRowsPerBlock;
    if (before != 0 && before + n > kMaxRowsPerBlock) {
      boundary_inside_record = true;
    }
    total += n;
    ASSERT_TRUE(AppendBatch(&writer, "events", rows).ok());
    ASSERT_TRUE(reference.AddRows(Densify(rows), 77).ok());
  }
  ASSERT_TRUE(boundary_inside_record);
  ASSERT_TRUE(writer.SyncAll().ok());

  Table recovered("events");
  DiskRestoreStats stats;
  const std::string path = writer.FilePathFor("events");
  ASSERT_TRUE(BackupReader::RecoverTable(path, FileSize(path), &recovered,
                                         /*throttle=*/0, 77, &stats)
                  .ok());
  EXPECT_EQ(stats.records_dropped, 0u);

  ASSERT_EQ(recovered.num_row_blocks(), reference.num_row_blocks());
  ASSERT_GE(reference.num_row_blocks(), 2u);
  for (size_t b = 0; b < reference.num_row_blocks(); ++b) {
    const RowBlock& want = *reference.row_block(b);
    const RowBlock& got = *recovered.row_block(b);
    EXPECT_EQ(got.header().row_count, want.header().row_count) << b;
    EXPECT_EQ(got.header().min_time, want.header().min_time) << b;
    EXPECT_EQ(got.header().max_time, want.header().max_time) << b;
    ASSERT_EQ(got.schema(), want.schema()) << b;
    for (size_t c = 0; c < want.num_columns(); ++c) {
      EXPECT_EQ(got.column(c)->total_bytes(), want.column(c)->total_bytes())
          << "block " << b << " column " << want.schema().column(c).name;
    }
  }
  EXPECT_EQ(recovered.write_buffer().row_count(),
            reference.write_buffer().row_count());
  EXPECT_GT(recovered.write_buffer().row_count(), 0u);

  Query query;
  query.table = "events";
  query.group_by = {"service"};
  query.aggregates = {Count(), Avg("latency"), Avg("ratio"), Sum("bytes")};
  auto want = LeafExecutor::Execute(reference, query);
  auto got = LeafExecutor::Execute(recovered, query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ResultDigest(*got, query.aggregates),
            ResultDigest(*want, query.aggregates));
}

TEST(FileTest, ListFilesFiltersBySuffix) {
  TempDir dir("bw7");
  {
    auto f1 = AppendableFile::Open(dir.path() + "/a.bak");
    ASSERT_TRUE(f1.ok());
    auto f2 = AppendableFile::Open(dir.path() + "/b.tmp");
    ASSERT_TRUE(f2.ok());
  }
  auto files = ListFiles(dir.path(), ".bak");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ((*files)[0], "a.bak");
}

TEST(FileTest, ReadMissingFileIsNotFound) {
  ByteBuffer buf;
  EXPECT_TRUE(ReadFileFully("/tmp/definitely_missing_scuba", &buf)
                  .IsNotFound());
}

}  // namespace
}  // namespace scuba
