#include "disk/backup_reader.h"

#include "disk/backup_format.h"
#include "disk/file.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/logging.h"

namespace scuba {
namespace {

// Cumulative process-wide counters of .bak recoveries
// (scuba.disk.backup.read.*).
struct ReaderMetrics {
  obs::Counter* tables;
  obs::Counter* bytes_read;
  obs::Counter* rows;
  obs::Counter* records_dropped;
  obs::Histogram* read_micros;
  obs::Histogram* translate_micros;

  static ReaderMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ReaderMetrics m{
        reg.GetCounter("scuba.disk.backup.read.tables_recovered"),
        reg.GetCounter("scuba.disk.backup.read.bytes_read"),
        reg.GetCounter("scuba.disk.backup.read.rows_recovered"),
        reg.GetCounter("scuba.disk.backup.read.records_dropped"),
        reg.GetHistogram("scuba.disk.backup.read.read_micros"),
        reg.GetHistogram("scuba.disk.backup.read.translate_micros")};
    return m;
  }
};

}  // namespace

Status BackupReader::RecoverTable(const std::string& path, Table* table,
                                  uint64_t throttle_bytes_per_sec, int64_t now,
                                  DiskRestoreStats* stats) {
  ReaderMetrics& metrics = ReaderMetrics::Get();

  // Phase 1: the raw disk read (20-25 minutes of the paper's recovery).
  Stopwatch read_watch;
  ByteBuffer contents;
  SCUBA_RETURN_IF_ERROR(ReadFileFully(path, &contents, throttle_bytes_per_sec));
  int64_t read_micros = read_watch.ElapsedMicros();
  stats->read_micros += read_micros;
  stats->bytes_read += contents.size();
  metrics.read_micros->Record(static_cast<uint64_t>(read_micros));
  metrics.bytes_read->Add(contents.size());

  // Phase 2: translation to the in-memory format (the dominant cost).
  Stopwatch translate_watch;
  Slice input = contents.AsSlice();
  SCUBA_RETURN_IF_ERROR(backup_format::CheckFileHeader(&input));

  uint64_t rows_before = table->RowCount();
  for (;;) {
    std::vector<Row> rows;
    Status s = backup_format::ReadRowBatchRecord(&input, &rows);
    if (s.IsNotFound()) break;  // clean end of file
    if (s.IsCorruption()) {
      // Torn tail from a crash mid-append: keep what we have (§4.1 —
      // "losing a tiny amount of data ... acceptable").
      SCUBA_WARN << "backup " << path
                 << ": stopping at corrupt record: " << s.ToString();
      ++stats->records_dropped;
      metrics.records_dropped->Add(1);
      break;
    }
    SCUBA_RETURN_IF_ERROR(s);
    SCUBA_RETURN_IF_ERROR(table->AddRows(rows, now));
  }
  SCUBA_RETURN_IF_ERROR(table->SealWriteBuffer(now));

  int64_t translate_micros = translate_watch.ElapsedMicros();
  stats->translate_micros += translate_micros;
  metrics.translate_micros->Record(static_cast<uint64_t>(translate_micros));
  metrics.rows->Add(table->RowCount() - rows_before);
  metrics.tables->Add(1);
  return Status::OK();
}

}  // namespace scuba
