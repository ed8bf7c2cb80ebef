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

Status BackupReader::RecoverTable(const std::string& path,
                                  uint64_t file_bytes, Table* table,
                                  uint64_t throttle_bytes_per_sec, int64_t now,
                                  DiskRestoreStats* stats) {
  ReaderMetrics& metrics = ReaderMetrics::Get();
  // The raw disk read (20-25 minutes of the paper's recovery) interleaves
  // with the translation to the in-memory format (the dominant cost); the
  // reader times its own reads, and the rest of the wall time is the
  // translate.
  Stopwatch watch;
  SCUBA_ASSIGN_OR_RETURN(
      ChunkedFileReader file,
      ChunkedFileReader::Open(path, file_bytes, throttle_bytes_per_sec));
  Slice header;
  Status s = file.remaining() < backup_format::kFileHeaderSize
                 ? Status::Corruption("backup: missing file header")
                 : file.Read(backup_format::kFileHeaderSize, &header);
  if (s.ok()) s = backup_format::CheckFileHeader(&header);

  const uint64_t rows_before = table->RowCount();
  const uint64_t dropped_before = stats->records_dropped;
  if (s.ok()) s = ReplayRecords(&file, table, now, stats);

  const int64_t read_micros = file.read_micros();
  const int64_t translate_micros = watch.ElapsedMicros() - read_micros;
  stats->read_micros += read_micros;
  stats->translate_micros += translate_micros;
  stats->bytes_read += file.bytes_read();
  metrics.read_micros->Record(static_cast<uint64_t>(read_micros));
  metrics.bytes_read->Add(file.bytes_read());
  SCUBA_RETURN_IF_ERROR(s);
  metrics.translate_micros->Record(static_cast<uint64_t>(translate_micros));
  metrics.records_dropped->Add(stats->records_dropped - dropped_before);
  metrics.rows->Add(table->RowCount() - rows_before);
  metrics.tables->Add(1);
  return Status::OK();
}

Status BackupReader::ReplayRecords(ChunkedFileReader* file, Table* table,
                                   int64_t now, DiskRestoreStats* stats) {
  backup_format::RowBatch batch;
  for (;;) {
    Slice payload;
    Status s = backup_format::ReadRecord(file, &payload);
    if (s.IsNotFound()) return Status::OK();  // clean end of file
    if (s.ok()) s = backup_format::DecodeRowBatch(payload, &batch);
    if (s.IsCorruption()) {
      // Torn tail from a crash mid-append: keep what we have (§4.1 —
      // "losing a tiny amount of data ... acceptable").
      SCUBA_WARN << file->path()
                 << ": stopping at corrupt record: " << s.ToString();
      ++stats->records_dropped;
      return Status::OK();
    }
    SCUBA_RETURN_IF_ERROR(s);
    // A field whose type changed across a crash: the live leaf sealed the
    // recovered tail into a block ahead of the newer rows
    // (Table::AdoptRecovered), and the replay seals at the first record
    // that could not be appended.
    if (table->write_buffer().ConflictsWith(batch.schema)) {
      SCUBA_RETURN_IF_ERROR(table->SealWriteBuffer(now));
    }
    SCUBA_RETURN_IF_ERROR(
        table->AddColumns(batch.schema, std::move(batch.columns), now));
  }
}

}  // namespace scuba
