#include "disk/backup_writer.h"

#include "disk/backup_format.h"
#include "obs/metrics.h"
#include "util/byte_buffer.h"

namespace scuba {
namespace {

// Cumulative process-wide counters for the row-major backup writer
// (scuba.disk.backup.write.*).
struct WriterMetrics {
  obs::Counter* batches;
  obs::Counter* bytes_written;
  obs::Counter* syncs;

  static WriterMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static WriterMetrics m{
        reg.GetCounter("scuba.disk.backup.write.batches"),
        reg.GetCounter("scuba.disk.backup.write.bytes_written"),
        reg.GetCounter("scuba.disk.backup.write.syncs")};
    return m;
  }
};

}  // namespace

StatusOr<BackupWriter::TableFile*> BackupWriter::GetOrOpen(
    const std::string& table) {
  auto it = files_.find(table);
  if (it != files_.end()) return &it->second;

  std::string path = FilePathFor(table);
  bool fresh = !FileExists(path) || FileSize(path) == 0;
  SCUBA_ASSIGN_OR_RETURN(AppendableFile file, AppendableFile::Open(path));
  TableFile entry;
  entry.file = std::make_unique<AppendableFile>(std::move(file));
  if (fresh) {
    ByteBuffer header;
    backup_format::AppendFileHeader(&header);
    SCUBA_RETURN_IF_ERROR(entry.file->Append(header.data(), header.size()));
    total_bytes_written_ += header.size();
  }
  auto [inserted, ok] = files_.emplace(table, std::move(entry));
  (void)ok;
  return &inserted->second;
}

Status BackupWriter::AppendBatch(const std::string& table,
                                 const Schema& schema,
                                 const std::vector<Row>& rows) {
  SCUBA_ASSIGN_OR_RETURN(TableFile * entry, GetOrOpen(table));
  ByteBuffer record;
  SCUBA_RETURN_IF_ERROR(
      backup_format::AppendRowBatchRecord(schema, rows, &record));
  SCUBA_RETURN_IF_ERROR(entry->file->Append(record.data(), record.size()));
  total_bytes_written_ += record.size();
  entry->dirty = true;
  WriterMetrics& metrics = WriterMetrics::Get();
  metrics.batches->Add(1);
  metrics.bytes_written->Add(record.size());
  return Status::OK();
}

Status BackupWriter::SyncAll() {
  for (auto& [name, entry] : files_) {
    if (!entry.dirty) continue;
    SCUBA_RETURN_IF_ERROR(entry.file->Sync());
    entry.dirty = false;
    WriterMetrics::Get().syncs->Add(1);
  }
  return Status::OK();
}

size_t BackupWriter::dirty_table_count() const {
  size_t count = 0;
  for (const auto& [name, entry] : files_) {
    if (entry.dirty) ++count;
  }
  return count;
}

}  // namespace scuba
