#include "disk/columnar_backup.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "disk/backup_format.h"
#include "obs/metrics.h"
#include "util/bit_util.h"
#include "util/byte_buffer.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/varint.h"

namespace scuba {
namespace {

constexpr uint32_t kTailMagic = 0x4C494154;  // "TAIL"
constexpr uint16_t kTailVersion = 1;
// magic, version, reserved, u64 block count K
constexpr size_t kTailHeaderSize = 16;

size_t AlignUp8(size_t v) { return static_cast<size_t>(bit_util::RoundUp(v, 8)); }

// Serializes one sealed block as a .cols record payload:
//   u32 meta_len, meta, pad8, then each RBC buffer pad8.
void BuildBlockPayload(const RowBlock& block, ByteBuffer* payload) {
  ByteBuffer meta;
  block.SerializeMeta(&meta);
  payload->AppendU32(static_cast<uint32_t>(meta.size()));
  payload->Append(meta.data(), meta.size());
  payload->AlignTo(8);
  for (size_t c = 0; c < block.num_columns(); ++c) {
    payload->Append(block.column(c)->AsSlice());
    payload->AlignTo(8);
  }
}

// Parses a .cols record payload into a heap row block. The column copies
// are single memcpys — this is the "much simpler translation" of §6.
StatusOr<std::unique_ptr<RowBlock>> ParseBlockPayload(Slice payload,
                                                      bool verify_checksums,
                                                      int64_t* verify_micros) {
  if (payload.size() < 4) {
    return Status::Corruption("cols record: truncated meta length");
  }
  uint32_t meta_len = ByteBuffer::DecodeU32(payload.data());
  payload.RemovePrefix(4);
  if (payload.size() < meta_len) {
    return Status::Corruption("cols record: truncated meta");
  }
  Slice meta_slice = payload.Subslice(0, meta_len);
  SCUBA_ASSIGN_OR_RETURN(RowBlock::Meta meta, RowBlock::ParseMeta(&meta_slice));
  payload.RemovePrefix(AlignUp8(4 + meta_len) - 4);

  std::vector<std::unique_ptr<RowBlockColumn>> columns;
  columns.reserve(meta.column_sizes.size());
  for (uint64_t col_size : meta.column_sizes) {
    if (payload.size() < col_size) {
      return Status::Corruption("cols record: truncated column payload");
    }
    std::unique_ptr<uint8_t[]> heap_buf(new uint8_t[col_size]);
    std::memcpy(heap_buf.get(), payload.data(), col_size);
    SCUBA_ASSIGN_OR_RETURN(
        RowBlockColumn column,
        RowBlockColumn::FromBuffer(std::move(heap_buf),
                                   static_cast<size_t>(col_size),
                                   verify_checksums, verify_micros));
    columns.push_back(std::make_unique<RowBlockColumn>(std::move(column)));
    payload.RemovePrefix(AlignUp8(static_cast<size_t>(col_size)));
  }
  return RowBlock::FromParts(meta.header, std::move(meta.schema),
                             std::move(columns));
}

// Record envelope shared by writer and readers:
//   u32 payload_len, u32 masked crc32c(first min(payload_len, 4+meta_len+4)
//   bytes — in practice the meta region; RBC buffers carry their own CRCs).
// For simplicity the CRC covers the first 512 bytes of the payload (or the
// whole payload when shorter): enough to catch torn meta without paying a
// full-file CRC on the fast path.
constexpr size_t kCrcPrefixBytes = 512;

uint32_t PayloadCrc(Slice payload) {
  size_t n = std::min(payload.size(), kCrcPrefixBytes);
  return crc32c::Mask(crc32c::Value(payload.data(), n));
}

// Reads the block record at the front of `input` — its envelope and the
// payload's meta region — and advances past it. Corruption on a torn or
// corrupt record.
StatusOr<ColumnarBackupReader::BlockRef> ReadBlockRecord(Slice* input) {
  if (input->size() < 8) {
    return Status::Corruption("cols record: torn envelope");
  }
  const uint32_t payload_len = ByteBuffer::DecodeU32(input->data());
  const uint32_t stored_crc = ByteBuffer::DecodeU32(input->data() + 4);
  if (input->size() < 8 + static_cast<size_t>(payload_len)) {
    return Status::Corruption("cols record: torn payload");
  }
  Slice payload(input->data() + 8, payload_len);
  if (PayloadCrc(payload) != stored_crc) {
    return Status::Corruption("cols record: meta checksum mismatch");
  }
  if (payload.size() < 4 ||
      payload.size() - 4 < ByteBuffer::DecodeU32(payload.data())) {
    return Status::Corruption("cols record: truncated meta");
  }
  Slice meta_slice = payload.Subslice(4, ByteBuffer::DecodeU32(payload.data()));
  SCUBA_ASSIGN_OR_RETURN(RowBlock::Meta meta, RowBlock::ParseMeta(&meta_slice));
  input->RemovePrefix(8 + payload_len);
  return ColumnarBackupReader::BlockRef{std::move(meta), payload};
}

// Cumulative process-wide counters for the columnar backup path
// (scuba.disk.columnar.*): the writer's seals and the reader's file reads.
// Blocks and tables restored are counted once, by the restore engine
// (scuba.core.restore.*).
struct ColumnarMetrics {
  obs::Counter* blocks_sealed;
  obs::Counter* bytes_written;
  obs::Counter* bytes_read;
  obs::Counter* tail_rows;
  obs::Counter* records_dropped;
  obs::Histogram* read_micros;

  static ColumnarMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ColumnarMetrics m{
        reg.GetCounter("scuba.disk.columnar.blocks_sealed"),
        reg.GetCounter("scuba.disk.columnar.bytes_written"),
        reg.GetCounter("scuba.disk.columnar.bytes_read"),
        reg.GetCounter("scuba.disk.columnar.tail_rows_recovered"),
        reg.GetCounter("scuba.disk.columnar.records_dropped"),
        reg.GetHistogram("scuba.disk.columnar.read_micros")};
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

StatusOr<ColumnarBackupWriter::TableState*> ColumnarBackupWriter::GetOrInit(
    const std::string& table) {
  auto it = tables_.find(table);
  if (it != tables_.end()) return &it->second;

  TableState state;
  std::string cols_path = ColsPathFor(table);
  // Resume K from whatever the file already holds (e.g. after a restart
  // that recovered from shared memory and never read the disk files).
  if (FileExists(cols_path) && FileSize(cols_path) > 0) {
    SCUBA_ASSIGN_OR_RETURN(state.num_blocks,
                           ColumnarBackupReader::CountBlocks(cols_path));
  }
  SCUBA_ASSIGN_OR_RETURN(AppendableFile cols, AppendableFile::Open(cols_path));
  state.cols = std::make_unique<AppendableFile>(std::move(cols));

  auto [inserted, ok] = tables_.emplace(table, std::move(state));
  (void)ok;
  SCUBA_RETURN_IF_ERROR(OpenTail(table, &inserted->second));
  return &inserted->second;
}

Status ColumnarBackupWriter::OpenTail(const std::string& table,
                                      TableState* state) {
  std::string path = TailPathFor(table, state->num_blocks);
  bool fresh = !FileExists(path) || FileSize(path) == 0;
  SCUBA_ASSIGN_OR_RETURN(AppendableFile tail, AppendableFile::Open(path));
  state->tail = std::make_unique<AppendableFile>(std::move(tail));
  if (fresh) {
    ByteBuffer header;
    header.AppendU32(kTailMagic);
    header.AppendU16(kTailVersion);
    header.AppendU16(0);
    header.AppendU64(state->num_blocks);
    SCUBA_RETURN_IF_ERROR(state->tail->Append(header.data(), header.size()));
    total_bytes_written_ += header.size();
  }
  return Status::OK();
}

Status ColumnarBackupWriter::AppendBatch(const std::string& table,
                                         const Schema& schema,
                                         const std::vector<Row>& rows) {
  SCUBA_ASSIGN_OR_RETURN(TableState * state, GetOrInit(table));
  ByteBuffer record;
  SCUBA_RETURN_IF_ERROR(
      backup_format::AppendRowBatchRecord(schema, rows, &record));
  SCUBA_RETURN_IF_ERROR(state->tail->Append(record.data(), record.size()));
  total_bytes_written_ += record.size();
  state->tail_dirty = true;
  return Status::OK();
}

Status ColumnarBackupWriter::OnBlockSealed(const std::string& table,
                                           const RowBlock& block) {
  SCUBA_ASSIGN_OR_RETURN(TableState * state, GetOrInit(table));

  // 1. Append the block record and fsync .cols: once this is durable, the
  //    old tail's rows are redundant.
  ByteBuffer payload;
  BuildBlockPayload(block, &payload);
  ByteBuffer envelope;
  envelope.AppendU32(static_cast<uint32_t>(payload.size()));
  envelope.AppendU32(PayloadCrc(payload.AsSlice()));
  SCUBA_RETURN_IF_ERROR(state->cols->Append(envelope.data(), envelope.size()));
  SCUBA_RETURN_IF_ERROR(state->cols->Append(payload.data(), payload.size()));
  total_bytes_written_ += envelope.size() + payload.size();
  SCUBA_RETURN_IF_ERROR(state->cols->Sync());
  state->cols_dirty = false;
  ColumnarMetrics& metrics = ColumnarMetrics::Get();
  metrics.blocks_sealed->Add(1);
  metrics.bytes_written->Add(envelope.size() + payload.size());

  // 2. Start the next tail generation.
  uint64_t old_k = state->num_blocks;
  ++state->num_blocks;
  SCUBA_RETURN_IF_ERROR(OpenTail(table, state));
  state->tail_dirty = true;

  // 3. Drop the superseded tail.
  return RemoveFile(TailPathFor(table, old_k));
}

Status ColumnarBackupWriter::SyncAll() {
  for (auto& [name, state] : tables_) {
    if (state.cols_dirty) {
      SCUBA_RETURN_IF_ERROR(state.cols->Sync());
      state.cols_dirty = false;
    }
    if (state.tail_dirty) {
      SCUBA_RETURN_IF_ERROR(state.tail->Sync());
      state.tail_dirty = false;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

StatusOr<std::vector<std::string>> ColumnarBackupReader::ListTables(
    const std::string& dir) {
  SCUBA_ASSIGN_OR_RETURN(std::vector<std::string> files,
                         ListFiles(dir, ".cols"));
  std::vector<std::string> tables;
  tables.reserve(files.size());
  for (const std::string& file : files) {
    tables.push_back(file.substr(0, file.size() - 5));
  }
  return tables;
}

StatusOr<uint64_t> ColumnarBackupReader::CountBlocks(
    const std::string& cols_path) {
  // Walk the record envelopes without reading payloads.
  int fd = ::open(cols_path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("open '" + cols_path + "'");
  uint64_t count = 0;
  off_t offset = 0;
  for (;;) {
    uint8_t envelope[8];
    ssize_t n = ::pread(fd, envelope, 8, offset);
    if (n == 0) break;  // clean end
    if (n != 8) break;  // torn envelope: stop counting
    uint32_t payload_len = ByteBuffer::DecodeU32(envelope);
    off_t next = offset + 8 + static_cast<off_t>(payload_len);
    // Ensure the payload is fully present.
    uint8_t probe;
    if (payload_len > 0 &&
        ::pread(fd, &probe, 1, next - 1) != 1) {
      break;  // torn payload
    }
    ++count;
    offset = next;
  }
  ::close(fd);
  return count;
}

StatusOr<std::unique_ptr<RowBlock>> ColumnarBackupReader::ParseBlock(
    Slice payload, bool verify_checksums, int64_t* verify_micros) {
  return ParseBlockPayload(payload, verify_checksums, verify_micros);
}

StatusOr<ColumnarBackupReader::TableBackup> ColumnarBackupReader::ReadTable(
    const std::string& dir, const std::string& table, size_t max_blocks,
    uint64_t throttle_bytes_per_sec, int64_t now) {
  ColumnarMetrics& metrics = ColumnarMetrics::Get();
  TableBackup backup;

  // The raw read of the .cols file: the cheap phase (§6).
  Stopwatch read_watch;
  SCUBA_RETURN_IF_ERROR(ReadFileFully(dir + "/" + table + ".cols",
                                      &backup.contents,
                                      throttle_bytes_per_sec));
  DiskRestoreStats& stats = backup.stats;
  stats.read_micros = read_watch.ElapsedMicros();
  stats.bytes_read = backup.contents.size();

  // Walk the block records, parsing each meta region (header, schema,
  // column sizes) — cheap relative to the column memcpys ParseBlock does
  // later. The first torn or corrupt record ends the clean prefix.
  Stopwatch translate_watch;
  Slice input = backup.contents.AsSlice();
  while (!input.empty()) {
    StatusOr<BlockRef> block =
        backup.blocks.size() < max_blocks
            ? ReadBlockRecord(&input)
            : Status::Corruption("cut where a block failed to load");
    if (!block.ok()) {
      SCUBA_WARN << "columnar backup " << table << ": stopping at block "
                 << backup.blocks.size() << ": " << block.status().ToString();
      ++stats.records_dropped;
      break;
    }
    backup.blocks.push_back(std::move(block).value());
  }

  // Replay EXACTLY tail.<blocks kept>; other generations are stale.
  const std::string tail_name =
      table + ".tail." + std::to_string(backup.blocks.size());
  if (FileExists(dir + "/" + tail_name)) {
    SCUBA_ASSIGN_OR_RETURN(
        ChunkedFileReader tail,
        ChunkedFileReader::Open(dir + "/" + tail_name, UINT64_MAX,
                                throttle_bytes_per_sec));
    Slice header;
    if (tail.remaining() >= kTailHeaderSize) {
      SCUBA_RETURN_IF_ERROR(tail.Read(kTailHeaderSize, &header));
    }
    if (header.size() == kTailHeaderSize &&
        ByteBuffer::DecodeU32(header.data()) == kTailMagic) {
      backup.tail = std::make_unique<Table>(table);
      SCUBA_RETURN_IF_ERROR(
          BackupReader::ReplayRecords(&tail, backup.tail.get(), now, &stats));
    }
    stats.read_micros += tail.read_micros();
    stats.bytes_read += tail.bytes_read();
    stats.translate_micros -= tail.read_micros();
  }
  SCUBA_ASSIGN_OR_RETURN(std::vector<std::string> all_files,
                         ListFiles(dir, ""));
  for (const std::string& file : all_files) {
    if (file.rfind(table + ".tail.", 0) == 0 && file != tail_name) {
      ++stats.stale_tails_ignored;
    }
  }
  stats.translate_micros += translate_watch.ElapsedMicros();

  metrics.bytes_read->Add(stats.bytes_read);
  metrics.tail_rows->Add(backup.tail != nullptr ? backup.tail->RowCount() : 0);
  metrics.records_dropped->Add(stats.records_dropped);
  metrics.read_micros->Record(static_cast<uint64_t>(stats.read_micros));
  return backup;
}

}  // namespace scuba
