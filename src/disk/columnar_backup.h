#ifndef SCUBA_DISK_COLUMNAR_BACKUP_H_
#define SCUBA_DISK_COLUMNAR_BACKUP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/leaf_map.h"
#include "columnar/row_block.h"
#include "disk/backup_reader.h"
#include "disk/file.h"
#include "util/byte_buffer.h"
#include "util/status.h"

namespace scuba {

/// The paper's §6 future work, implemented: "One large overhead in Scuba's
/// disk recovery is translating from the disk format to the heap memory
/// format. ... We are planning to use the shared memory format described
/// in this paper as the disk format, instead. We expect that the much
/// simpler translation to heap memory format will speed up disk recovery
/// significantly."
///
/// Per table, TWO files:
///
///   <table>.cols      append-only sealed row blocks in the shared-memory
///                     column format: each record is
///                       [u32 payload_len][u32 masked crc32c(meta part)]
///                       [u32 meta_len][meta][RBC buffers, 8-aligned]
///                     Recovery of a record is one memcpy per column (the
///                     RBC buffers are bit-identical to their heap form).
///
///   <table>.tail.<K>  rows not yet sealed into any block, as row-major
///                     records (backup_format), where K is the number of
///                     blocks in the .cols file when this tail started.
///
/// Seal protocol (crash-safe):
///   1. append the sealed block to .cols and fsync it,
///   2. create the empty tail.<K+1>,
///   3. delete tail.<K>.
/// Recovery reads .cols (K valid blocks) and replays EXACTLY tail.<K>;
/// any other tail generation is a crash leftover whose rows either are
/// already in a block (stale) or belong to a newer epoch that never
/// committed — both are ignored, matching the paper's "losing a tiny
/// amount of data on a crash is acceptable" stance (§4.1).
class ColumnarBackupWriter {
 public:
  explicit ColumnarBackupWriter(std::string dir) : dir_(std::move(dir)) {}

  ColumnarBackupWriter(const ColumnarBackupWriter&) = delete;
  ColumnarBackupWriter& operator=(const ColumnarBackupWriter&) = delete;

  Status Init() { return EnsureDir(dir_); }

  /// Appends a batch of not-yet-sealed rows to the table's current tail.
  /// `schema` is the batch's union schema, Schema::OfRows(rows).
  Status AppendBatch(const std::string& table, const Schema& schema,
                     const std::vector<Row>& rows);

  /// Mirrors a just-sealed row block to the .cols file and rotates the
  /// tail. Wire this as the table's SealObserver.
  Status OnBlockSealed(const std::string& table, const RowBlock& block);

  /// fsyncs all dirty files.
  Status SyncAll();

  std::string ColsPathFor(const std::string& table) const {
    return dir_ + "/" + table + ".cols";
  }
  std::string TailPathFor(const std::string& table, uint64_t k) const {
    return dir_ + "/" + table + ".tail." + std::to_string(k);
  }

  const std::string& dir() const { return dir_; }
  uint64_t total_bytes_written() const { return total_bytes_written_; }

 private:
  struct TableState {
    std::unique_ptr<AppendableFile> cols;
    std::unique_ptr<AppendableFile> tail;
    uint64_t num_blocks = 0;  // records in the .cols file
    bool cols_dirty = false;
    bool tail_dirty = false;
  };

  StatusOr<TableState*> GetOrInit(const std::string& table);
  Status OpenTail(const std::string& table, TableState* state);

  std::string dir_;
  std::unordered_map<std::string, TableState> tables_;
  uint64_t total_bytes_written_ = 0;
};

/// Recovery-side access to the columnar backup. The restore engine
/// (core/instant_restore) reads each table whole, then translates one
/// block record per unit with ParseBlock.
class ColumnarBackupReader {
 public:
  /// One sealed block record inside a fully-read .cols buffer: its parsed
  /// metadata (header time range, schema, column sizes) plus the payload
  /// slice ParseBlock later translates.
  struct BlockRef {
    RowBlock::Meta meta;
    Slice payload;
  };

  /// One table's backup as ReadTable found it.
  struct TableBackup {
    ByteBuffer contents;          // the .cols file; every BlockRef aliases it
    std::vector<BlockRef> blocks;  // the clean prefix of block records
    /// The matching tail.<blocks> replayed into a table of its own — in
    /// its write buffer, the same way a .bak translate leaves its tail —
    /// or null when there is no such tail.
    std::unique_ptr<Table> tail;
    /// Translation here is the envelope walk and the tail decode; a torn
    /// or corrupt record may end the .cols file and the tail (0-2 drops).
    DiskRestoreStats stats;
  };

  /// Reads `<table>.cols` and keeps the contiguous prefix of valid block
  /// records, stopping at the first torn or corrupt one and after at most
  /// `max_blocks` — the cut a caller applies when a block's payload failed
  /// to translate on an earlier attempt. Then replays EXACTLY
  /// `tail.<blocks kept>` (the seal protocol's match rule) through the
  /// .bak record loop (BackupReader::ReplayRecords), with `now` as the
  /// creation time of any block it seals; any other tail generation is
  /// stale and ignored. >0 `throttle_bytes_per_sec` paces the reads.
  static StatusOr<TableBackup> ReadTable(const std::string& dir,
                                         const std::string& table,
                                         size_t max_blocks,
                                         uint64_t throttle_bytes_per_sec,
                                         int64_t now);

  /// Translates one block record's payload into a heap row block — a
  /// single memcpy per column, callable from any thread. With
  /// `verify_checksums` each column's CRC32C is checked as well as its
  /// structure, and a non-null `verify_micros` accumulates the time the
  /// checks took.
  static StatusOr<std::unique_ptr<RowBlock>> ParseBlock(
      Slice payload, bool verify_checksums, int64_t* verify_micros = nullptr);

  /// Lists table names that have a .cols file in `dir`.
  static StatusOr<std::vector<std::string>> ListTables(const std::string& dir);

  /// Counts valid block records in a .cols file without loading payloads
  /// (used by the writer to resume K after a restart that recovered from
  /// shared memory and never read the disk files).
  static StatusOr<uint64_t> CountBlocks(const std::string& cols_path);
};

}  // namespace scuba

#endif  // SCUBA_DISK_COLUMNAR_BACKUP_H_
