#ifndef SCUBA_DISK_BACKUP_FORMAT_H_
#define SCUBA_DISK_BACKUP_FORMAT_H_

#include <string>
#include <vector>

#include "columnar/row.h"
#include "columnar/row_block.h"
#include "columnar/schema.h"
#include "disk/file.h"
#include "util/byte_buffer.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {
namespace backup_format {

/// On-disk backup format for a table, written as rows arrive.
///
/// The format is deliberately ROW-MAJOR and value-encoded: recovering from
/// it requires decoding every value, regrouping rows into row blocks, and
/// re-running the column compression pipeline. This reproduces the paper's
/// disk-recovery bottleneck — "reading that data in its disk format and
/// translating it to its in-memory format takes 2.5-3 hours" vs 20-25
/// minutes for the raw read (§1). (The paper's §6 future work proposes
/// replacing this with the shm format; bench_disk_vs_shm measures both.)
///
/// File = u32 magic + u16 version + u16 reserved, then a record sequence:
///   record = u32 payload_len, u32 masked crc32c(payload), payload
///   payload = u8 type(1 = row batch)
///           + serialized union schema
///           + varint row_count
///           + row-major dense values:
///               int64  -> zigzag varint
///               double -> 8 raw bytes
///               string -> varint len + bytes
///
/// A torn final record (crash mid-write) fails its CRC; recovery stops
/// there and keeps everything before it ("losing a tiny amount of data...
/// acceptable", §4.1).

inline constexpr uint32_t kFileMagic = 0x4B414253;  // "SBAK"
inline constexpr uint16_t kFileVersion = 1;
inline constexpr size_t kFileHeaderSize = 8;

/// Appends the file header to `out`.
void AppendFileHeader(ByteBuffer* out);

/// Validates and strips the file header from `*input`.
Status CheckFileHeader(Slice* input);

/// Encodes one batch of rows as a record. Rows may have heterogeneous
/// field sets; the record stores their union schema with defaults
/// back-filled. `schema` must be that union, Schema::OfRows(rows), which
/// the caller has built (and so checked) already: the leaf builds it once
/// per ingested batch. Fails on an empty batch.
Status AppendRowBatchRecord(const Schema& schema, const std::vector<Row>& rows,
                            ByteBuffer* out);

/// Reads the next record from `file` (positioned after the file header)
/// and checks its CRC. Returns:
///  - OK with `*payload` valid until the file's next Read,
///  - NotFound at the clean end of the file,
///  - Corruption on a torn or corrupt record: a header or payload cut
///    short, a length pointing past the end of the file (decided from the
///    file's size, never by allocating that length), or a CRC mismatch.
Status ReadRecord(ChunkedFileReader* file, Slice* payload);

/// One row-batch record in column form: the record's union schema and one
/// dense value vector per schema column — the shape RowBlock::Build and
/// Table::AddColumns take.
struct RowBatch {
  Schema schema;
  std::vector<ColumnValues> columns;
};

/// Decodes a row-batch record's payload straight into `*batch`, replacing
/// its contents. Corruption on a malformed payload.
Status DecodeRowBatch(Slice payload, RowBatch* batch);

}  // namespace backup_format
}  // namespace scuba

#endif  // SCUBA_DISK_BACKUP_FORMAT_H_
