#ifndef SCUBA_COLUMNAR_ROW_BLOCK_COLUMN_H_
#define SCUBA_COLUMNAR_ROW_BLOCK_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/types.h"
#include "compress/column_codec.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {

/// A row block column (RBC, Fig 3): all values of one column for every row
/// in a row block, stored as ONE contiguous byte buffer:
///
///   [Header | dictionary | data | Footer]
///
/// Every internal location (dictionary, data, footer) is an OFFSET from the
/// buffer base, never a pointer. This is the property the paper's restart
/// mechanism rests on: "using offsets enables us to copy the entire row
/// block column between heap and shared memory in one memory copy
/// operation. Only the address of the row block column itself needs to be
/// changed for its new location" (§2.1, §4.4).
///
/// Header (fixed 56 bytes, little-endian):
///   u32 magic            'RBC1'
///   u16 version          layout version of this column format (2)
///   u16 compression      codec chain code (column_codec::ChainCode)
///   u32 column type      ColumnType
///   u32 reserved
///   u64 total bytes      number of bytes used by the column (whole buffer)
///   u64 item count       number of items in the column
///   u64 dict item count  number of items in the dictionary
///   u64 dict offset      offset at which the dictionary is found
///   u64 data offset      offset at which the data is found
///   u64 footer offset    offset at which the footer is found
///
/// Footer (40 bytes) — carries a zone map so query execution can prune
/// whole row blocks on comparison predicates without decoding (the same
/// trick the header's min/max time plays for time predicates, §2.1):
///   u64 zone min bits       min value (int64 bits, or double bit pattern)
///   u64 zone max bits       max value
///   u32 zone flags          bit 0: zone map present
///   u32 reserved
///   u64 uncompressed bytes
///   u32 checksum            masked CRC32C of bytes [0, footer_offset + 32)
///   u32 end magic           'RBCE'
///
/// Layout version 1 had a 16-byte footer without the zone map; this build
/// never writes it, and readers reject it as Corruption (a restore then
/// takes its tested fallback: shm -> disk, or a .cols table cut there).
class RowBlockColumn {
 public:
  static constexpr uint32_t kMagic = 0x31434252;     // "RBC1"
  static constexpr uint32_t kEndMagic = 0x45434252;  // "RBCE"
  static constexpr uint16_t kVersion = 2;
  static constexpr size_t kHeaderSize = 56;
  static constexpr size_t kFooterSize = 40;

  RowBlockColumn(RowBlockColumn&&) noexcept = default;
  RowBlockColumn& operator=(RowBlockColumn&&) noexcept = default;
  RowBlockColumn(const RowBlockColumn&) = delete;
  RowBlockColumn& operator=(const RowBlockColumn&) = delete;

  /// Builders: encode a typed value vector into a fresh column buffer.
  /// Int64 and double builders record the column's min/max in the footer
  /// zone map (doubles containing NaN get no zone map).
  static RowBlockColumn BuildInt64(const std::vector<int64_t>& values);
  static RowBlockColumn BuildDouble(const std::vector<double>& values);
  static RowBlockColumn BuildString(const std::vector<std::string>& values);

  /// Adopts a buffer that already holds a serialized column (e.g. memcpy'd
  /// out of a shared memory segment). Validates magic and offsets, plus the
  /// CRC32C when `verify_checksum` (skipping the CRC makes adoption pure
  /// memcpy-speed, which is what the paper's restore path does). A non-null
  /// `verify_micros` accumulates the time spent validating a checksummed
  /// buffer (the restore's checksum layer); it is left alone when
  /// `verify_checksum` is false.
  static StatusOr<RowBlockColumn> FromBuffer(std::unique_ptr<uint8_t[]> buffer,
                                             size_t size,
                                             bool verify_checksum = true,
                                             int64_t* verify_micros = nullptr);

  /// Validates an in-place serialized column without copying (used to check
  /// a column while it still lives in a shared memory segment).
  static Status ValidateBuffer(Slice buffer, bool verify_checksum = true);

  // Header accessors.
  uint16_t version() const;
  ColumnType type() const;
  column_codec::ChainCode compression_chain() const;
  uint64_t item_count() const;
  uint64_t dict_item_count() const;
  uint64_t total_bytes() const { return size_; }
  uint64_t uncompressed_bytes() const;

  // Zone map accessors.
  bool HasZoneMap() const;
  /// Min/max of an int64 column; false when absent or wrong type.
  bool ZoneRangeInt64(int64_t* min, int64_t* max) const;
  /// Min/max of a double column; false when absent or wrong type.
  bool ZoneRangeDouble(double* min, double* max) const;

  /// The whole contiguous buffer; relocating the column IS memcpy'ing this.
  Slice AsSlice() const { return Slice(buffer_.get(), size_); }
  const uint8_t* data() const { return buffer_.get(); }

  /// Raw views of the dictionary and data blobs (still encoded). The
  /// compressed-domain scan path (query/packed_column) filters directly on
  /// these without materializing the column.
  Slice dict_slice() const { return DictSlice(); }
  Slice data_slice() const { return DataSlice(); }

  // Decoders (full column materialization).
  Status DecodeInt64(std::vector<int64_t>* values) const;
  Status DecodeDouble(std::vector<double>* values) const;
  Status DecodeString(std::vector<std::string>* values) const;

  /// Dictionary view of a dictionary-encoded string column: the distinct
  /// values plus the per-row code vector, WITHOUT materializing a
  /// std::string per row. FailedPrecondition when the column is not
  /// dictionary-encoded (callers fall back to DecodeString).
  Status DecodeStringDictionary(std::vector<std::string>* dict_values,
                                std::vector<uint32_t>* codes) const;

  /// Integrity check of this column's buffer.
  Status Validate() const { return ValidateBuffer(AsSlice()); }

 private:
  RowBlockColumn(std::unique_ptr<uint8_t[]> buffer, size_t size)
      : buffer_(std::move(buffer)), size_(size) {}

  struct ZoneMap {
    bool present = false;
    uint64_t min_bits = 0;
    uint64_t max_bits = 0;
  };

  static RowBlockColumn Assemble(ColumnType type,
                                 column_codec::EncodedColumn encoded,
                                 uint64_t item_count,
                                 uint64_t uncompressed_bytes, ZoneMap zone);

  size_t FooterOffset() const;
  Slice DictSlice() const;
  Slice DataSlice() const;

  std::unique_ptr<uint8_t[]> buffer_;
  size_t size_;
};

}  // namespace scuba

#endif  // SCUBA_COLUMNAR_ROW_BLOCK_COLUMN_H_
