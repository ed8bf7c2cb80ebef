#include "columnar/row_block_column.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/byte_buffer.h"
#include "util/clock.h"
#include "util/crc32c.h"

namespace scuba {
namespace {

// Header field offsets (see class comment for the layout).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffCompression = 6;
constexpr size_t kOffType = 8;
// 4 reserved bytes at offset 12.
constexpr size_t kOffTotalBytes = 16;
constexpr size_t kOffItemCount = 24;
constexpr size_t kOffDictItemCount = 32;
constexpr size_t kOffDictOffset = 40;
constexpr size_t kOffDataOffset = 48;
// Footer field offsets relative to footer start (the trailing
// [uncompressed | checksum | end magic] 16 bytes are addressed from the
// buffer END instead).
constexpr size_t kFooterOffZoneMin = 0;
constexpr size_t kFooterOffZoneMax = 8;
constexpr size_t kFooterOffZoneFlags = 16;
constexpr uint32_t kZoneFlagPresent = 1u;
// Common trailing fields, relative to the END of the buffer.
constexpr size_t kTrailerOffUncompressed = 16;
constexpr size_t kTrailerOffChecksum = 8;
constexpr size_t kTrailerOffEndMagic = 4;

uint64_t ReadU64At(const uint8_t* base, size_t off) {
  return ByteBuffer::DecodeU64(base + off);
}
uint32_t ReadU32At(const uint8_t* base, size_t off) {
  return ByteBuffer::DecodeU32(base + off);
}
uint16_t ReadU16At(const uint8_t* base, size_t off) {
  return static_cast<uint16_t>(base[off] |
                               (static_cast<uint16_t>(base[off + 1]) << 8));
}

}  // namespace

// The footer offset is not stored as a header field: it is derivable as
// total_bytes - footer size, and keeping a single source of truth avoids
// inconsistent-offset corruption classes. (Fig 3 lists it; we document the
// derivation instead of duplicating state.)
size_t RowBlockColumn::FooterOffset() const { return size_ - kFooterSize; }

RowBlockColumn RowBlockColumn::Assemble(ColumnType type,
                                        column_codec::EncodedColumn encoded,
                                        uint64_t item_count,
                                        uint64_t uncompressed_bytes,
                                        ZoneMap zone) {
  const size_t dict_size = encoded.dict.size();
  const size_t data_size = encoded.data.size();
  const size_t dict_offset = kHeaderSize;
  const size_t data_offset = dict_offset + dict_size;
  const size_t footer_offset = data_offset + data_size;
  const size_t total = footer_offset + kFooterSize;

  std::unique_ptr<uint8_t[]> buf(new uint8_t[total]);
  uint8_t* p = buf.get();
  std::memset(p, 0, kHeaderSize);
  ByteBuffer::EncodeU32(p + kOffMagic, kMagic);
  p[kOffVersion] = static_cast<uint8_t>(kVersion);
  p[kOffVersion + 1] = static_cast<uint8_t>(kVersion >> 8);
  p[kOffCompression] = static_cast<uint8_t>(encoded.chain);
  p[kOffCompression + 1] = static_cast<uint8_t>(encoded.chain >> 8);
  ByteBuffer::EncodeU32(p + kOffType, static_cast<uint32_t>(type));
  ByteBuffer::EncodeU64(p + kOffTotalBytes, total);
  ByteBuffer::EncodeU64(p + kOffItemCount, item_count);
  ByteBuffer::EncodeU64(p + kOffDictItemCount, encoded.dict_item_count);
  ByteBuffer::EncodeU64(p + kOffDictOffset, dict_offset);
  ByteBuffer::EncodeU64(p + kOffDataOffset, data_offset);

  if (dict_size > 0) std::memcpy(p + dict_offset, encoded.dict.data(), dict_size);
  if (data_size > 0) std::memcpy(p + data_offset, encoded.data.data(), data_size);

  uint8_t* footer = p + footer_offset;
  ByteBuffer::EncodeU64(footer + kFooterOffZoneMin, zone.min_bits);
  ByteBuffer::EncodeU64(footer + kFooterOffZoneMax, zone.max_bits);
  ByteBuffer::EncodeU32(footer + kFooterOffZoneFlags,
                        zone.present ? kZoneFlagPresent : 0u);
  ByteBuffer::EncodeU32(footer + kFooterOffZoneFlags + 4, 0);  // reserved
  ByteBuffer::EncodeU64(p + total - kTrailerOffUncompressed,
                        uncompressed_bytes);
  uint32_t crc = crc32c::Value(p, total - kTrailerOffChecksum);
  ByteBuffer::EncodeU32(p + total - kTrailerOffChecksum, crc32c::Mask(crc));
  ByteBuffer::EncodeU32(p + total - kTrailerOffEndMagic, kEndMagic);

  return RowBlockColumn(std::move(buf), total);
}

RowBlockColumn RowBlockColumn::BuildInt64(const std::vector<int64_t>& values) {
  ZoneMap zone;
  if (!values.empty()) {
    auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    zone.present = true;
    zone.min_bits = static_cast<uint64_t>(*mn);
    zone.max_bits = static_cast<uint64_t>(*mx);
  }
  return Assemble(ColumnType::kInt64, column_codec::EncodeInt64(values),
                  values.size(), values.size() * 8, zone);
}

RowBlockColumn RowBlockColumn::BuildDouble(const std::vector<double>& values) {
  ZoneMap zone;
  if (!values.empty()) {
    double mn = values[0], mx = values[0];
    bool has_nan = false;
    for (double v : values) {
      if (std::isnan(v)) {
        has_nan = true;
        break;
      }
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    if (!has_nan) {
      zone.present = true;
      std::memcpy(&zone.min_bits, &mn, 8);
      std::memcpy(&zone.max_bits, &mx, 8);
    }
  }
  return Assemble(ColumnType::kDouble, column_codec::EncodeDouble(values),
                  values.size(), values.size() * 8, zone);
}

RowBlockColumn RowBlockColumn::BuildString(
    const std::vector<std::string>& values) {
  uint64_t logical = 0;
  for (const std::string& v : values) logical += v.size() + 8;
  return Assemble(ColumnType::kString, column_codec::EncodeString(values),
                  values.size(), logical, ZoneMap());
}

Status RowBlockColumn::ValidateBuffer(Slice buffer, bool verify_checksum) {
  if (buffer.size() < kHeaderSize + kFooterSize) {
    return Status::Corruption("rbc: buffer smaller than header + footer");
  }
  const uint8_t* p = buffer.data();
  if (ReadU32At(p, kOffMagic) != kMagic) {
    return Status::Corruption("rbc: bad magic");
  }
  if (ReadU16At(p, kOffVersion) != kVersion) {
    return Status::Corruption("rbc: unsupported version");
  }
  uint64_t total = ReadU64At(p, kOffTotalBytes);
  if (total != buffer.size()) {
    return Status::Corruption("rbc: total bytes mismatch");
  }
  uint64_t dict_offset = ReadU64At(p, kOffDictOffset);
  uint64_t data_offset = ReadU64At(p, kOffDataOffset);
  size_t footer_offset = static_cast<size_t>(total) - kFooterSize;
  if (dict_offset != kHeaderSize || data_offset < dict_offset ||
      data_offset > footer_offset) {
    return Status::Corruption("rbc: inconsistent section offsets");
  }
  uint32_t type = ReadU32At(p, kOffType);
  if (type < 1 || type > 3) {
    return Status::Corruption("rbc: invalid column type");
  }
  if (ReadU32At(p, total - kTrailerOffEndMagic) != kEndMagic) {
    return Status::Corruption("rbc: bad end magic");
  }
  if (verify_checksum) {
    uint32_t stored =
        crc32c::Unmask(ReadU32At(p, total - kTrailerOffChecksum));
    uint32_t actual = crc32c::Value(p, total - kTrailerOffChecksum);
    if (stored != actual) {
      return Status::Corruption("rbc: checksum mismatch");
    }
  }
  return Status::OK();
}

StatusOr<RowBlockColumn> RowBlockColumn::FromBuffer(
    std::unique_ptr<uint8_t[]> buffer, size_t size, bool verify_checksum,
    int64_t* verify_micros) {
  const bool timed = verify_checksum && verify_micros != nullptr;
  const int64_t start = timed ? SteadyNowMicros() : 0;
  Status valid = ValidateBuffer(Slice(buffer.get(), size), verify_checksum);
  if (timed) *verify_micros += SteadyNowMicros() - start;
  SCUBA_RETURN_IF_ERROR(valid);
  return RowBlockColumn(std::move(buffer), size);
}

uint16_t RowBlockColumn::version() const {
  return ReadU16At(buffer_.get(), kOffVersion);
}

ColumnType RowBlockColumn::type() const {
  return static_cast<ColumnType>(ReadU32At(buffer_.get(), kOffType));
}

column_codec::ChainCode RowBlockColumn::compression_chain() const {
  return ReadU16At(buffer_.get(), kOffCompression);
}

uint64_t RowBlockColumn::item_count() const {
  return ReadU64At(buffer_.get(), kOffItemCount);
}

uint64_t RowBlockColumn::dict_item_count() const {
  return ReadU64At(buffer_.get(), kOffDictItemCount);
}

uint64_t RowBlockColumn::uncompressed_bytes() const {
  return ReadU64At(buffer_.get(), size_ - kTrailerOffUncompressed);
}

bool RowBlockColumn::HasZoneMap() const {
  return (ReadU32At(buffer_.get(), FooterOffset() + kFooterOffZoneFlags) &
          kZoneFlagPresent) != 0;
}

bool RowBlockColumn::ZoneRangeInt64(int64_t* min, int64_t* max) const {
  if (type() != ColumnType::kInt64 || !HasZoneMap()) return false;
  const size_t footer = FooterOffset();
  *min = static_cast<int64_t>(
      ReadU64At(buffer_.get(), footer + kFooterOffZoneMin));
  *max = static_cast<int64_t>(
      ReadU64At(buffer_.get(), footer + kFooterOffZoneMax));
  return true;
}

bool RowBlockColumn::ZoneRangeDouble(double* min, double* max) const {
  if (type() != ColumnType::kDouble || !HasZoneMap()) return false;
  const size_t footer = FooterOffset();
  uint64_t min_bits = ReadU64At(buffer_.get(), footer + kFooterOffZoneMin);
  uint64_t max_bits = ReadU64At(buffer_.get(), footer + kFooterOffZoneMax);
  std::memcpy(min, &min_bits, 8);
  std::memcpy(max, &max_bits, 8);
  return true;
}

Slice RowBlockColumn::DictSlice() const {
  uint64_t dict_offset = ReadU64At(buffer_.get(), kOffDictOffset);
  uint64_t data_offset = ReadU64At(buffer_.get(), kOffDataOffset);
  return Slice(buffer_.get() + dict_offset,
               static_cast<size_t>(data_offset - dict_offset));
}

Slice RowBlockColumn::DataSlice() const {
  uint64_t data_offset = ReadU64At(buffer_.get(), kOffDataOffset);
  return Slice(buffer_.get() + data_offset,
               FooterOffset() - static_cast<size_t>(data_offset));
}

Status RowBlockColumn::DecodeInt64(std::vector<int64_t>* values) const {
  if (type() != ColumnType::kInt64) {
    return Status::InvalidArgument("rbc: not an int64 column");
  }
  return column_codec::DecodeInt64(compression_chain(), DictSlice(),
                                   DataSlice(), item_count(), values);
}

Status RowBlockColumn::DecodeDouble(std::vector<double>* values) const {
  if (type() != ColumnType::kDouble) {
    return Status::InvalidArgument("rbc: not a double column");
  }
  return column_codec::DecodeDouble(compression_chain(), DictSlice(),
                                    DataSlice(), item_count(), values);
}

Status RowBlockColumn::DecodeString(std::vector<std::string>* values) const {
  if (type() != ColumnType::kString) {
    return Status::InvalidArgument("rbc: not a string column");
  }
  return column_codec::DecodeString(compression_chain(), DictSlice(),
                                    DataSlice(), item_count(), values);
}

Status RowBlockColumn::DecodeStringDictionary(
    std::vector<std::string>* dict_values, std::vector<uint32_t>* codes) const {
  if (type() != ColumnType::kString) {
    return Status::InvalidArgument("rbc: not a string column");
  }
  if (!column_codec::IsStringDictChain(compression_chain())) {
    return Status::FailedPrecondition("rbc: not dictionary encoded");
  }
  return column_codec::DecodeStringDictCodes(compression_chain(), DictSlice(),
                                             DataSlice(), item_count(),
                                             dict_values, codes);
}

}  // namespace scuba
