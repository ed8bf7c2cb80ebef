#include "disk/backup_format.h"

#include <cstring>

#include "util/crc32c.h"
#include "util/varint.h"

namespace scuba {
namespace backup_format {
namespace {

constexpr uint8_t kRecordTypeRowBatch = 1;

void AppendValue(const Value& value, ByteBuffer* out) {
  switch (ValueType(value)) {
    case ColumnType::kInt64:
      varint::AppendI64(out, std::get<int64_t>(value));
      break;
    case ColumnType::kDouble: {
      uint64_t bits;
      static_assert(sizeof(double) == 8);
      std::memcpy(&bits, &std::get<double>(value), 8);
      out->AppendU64(bits);
      break;
    }
    case ColumnType::kString: {
      const std::string& s = std::get<std::string>(value);
      varint::AppendU64(out, s.size());
      out->Append(s.data(), s.size());
      break;
    }
  }
}

}  // namespace

void AppendFileHeader(ByteBuffer* out) {
  out->AppendU32(kFileMagic);
  out->AppendU16(kFileVersion);
  out->AppendU16(0);
}

Status CheckFileHeader(Slice* input) {
  if (input->size() < kFileHeaderSize) {
    return Status::Corruption("backup: missing file header");
  }
  if (ByteBuffer::DecodeU32(input->data()) != kFileMagic) {
    return Status::Corruption("backup: bad file magic");
  }
  uint16_t version = static_cast<uint16_t>(
      (*input)[4] | (static_cast<uint16_t>((*input)[5]) << 8));
  if (version != kFileVersion) {
    return Status::Corruption("backup: unsupported file version");
  }
  input->RemovePrefix(kFileHeaderSize);
  return Status::OK();
}

Status AppendRowBatchRecord(const Schema& schema, const std::vector<Row>& rows,
                            ByteBuffer* out) {
  if (rows.empty()) {
    return Status::InvalidArgument("backup: empty row batch");
  }

  ByteBuffer payload;
  payload.AppendU8(kRecordTypeRowBatch);
  schema.Serialize(&payload);
  varint::AppendU64(&payload, rows.size());
  for (const Row& row : rows) {
    // Dense row-major encoding: every schema column, defaults back-filled.
    for (const ColumnDef& col : schema.columns()) {
      const Value* found = nullptr;
      for (const auto& [name, value] : row.fields) {
        if (name == col.name) {
          found = &value;
          break;
        }
      }
      if (found != nullptr) {
        AppendValue(*found, &payload);
      } else {
        AppendValue(DefaultValue(col.type), &payload);
      }
    }
  }

  out->AppendU32(static_cast<uint32_t>(payload.size()));
  out->AppendU32(crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  out->Append(payload.data(), payload.size());
  return Status::OK();
}

Status ReadRecord(ChunkedFileReader* file, Slice* payload) {
  if (file->remaining() == 0) return Status::NotFound("end of backup file");
  if (file->remaining() < 8) {
    return Status::Corruption("backup: truncated record header");
  }
  Slice header;
  SCUBA_RETURN_IF_ERROR(file->Read(8, &header));
  const uint32_t payload_len = ByteBuffer::DecodeU32(header.data());
  const uint32_t stored_crc =
      crc32c::Unmask(ByteBuffer::DecodeU32(header.data() + 4));
  if (payload_len > file->remaining()) {
    return Status::Corruption(
        "backup: record length points past the end of the file");
  }
  SCUBA_RETURN_IF_ERROR(file->Read(payload_len, payload));
  if (crc32c::Value(payload->data(), payload->size()) != stored_crc) {
    return Status::Corruption("backup: record checksum mismatch");
  }
  return Status::OK();
}

Status DecodeRowBatch(Slice payload, RowBatch* batch) {
  if (payload.empty() || payload[0] != kRecordTypeRowBatch) {
    return Status::Corruption("backup: unknown record type");
  }
  payload.RemovePrefix(1);

  SCUBA_ASSIGN_OR_RETURN(batch->schema, Schema::Parse(&payload));
  uint64_t row_count = 0;
  if (!varint::ReadU64(&payload, &row_count)) {
    return Status::Corruption("backup: truncated row count");
  }
  const size_t num_columns = batch->schema.num_columns();
  // Every value takes at least a byte, so a count the payload cannot hold
  // is corrupt — and is never allocated.
  if (row_count > 0 &&
      (num_columns == 0 || row_count > payload.size() / num_columns)) {
    return Status::Corruption("backup: row count exceeds the record");
  }

  // One typed vector per column, decoded into in row-major file order.
  batch->columns.clear();
  batch->columns.reserve(num_columns);
  std::vector<ColumnType> types(num_columns);
  std::vector<void*> out(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    types[c] = batch->schema.column(c).type;
    switch (types[c]) {
      case ColumnType::kInt64: {
        auto& v = batch->columns.emplace_back(std::in_place_type<
                                              std::vector<int64_t>>);
        std::get<std::vector<int64_t>>(v).reserve(row_count);
        out[c] = &std::get<std::vector<int64_t>>(v);
        break;
      }
      case ColumnType::kDouble: {
        auto& v = batch->columns.emplace_back(std::in_place_type<
                                              std::vector<double>>);
        std::get<std::vector<double>>(v).reserve(row_count);
        out[c] = &std::get<std::vector<double>>(v);
        break;
      }
      case ColumnType::kString: {
        auto& v = batch->columns.emplace_back(std::in_place_type<
                                              std::vector<std::string>>);
        std::get<std::vector<std::string>>(v).reserve(row_count);
        out[c] = &std::get<std::vector<std::string>>(v);
        break;
      }
    }
  }

  for (uint64_t r = 0; r < row_count; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      switch (types[c]) {
        case ColumnType::kInt64: {
          int64_t v = 0;
          if (!varint::ReadI64(&payload, &v)) {
            return Status::Corruption("backup: truncated int64 value");
          }
          static_cast<std::vector<int64_t>*>(out[c])->push_back(v);
          break;
        }
        case ColumnType::kDouble: {
          if (payload.size() < 8) {
            return Status::Corruption("backup: truncated double value");
          }
          const uint64_t bits = ByteBuffer::DecodeU64(payload.data());
          payload.RemovePrefix(8);
          double v;
          std::memcpy(&v, &bits, 8);
          static_cast<std::vector<double>*>(out[c])->push_back(v);
          break;
        }
        case ColumnType::kString: {
          uint64_t len = 0;
          if (!varint::ReadU64(&payload, &len) || len > payload.size()) {
            return Status::Corruption("backup: truncated string value");
          }
          static_cast<std::vector<std::string>*>(out[c])->emplace_back(
              reinterpret_cast<const char*>(payload.data()),
              static_cast<size_t>(len));
          payload.RemovePrefix(static_cast<size_t>(len));
          break;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace backup_format
}  // namespace scuba
