#include "compress/column_codec.h"

#include <algorithm>
#include <cstring>

#include "compress/bitpack.h"
#include "compress/delta.h"
#include "compress/dictionary.h"
#include "compress/lz4.h"
#include "util/bit_util.h"
#include "util/varint.h"

namespace scuba {
namespace column_codec {
namespace {

// A dictionary pays off when the column has few distinct values relative to
// its row count: at most 4096 (12-bit indexes), and at most one per
// `rows_per_value` rows.
constexpr size_t kMaxDictCardinality = 4096;
constexpr size_t kMinRowsForDict = 16;

// The most distinct values a dictionary of `n` rows may hold, or 0 when
// the column is too short for one.
size_t DictLimit(size_t n, size_t rows_per_value) {
  return n < kMinRowsForDict ? 0
                             : std::min(kMaxDictCardinality, n / rows_per_value);
}

// LZ4 is appended to a chain only when it shrinks the blob by at least 1/16.
bool Lz4Helps(size_t raw, size_t compressed) {
  return compressed + raw / 16 < raw;
}

// Wraps `payload` as varint(raw_size) + lz4(payload) if that helps;
// returns true (and replaces *payload) when the LZ4 stage was applied.
bool MaybeLz4(ByteBuffer* payload) {
  ByteBuffer compressed;
  varint::AppendU64(&compressed, payload->size());
  lz4::Compress(payload->AsSlice(), &compressed);
  if (Lz4Helps(payload->size(), compressed.size())) {
    *payload = std::move(compressed);
    return true;
  }
  return false;
}

// Reverses MaybeLz4: *data is replaced by the decompressed payload.
Status UnLz4(Slice input, ByteBuffer* out) {
  uint64_t raw_size = 0;
  if (!varint::ReadU64(&input, &raw_size)) {
    return Status::Corruption("column: truncated lz4 size prefix");
  }
  out->Clear();
  if (raw_size > 0) {
    out->AppendZeros(raw_size);
    SCUBA_RETURN_IF_ERROR(lz4::Decompress(input, out->data(), raw_size));
  }
  return Status::OK();
}

ChainCode AppendStage(ChainCode chain, Stage stage) {
  int len = ChainLength(chain);
  return static_cast<ChainCode>(chain |
                                (static_cast<ChainCode>(stage) << (4 * len)));
}

// Packs dictionary codes as u8(width) + bitpacked codes. Every code below
// dict_size appears, so the width is that of the largest code.
void AppendCodes(const std::vector<uint64_t>& codes, size_t dict_size,
                 ByteBuffer* out) {
  const int width = bit_util::BitWidth(dict_size - 1);
  out->AppendU8(static_cast<uint8_t>(width));
  bitpack::Pack(codes, width, out);
}

Status ReadPacked(Slice* in, size_t count, std::vector<uint64_t>* values) {
  if (in->empty()) return Status::Corruption("column: missing pack width");
  int width = (*in)[0];
  in->RemovePrefix(1);
  if (width > 64) return Status::Corruption("column: pack width > 64");
  SCUBA_RETURN_IF_ERROR(bitpack::Unpack(*in, width, count, values));
  in->RemovePrefix(bitpack::PackedSize(count, width));
  return Status::OK();
}

}  // namespace

ChainCode MakeChain(std::initializer_list<Stage> stages) {
  ChainCode chain = 0;
  int i = 0;
  for (Stage s : stages) {
    chain |= static_cast<ChainCode>(s) << (4 * i);
    ++i;
  }
  return chain;
}

std::vector<Stage> ChainStages(ChainCode chain) {
  std::vector<Stage> stages;
  for (int i = 0; i < 4; ++i) {
    auto s = static_cast<Stage>((chain >> (4 * i)) & 0xF);
    if (s == Stage::kNone) break;
    stages.push_back(s);
  }
  return stages;
}

int ChainLength(ChainCode chain) {
  return static_cast<int>(ChainStages(chain).size());
}

std::string ChainToString(ChainCode chain) {
  std::string out;
  for (Stage s : ChainStages(chain)) {
    if (!out.empty()) out += "+";
    switch (s) {
      case Stage::kNone: out += "none"; break;
      case Stage::kDictionary: out += "dict"; break;
      case Stage::kDelta: out += "delta"; break;
      case Stage::kZigZag: out += "zigzag"; break;
      case Stage::kBitPack: out += "bitpack"; break;
      case Stage::kLz4: out += "lz4"; break;
      case Stage::kShuffle: out += "shuffle"; break;
      case Stage::kRawStrings: out += "rawstr"; break;
      case Stage::kRawFixed: out += "rawfixed"; break;
      case Stage::kMiniBlockPack: out += "mbpack"; break;
    }
  }
  return out.empty() ? "none" : out;
}

EncodedColumn EncodeInt64(const std::vector<int64_t>& values) {
  EncodedColumn out;
  if (values.empty()) return out;

  std::vector<uint64_t> codes;
  std::vector<int64_t> dict_values;
  const size_t limit = DictLimit(values.size(), 4);
  if (limit > 0 && dictionary::Encode(values, limit, &codes, &dict_values)) {
    dictionary::SerializeIntDict(dict_values, &out.dict);
    out.dict_item_count = dict_values.size();
    AppendCodes(codes, dict_values.size(), &out.data);
    out.chain = MakeChain({Stage::kDictionary, Stage::kBitPack});
  } else {
    delta::EncodeMiniBlocks(values, &out.data);
    out.chain =
        MakeChain({Stage::kDelta, Stage::kZigZag, Stage::kMiniBlockPack});
  }
  if (MaybeLz4(&out.data)) out.chain = AppendStage(out.chain, Stage::kLz4);
  return out;
}

EncodedColumn EncodeDouble(const std::vector<double>& values) {
  EncodedColumn out;
  if (values.empty()) return out;

  // Byte-plane shuffle: plane k holds byte k of every value. Exponent and
  // high-mantissa planes are highly repetitive in real data, so LZ4 bites.
  const size_t n = values.size();
  ByteBuffer shuffled;
  shuffled.AppendZeros(n * 8);
  uint8_t* planes = shuffled.data();
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &values[i], 8);
    for (int k = 0; k < 8; ++k) {
      planes[static_cast<size_t>(k) * n + i] =
          static_cast<uint8_t>(bits >> (8 * k));
    }
  }
  ByteBuffer compressed;
  varint::AppendU64(&compressed, shuffled.size());
  lz4::Compress(shuffled.AsSlice(), &compressed);

  if (Lz4Helps(n * 8, compressed.size())) {
    out.data = std::move(compressed);
    out.chain = MakeChain({Stage::kShuffle, Stage::kLz4});
  } else {
    // Incompressible (e.g. uniform random doubles): store raw.
    for (double v : values) {
      uint64_t bits;
      std::memcpy(&bits, &v, 8);
      out.data.AppendU64(bits);
    }
    out.chain = MakeChain({Stage::kRawFixed});
  }
  return out;
}

EncodedColumn EncodeString(const std::vector<std::string>& values) {
  EncodedColumn out;
  if (values.empty()) return out;

  std::vector<uint64_t> codes;
  std::vector<std::string_view> dict_values;
  const size_t limit = DictLimit(values.size(), 2);
  if (limit > 0 && dictionary::Encode(values, limit, &codes, &dict_values)) {
    dictionary::SerializeStringDict(dict_values, &out.dict);
    out.dict_item_count = dict_values.size();
    AppendCodes(codes, dict_values.size(), &out.data);
    out.chain = MakeChain({Stage::kDictionary, Stage::kBitPack});
  } else {
    for (const std::string& v : values) {
      varint::AppendU64(&out.data, v.size());
      out.data.Append(v.data(), v.size());
    }
    out.chain = MakeChain({Stage::kRawStrings});
  }
  if (MaybeLz4(&out.data)) out.chain = AppendStage(out.chain, Stage::kLz4);
  return out;
}

namespace {

// Splits a chain into (body stages, had_lz4_suffix).
bool StripLz4(std::vector<Stage>* stages) {
  if (!stages->empty() && stages->back() == Stage::kLz4) {
    stages->pop_back();
    return true;
  }
  return false;
}

}  // namespace

Status DecodeInt64(ChainCode chain, Slice dict, Slice data, size_t count,
                   std::vector<int64_t>* values) {
  values->clear();
  if (count == 0) return Status::OK();

  std::vector<Stage> stages = ChainStages(chain);
  ByteBuffer unwrapped;
  if (StripLz4(&stages)) {
    SCUBA_RETURN_IF_ERROR(UnLz4(data, &unwrapped));
    data = unwrapped.AsSlice();
  }

  if (stages == std::vector<Stage>{Stage::kDictionary, Stage::kBitPack}) {
    std::vector<int64_t> dict_values;
    SCUBA_RETURN_IF_ERROR(dictionary::ParseIntDict(dict, &dict_values));
    std::vector<uint64_t> indexes;
    SCUBA_RETURN_IF_ERROR(ReadPacked(&data, count, &indexes));
    values->reserve(count);
    for (uint64_t idx : indexes) {
      if (idx >= dict_values.size()) {
        return Status::Corruption("int column: dict index out of range");
      }
      values->push_back(dict_values[idx]);
    }
    return Status::OK();
  }

  if (stages == std::vector<Stage>{Stage::kDelta, Stage::kZigZag,
                                   Stage::kMiniBlockPack}) {
    return delta::DecodeMiniBlocks(data, count, values);
  }

  return Status::Corruption("int column: unknown chain " +
                            ChainToString(chain));
}

Status DecodeDouble(ChainCode chain, Slice dict, Slice data, size_t count,
                    std::vector<double>* values) {
  (void)dict;
  values->clear();
  if (count == 0) return Status::OK();

  std::vector<Stage> stages = ChainStages(chain);
  if (stages == std::vector<Stage>{Stage::kShuffle, Stage::kLz4}) {
    ByteBuffer shuffled;
    SCUBA_RETURN_IF_ERROR(UnLz4(data, &shuffled));
    if (shuffled.size() != count * 8) {
      return Status::Corruption("double column: size mismatch");
    }
    const uint8_t* planes = shuffled.data();
    values->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      for (int k = 0; k < 8; ++k) {
        bits |= static_cast<uint64_t>(planes[static_cast<size_t>(k) * count + i])
                << (8 * k);
      }
      double v;
      std::memcpy(&v, &bits, 8);
      values->push_back(v);
    }
    return Status::OK();
  }

  if (stages == std::vector<Stage>{Stage::kRawFixed}) {
    if (data.size() < count * 8) {
      return Status::Corruption("double column: raw data too short");
    }
    values->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      uint64_t bits = ByteBuffer::DecodeU64(data.data() + i * 8);
      double v;
      std::memcpy(&v, &bits, 8);
      values->push_back(v);
    }
    return Status::OK();
  }

  return Status::Corruption("double column: unknown chain " +
                            ChainToString(chain));
}

bool IsStringDictChain(ChainCode chain) {
  std::vector<Stage> stages = ChainStages(chain);
  StripLz4(&stages);
  return stages == std::vector<Stage>{Stage::kDictionary, Stage::kBitPack};
}

bool IsDictBitPackChain(ChainCode chain) {
  std::vector<Stage> stages = ChainStages(chain);
  StripLz4(&stages);
  return stages == std::vector<Stage>{Stage::kDictionary, Stage::kBitPack};
}

bool IsMiniBlockChain(ChainCode chain) {
  std::vector<Stage> stages = ChainStages(chain);
  StripLz4(&stages);
  return stages == std::vector<Stage>{Stage::kDelta, Stage::kZigZag,
                                      Stage::kMiniBlockPack};
}

Status UnwrapLz4(ChainCode chain, Slice data, ByteBuffer* storage,
                 Slice* out) {
  std::vector<Stage> stages = ChainStages(chain);
  if (StripLz4(&stages)) {
    SCUBA_RETURN_IF_ERROR(UnLz4(data, storage));
    *out = storage->AsSlice();
  } else {
    *out = data;
  }
  return Status::OK();
}

Status ReadPackedCodes(Slice data, size_t count, int* width, Slice* packed) {
  if (data.empty()) return Status::Corruption("column: missing pack width");
  *width = data[0];
  data.RemovePrefix(1);
  if (*width > 64) return Status::Corruption("column: pack width > 64");
  if (data.size() < bitpack::PackedSize(count, *width)) {
    return Status::Corruption("column: packed codes too short");
  }
  *packed = data;
  return Status::OK();
}

Status DecodeStringDictCodes(ChainCode chain, Slice dict, Slice data,
                             size_t count,
                             std::vector<std::string>* dict_values,
                             std::vector<uint32_t>* codes) {
  dict_values->clear();
  codes->clear();
  if (!IsStringDictChain(chain)) {
    return Status::InvalidArgument("string column: not dictionary encoded");
  }
  if (count == 0) return Status::OK();

  std::vector<Stage> stages = ChainStages(chain);
  ByteBuffer unwrapped;
  if (StripLz4(&stages)) {
    SCUBA_RETURN_IF_ERROR(UnLz4(data, &unwrapped));
    data = unwrapped.AsSlice();
  }
  SCUBA_RETURN_IF_ERROR(dictionary::ParseStringDict(dict, dict_values));
  std::vector<uint64_t> indexes;
  SCUBA_RETURN_IF_ERROR(ReadPacked(&data, count, &indexes));
  codes->reserve(count);
  for (uint64_t idx : indexes) {
    if (idx >= dict_values->size()) {
      return Status::Corruption("string column: dict index out of range");
    }
    codes->push_back(static_cast<uint32_t>(idx));
  }
  return Status::OK();
}

Status DecodeString(ChainCode chain, Slice dict, Slice data, size_t count,
                    std::vector<std::string>* values) {
  values->clear();
  if (count == 0) return Status::OK();

  std::vector<Stage> stages = ChainStages(chain);
  ByteBuffer unwrapped;
  if (StripLz4(&stages)) {
    SCUBA_RETURN_IF_ERROR(UnLz4(data, &unwrapped));
    data = unwrapped.AsSlice();
  }

  if (stages == std::vector<Stage>{Stage::kDictionary, Stage::kBitPack}) {
    std::vector<std::string> dict_values;
    SCUBA_RETURN_IF_ERROR(dictionary::ParseStringDict(dict, &dict_values));
    std::vector<uint64_t> indexes;
    SCUBA_RETURN_IF_ERROR(ReadPacked(&data, count, &indexes));
    values->reserve(count);
    for (uint64_t idx : indexes) {
      if (idx >= dict_values.size()) {
        return Status::Corruption("string column: dict index out of range");
      }
      values->push_back(dict_values[idx]);
    }
    return Status::OK();
  }

  if (stages == std::vector<Stage>{Stage::kRawStrings}) {
    values->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      uint64_t len = 0;
      if (!varint::ReadU64(&data, &len) || data.size() < len) {
        return Status::Corruption("string column: truncated entry");
      }
      values->emplace_back(reinterpret_cast<const char*>(data.data()), len);
      data.RemovePrefix(len);
    }
    return Status::OK();
  }

  return Status::Corruption("string column: unknown chain " +
                            ChainToString(chain));
}

}  // namespace column_codec
}  // namespace scuba
