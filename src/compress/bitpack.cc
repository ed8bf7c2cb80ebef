#include "compress/bitpack.h"

#include "util/bit_util.h"

namespace scuba {
namespace bitpack {

int RequiredWidth(const std::vector<uint64_t>& values) {
  uint64_t max = 0;
  for (uint64_t v : values) max |= v;
  return bit_util::BitWidth(max);
}

void Pack(const std::vector<uint64_t>& values, int width, ByteBuffer* out) {
  if (width == 0 || values.empty()) return;
  const size_t total_bytes = PackedSize(values.size(), width);
  uint8_t* dst = out->PrepareAppend(total_bytes);
  out->CommitAppend(total_bytes);

  // Bit accumulator, flushed a little-endian word at a time; invariant at
  // the top of each iteration: acc_bits < 64.
  uint64_t acc = 0;
  int acc_bits = 0;
  for (uint64_t v : values) {
    acc |= v << acc_bits;
    acc_bits += width;
    if (acc_bits >= 64) {
      bit_util::StoreLE64(dst, acc);
      dst += 8;
      acc_bits -= 64;
      // v's high acc_bits bits did not fit in the word just stored.
      acc = acc_bits == 0 ? 0 : v >> (width - acc_bits);
    }
  }
  for (; acc_bits > 0; acc_bits -= 8) {
    *dst++ = static_cast<uint8_t>(acc);
    acc >>= 8;
  }
}

Status Unpack(Slice input, int width, size_t count,
              std::vector<uint64_t>* values) {
  values->clear();
  values->reserve(count);
  if (width == 0) {
    values->assign(count, 0);
    return Status::OK();
  }
  if (input.size() < PackedSize(count, width)) {
    return Status::Corruption("bitpack: input too short");
  }
  const uint8_t* src = input.data();
  const uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);

  uint64_t acc = 0;
  int acc_bits = 0;
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    while (acc_bits < width && acc_bits <= 56) {
      acc |= static_cast<uint64_t>(src[pos++]) << acc_bits;
      acc_bits += 8;
    }
    if (acc_bits >= width) {
      values->push_back(acc & mask);
      acc = width == 64 ? 0 : (acc >> width);
      acc_bits -= width;
    } else {
      // acc_bits in [57, 63] and width > acc_bits: at most 7 more bits needed.
      int rem = width - acc_bits;
      uint8_t byte = src[pos++];
      uint64_t v = acc | (static_cast<uint64_t>(byte & ((1u << rem) - 1))
                          << acc_bits);
      values->push_back(v & mask);
      acc = static_cast<uint64_t>(byte) >> rem;
      acc_bits = 8 - rem;
    }
  }
  return Status::OK();
}

}  // namespace bitpack
}  // namespace scuba
