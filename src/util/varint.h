#ifndef SCUBA_UTIL_VARINT_H_
#define SCUBA_UTIL_VARINT_H_

#include <cstdint>

#include "util/byte_buffer.h"
#include "util/slice.h"

namespace scuba {
namespace varint {

/// Maximum encoded size of a 64-bit varint.
inline constexpr int kMaxLen64 = 10;

/// Appends the LEB128 encoding of `v`.
void AppendU64(ByteBuffer* out, uint64_t v);

/// ZigZag-maps a signed value so that small magnitudes encode short.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void AppendI64(ByteBuffer* out, int64_t v) {
  AppendU64(out, ZigZagEncode(v));
}

/// Decodes a varint from the front of `*in`, advancing it past the encoding.
/// Returns false on truncated or over-long input (in which case *in is
/// unspecified). Inline, with one-byte values (the common case) skipping
/// the loop: the .bak decode calls it once per integer it recovers.
inline bool ReadU64(Slice* in, uint64_t* value) {
  const size_t limit = in->size();
  if (limit > 0 && (*in)[0] < 0x80) {
    *value = (*in)[0];
    in->RemovePrefix(1);
    return true;
  }
  uint64_t result = 0;
  int shift = 0;
  size_t i = 0;
  while (i < limit && shift <= 63) {
    uint8_t byte = (*in)[i];
    ++i;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      in->RemovePrefix(i);
      return true;
    }
    shift += 7;
  }
  return false;
}

inline bool ReadI64(Slice* in, int64_t* value) {
  uint64_t raw = 0;
  if (!ReadU64(in, &raw)) return false;
  *value = ZigZagDecode(raw);
  return true;
}

}  // namespace varint
}  // namespace scuba

#endif  // SCUBA_UTIL_VARINT_H_
