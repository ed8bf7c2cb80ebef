#include "util/varint.h"

namespace scuba {
namespace varint {

void AppendU64(ByteBuffer* out, uint64_t v) {
  uint8_t buf[kMaxLen64];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<uint8_t>(v);
  out->Append(buf, static_cast<size_t>(n));
}

}  // namespace varint
}  // namespace scuba
