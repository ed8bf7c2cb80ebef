#include "compress/lz4.h"

#include <bit>
#include <cstring>

#include "util/bit_util.h"

namespace scuba {
namespace lz4 {
namespace {

constexpr size_t kMinMatch = 4;
// The LZ4 block format requires the last 5 bytes to be literals and no match
// to start within the last 12 bytes.
constexpr size_t kLastLiterals = 5;
constexpr size_t kMatchFindLimitMargin = 12;
constexpr size_t kMaxOffset = 65535;
constexpr size_t kBias = kMaxOffset + 2;
constexpr int kHashLog = 16;

inline uint32_t Hash(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

// Length of the common prefix of a[0, limit) and b[0, limit), compared a
// word at a time while a whole word fits.
inline size_t CommonPrefix(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t n = 0;
  while (n + 8 <= limit) {
    const uint64_t diff = bit_util::LoadLE64(a + n) ^ bit_util::LoadLE64(b + n);
    if (diff != 0) return n + (std::countr_zero(diff) >> 3);
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

// Writes a length in the LZ4 extended-length scheme (255-run continuation).
inline uint8_t* PutExtLength(uint8_t* op, size_t len) {
  for (; len >= 255; len -= 255) *op++ = 255;
  *op++ = static_cast<uint8_t>(len);
  return op;
}

// Token (high nibble: literal length; low nibble: match_code, the match
// length minus kMinMatch) and the literal run.
inline uint8_t* PutLiterals(uint8_t* op, const uint8_t* literals,
                            size_t lit_len, size_t match_code) {
  *op++ = static_cast<uint8_t>((lit_len >= 15 ? 15 : lit_len) << 4 |
                               (match_code >= 15 ? 15 : match_code));
  if (lit_len >= 15) op = PutExtLength(op, lit_len - 15);
  if (lit_len > 0) std::memcpy(op, literals, lit_len);
  return op + lit_len;
}

}  // namespace

size_t CompressBound(size_t n) { return n + n / 255 + 16; }

void Compress(Slice input, ByteBuffer* out) {
  const uint8_t* const base = input.data();
  const size_t n = input.size();
  // Every sequence is written through `op` into room reserved once.
  uint8_t* const start = out->PrepareAppend(CompressBound(n));
  uint8_t* op = start;

  if (n < kMatchFindLimitMargin + kMinMatch) {
    // Too short to contain any match: one literal run.
    op = PutLiterals(op, base, n, 0);
    out->CommitAppend(static_cast<size_t>(op - start));
    return;
  }

  // Hash table of absolute positions + kBias (0 = empty), valid within
  // this block. The bias puts an empty slot more than kMaxOffset behind
  // every position, so one distance test rejects it.
  static thread_local uint32_t table[1u << kHashLog];
  std::memset(table, 0, sizeof(table));

  const size_t match_limit = n - kMatchFindLimitMargin;
  const size_t input_end = n - kLastLiterals;
  size_t anchor = 0;
  size_t pos = 0;

  while (pos < match_limit) {
    // Find a match for the 4 bytes at pos: the last position with the same
    // hash, if it is in range and its 4 bytes are equal. Both tests fold
    // into one branch (an out-of-range candidate reads pos itself and fails
    // on the distance), so incompressible input does not mispredict on
    // empty or stale slots.
    const uint32_t word = bit_util::LoadLE32(base + pos);
    const uint32_t h = Hash(word);
    const size_t distance = pos + kBias - table[h];
    table[h] = static_cast<uint32_t>(pos + kBias);
    const size_t in_range = distance <= kMaxOffset;
    const size_t candidate = pos - (distance & (0 - in_range));
    const uint32_t mismatch = (bit_util::LoadLE32(base + candidate) ^ word) |
                              static_cast<uint32_t>(in_range ^ 1);
    if (mismatch != 0) {
      ++pos;
      continue;
    }

    // Extend the match forward (must not run into the end margin).
    const size_t match_code = CommonPrefix(base + candidate + kMinMatch,
                                           base + pos + kMinMatch,
                                           input_end - pos - kMinMatch);
    const size_t offset = pos - candidate;
    op = PutLiterals(op, base + anchor, pos - anchor, match_code);
    *op++ = static_cast<uint8_t>(offset);
    *op++ = static_cast<uint8_t>(offset >> 8);
    if (match_code >= 15) op = PutExtLength(op, match_code - 15);
    pos += kMinMatch + match_code;
    anchor = pos;

    // Seed the table inside the match so nearby repeats are found.
    if (pos < match_limit) {
      table[Hash(bit_util::LoadLE32(base + pos - 2))] =
          static_cast<uint32_t>(pos - 2 + kBias);
    }
  }

  op = PutLiterals(op, base + anchor, n - anchor, 0);
  out->CommitAppend(static_cast<size_t>(op - start));
}

Status Decompress(Slice input, uint8_t* dst, size_t dst_size) {
  const uint8_t* src = input.data();
  const uint8_t* const src_end = src + input.size();
  uint8_t* out = dst;
  uint8_t* const out_end = dst + dst_size;

  auto read_ext_length = [&](size_t* len) -> bool {
    uint8_t byte;
    do {
      if (src >= src_end) return false;
      byte = *src++;
      *len += byte;
    } while (byte == 255);
    return true;
  };

  while (src < src_end) {
    const uint8_t token = *src++;

    // Literals.
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !read_ext_length(&lit_len)) {
      return Status::Corruption("lz4: truncated literal length");
    }
    if (static_cast<size_t>(src_end - src) < lit_len ||
        static_cast<size_t>(out_end - out) < lit_len) {
      return Status::Corruption("lz4: literal run overflows buffer");
    }
    std::memcpy(out, src, lit_len);
    src += lit_len;
    out += lit_len;

    if (src >= src_end) break;  // Final literal run has no match part.

    // Match.
    if (src_end - src < 2) return Status::Corruption("lz4: truncated offset");
    size_t offset = static_cast<size_t>(src[0]) |
                    (static_cast<size_t>(src[1]) << 8);
    src += 2;
    if (offset == 0 || offset > static_cast<size_t>(out - dst)) {
      return Status::Corruption("lz4: offset out of range");
    }

    size_t match_len = (token & 0x0F);
    if (match_len == 15 && !read_ext_length(&match_len)) {
      return Status::Corruption("lz4: truncated match length");
    }
    match_len += kMinMatch;
    if (static_cast<size_t>(out_end - out) < match_len) {
      return Status::Corruption("lz4: match overflows buffer");
    }

    // Byte-wise copy: offsets shorter than the match length replicate.
    const uint8_t* match = out - offset;
    for (size_t i = 0; i < match_len; ++i) out[i] = match[i];
    out += match_len;
  }

  if (out != out_end) {
    return Status::Corruption("lz4: decompressed size mismatch");
  }
  return Status::OK();
}

}  // namespace lz4
}  // namespace scuba
