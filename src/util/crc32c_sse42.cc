// Hardware CRC-32C. This file is the ONLY translation unit compiled with
// -msse4.2 (see src/util/CMakeLists.txt); everything else stays at the
// project baseline so the binary runs on CPUs without SSE4.2 — the code
// here executes only behind the runtime CPUID check in crc32c::Extend.
//
// The crc32 instruction retires one 8-byte step per cycle but has a
// three-cycle latency, so one dependent chain runs at a third of the
// unit's throughput. Each block is split into three equal lanes with one
// chain per lane (8 KiB lanes, then 256 B lanes for what is left), and the
// three CRCs are joined: the raw CRC of A||B is the raw CRC of A advanced
// over |B| zero bytes, XOR the raw CRC of B started from zero. Advancing
// over a fixed number of zero bytes is linear in the register, so each
// join is four lookups in a precomputed table.

#include "util/crc32c_internal.h"

#if defined(__SSE4_2__)
#include <nmmintrin.h>

#include "util/bit_util.h"
#endif

namespace scuba {
namespace crc32c {
namespace internal {

#if defined(__SSE4_2__)

namespace {

constexpr size_t kLongLane = 8192;
constexpr size_t kShortLane = 256;

// t[k][b] = the raw register (b << 8k) advanced over one lane of zero bytes.
struct ShiftTable {
  uint32_t t[4][256];
};

ShiftTable BuildShiftTable(size_t lane) {
  // Advance each single-bit register over the lane with the instruction
  // itself; by linearity every table entry is the XOR of its bits' images.
  uint32_t image[32];
  for (int bit = 0; bit < 32; ++bit) {
    uint64_t crc = uint64_t{1} << bit;
    for (size_t i = 0; i < lane; i += 8) crc = _mm_crc32_u64(crc, 0);
    image[bit] = static_cast<uint32_t>(crc);
  }
  ShiftTable table{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t v = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) v ^= image[8 * k + bit];
      }
      table.t[k][b] = v;
    }
  }
  return table;
}

struct ShiftTables {
  ShiftTable long_lane;
  ShiftTable short_lane;
};

const ShiftTables& GetShiftTables() {
  static const ShiftTables& tables = *new ShiftTables{
      BuildShiftTable(kLongLane), BuildShiftTable(kShortLane)};
  return tables;
}

inline uint64_t Shift(const ShiftTable& table, uint64_t crc) {
  return table.t[0][crc & 0xFF] ^ table.t[1][(crc >> 8) & 0xFF] ^
         table.t[2][(crc >> 16) & 0xFF] ^ table.t[3][(crc >> 24) & 0xFF];
}

// Consumes every whole block of three `lane`-byte lanes from *data.
uint64_t ThreeLanes(uint64_t crc0, const ShiftTable& table, size_t lane,
                    const uint8_t** data, size_t* n) {
  const uint8_t* p = *data;
  for (; *n >= 3 * lane; *n -= 3 * lane) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (const uint8_t* end = p + lane; p < end; p += 8) {
      crc0 = _mm_crc32_u64(crc0, bit_util::LoadLE64(p));
      crc1 = _mm_crc32_u64(crc1, bit_util::LoadLE64(p + lane));
      crc2 = _mm_crc32_u64(crc2, bit_util::LoadLE64(p + 2 * lane));
    }
    crc0 = Shift(table, crc0) ^ crc1;
    crc0 = Shift(table, crc0) ^ crc2;
    p += 2 * lane;
  }
  *data = p;
  return crc0;
}

}  // namespace

bool Sse42CompiledIn() { return true; }

uint32_t ExtendSse42(uint32_t init_crc, const uint8_t* data, size_t n) {
  const ShiftTables& tables = GetShiftTables();
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  // Single bytes up to an 8-byte boundary, so no lane load splits a line.
  for (; n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0; --n) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *data++);
  }
  crc = ThreeLanes(crc, tables.long_lane, kLongLane, &data, &n);
  crc = ThreeLanes(crc, tables.short_lane, kShortLane, &data, &n);
  for (; n >= 8; n -= 8, data += 8) {
    crc = _mm_crc32_u64(crc, bit_util::LoadLE64(data));
  }
  for (; n > 0; --n) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *data++);
  }
  return static_cast<uint32_t>(crc) ^ 0xFFFFFFFFu;
}

#else  // !defined(__SSE4_2__)

bool Sse42CompiledIn() { return false; }

uint32_t ExtendSse42(uint32_t init_crc, const uint8_t* data, size_t n) {
  // Toolchain had no -msse4.2; Extend never dispatches here, but keep the
  // symbol total.
  return ExtendTable(init_crc, data, n);
}

#endif  // __SSE4_2__

}  // namespace internal
}  // namespace crc32c
}  // namespace scuba
