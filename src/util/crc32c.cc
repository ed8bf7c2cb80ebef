#include "util/crc32c.h"

#include "util/cpu_features.h"
#include "util/crc32c_internal.h"

namespace scuba {
namespace crc32c {
namespace {

// Table-driven (slicing-by-4) CRC-32C, polynomial 0x1EDC6F41 (reflected
// 0x82F63B78). Computed once at startup; tables are trivially destructible.
struct Tables {
  uint32_t t[4][256];
};

Tables BuildTables() {
  Tables tables{};
  constexpr uint32_t kPoly = 0x82F63B78u;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    tables.t[1][i] = (tables.t[0][i] >> 8) ^ tables.t[0][tables.t[0][i] & 0xFF];
    tables.t[2][i] = (tables.t[1][i] >> 8) ^ tables.t[0][tables.t[1][i] & 0xFF];
    tables.t[3][i] = (tables.t[2][i] >> 8) ^ tables.t[0][tables.t[2][i] & 0xFF];
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables& tables = *new Tables(BuildTables());
  return tables;
}

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

// The path is chosen once per process, from the same probe (and the same
// SCUBA_FORCE_SCALAR pin) as the packed scan kernels.
ExtendFn ActiveExtend() {
  static const ExtendFn fn = [] {
    const CpuFeatures& cpu = GetCpuFeatures();
    return !cpu.force_scalar && cpu.sse42 && internal::Sse42CompiledIn()
               ? internal::ExtendSse42
               : internal::ExtendTable;
  }();
  return fn;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const uint8_t* data, size_t n) {
  return ActiveExtend()(init_crc, data, n);
}

const char* ActivePathName() {
  return ActiveExtend() == internal::ExtendSse42 ? "sse4.2" : "table";
}

namespace internal {

uint32_t ExtendTable(uint32_t init_crc, const uint8_t* data, size_t n) {
  const Tables& tb = GetTables();
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  // Process 4 bytes at a time.
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(data[0]) |
           (static_cast<uint32_t>(data[1]) << 8) |
           (static_cast<uint32_t>(data[2]) << 16) |
           (static_cast<uint32_t>(data[3]) << 24);
    crc = tb.t[3][crc & 0xFF] ^ tb.t[2][(crc >> 8) & 0xFF] ^
          tb.t[1][(crc >> 16) & 0xFF] ^ tb.t[0][crc >> 24];
    data += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *data) & 0xFF];
    ++data;
    --n;
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace internal
}  // namespace crc32c
}  // namespace scuba
