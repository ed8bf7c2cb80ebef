#ifndef SCUBA_UTIL_CRC32C_H_
#define SCUBA_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace scuba {
namespace crc32c {

/// Returns the CRC-32C (Castagnoli) of data[0, n). `init_crc` is the CRC of
/// a preceding chunk for incremental computation (pass 0 for a fresh CRC).
/// Runs the SSE4.2 crc32 instruction where the CPU has it, else a table
/// loop; both give identical values (see crc32c_internal.h).
uint32_t Extend(uint32_t init_crc, const uint8_t* data, size_t n);

/// The path Extend runs in this process: "sse4.2" or "table" (non-x86,
/// no SSE4.2, or SCUBA_FORCE_SCALAR set).
const char* ActivePathName();

inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}

/// Masks a CRC so that storing it next to the data it covers cannot produce
/// a buffer whose CRC is its own stored checksum (RocksDB/LevelDB idiom).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace scuba

#endif  // SCUBA_UTIL_CRC32C_H_
