#ifndef SCUBA_UTIL_BIT_UTIL_H_
#define SCUBA_UTIL_BIT_UTIL_H_

#include <bit>
#include <cstdint>
#include <cstring>

namespace scuba {
namespace bit_util {

/// Number of bits needed to represent `v` (0 -> 0 bits).
inline int BitWidth(uint64_t v) {
  return v == 0 ? 0 : 64 - std::countl_zero(v);
}

/// Rounds `v` up to the next multiple of `multiple` (power of two).
inline uint64_t RoundUp(uint64_t v, uint64_t multiple) {
  return (v + multiple - 1) & ~(multiple - 1);
}

inline bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Little-endian word loads and stores at any alignment. They go through
/// memcpy (one instruction on x86-64), never a pointer cast, so unaligned
/// words are not undefined behaviour.
inline uint32_t LoadLE32(const void* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t LoadLE64(const void* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void StoreLE64(void* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace bit_util
}  // namespace scuba

#endif  // SCUBA_UTIL_BIT_UTIL_H_
