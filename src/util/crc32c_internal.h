#ifndef SCUBA_UTIL_CRC32C_INTERNAL_H_
#define SCUBA_UTIL_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

/// The two implementations behind crc32c::Extend, shared between crc32c.cc
/// and the -msse4.2 translation unit and exposed so tests can run each one
/// directly. Both return identical values for every input.

namespace scuba {
namespace crc32c {
namespace internal {

/// Portable slicing-by-4 table loop; runs anywhere.
uint32_t ExtendTable(uint32_t init_crc, const uint8_t* data, size_t n);

/// SSE4.2 crc32 instruction over three interleaved streams. Call only when
/// Sse42CompiledIn() and the CPU reports SSE4.2.
uint32_t ExtendSse42(uint32_t init_crc, const uint8_t* data, size_t n);

/// True when the hardware translation unit was built with SSE4.2 codegen
/// (the toolchain supported -msse4.2); runtime CPUID is checked separately.
bool Sse42CompiledIn();

}  // namespace internal
}  // namespace crc32c
}  // namespace scuba

#endif  // SCUBA_UTIL_CRC32C_INTERNAL_H_
