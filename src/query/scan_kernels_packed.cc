#include <atomic>

#include "obs/metrics.h"
#include "query/scan_kernels_packed_internal.h"
#include "util/cpu_features.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>  // SSE2 — baseline on x86-64, no extra flags needed
#define SCUBA_HAVE_SSE2 1
#endif

namespace scuba {
namespace scan {
namespace {

using internal::CompareU64;

// Rows filtered at each tier, for the __scuba_stats SIMD-path breakdown.
struct PackedMetrics {
  obs::Counter* rows_scalar;
  obs::Counter* rows_sse2;
  obs::Counter* rows_avx2;
  obs::Counter* bitmap_rows;

  static PackedMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static PackedMetrics m{
        reg.GetCounter("scuba.query.packed.rows_scalar"),
        reg.GetCounter("scuba.query.packed.rows_sse2"),
        reg.GetCounter("scuba.query.packed.rows_avx2"),
        reg.GetCounter("scuba.query.packed.bitmap_rows")};
    return m;
  }
};

SimdLevel DetectSimdLevel() {
  const CpuFeatures& cpu = GetCpuFeatures();
  if (cpu.force_scalar) return SimdLevel::kScalar;
#if defined(SCUBA_HAVE_SSE2)
  if (internal::Avx2CompiledIn() && cpu.avx2) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;  // SSE2 is baseline x86-64
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel DetectedSimdLevel() {
  static SimdLevel detected = DetectSimdLevel();
  return detected;
}

std::atomic<int> g_simd_override{-1};

}  // namespace

SimdLevel ActiveSimdLevel() {
  int forced = g_simd_override.load(std::memory_order_relaxed);
  SimdLevel detected = DetectedSimdLevel();
  if (forced < 0) return detected;
  return forced < static_cast<int>(detected) ? static_cast<SimdLevel>(forced)
                                             : detected;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse2: return "sse2";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

void SetSimdLevelOverrideForTest(int level) {
  g_simd_override.store(level, std::memory_order_relaxed);
}

uint64_t ExtractPackedLane(const uint8_t* packed, size_t packed_size,
                           int width, size_t index) {
  if (width == 0) return 0;
  const uint64_t mask =
      width == 64 ? ~0ull : ((1ull << width) - 1);
  const size_t bit = index * static_cast<size_t>(width);
  const size_t byte = bit >> 3;
  const int shift = static_cast<int>(bit & 7);
  // The lane spans at most 9 bytes (shift 7 + width 64 = 71 bits). Clamp
  // the 8-byte load to the buffer so the last lanes never read past the
  // end of the packed stream.
  uint64_t lo = 0;
  const size_t avail = packed_size - byte;
  std::memcpy(&lo, packed + byte, avail < 8 ? avail : 8);
  uint64_t v = lo >> shift;
  const int got = 64 - shift;
  if (got < width) {
    const uint64_t hi = byte + 8 < packed_size ? packed[byte + 8] : 0;
    v |= hi << got;
  }
  return v & mask;
}

namespace internal {

void DensePackedCompareScalar(const uint8_t* packed, size_t packed_size,
                              int width, size_t count, uint64_t literal,
                              CompareOp op, SelVector* out) {
  for (size_t i = 0; i < count; ++i) {
    if (CompareU64(ExtractPackedLane(packed, packed_size, width, i), op,
                   literal)) {
      out->push_back(static_cast<uint32_t>(i));
    }
  }
}

#if defined(SCUBA_HAVE_SSE2)
namespace {

// Byte-aligned fast paths: width 8/16/32 lanes are plain little-endian
// arrays, so 128-bit loads + biased signed compares cover the unsigned
// domain. SSE2 has no unsigned ordered compare; XOR-ing the sign bit maps
// unsigned order onto signed order.
void DenseCompareW8Sse2(const uint8_t* data, size_t count, uint64_t literal,
                        CompareOp op, SelVector* out) {
  const __m128i ones = _mm_set1_epi8(static_cast<char>(0xFF));
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  const __m128i lit = _mm_set1_epi8(static_cast<char>(literal));
  const __m128i litb = _mm_xor_si128(lit, bias);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i vb = _mm_xor_si128(v, bias);
    __m128i m;
    switch (op) {
      case CompareOp::kEq: m = _mm_cmpeq_epi8(v, lit); break;
      case CompareOp::kNe:
        m = _mm_xor_si128(_mm_cmpeq_epi8(v, lit), ones);
        break;
      case CompareOp::kLt: m = _mm_cmplt_epi8(vb, litb); break;
      case CompareOp::kLe:
        m = _mm_xor_si128(_mm_cmpgt_epi8(vb, litb), ones);
        break;
      case CompareOp::kGt: m = _mm_cmpgt_epi8(vb, litb); break;
      case CompareOp::kGe:
        m = _mm_xor_si128(_mm_cmplt_epi8(vb, litb), ones);
        break;
      default: return;
    }
    int bits = _mm_movemask_epi8(m);
    while (bits != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(bits));
      out->push_back(static_cast<uint32_t>(i) + static_cast<uint32_t>(j));
      bits &= bits - 1;
    }
  }
  for (; i < count; ++i) {
    if (CompareU64(data[i], op, literal)) {
      out->push_back(static_cast<uint32_t>(i));
    }
  }
}

void DenseCompareW16Sse2(const uint8_t* data, size_t count, uint64_t literal,
                         CompareOp op, SelVector* out) {
  const __m128i ones = _mm_set1_epi16(static_cast<short>(0xFFFF));
  const __m128i bias = _mm_set1_epi16(static_cast<short>(0x8000));
  const __m128i lit = _mm_set1_epi16(static_cast<short>(literal));
  const __m128i litb = _mm_xor_si128(lit, bias);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i * 2));
    const __m128i vb = _mm_xor_si128(v, bias);
    __m128i m;
    switch (op) {
      case CompareOp::kEq: m = _mm_cmpeq_epi16(v, lit); break;
      case CompareOp::kNe:
        m = _mm_xor_si128(_mm_cmpeq_epi16(v, lit), ones);
        break;
      case CompareOp::kLt: m = _mm_cmplt_epi16(vb, litb); break;
      case CompareOp::kLe:
        m = _mm_xor_si128(_mm_cmpgt_epi16(vb, litb), ones);
        break;
      case CompareOp::kGt: m = _mm_cmpgt_epi16(vb, litb); break;
      case CompareOp::kGe:
        m = _mm_xor_si128(_mm_cmplt_epi16(vb, litb), ones);
        break;
      default: return;
    }
    const int bits = _mm_movemask_epi8(m);
    for (int j = 0; j < 8; ++j) {
      if ((bits >> (2 * j)) & 1) {
        out->push_back(static_cast<uint32_t>(i) + static_cast<uint32_t>(j));
      }
    }
  }
  for (; i < count; ++i) {
    uint16_t v;
    std::memcpy(&v, data + i * 2, 2);
    if (CompareU64(v, op, literal)) {
      out->push_back(static_cast<uint32_t>(i));
    }
  }
}

void DenseCompareW32Sse2(const uint8_t* data, size_t count, uint64_t literal,
                         CompareOp op, SelVector* out) {
  const __m128i ones = _mm_set1_epi32(-1);
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i lit = _mm_set1_epi32(static_cast<int>(literal));
  const __m128i litb = _mm_xor_si128(lit, bias);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i * 4));
    const __m128i vb = _mm_xor_si128(v, bias);
    __m128i m;
    switch (op) {
      case CompareOp::kEq: m = _mm_cmpeq_epi32(v, lit); break;
      case CompareOp::kNe:
        m = _mm_xor_si128(_mm_cmpeq_epi32(v, lit), ones);
        break;
      case CompareOp::kLt: m = _mm_cmplt_epi32(vb, litb); break;
      case CompareOp::kLe:
        m = _mm_xor_si128(_mm_cmpgt_epi32(vb, litb), ones);
        break;
      case CompareOp::kGt: m = _mm_cmpgt_epi32(vb, litb); break;
      case CompareOp::kGe:
        m = _mm_xor_si128(_mm_cmplt_epi32(vb, litb), ones);
        break;
      default: return;
    }
    const int bits = _mm_movemask_ps(_mm_castsi128_ps(m));
    for (int j = 0; j < 4; ++j) {
      if ((bits >> j) & 1) {
        out->push_back(static_cast<uint32_t>(i) + static_cast<uint32_t>(j));
      }
    }
  }
  for (; i < count; ++i) {
    uint32_t v;
    std::memcpy(&v, data + i * 4, 4);
    if (CompareU64(v, op, literal)) {
      out->push_back(static_cast<uint32_t>(i));
    }
  }
}

}  // namespace

void DensePackedCompareSse2(const uint8_t* packed, size_t packed_size,
                            int width, size_t count, uint64_t literal,
                            CompareOp op, SelVector* out) {
  switch (width) {
    case 8: DenseCompareW8Sse2(packed, count, literal, op, out); return;
    case 16: DenseCompareW16Sse2(packed, count, literal, op, out); return;
    case 32: DenseCompareW32Sse2(packed, count, literal, op, out); return;
    default:
      DensePackedCompareScalar(packed, packed_size, width, count, literal,
                               op, out);
      return;
  }
}
#else
void DensePackedCompareSse2(const uint8_t* packed, size_t packed_size,
                            int width, size_t count, uint64_t literal,
                            CompareOp op, SelVector* out) {
  DensePackedCompareScalar(packed, packed_size, width, count, literal, op,
                           out);
}
#endif  // SCUBA_HAVE_SSE2

}  // namespace internal

void FilterPackedU64(CompareOp op, const uint8_t* packed, size_t packed_size,
                     int width, size_t count, uint64_t literal,
                     SelVector* sel) {
  if (sel->empty()) return;
  if (op == CompareOp::kContains || op == CompareOp::kPrefix) {
    sel->clear();
    return;
  }
  // A literal above the packed domain resolves analytically: every lane is
  // strictly below it. (This also guarantees the SIMD paths only ever see
  // literals that fit `width` bits.)
  const uint64_t mask = width >= 64 ? ~0ull
                        : width == 0 ? 0ull
                                     : ((1ull << width) - 1);
  if (literal > mask) {
    switch (op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
      case CompareOp::kNe:
        return;  // every lane matches
      default:
        sel->clear();
        return;
    }
  }
  PackedMetrics& metrics = PackedMetrics::Get();
  const SimdLevel level = ActiveSimdLevel();
  // Dense selections stream the whole lane range through the tier's kernel;
  // sparse selections do per-row random access (the branchy gather would
  // waste the SIMD lanes anyway).
  const bool dense = sel->size() == count;
  if (dense) {
    sel->clear();
    switch (level) {
      case SimdLevel::kAvx2:
        internal::DensePackedCompareAvx2(packed, packed_size, width, count,
                                         literal, op, sel);
        metrics.rows_avx2->Add(count);
        break;
      case SimdLevel::kSse2:
        internal::DensePackedCompareSse2(packed, packed_size, width, count,
                                         literal, op, sel);
        metrics.rows_sse2->Add(count);
        break;
      case SimdLevel::kScalar:
        internal::DensePackedCompareScalar(packed, packed_size, width, count,
                                           literal, op, sel);
        metrics.rows_scalar->Add(count);
        break;
    }
    return;
  }
  metrics.rows_scalar->Add(sel->size());
  uint32_t* out = sel->data();
  size_t n = 0;
  for (uint32_t row : *sel) {
    if (internal::CompareU64(
            ExtractPackedLane(packed, packed_size, width, row), op,
            literal)) {
      out[n++] = row;
    }
  }
  sel->resize(n);
}

void FilterPackedByBitmap(const uint8_t* packed, size_t packed_size,
                          int width, size_t count,
                          const std::vector<uint8_t>& keep, SelVector* sel) {
  if (sel->empty()) return;
  (void)count;
  PackedMetrics::Get().bitmap_rows->Add(sel->size());
  const size_t dict_size = keep.size();
  uint32_t* out = sel->data();
  size_t n = 0;
  for (uint32_t row : *sel) {
    const uint64_t code = ExtractPackedLane(packed, packed_size, width, row);
    if (code < dict_size && keep[code] != 0) out[n++] = row;
  }
  sel->resize(n);
}

}  // namespace scan
}  // namespace scuba
