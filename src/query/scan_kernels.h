#ifndef SCUBA_QUERY_SCAN_KERNELS_H_
#define SCUBA_QUERY_SCAN_KERNELS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "query/query.h"

namespace scuba {
namespace scan {

/// The vectorized execution primitives (MonetDB/X100-style): predicates are
/// type-dispatched ONCE per chunk, then refine a selection vector through
/// tight typed loops — no per-cell variant inspection, no per-cell
/// StatusOr. Dictionary-encoded string columns are filtered by code
/// (C-Store-style operation on compressed data): the predicate runs once
/// per distinct dictionary entry, never materializing per-row strings.

/// Indexes of the rows still selected, ascending.
using SelVector = std::vector<uint32_t>;

/// Dictionary view of a string column: `codes[row]` indexes into `dict`.
struct DictStringColumn {
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;
};

/// One decoded column of a scan chunk. String columns stay in dictionary
/// form whenever the stored encoding allows it.
using ScanColumn = std::variant<std::vector<int64_t>, std::vector<double>,
                                std::vector<std::string>, DictStringColumn>;

/// Builds the initial selection: rows whose time lies in [begin, end].
void SelectTimeRange(const std::vector<int64_t>& times, int64_t begin,
                     int64_t end, SelVector* sel);

/// Refine `sel` in place, keeping rows where `values[row] <op> literal`.
/// kContains/kPrefix are string-only; callers type-check before dispatch.
void FilterInt64(CompareOp op, const std::vector<int64_t>& values,
                 int64_t literal, SelVector* sel);
void FilterDouble(CompareOp op, const std::vector<double>& values,
                  double literal, SelVector* sel);
void FilterString(CompareOp op, const std::vector<std::string>& values,
                  const std::string& literal, SelVector* sel);
void FilterDictString(CompareOp op, const DictStringColumn& column,
                      const std::string& literal, SelVector* sel);

/// Zone-map pruning decision: true when NO value inside the closed range
/// [zone_min, zone_max] can satisfy `<op> literal`, so the whole block can
/// be skipped without decoding (the generalization of the min/max-time
/// pruning of §2.1 to arbitrary numeric columns). kContains/kPrefix never
/// prune.
bool ZoneCanPruneInt64(CompareOp op, int64_t zone_min, int64_t zone_max,
                       int64_t literal);
bool ZoneCanPruneDouble(CompareOp op, double zone_min, double zone_max,
                        double literal);

/// Zone-map acceptance decision, the dual of ZoneCanPruneInt64: true when
/// EVERY value inside [zone_min, zone_max] satisfies `<op> literal`, so a
/// whole mini-block's rows survive the predicate without decoding.
bool ZoneAllMatchInt64(CompareOp op, int64_t zone_min, int64_t zone_max,
                       int64_t literal);

/// --- Compressed-domain (packed) kernels ----------------------------------
///
/// These kernels evaluate predicates directly on the bit-packed streams the
/// codecs store (compress/bitpack layout: `width`-bit unsigned lanes,
/// LSB-first within a little-endian bit stream) — the rows that fail never
/// decode. All comparisons are in the UNSIGNED domain of the packed lanes
/// (dictionary codes, zigzag deltas); the caller maps its predicate into
/// that domain first. Contract: for every width, op, literal, and selection
/// the result is bit-identical to decoding the lanes and running the scalar
/// FilterInt64 oracle, at every SIMD level.

/// SIMD tier the packed kernels run at, chosen once per process from CPUID.
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The active tier: the best level the CPU (and build) supports, clamped to
/// kScalar when the SCUBA_FORCE_SCALAR environment variable is set to a
/// non-empty value other than "0".
SimdLevel ActiveSimdLevel();
const char* SimdLevelName(SimdLevel level);

/// Test hook: forces ActiveSimdLevel() to `level`; pass -1 to restore
/// auto-detection. Levels above what the CPU supports are clamped.
void SetSimdLevelOverrideForTest(int level);

/// Random access into a packed stream. `packed_size` bounds tail reads; the
/// caller guarantees index < count and packed_size >= PackedSize(count,
/// width).
uint64_t ExtractPackedLane(const uint8_t* packed, size_t packed_size,
                           int width, size_t index);

/// Refines `sel` in place, keeping rows whose packed lane `<op> literal`
/// (unsigned compare). `count` is the total lane count of the stream; every
/// row in `sel` must be < count. kContains/kPrefix clear the selection.
void FilterPackedU64(CompareOp op, const uint8_t* packed, size_t packed_size,
                     int width, size_t count, uint64_t literal,
                     SelVector* sel);

/// Refines `sel` in place, keeping rows whose packed lane c has keep[c] !=
/// 0. Lanes >= keep.size() never match (corrupt codes drop out rather than
/// read out of bounds). This is the dictionary-predicate kernel: the
/// predicate runs once per distinct entry into `keep`, rows filter by code.
void FilterPackedByBitmap(const uint8_t* packed, size_t packed_size,
                          int width, size_t count,
                          const std::vector<uint8_t>& keep, SelVector* sel);

}  // namespace scan
}  // namespace scuba

#endif  // SCUBA_QUERY_SCAN_KERNELS_H_
