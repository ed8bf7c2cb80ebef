#ifndef SCUBA_QUERY_PACKED_COLUMN_H_
#define SCUBA_QUERY_PACKED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/row_block_column.h"
#include "compress/delta.h"
#include "query/scan_kernels.h"
#include "util/byte_buffer.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {

/// Compressed-domain view of one int64 row block column: predicates run on
/// the stored bytes (C-Store style), and only rows that survive every
/// filter materialize.
///
/// Two encoded forms are executable without decode (the chains EncodeInt64
/// emits):
///   dict+bitpack[+lz4]          predicates evaluate once per dictionary
///                               entry, rows filter by bit-packed code via
///                               the packed SIMD kernels
///   delta+zigzag+mbpack[+lz4]   mini-blocks prune (or wholesale-match) on
///                               their (min,max) bounds; only undecided
///                               blocks decode, into a per-view cache
///
/// Every operation is bit-identical to full decode + the scalar kernels —
/// that contract is what lets the executor pick this path freely. Open()
/// returns nullptr for any other chain or type; callers fall back to full
/// decode, which also keeps error surfacing for corrupt blocks on the
/// decode path.
class PackedInt64Column {
 public:
  /// Borrows `column`'s buffer (the caller keeps it alive); owns only the
  /// lz4-unwrapped bytes when the chain carried an lz4 stage.
  static std::unique_ptr<PackedInt64Column> Open(const RowBlockColumn& column);

  size_t rows() const { return count_; }

  /// Refines `sel` in place, keeping rows where `value <op> literal`.
  Status Filter(CompareOp op, int64_t literal, scan::SelVector* sel);

  /// Builds the initial selection of rows whose value lies in [begin, end],
  /// ascending — scan::SelectTimeRange without the decode.
  Status SelectTimeRange(int64_t begin, int64_t end, scan::SelVector* sel);

  /// Materializes a dense vector of rows() values in which every row of
  /// `sel` holds its decoded value; rows outside `sel` are unspecified
  /// (zero unless their mini-block decoded anyway). nullptr decodes all.
  Status MaterializeInto(const scan::SelVector* sel,
                         std::vector<int64_t>* out);

 private:
  enum class Mode { kDict, kMiniBlock };

  PackedInt64Column() = default;

  Status EnsureDecoded(size_t mb_index);

  Mode mode_ = Mode::kDict;
  size_t count_ = 0;
  ByteBuffer lz4_storage_;  // backing for the views below when lz4-wrapped

  // kDict: parsed dictionary + raw bit-packed code stream.
  std::vector<int64_t> dict_;
  int width_ = 0;
  Slice codes_;

  // kMiniBlock: parsed directory + payload, plus the decode cache filled
  // one mini-block at a time as predicates need them.
  std::vector<delta::MiniBlock> dir_;
  Slice payload_;
  size_t mb_rows_ = 0;
  std::vector<int64_t> cache_;
  std::vector<uint8_t> mb_decoded_;
};

}  // namespace scuba

#endif  // SCUBA_QUERY_PACKED_COLUMN_H_
