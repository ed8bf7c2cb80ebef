#ifndef SCUBA_COMPRESS_COLUMN_CODEC_H_
#define SCUBA_COMPRESS_COLUMN_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/byte_buffer.h"
#include "util/slice.h"
#include "util/status.h"

namespace scuba {
namespace column_codec {

/// Scuba compresses each row block column with "a combination of dictionary
/// encoding, bit packing, delta encoding, and lz4 compression, with at least
/// two methods applied to each column" (§2.1). This module implements those
/// four codecs as composable stages and a chooser that picks a chain per
/// column based on cardinality and size.

/// One codec stage. A column's full recipe is a chain of up to four stages,
/// applied left to right at encode time.
enum class Stage : uint8_t {
  kNone = 0,
  kDictionary = 1,  // distinct values -> dictionary blob + index vector
  kDelta = 2,       // v[i] -= v[i-1] (base kept separately)
  kZigZag = 3,      // signed -> unsigned small-magnitude mapping
  kBitPack = 4,     // fixed-width bit packing of uint64 values
  kLz4 = 5,         // LZ4 block compression of the byte stream
  kShuffle = 6,     // byte-plane transpose (doubles), pairs with kLz4
  kRawStrings = 7,  // varint-framed string concatenation
  kRawFixed = 8,    // raw little-endian fixed-width values
  kMiniBlockPack = 9,  // per-mini-block bit packing with (min,max) bounds
};

/// Chain of up to 4 stages packed 4 bits each, first stage in the low bits.
/// This is the 16-bit "compression code" stored in the row block column
/// header (Fig 3).
using ChainCode = uint16_t;

ChainCode MakeChain(std::initializer_list<Stage> stages);
std::vector<Stage> ChainStages(ChainCode chain);
std::string ChainToString(ChainCode chain);
/// Number of distinct codec methods in the chain (kNone excluded).
int ChainLength(ChainCode chain);

/// Result of encoding one column: the chain applied, the dictionary blob
/// (empty unless the chain contains kDictionary), and the data blob.
struct EncodedColumn {
  ChainCode chain = 0;
  uint64_t dict_item_count = 0;
  ByteBuffer dict;
  ByteBuffer data;
};

/// Encodes an int64 column. Chooses dictionary + bit packing for
/// low-cardinality columns, otherwise delta + zigzag + mini-block packing
/// (independently decodable 128-row blocks carrying zone-map bounds, see
/// compress/delta.h); appends an LZ4 stage whenever it shrinks the result.
EncodedColumn EncodeInt64(const std::vector<int64_t>& values);

/// Encodes a double column with byte-plane shuffle + LZ4 (falls back to raw
/// when incompressible).
EncodedColumn EncodeDouble(const std::vector<double>& values);

/// Encodes a string column. Dictionary + bit-packed indexes when the
/// distinct count is low; varint-framed raw + LZ4 otherwise.
EncodedColumn EncodeString(const std::vector<std::string>& values);

/// True when `chain` is the dictionary-encoded string layout
/// (dict + bitpack, optionally wrapped in lz4).
bool IsStringDictChain(ChainCode chain);

/// Structural chain tests used by the compressed-domain scan path. A
/// dict+bitpack chain stores per-row dictionary codes as u8(width) +
/// bitpacked stream; a mini-block chain stores the compress/delta.h
/// mini-block layout. Both may carry a trailing lz4 stage.
bool IsDictBitPackChain(ChainCode chain);
bool IsMiniBlockChain(ChainCode chain);

/// Strips a trailing lz4 stage: on return *out is either `data` itself (no
/// lz4 in the chain) or a view of *storage holding the decompressed bytes.
Status UnwrapLz4(ChainCode chain, Slice data, ByteBuffer* storage,
                 Slice* out);

/// Splits a (already lz4-unwrapped) dict+bitpack data blob into its bit
/// width and the raw packed code stream of `count` codes.
Status ReadPackedCodes(Slice data, size_t count, int* width, Slice* packed);

/// Decodes the dictionary entries and the per-row dictionary codes of a
/// dictionary-encoded string column WITHOUT materializing per-row strings
/// (codes fit in uint32: the chooser caps cardinality at 4096). The
/// vectorized query engine evaluates string predicates once per distinct
/// entry and filters rows by code. InvalidArgument when the chain is not
/// IsStringDictChain.
Status DecodeStringDictCodes(ChainCode chain, Slice dict, Slice data,
                             size_t count,
                             std::vector<std::string>* dict_values,
                             std::vector<uint32_t>* codes);

/// Decoders. `count` is the item count from the column header; `dict` and
/// `data` are the blobs located via the header offsets.
Status DecodeInt64(ChainCode chain, Slice dict, Slice data, size_t count,
                   std::vector<int64_t>* values);
Status DecodeDouble(ChainCode chain, Slice dict, Slice data, size_t count,
                    std::vector<double>* values);
Status DecodeString(ChainCode chain, Slice dict, Slice data, size_t count,
                    std::vector<std::string>* values);

}  // namespace column_codec
}  // namespace scuba

#endif  // SCUBA_COMPRESS_COLUMN_CODEC_H_
