// Pins the exact bytes the column encoders emit. Every digest below was
// recorded from the byte-at-a-time encoders (two-pass node-based
// dictionaries, byte-wise LZ4 and bit-packing) that the word-wise ones
// replaced. Sealed blocks are checksummed, copied through shm and written
// to .cols files, so an encoder may only get faster, never different: a
// changed digest here means every stored CRC and compression ratio moves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "columnar/row_block.h"
#include "columnar/write_buffer.h"
#include "compress/bitpack.h"
#include "compress/column_codec.h"
#include "compress/lz4.h"
#include "compress/lz4_corpus.h"
#include "ingest/row_generator.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace scuba {
namespace {

std::string Hex(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n) {
  return n == 0 ? crc : crc32c::Extend(crc, data, n);
}

uint32_t Extend(uint32_t crc, const ByteBuffer& buf) {
  return Extend(crc, buf.data(), buf.size());
}

uint32_t ExtendU64(uint32_t crc, uint64_t v) {
  uint8_t bytes[8];
  ByteBuffer::EncodeU64(bytes, v);
  return Extend(crc, bytes, sizeof(bytes));
}

// The chain's name, then a CRC32C over the encoded column: chain,
// dictionary item count, dictionary bytes, data bytes.
std::string Digest(const column_codec::EncodedColumn& encoded) {
  uint32_t crc = ExtendU64(0, encoded.chain);
  crc = ExtendU64(crc, encoded.dict_item_count);
  crc = Extend(crc, encoded.dict);
  return column_codec::ChainToString(encoded.chain) + " " +
         Hex(Extend(crc, encoded.data));
}

std::string Digest(const ColumnValues& values) {
  return std::visit(
      [](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<int64_t>>) {
          return Digest(column_codec::EncodeInt64(v));
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          return Digest(column_codec::EncodeDouble(v));
        } else {
          return Digest(column_codec::EncodeString(v));
        }
      },
      values);
}

// `n` rows holding exactly `distinct` values: each value once, in order,
// then seeded picks among them.
std::vector<int64_t> IntsWithDistinct(size_t n, size_t distinct,
                                      uint64_t seed) {
  Random random(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = i < distinct ? i : random.Uniform(distinct);
    values.push_back(static_cast<int64_t>((k + 1) * 0x9E3779B1ull) - 1000000);
  }
  return values;
}

std::vector<std::string> StringsWithDistinct(size_t n, size_t distinct,
                                             uint64_t seed) {
  Random random(seed);
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = i < distinct ? i : random.Uniform(distinct);
    values.push_back("value_" + std::to_string(k * 7919));
  }
  return values;
}

// Every length from 0 to 40 with embedded NULs, a twin of each that
// differs only in its last byte, and all-NUL strings that differ only in
// length.
std::vector<std::string> EdgeStrings() {
  std::vector<std::string> out;
  for (size_t len = 0; len <= 40; ++len) {
    std::string s(len, '\0');
    for (size_t k = 0; k < len; ++k) {
      if (k % 3 != 1) s[k] = static_cast<char>('a' + (k + len) % 26);
    }
    out.push_back(s);
    if (len > 0) {
      s.back() = static_cast<char>(s.back() ^ 0x01);
      out.push_back(s);
    }
  }
  for (size_t len = 1; len <= 8; ++len) out.emplace_back(len, '\0');
  return out;
}

TEST(EncoderDigestTest, RowGeneratorBlockColumns) {
  RowGeneratorConfig config;
  config.rows_per_second = 250;
  RowGenerator generator(config);
  WriteBuffer buffer;
  for (const Row& row : generator.NextBatch(kMaxRowsPerBlock)) {
    ASSERT_TRUE(buffer.AddRow(row).ok());
  }
  Schema schema;
  std::vector<ColumnValues> columns;
  buffer.TakeColumns(&schema, &columns);

  const std::map<std::string, std::string> expected = {
      {"time", "dict+bitpack+lz4 e78bbd77"},
      {"service", "dict+bitpack 96559718"},
      {"endpoint", "dict+bitpack 08bdf7f5"},
      {"host", "dict+bitpack 26fddf50"},
      {"status", "dict+bitpack+lz4 c6ed8bdf"},
      {"latency_ms", "shuffle+lz4 74400fe3"},
      {"bytes_out", "dict+bitpack 8ea29604"},
      {"error_msg", "dict+bitpack+lz4 3847b416"},
  };
  ASSERT_EQ(schema.num_columns(), expected.size());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const std::string& name = schema.column(i).name;
    EXPECT_EQ(Digest(columns[i]), expected.at(name)) << name;
  }

  // The sealed block's column images carry the header, the zone map and
  // the stored CRC as well.
  auto block = RowBlock::Build(schema, std::move(columns), 1400000000);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  uint32_t crc = 0;
  for (size_t i = 0; i < (*block)->num_columns(); ++i) {
    const RowBlockColumn* column = (*block)->column(i);
    crc = Extend(crc, column->data(), column->total_bytes());
  }
  EXPECT_EQ(Hex(crc), "d064dfd0");
}

TEST(EncoderDigestTest, DictionaryCardinalityLimits) {
  // 4,096 distinct values is the dictionary's cap; one more falls back to
  // mini-blocks (ints) or raw strings.
  EXPECT_EQ(Digest(IntsWithDistinct(65536, 4096, 1)),
            "dict+bitpack b38743bc");
  EXPECT_EQ(Digest(IntsWithDistinct(65536, 4097, 1)),
            "delta+zigzag+mbpack+lz4 d02768de");
  EXPECT_EQ(Digest(StringsWithDistinct(65536, 4096, 2)),
            "dict+bitpack f526af87");
  EXPECT_EQ(Digest(StringsWithDistinct(65536, 4097, 2)),
            "rawstr+lz4 78f108d9");
  // Ratio limits on 64 rows: n/4 distinct ints, n/2 distinct strings.
  EXPECT_EQ(Digest(IntsWithDistinct(64, 16, 3)), "dict+bitpack 7a270ff2");
  EXPECT_EQ(Digest(IntsWithDistinct(64, 17, 3)),
            "delta+zigzag+mbpack+lz4 d47758d9");
  EXPECT_EQ(Digest(StringsWithDistinct(64, 32, 4)), "dict+bitpack 0abb008a");
  EXPECT_EQ(Digest(StringsWithDistinct(64, 33, 4)), "rawstr+lz4 8d873189");
}

TEST(EncoderDigestTest, MinimumRowsForDictionary) {
  // kMinRowsForDict is 16: 15 rows never take a dictionary.
  EXPECT_EQ(Digest(std::vector<int64_t>(15, 200)),
            "delta+zigzag+mbpack 4ff4b2c1");
  EXPECT_EQ(Digest(std::vector<std::string>(15, "svc_1")),
            "rawstr+lz4 55d81da7");
  EXPECT_EQ(Digest(IntsWithDistinct(15, 4, 5)),
            "delta+zigzag+mbpack d197e187");
  EXPECT_EQ(Digest(StringsWithDistinct(15, 8, 6)), "rawstr+lz4 15c0099e");
  EXPECT_EQ(Digest(std::vector<int64_t>(16, 200)), "dict+bitpack 451388a6");
  EXPECT_EQ(Digest(std::vector<std::string>(16, "svc_1")),
            "dict+bitpack afc4cdb0");
  EXPECT_EQ(Digest(IntsWithDistinct(16, 4, 5)), "dict+bitpack 22c03f30");
  EXPECT_EQ(Digest(StringsWithDistinct(16, 8, 6)), "dict+bitpack b6802635");
}

TEST(EncoderDigestTest, IntExtremes) {
  const std::vector<int64_t> edges = {INT64_MIN, INT64_MAX, 0, -1, 1,
                                      INT64_MIN + 1, INT64_MAX - 1, 256};
  std::vector<int64_t> values;
  Random random(7);
  for (size_t i = 0; i < 64; ++i) {
    values.push_back(edges[random.Uniform(edges.size())]);
  }
  EXPECT_EQ(Digest(values), "dict+bitpack d7e2894b");
}

TEST(EncoderDigestTest, EdgeStrings) {
  const std::vector<std::string> edges = EdgeStrings();
  ASSERT_EQ(std::set<std::string>(edges.begin(), edges.end()).size(),
            edges.size());
  // Each string once: too many distinct values for a dictionary.
  EXPECT_EQ(Digest(edges), "rawstr+lz4 e6f38c33");
  // Three seeded passes: dictionary-encoded.
  std::vector<std::string> repeated;
  Random random(8);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < edges.size(); ++i) {
      repeated.push_back(edges[random.Uniform(edges.size())]);
    }
  }
  repeated.insert(repeated.end(), edges.begin(), edges.end());
  EXPECT_EQ(Digest(repeated), "dict+bitpack 94190b95");
  std::vector<std::string> decoded;
  column_codec::EncodedColumn encoded = column_codec::EncodeString(repeated);
  ASSERT_TRUE(column_codec::DecodeString(encoded.chain,
                                         encoded.dict.AsSlice(),
                                         encoded.data.AsSlice(),
                                         repeated.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded, repeated);
}

// Seeded inputs whose compressibility varies along the block: noise, runs,
// a small alphabet, and copies of earlier bytes at offsets on both sides
// of LZ4's 65,535-byte window.
std::string RandomLz4Input(uint64_t seed, size_t size) {
  Random random(seed);
  std::string s;
  s.reserve(size);
  while (s.size() < size) {
    const size_t room = size - s.size();
    size_t len = 0;
    switch (random.Uniform(4)) {
      case 0:
        len = std::min<size_t>(room, 1 + random.Uniform(64));
        for (size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>(random.Next() & 0xFF));
        }
        break;
      case 1:
        s.append(std::min<size_t>(room, 1 + random.Uniform(300)),
                 static_cast<char>(random.Next() & 0xFF));
        break;
      case 2:
        len = std::min<size_t>(room, 1 + random.Uniform(100));
        for (size_t i = 0; i < len; ++i) {
          s.push_back(static_cast<char>('a' + random.Uniform(4)));
        }
        break;
      default: {
        if (s.empty()) break;
        const size_t offset =
            1 + random.Uniform(std::min<size_t>(s.size(), 70000));
        len = std::min<size_t>(room, 4 + random.Uniform(200));
        for (size_t i = 0; i < len; ++i) s.push_back(s[s.size() - offset]);
        break;
      }
    }
  }
  return s;
}

std::string Lz4Digest(const std::string& input) {
  ByteBuffer out;
  lz4::Compress(Slice(input), &out);
  std::string decoded(input.size(), '\0');
  EXPECT_TRUE(lz4::Decompress(out.AsSlice(),
                              reinterpret_cast<uint8_t*>(decoded.data()),
                              decoded.size())
                  .ok());
  EXPECT_EQ(decoded, input);
  return Hex(Extend(ExtendU64(0, input.size()), out));
}

TEST(EncoderDigestTest, Lz4Corpus) {
  const std::vector<std::string> expected = {
      "bbe568a3", "84e36a2e", "6e338d32", "3b47405b",
      "dc52e1b5", "85366887", "4b84ea06"};
  const std::vector<std::string> corpus = Lz4Corpus();
  ASSERT_EQ(corpus.size(), expected.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(Lz4Digest(corpus[i]), expected[i]) << "corpus input " << i;
  }
}

TEST(EncoderDigestTest, Lz4SeededInputs) {
  // Every size from 0 to 80 (the end-of-block margins), then 48 seeded
  // sizes up to 70,000 bytes; one digest over all of them.
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 80; ++n) sizes.push_back(n);
  Random random(9);
  for (int i = 0; i < 48; ++i) sizes.push_back(random.Uniform(70001));
  uint32_t crc = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const std::string input = RandomLz4Input(1000 + i, sizes[i]);
    ByteBuffer out;
    lz4::Compress(Slice(input), &out);
    crc = Extend(ExtendU64(crc, input.size()), out);
  }
  EXPECT_EQ(Hex(crc), "0eac6829");
}

TEST(EncoderDigestTest, Lz4AppendsAfterExistingBytes) {
  // Compress appends: bytes already in the buffer stay in front.
  const std::string input = RandomLz4Input(77, 5000);
  ByteBuffer out;
  out.Append("prefix", 6);
  lz4::Compress(Slice(input), &out);
  EXPECT_EQ(Hex(Extend(0, out)), "dafad3c8");
}

TEST(EncoderDigestTest, BitpackEveryWidth) {
  // Widths 0..64, counts that end on and off word boundaries, appended
  // after one byte as column_codec does (its width byte).
  uint32_t crc = 0;
  for (int width = 0; width <= 64; ++width) {
    Random random(static_cast<uint64_t>(width) + 100);
    const uint64_t mask =
        width == 64 ? ~0ull : ((1ull << width) - 1);
    for (size_t count :
         {1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u + width}) {
      std::vector<uint64_t> values;
      for (size_t i = 0; i < count; ++i) {
        values.push_back(random.Next() & mask);
      }
      values[0] = mask;
      ByteBuffer out;
      out.AppendU8(static_cast<uint8_t>(width));
      bitpack::Pack(values, width, &out);
      ASSERT_EQ(out.size(), 1 + bitpack::PackedSize(count, width));
      crc = Extend(crc, out);
    }
  }
  EXPECT_EQ(Hex(crc), "f711b5bd");
}

}  // namespace
}  // namespace scuba
