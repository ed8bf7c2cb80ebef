#include "columnar/row_block_column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/restart_manager.h"
#include "core/shutdown.h"
#include "shm/shm_segment.h"
#include "test_util.h"
#include "util/byte_buffer.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::ShmNamespace;

TEST(RowBlockColumnTest, Int64BuildAndDecode) {
  std::vector<int64_t> values = {1, 2, 3, 1000000, -5};
  RowBlockColumn col = RowBlockColumn::BuildInt64(values);
  EXPECT_EQ(col.type(), ColumnType::kInt64);
  EXPECT_EQ(col.item_count(), 5u);
  EXPECT_TRUE(col.Validate().ok());

  std::vector<int64_t> out;
  ASSERT_TRUE(col.DecodeInt64(&out).ok());
  EXPECT_EQ(out, values);
}

TEST(RowBlockColumnTest, DoubleBuildAndDecode) {
  std::vector<double> values = {0.5, -1.25, 3e10};
  RowBlockColumn col = RowBlockColumn::BuildDouble(values);
  std::vector<double> out;
  ASSERT_TRUE(col.DecodeDouble(&out).ok());
  EXPECT_EQ(out, values);
  EXPECT_EQ(col.uncompressed_bytes(), values.size() * 8);
}

TEST(RowBlockColumnTest, StringBuildAndDecode) {
  std::vector<std::string> values = {"a", "bb", "a", "", "ccc"};
  RowBlockColumn col = RowBlockColumn::BuildString(values);
  std::vector<std::string> out;
  ASSERT_TRUE(col.DecodeString(&out).ok());
  EXPECT_EQ(out, values);
}

TEST(RowBlockColumnTest, TypeMismatchedDecodeFails) {
  RowBlockColumn col = RowBlockColumn::BuildInt64({1, 2, 3});
  std::vector<double> doubles;
  EXPECT_TRUE(col.DecodeDouble(&doubles).IsInvalidArgument());
  std::vector<std::string> strings;
  EXPECT_TRUE(col.DecodeString(&strings).IsInvalidArgument());
}

// THE property the paper's mechanism depends on: the whole column is one
// position-independent buffer. memcpy it anywhere; it still validates and
// decodes identically (§2.1, §4.4).
TEST(RowBlockColumnTest, SingleMemcpyRelocation) {
  std::vector<std::string> values;
  Random random(5);
  for (int i = 0; i < 10000; ++i) {
    values.push_back("endpoint_" + std::to_string(random.Skewed(40)));
  }
  RowBlockColumn original = RowBlockColumn::BuildString(values);

  Slice bytes = original.AsSlice();
  std::unique_ptr<uint8_t[]> relocated(new uint8_t[bytes.size()]);
  std::memcpy(relocated.get(), bytes.data(), bytes.size());

  auto adopted = RowBlockColumn::FromBuffer(std::move(relocated),
                                            bytes.size());
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  std::vector<std::string> out;
  ASSERT_TRUE(adopted->DecodeString(&out).ok());
  EXPECT_EQ(out, values);
}

TEST(RowBlockColumnTest, FromBufferRejectsBadMagic) {
  RowBlockColumn col = RowBlockColumn::BuildInt64({1, 2, 3});
  Slice bytes = col.AsSlice();
  std::unique_ptr<uint8_t[]> copy(new uint8_t[bytes.size()]);
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  copy[0] ^= 0xFF;
  auto adopted = RowBlockColumn::FromBuffer(std::move(copy), bytes.size());
  EXPECT_TRUE(adopted.status().IsCorruption());
}

TEST(RowBlockColumnTest, ChecksumCatchesPayloadBitFlip) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i * 7);
  RowBlockColumn col = RowBlockColumn::BuildInt64(values);
  Slice bytes = col.AsSlice();
  std::unique_ptr<uint8_t[]> copy(new uint8_t[bytes.size()]);
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  copy[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  auto adopted = RowBlockColumn::FromBuffer(std::move(copy), bytes.size());
  ASSERT_FALSE(adopted.ok());
  EXPECT_TRUE(adopted.status().IsCorruption());
}

TEST(RowBlockColumnTest, UncheckedAdoptionSkipsCrc) {
  RowBlockColumn col = RowBlockColumn::BuildInt64({1, 2, 3});
  Slice bytes = col.AsSlice();
  std::unique_ptr<uint8_t[]> copy(new uint8_t[bytes.size()]);
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  // Corrupt one payload byte: structural checks pass, CRC would fail.
  copy[RowBlockColumn::kHeaderSize] ^= 0x01;
  auto adopted = RowBlockColumn::FromBuffer(std::move(copy), bytes.size(),
                                            /*verify_checksum=*/false);
  EXPECT_TRUE(adopted.ok());
}

TEST(RowBlockColumnTest, SizeMismatchIsCorruption) {
  RowBlockColumn col = RowBlockColumn::BuildInt64({1, 2, 3});
  Slice bytes = col.AsSlice();
  std::unique_ptr<uint8_t[]> copy(new uint8_t[bytes.size() + 8]);
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  auto adopted = RowBlockColumn::FromBuffer(std::move(copy),
                                            bytes.size() + 8);
  EXPECT_TRUE(adopted.status().IsCorruption());
}

TEST(RowBlockColumnTest, TooSmallBufferIsCorruption) {
  std::unique_ptr<uint8_t[]> tiny(new uint8_t[8]());
  EXPECT_TRUE(RowBlockColumn::FromBuffer(std::move(tiny), 8)
                  .status()
                  .IsCorruption());
}

TEST(RowBlockColumnTest, ValidateBufferInPlace) {
  RowBlockColumn col = RowBlockColumn::BuildDouble({1.0, 2.0});
  EXPECT_TRUE(RowBlockColumn::ValidateBuffer(col.AsSlice()).ok());
}

TEST(RowBlockColumnTest, EmptyColumn) {
  RowBlockColumn col = RowBlockColumn::BuildInt64({});
  EXPECT_EQ(col.item_count(), 0u);
  EXPECT_TRUE(col.Validate().ok());
  std::vector<int64_t> out = {99};
  ASSERT_TRUE(col.DecodeInt64(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(RowBlockColumnTest, CompressionChainIsRecorded) {
  std::vector<int64_t> timestamps;
  for (int i = 0; i < 5000; ++i) timestamps.push_back(1400000000 + i);
  RowBlockColumn col = RowBlockColumn::BuildInt64(timestamps);
  EXPECT_GE(column_codec::ChainLength(col.compression_chain()), 2);
}

TEST(LayoutVersionTest, WriterEmitsV2WithZoneMaps) {
  RowBlockColumn ints = RowBlockColumn::BuildInt64({5, -3, 12, 7});
  EXPECT_EQ(ints.version(), 2);
  ASSERT_TRUE(ints.HasZoneMap());
  int64_t mn = 0, mx = 0;
  ASSERT_TRUE(ints.ZoneRangeInt64(&mn, &mx));
  EXPECT_EQ(mn, -3);
  EXPECT_EQ(mx, 12);
  EXPECT_FALSE(ints.ZoneRangeDouble(nullptr, nullptr));

  RowBlockColumn dbls = RowBlockColumn::BuildDouble({1.5, -2.25, 0.0});
  ASSERT_TRUE(dbls.HasZoneMap());
  double dmn = 0, dmx = 0;
  ASSERT_TRUE(dbls.ZoneRangeDouble(&dmn, &dmx));
  EXPECT_EQ(dmn, -2.25);
  EXPECT_EQ(dmx, 1.5);

  // NaN poisons min/max comparisons: no zone map, never pruned.
  RowBlockColumn nans =
      RowBlockColumn::BuildDouble({1.0, std::nan(""), 2.0});
  EXPECT_FALSE(nans.HasZoneMap());

  // Strings and empty columns carry no zone.
  EXPECT_FALSE(RowBlockColumn::BuildString({"a", "b"}).HasZoneMap());
  EXPECT_FALSE(RowBlockColumn::BuildInt64({}).HasZoneMap());
}

// Layout version 1 (a 16-byte footer without the zone map) is a format
// this build never writes. A well-formed v1 buffer must be rejected as
// Corruption rather than misread, so a restore that meets one lands on its
// tested fallback — here, shm -> disk.
TEST(LayoutVersionTest, V1FooterRejectedSoRestoreFallsBack) {
  // Rewrite a v2 column byte-for-byte into what a v1 writer produced: drop
  // the 24 zone-map bytes, keep the trailing [uncompressed | checksum |
  // end magic], stamp version 1, fix the total size, recompute the CRC.
  RowBlockColumn column = RowBlockColumn::BuildInt64({100, 200, 300});
  Slice v2 = column.AsSlice();
  const size_t body = v2.size() - RowBlockColumn::kFooterSize;
  const size_t v1_total = body + 16;
  std::unique_ptr<uint8_t[]> v1(new uint8_t[v1_total]);
  std::memcpy(v1.get(), v2.data(), body);
  std::memcpy(v1.get() + body, v2.data() + v2.size() - 16, 16);
  v1[4] = 1;  // version, u16 little-endian
  v1[5] = 0;
  ByteBuffer::EncodeU64(v1.get() + 16, v1_total);
  ByteBuffer::EncodeU32(v1.get() + v1_total - 8,
                        crc32c::Mask(crc32c::Value(v1.get(), v1_total - 8)));
  for (bool verify : {true, false}) {
    EXPECT_TRUE(RowBlockColumn::ValidateBuffer(Slice(v1.get(), v1_total),
                                               verify)
                    .IsCorruption());
  }

  // A v1 column met in shared memory: the restore fails, scrubs shm and
  // leaves the map empty for the disk path.
  ShmNamespace ns("rbc_v1");
  LeafMap leaf_map;
  Table* table = leaf_map.GetOrCreateTable("events");
  ASSERT_TRUE(table->AddRows(MakeRows(100, 1000), 0).ok());
  ASSERT_TRUE(table->SealWriteBuffer(0).ok());
  ShutdownOptions soptions;
  soptions.namespace_prefix = ns.prefix();
  ShutdownStats sstats;
  ASSERT_TRUE(ShutdownToShm(&leaf_map, soptions, &sstats).ok());
  bool patched = false;
  for (const std::string& name : ShmSegment::List("/" + ns.prefix())) {
    if (name.find("_table_") == std::string::npos) continue;
    auto segment = ShmSegment::Open(name);
    ASSERT_TRUE(segment.ok());
    for (size_t off = 0; off + 8 <= segment->size() && !patched; off += 8) {
      if (ByteBuffer::DecodeU32(segment->data() + off) ==
          RowBlockColumn::kMagic) {
        segment->data()[off + 4] = 1;  // the column now claims v1
        patched = true;
      }
    }
  }
  ASSERT_TRUE(patched);
  RestartConfig config;
  config.namespace_prefix = ns.prefix();
  config.restore.verify_checksums = false;  // the version check alone
  LeafMap restored;
  RestoreStats rstats;
  Status s = RestoreFromShm(&restored, config, &rstats);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(restored.num_tables(), 0u);
  EXPECT_TRUE(ShmSegment::List("/" + ns.prefix()).empty());
}

}  // namespace
}  // namespace scuba
