#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/cpu_features.h"
#include "util/crc32c_internal.h"
#include "util/random.h"

namespace scuba {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

uint32_t CrcOf(const std::string& s) {
  return crc32c::Value(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Whether this build and CPU can run the hardware path at all (tests call
// it directly, so SCUBA_FORCE_SCALAR does not matter here).
bool HardwareAvailable() {
  return crc32c::internal::Sse42CompiledIn() && GetCpuFeatures().sse42;
}

// RFC 3720 (iSCSI) appendix B.4 CRC-32C test vectors.
void ExpectRfc3720Vectors(ExtendFn extend) {
  std::vector<uint8_t> buf(32, 0);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x62A8AB43u);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x46DD794Eu);
  for (size_t i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(extend(0, buf.data(), buf.size()), 0x113FDB5Cu);
  const uint8_t read_pdu[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(extend(0, read_pdu, sizeof(read_pdu)), 0xD9963A56u);
}

// Known-answer vectors for CRC-32C (Castagnoli), from RFC 3720 / kernel
// test suites.
TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(CrcOf(""), 0x00000000u);
  EXPECT_EQ(CrcOf("a"), 0xC1D04330u);
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);

  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62A8AB43u);

  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc32c::Value(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "hello world, this is an incremental crc test";
  uint32_t whole = CrcOf(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = crc32c::Value(
        reinterpret_cast<const uint8_t*>(data.data()), split);
    uint32_t total = crc32c::Extend(
        part, reinterpret_cast<const uint8_t*>(data.data()) + split,
        data.size() - split);
    EXPECT_EQ(total, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    uint32_t masked = crc32c::Mask(crc);
    EXPECT_NE(masked, crc);
    EXPECT_EQ(crc32c::Unmask(masked), crc);
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  std::string data(1024, 'x');
  uint32_t base = CrcOf(data);
  data[512] = 'y';
  EXPECT_NE(CrcOf(data), base);
}

TEST(Crc32cTest, UnalignedOffsetsAgree) {
  // The 4-byte fast path must agree with byte-at-a-time for any length.
  std::string data = "0123456789abcdefghijklmnopqrstuvwxyz";
  for (size_t len = 0; len <= data.size(); ++len) {
    uint32_t fast = crc32c::Value(
        reinterpret_cast<const uint8_t*>(data.data()), len);
    uint32_t slow = 0;
    for (size_t i = 0; i < len; ++i) {
      slow = crc32c::Extend(
          slow, reinterpret_cast<const uint8_t*>(data.data()) + i, 1);
    }
    EXPECT_EQ(fast, slow) << "length " << len;
  }
}

TEST(Crc32cTest, TablePathRfc3720Vectors) {
  ExpectRfc3720Vectors(crc32c::internal::ExtendTable);
}

TEST(Crc32cTest, HardwarePathRfc3720Vectors) {
  if (!HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU/build";
  ExpectRfc3720Vectors(crc32c::internal::ExtendSse42);
}

// The hardware path against the table path over random inputs: lengths up
// to three long blocks + three short blocks + a ragged tail (every stage of
// the kernel), every start alignment mod 16, random initial CRCs, and the
// input split at a random point and extended in two calls.
TEST(Crc32cTest, HardwarePathMatchesTablePath) {
  if (!HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU/build";
  constexpr size_t kMaxLen = 3 * 8192 + 3 * 256 + 15;
  Random random(20260);
  std::vector<uint8_t> buf(kMaxLen + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(random.Next());

  std::vector<size_t> lengths = {0,        1,        7,        8,
                                 9,        255,      256,      767,
                                 768,      769,      3 * 8192 - 1,
                                 3 * 8192, 3 * 8192 + 1,   kMaxLen};
  for (int i = 0; i < 300; ++i) {
    lengths.push_back(random.Uniform(kMaxLen + 1));
  }
  for (size_t len : lengths) {
    for (size_t align = 0; align < 16; ++align) {
      const uint8_t* data = buf.data() + align;
      const uint32_t init = static_cast<uint32_t>(random.Next());
      const uint32_t want = crc32c::internal::ExtendTable(init, data, len);
      ASSERT_EQ(crc32c::internal::ExtendSse42(init, data, len), want)
          << "len " << len << " align " << align << " init " << init;
      const size_t split = random.Uniform(len + 1);
      const uint32_t head = crc32c::internal::ExtendSse42(init, data, split);
      ASSERT_EQ(crc32c::internal::ExtendSse42(head, data + split, len - split),
                want)
          << "len " << len << " align " << align << " split " << split;
    }
  }
}

TEST(Crc32cTest, ActivePathFollowsTheCpuProbe) {
  const bool hardware = HardwareAvailable() && !GetCpuFeatures().force_scalar;
  EXPECT_STREQ(crc32c::ActivePathName(), hardware ? "sse4.2" : "table");
}

// The path choice and the kernels' tables are built on first use; threads
// that race to that first use must all see one complete choice (run under
// TSan in CI).
TEST(Crc32cTest, ConcurrentFirstUseAgrees) {
  std::vector<uint8_t> data(3 * 8192 + 300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131);
  }
  const uint32_t want =
      crc32c::internal::ExtendTable(0, data.data(), data.size());
  std::vector<uint32_t> got(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = crc32c::Value(data.data(), data.size());
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint32_t crc : got) EXPECT_EQ(crc, want);
}

}  // namespace
}  // namespace scuba
