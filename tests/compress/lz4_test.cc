#include "compress/lz4.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/random.h"

namespace scuba {
namespace {

std::string RoundTrip(const std::string& input) {
  ByteBuffer compressed;
  lz4::Compress(Slice(input), &compressed);
  std::string output(input.size(), '\0');
  Status s = lz4::Decompress(compressed.AsSlice(),
                             reinterpret_cast<uint8_t*>(output.data()),
                             output.size());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

TEST(Lz4Test, EmptyInput) { EXPECT_EQ(RoundTrip(""), ""); }

TEST(Lz4Test, TinyInputsAreLiteralOnly) {
  for (const std::string& s : {std::string("a"), std::string("abc"),
                               std::string("0123456789")}) {
    EXPECT_EQ(RoundTrip(s), s);
  }
}

TEST(Lz4Test, HighlyRepetitiveDataCompressesHard) {
  std::string input(100000, 'z');
  ByteBuffer compressed;
  lz4::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 100);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Lz4Test, RepeatedPhraseCompresses) {
  std::string input;
  for (int i = 0; i < 2000; ++i) input += "GET /api/v2/users 200 OK ";
  ByteBuffer compressed;
  lz4::Compress(Slice(input), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 5);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Lz4Test, IncompressibleDataRoundTrips) {
  Random random(3);
  std::string input;
  input.reserve(65536);
  for (int i = 0; i < 65536; ++i) {
    input.push_back(static_cast<char>(random.Next() & 0xFF));
  }
  EXPECT_EQ(RoundTrip(input), input);
}

std::string CompressToString(const std::string& input) {
  ByteBuffer compressed;
  lz4::Compress(Slice(input), &compressed);
  return std::string(reinterpret_cast<const char*>(compressed.data()),
                     compressed.size());
}

// The bytes a thread that has never compressed anything produces.
std::string CompressOnFreshThread(const std::string& input) {
  std::string out;
  std::thread([&] { out = CompressToString(input); }).join();
  return out;
}

TEST(Lz4Test, RepeatedCallsOnOneThreadMatchFreshThread) {
  // The hash table is per thread and outlives each call. Whatever earlier
  // calls left in it, large and small inputs in any order must compress
  // to a fresh thread's bytes.
  Random random(17);
  auto text = [&](size_t n, int alphabet) {
    std::string s;
    for (size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>('a' + random.Uniform(alphabet)));
    }
    return s;
  };
  std::string phrase_run;
  while (phrase_run.size() < 70000) phrase_run += "GET /api/v2/users 200 ";
  const std::vector<std::string> inputs = {
      text(65536, 4), text(16, 2),      text(300, 6), phrase_run,
      text(1000, 3),  text(100000, 20), text(300, 6), text(65536, 4)};
  std::vector<std::string> want;
  for (const std::string& s : inputs) want.push_back(CompressOnFreshThread(s));
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(CompressToString(inputs[i]), want[i])
          << "round " << round << " input " << i;
    }
  }
}

TEST(Lz4Test, CompressBoundHolds) {
  Random random(5);
  for (size_t n : {0u, 1u, 100u, 10000u}) {
    std::string input;
    for (size_t i = 0; i < n; ++i) {
      input.push_back(static_cast<char>(random.Next() & 0xFF));
    }
    ByteBuffer compressed;
    lz4::Compress(Slice(input), &compressed);
    EXPECT_LE(compressed.size(), lz4::CompressBound(n)) << n;
  }
}

TEST(Lz4Test, OverlappingMatchReplication) {
  // "abcabcabc..." exercises offset < match length (byte-wise replication).
  std::string input;
  for (int i = 0; i < 10000; ++i) input.push_back("abc"[i % 3]);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Lz4Test, WrongDestSizeIsCorruption) {
  std::string input(1000, 'q');
  ByteBuffer compressed;
  lz4::Compress(Slice(input), &compressed);
  std::vector<uint8_t> dst(999);
  Status s = lz4::Decompress(compressed.AsSlice(), dst.data(), dst.size());
  EXPECT_TRUE(s.IsCorruption());
}

TEST(Lz4Test, TruncatedInputIsCorruption) {
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "pattern";
  ByteBuffer compressed;
  lz4::Compress(Slice(input), &compressed);
  std::vector<uint8_t> dst(input.size());
  for (size_t cut : {1u, 2u, 5u}) {
    ASSERT_LT(cut, compressed.size());
    Status s = lz4::Decompress(
        Slice(compressed.data(), compressed.size() - cut), dst.data(),
        dst.size());
    EXPECT_FALSE(s.ok()) << "cut " << cut;
  }
}

TEST(Lz4Test, GarbageInputDoesNotCrash) {
  Random random(17);
  std::vector<uint8_t> dst(4096);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    size_t n = 1 + random.Uniform(200);
    for (size_t i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(random.Next() & 0xFF));
    }
    // Must return (any status) without crashing or overflowing dst.
    lz4::Decompress(Slice(garbage), dst.data(), dst.size()).ok();
  }
}

// Property sweep: mixtures of run-lengths and randomness at many sizes.
class Lz4RoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Lz4RoundTripTest, MixedContentRoundTrips) {
  size_t n = GetParam();
  Random random(n + 1);
  std::string input;
  input.reserve(n);
  while (input.size() < n) {
    if (random.Bernoulli(0.5)) {
      size_t run = 1 + random.Uniform(64);
      char c = static_cast<char>('a' + random.Uniform(26));
      input.append(std::min(run, n - input.size()), c);
    } else {
      size_t run = 1 + random.Uniform(32);
      for (size_t i = 0; i < run && input.size() < n; ++i) {
        input.push_back(static_cast<char>(random.Next() & 0xFF));
      }
    }
  }
  EXPECT_EQ(RoundTrip(input), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Lz4RoundTripTest,
                         ::testing::Values(1, 12, 13, 16, 17, 64, 100, 1000,
                                           4096, 65535, 65536, 65537, 200000,
                                           1 << 20));

}  // namespace
}  // namespace scuba
