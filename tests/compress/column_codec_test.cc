#include "compress/column_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/random.h"

namespace scuba {
namespace {

using column_codec::ChainStages;
using column_codec::ChainToString;
using column_codec::DecodeDouble;
using column_codec::DecodeInt64;
using column_codec::DecodeString;
using column_codec::EncodedColumn;
using column_codec::EncodeDouble;
using column_codec::EncodeInt64;
using column_codec::EncodeString;
using column_codec::MakeChain;
using column_codec::Stage;

std::vector<int64_t> RoundTripInt(const std::vector<int64_t>& values) {
  EncodedColumn enc = EncodeInt64(values);
  std::vector<int64_t> out;
  Status s = DecodeInt64(enc.chain, enc.dict.AsSlice(), enc.data.AsSlice(),
                         values.size(), &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

std::vector<double> RoundTripDouble(const std::vector<double>& values) {
  EncodedColumn enc = EncodeDouble(values);
  std::vector<double> out;
  Status s = DecodeDouble(enc.chain, enc.dict.AsSlice(), enc.data.AsSlice(),
                          values.size(), &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

std::vector<std::string> RoundTripString(
    const std::vector<std::string>& values) {
  EncodedColumn enc = EncodeString(values);
  std::vector<std::string> out;
  Status s = DecodeString(enc.chain, enc.dict.AsSlice(), enc.data.AsSlice(),
                          values.size(), &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(ChainTest, MakeAndDecompose) {
  auto chain = MakeChain({Stage::kDelta, Stage::kZigZag, Stage::kBitPack});
  EXPECT_EQ(ChainStages(chain),
            (std::vector<Stage>{Stage::kDelta, Stage::kZigZag,
                                Stage::kBitPack}));
  EXPECT_EQ(column_codec::ChainLength(chain), 3);
  EXPECT_EQ(ChainToString(chain), "delta+zigzag+bitpack");
  EXPECT_EQ(ChainToString(0), "none");
}

TEST(ColumnCodecTest, EmptyColumns) {
  EXPECT_TRUE(RoundTripInt({}).empty());
  EXPECT_TRUE(RoundTripDouble({}).empty());
  EXPECT_TRUE(RoundTripString({}).empty());
}

TEST(ColumnCodecTest, LowCardinalityIntsUseDictionary) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 3 == 0 ? 200 : 500);
  EncodedColumn enc = EncodeInt64(values);
  auto stages = ChainStages(enc.chain);
  ASSERT_GE(stages.size(), 2u);
  EXPECT_EQ(stages[0], Stage::kDictionary);
  EXPECT_EQ(stages[1], Stage::kBitPack);
  EXPECT_EQ(enc.dict_item_count, 2u);
  EXPECT_EQ(RoundTripInt(values), values);
}

TEST(ColumnCodecTest, TimestampsUseDeltaChain) {
  std::vector<int64_t> values;
  for (int i = 0; i < 10000; ++i) values.push_back(1400000000 + i / 2);
  EncodedColumn enc = EncodeInt64(values);
  auto stages = ChainStages(enc.chain);
  ASSERT_GE(stages.size(), 3u);
  EXPECT_EQ(stages[0], Stage::kDelta);
  EXPECT_EQ(stages[1], Stage::kZigZag);
  EXPECT_EQ(stages[2], Stage::kMiniBlockPack);
  // 10k timestamps at ~1 bit of delta each: far below 80 KB raw.
  EXPECT_LT(enc.data.size(), 4000u);
  EXPECT_EQ(RoundTripInt(values), values);
}

TEST(ColumnCodecTest, EveryColumnGetsAtLeastTwoMethods) {
  // The paper: "at least two methods applied to each column" (§2.1).
  std::vector<int64_t> timestamps;
  std::vector<int64_t> statuses;
  std::vector<std::string> services;
  Random random(1);
  for (int i = 0; i < 5000; ++i) {
    timestamps.push_back(1400000000 + i);
    statuses.push_back(random.Bernoulli(0.05) ? 500 : 200);
    services.push_back("svc_" + std::to_string(random.Uniform(20)));
  }
  EXPECT_GE(column_codec::ChainLength(EncodeInt64(timestamps).chain), 2);
  EXPECT_GE(column_codec::ChainLength(EncodeInt64(statuses).chain), 2);
  EXPECT_GE(column_codec::ChainLength(EncodeString(services).chain), 2);
}

TEST(ColumnCodecTest, ExtremeIntValuesRoundTrip) {
  std::vector<int64_t> values = {INT64_MIN, INT64_MAX, 0, -1, 1,
                                 INT64_MIN, INT64_MAX};
  EXPECT_EQ(RoundTripInt(values), values);
}

TEST(ColumnCodecTest, RandomIntsRoundTrip) {
  Random random(9);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<int64_t>(random.Next()));
  }
  EXPECT_EQ(RoundTripInt(values), values);
}

TEST(ColumnCodecTest, SingleValueColumns) {
  EXPECT_EQ(RoundTripInt({42}), std::vector<int64_t>{42});
  EXPECT_EQ(RoundTripDouble({3.5}), std::vector<double>{3.5});
  EXPECT_EQ(RoundTripString({"x"}), std::vector<std::string>{"x"});
}

TEST(ColumnCodecTest, RepetitiveDoublesUseShuffleLz4) {
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back((i % 7) * 1.5);
  EncodedColumn enc = EncodeDouble(values);
  EXPECT_EQ(ChainStages(enc.chain),
            (std::vector<Stage>{Stage::kShuffle, Stage::kLz4}));
  EXPECT_LT(enc.data.size(), values.size() * 8 / 2);
  EXPECT_EQ(RoundTripDouble(values), values);
}

TEST(ColumnCodecTest, RandomDoublesFallBackToRaw) {
  Random random(21);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    uint64_t bits = random.Next();
    double v;
    std::memcpy(&v, &bits, 8);
    if (v != v) v = 0.25;  // avoid NaN (comparison in EXPECT_EQ)
    values.push_back(v);
  }
  EncodedColumn enc = EncodeDouble(values);
  EXPECT_EQ(ChainStages(enc.chain), (std::vector<Stage>{Stage::kRawFixed}));
  EXPECT_EQ(RoundTripDouble(values), values);
}

TEST(ColumnCodecTest, SpecialDoublesRoundTrip) {
  std::vector<double> values = {0.0, -0.0, 1e308, -1e308, 1e-308,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  EXPECT_EQ(RoundTripDouble(values), values);
}

TEST(ColumnCodecTest, LowCardinalityStringsUseDictionary) {
  std::vector<std::string> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back("service_" + std::to_string(i % 10));
  }
  EncodedColumn enc = EncodeString(values);
  auto stages = ChainStages(enc.chain);
  ASSERT_GE(stages.size(), 2u);
  EXPECT_EQ(stages[0], Stage::kDictionary);
  EXPECT_EQ(enc.dict_item_count, 10u);
  EXPECT_LT(enc.dict.size() + enc.data.size(), 4000u);
  EXPECT_EQ(RoundTripString(values), values);
}

TEST(ColumnCodecTest, HighCardinalityStringsUseRawPath) {
  std::vector<std::string> values;
  Random random(33);
  for (int i = 0; i < 1000; ++i) {
    values.push_back("unique_string_number_" + std::to_string(i) + "_" +
                     std::to_string(random.Next()));
  }
  EncodedColumn enc = EncodeString(values);
  auto stages = ChainStages(enc.chain);
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages[0], Stage::kRawStrings);
  EXPECT_EQ(RoundTripString(values), values);
}

TEST(ColumnCodecTest, StringsWithEmbeddedNulsAndEmpties) {
  std::vector<std::string> values = {"", std::string("a\0b", 3), "",
                                     std::string(3000, 'q')};
  EXPECT_EQ(RoundTripString(values), values);
}

TEST(ColumnCodecTest, UnknownChainIsCorruption) {
  std::vector<int64_t> out;
  Status s = DecodeInt64(MakeChain({Stage::kShuffle}), Slice(), Slice(), 5,
                         &out);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(ColumnCodecTest, TruncatedDataIsCorruption) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i * 1000);
  EncodedColumn enc = EncodeInt64(values);
  std::vector<int64_t> out;
  Status s = DecodeInt64(enc.chain, enc.dict.AsSlice(),
                         Slice(enc.data.data(), enc.data.size() / 2),
                         values.size(), &out);
  EXPECT_FALSE(s.ok());
}

// Compression-ratio property: service-log shaped columns compress well.
TEST(ColumnCodecTest, ServiceLogColumnsCompressAtLeastTenfold) {
  Random random(55);
  std::vector<std::string> services;
  std::vector<int64_t> statuses;
  std::vector<int64_t> times;
  constexpr int kRows = 50000;
  for (int i = 0; i < kRows; ++i) {
    services.push_back("svc_" + std::to_string(random.Skewed(30)));
    statuses.push_back(random.Bernoulli(0.02) ? 500 : 200);
    times.push_back(1400000000 + i / 100);
  }
  auto ratio = [](uint64_t raw, const EncodedColumn& enc) {
    return static_cast<double>(raw) /
           static_cast<double>(enc.dict.size() + enc.data.size());
  };
  uint64_t raw_strings = 0;
  for (const auto& s : services) raw_strings += s.size() + 8;
  EXPECT_GT(ratio(raw_strings, EncodeString(services)), 10.0);
  EXPECT_GT(ratio(kRows * 8, EncodeInt64(statuses)), 10.0);
  EXPECT_GT(ratio(kRows * 8, EncodeInt64(times)), 10.0);
}

}  // namespace
}  // namespace scuba
