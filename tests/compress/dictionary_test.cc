#include "compress/dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace scuba {
namespace {

std::vector<std::string_view> Views(const std::vector<std::string>& values) {
  return std::vector<std::string_view>(values.begin(), values.end());
}

TEST(DictionaryTest, StringEncodingFirstOccurrenceOrder) {
  std::vector<std::string> values = {"b", "a", "b", "c", "a"};
  std::vector<std::string_view> dict;
  std::vector<uint64_t> codes;
  ASSERT_TRUE(dictionary::Encode(values, 10, &codes, &dict));
  EXPECT_EQ(dict, (std::vector<std::string_view>{"b", "a", "c"}));
  EXPECT_EQ(codes, (std::vector<uint64_t>{0, 1, 0, 2, 1}));
  // Entries view the input: nothing is copied until the dictionary is
  // serialized.
  EXPECT_EQ(dict[0].data(), values[0].data());
}

TEST(DictionaryTest, IntEncoding) {
  std::vector<int64_t> values = {500, 200, 200, 500, 404};
  std::vector<int64_t> dict;
  std::vector<uint64_t> codes;
  ASSERT_TRUE(dictionary::Encode(values, 10, &codes, &dict));
  EXPECT_EQ(dict, (std::vector<int64_t>{500, 200, 404}));
  EXPECT_EQ(codes, (std::vector<uint64_t>{0, 1, 1, 0, 2}));
}

TEST(DictionaryTest, StringDictSerializationRoundTrip) {
  std::vector<std::string> dict = {"", "hello", std::string(1000, 'x'),
                                   std::string("with\0null", 9)};
  ByteBuffer buf;
  dictionary::SerializeStringDict(Views(dict), &buf);
  std::vector<std::string> parsed;
  ASSERT_TRUE(dictionary::ParseStringDict(buf.AsSlice(), &parsed).ok());
  EXPECT_EQ(parsed, dict);
}

TEST(DictionaryTest, IntDictSerializationRoundTrip) {
  std::vector<int64_t> dict = {0, -1, 1, INT64_MIN, INT64_MAX};
  ByteBuffer buf;
  dictionary::SerializeIntDict(dict, &buf);
  std::vector<int64_t> parsed;
  ASSERT_TRUE(dictionary::ParseIntDict(buf.AsSlice(), &parsed).ok());
  EXPECT_EQ(parsed, dict);
}

TEST(DictionaryTest, TruncatedStringDictIsCorruption) {
  std::vector<std::string> dict = {"hello", "world"};
  ByteBuffer buf;
  dictionary::SerializeStringDict(Views(dict), &buf);
  std::vector<std::string> parsed;
  Status s = dictionary::ParseStringDict(
      Slice(buf.data(), buf.size() - 3), &parsed);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(DictionaryTest, EmptyDictRoundTrips) {
  ByteBuffer buf;
  dictionary::SerializeStringDict({}, &buf);
  std::vector<std::string> parsed = {"stale"};
  ASSERT_TRUE(dictionary::ParseStringDict(buf.AsSlice(), &parsed).ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(DictionaryTest, CountDistinctExactBelowLimit) {
  // A column with exactly `limit` distinct values still encodes.
  std::vector<std::string> values = {"a", "b", "a", "c", "b"};
  std::vector<std::string_view> dict;
  std::vector<uint64_t> codes;
  EXPECT_TRUE(dictionary::Encode(values, 3, &codes, &dict));
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_FALSE(dictionary::Encode(values, 2, &codes, &dict));
  std::vector<int64_t> ints = {1, 1, 2, 3, 3, 3};
  std::vector<int64_t> int_dict;
  EXPECT_TRUE(dictionary::Encode(ints, 3, &codes, &int_dict));
  EXPECT_EQ(int_dict.size(), 3u);
  EXPECT_FALSE(dictionary::Encode(ints, 2, &codes, &int_dict));
}

TEST(DictionaryTest, CountDistinctStopsEarlyPastLimit) {
  // The encoder stops at the (limit + 1)-th distinct value: rows before
  // it are coded, rows from it on are not reached.
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 1000; ++i) values.push_back(i);
  std::vector<int64_t> dict;
  std::vector<uint64_t> codes;
  EXPECT_FALSE(dictionary::Encode(values, 5, &codes, &dict));
  ASSERT_EQ(codes.size(), values.size());
  EXPECT_EQ(std::vector<uint64_t>(codes.begin(), codes.begin() + 5),
            (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(std::all_of(codes.begin() + 5, codes.end(),
                          [](uint64_t c) { return c == 0; }));
}

TEST(DictionaryTest, CodeTableGrowsKeepingFirstAppearanceCodes) {
  std::vector<std::string> values;
  for (int i = 0; i < 20000; ++i) values.push_back(std::to_string(i) + "k");
  dictionary::CodeTable<std::string_view> table;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(table.Intern(values[i]), i) << values[i];
    }
  }
  EXPECT_EQ(table.keys(), Views(values));

  dictionary::CodeTable<int64_t> ints;
  for (int64_t v : {INT64_MIN, int64_t{0}, INT64_MAX, int64_t{-1}}) {
    ints.Intern(v);
  }
  EXPECT_EQ(ints.Intern(INT64_MAX), 2u);
  EXPECT_EQ(ints.keys(),
            (std::vector<int64_t>{INT64_MIN, 0, INT64_MAX, -1}));
}

TEST(DictionaryTest, StringHashReadsEveryByte) {
  // Values of every length 0..40 that differ only in one byte, at each
  // position, or only in length (runs of NULs) hash apart.
  std::set<uint64_t> hashes;
  size_t count = 0;
  for (size_t len = 0; len <= 40; ++len) {
    std::string base(len, '\0');
    for (size_t k = 0; k < len; ++k) base[k] = static_cast<char>('a' + k);
    hashes.insert(dictionary::Hash(std::string_view(base)));
    ++count;
    for (size_t k = 0; k < len; ++k) {
      std::string flipped = base;
      flipped[k] = static_cast<char>(flipped[k] ^ 0x80);
      hashes.insert(dictionary::Hash(std::string_view(flipped)));
      ++count;
    }
    hashes.insert(dictionary::Hash(std::string_view(std::string(len + 1, '\0'))));
    ++count;
  }
  EXPECT_EQ(hashes.size(), count);
}

}  // namespace
}  // namespace scuba
