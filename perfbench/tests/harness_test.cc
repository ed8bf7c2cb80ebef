// Tests of the benchmark harness's own percentile rule and answer check.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "query/result_digest.h"
#include "stats.h"

namespace perfbench {
namespace {

using scuba::QueryResult;
using scuba::Value;

TEST(PercentileTest, NearestRankOnOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 1), 1);
}

TEST(PercentileTest, SmallSetsRoundTheRankUp) {
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({3, 1}, 50), 1);  // rank ceil(1) = 1
  EXPECT_EQ(Percentile({3, 1, 2}, 50), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
}

TEST(PercentileTest, FailuresMissEveryLimit) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v(98, 1.0);
  v.push_back(inf);
  v.push_back(inf);
  EXPECT_EQ(Percentile(v, 98), 1.0);
  EXPECT_EQ(Percentile(v, 99), inf);
  EXPECT_EQ(JsonNumber(inf), "1e+300");
}

TEST(PercentileTest, SamplesBeyondDecidesSupport) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(21, 50), 10u);
  EXPECT_EQ(SamplesBeyond(20, 50), 10u);
  EXPECT_EQ(SamplesBeyond(19, 50), 9u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);

  std::vector<double> thousand(1000, 2.0);
  PercentileReport ok = Report(thousand, 99);
  EXPECT_TRUE(ok.supported);
  EXPECT_EQ(ok.samples, 1000u);
  EXPECT_EQ(ok.beyond, 10u);
  thousand.pop_back();
  EXPECT_FALSE(Report(thousand, 99).supported);
}

TEST(JsonNumberTest, KeepsEveryDigit) {
  EXPECT_EQ(JsonNumber(1.2034), "1.2034");
  EXPECT_EQ(JsonNumber(0.1 + 0.2), "0.30000000000000004");
}

// A one-leaf answer of `count(*) group by service` with the given
// per-service row counts.
QueryResult Answer(const std::vector<std::pair<std::string, int>>& groups,
                   uint32_t total, uint32_t responded) {
  std::vector<scuba::Aggregate> aggs = {scuba::Count()};
  QueryResult r(aggs);
  for (const auto& [service, rows] : groups) {
    for (int i = 0; i < rows; ++i) r.Accumulate({Value(service)}, {{0.0, false}});
  }
  r.leaves_total = total;
  r.leaves_responded = responded;
  return r;
}

TEST(CheckAnswerTest, CompleteAnswersAreComparedWithTheReference) {
  const std::vector<scuba::Aggregate> aggs = {scuba::Count()};
  QueryResult reference = Answer({{"a", 3}, {"b", 5}}, 8, 8);
  const uint32_t digest = scuba::ResultDigest(reference, aggs);

  EXPECT_EQ(CheckAnswer(Answer({{"b", 5}, {"a", 3}}, 8, 8), aggs, digest),
            Verdict::kMatch);
  EXPECT_EQ(CheckAnswer(Answer({{"a", 3}, {"b", 4}}, 8, 8), aggs, digest),
            Verdict::kMismatch);
  EXPECT_EQ(CheckAnswer(Answer({{"a", 3}}, 8, 8), aggs, digest),
            Verdict::kMismatch);
}

TEST(CheckAnswerTest, PartialAnswersAreAnswersButNotCompared) {
  const std::vector<scuba::Aggregate> aggs = {scuba::Count()};
  const uint32_t digest =
      scuba::ResultDigest(Answer({{"a", 3}, {"b", 5}}, 8, 8), aggs);
  // One leaf Unavailable: fewer rows, but not a wrong answer.
  EXPECT_EQ(CheckAnswer(Answer({{"a", 2}, {"b", 4}}, 8, 7), aggs, digest),
            Verdict::kPartial);
  // A leaf dropped for outliving its deadline is missing the same way.
  QueryResult late = Answer({{"a", 2}}, 8, 8);
  late.profile().deadline_exceeded = 1;
  EXPECT_EQ(CheckAnswer(late, aggs, digest), Verdict::kPartial);
}

}  // namespace
}  // namespace perfbench
