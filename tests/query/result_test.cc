#include "query/result.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

namespace scuba {
namespace {

QueryResult::Sample SampleOf(double v) { return {v, true}; }
QueryResult::Sample CountSample() { return {0.0, false}; }

TEST(AggPartialTest, AccumulatesAndFinalizes) {
  AggPartial p;
  p.AddSample(3.0);
  p.AddSample(1.0);
  p.AddSample(8.0);
  EXPECT_EQ(p.Finalize(AggregateOp::kCount), 3.0);
  EXPECT_EQ(p.Finalize(AggregateOp::kSum), 12.0);
  EXPECT_EQ(p.Finalize(AggregateOp::kMin), 1.0);
  EXPECT_EQ(p.Finalize(AggregateOp::kMax), 8.0);
  EXPECT_EQ(p.Finalize(AggregateOp::kAvg), 4.0);
}

TEST(AggPartialTest, EmptyAvgIsZero) {
  AggPartial p;
  EXPECT_EQ(p.Finalize(AggregateOp::kAvg), 0.0);
}

TEST(AggPartialTest, MergeComposesLikeSingleStream) {
  AggPartial a, b, whole;
  for (double v : {5.0, -2.0, 7.0}) {
    a.AddSample(v);
    whole.AddSample(v);
  }
  for (double v : {100.0, -50.0}) {
    b.AddSample(v);
    whole.AddSample(v);
  }
  a.Merge(b);
  for (AggregateOp op : {AggregateOp::kCount, AggregateOp::kSum,
                         AggregateOp::kMin, AggregateOp::kMax,
                         AggregateOp::kAvg}) {
    EXPECT_EQ(a.Finalize(op), whole.Finalize(op));
  }
}

TEST(AggPartialTest, MergeWithEmptyIsIdentity) {
  AggPartial a;
  a.AddSample(4.0);
  AggPartial empty;
  a.Merge(empty);
  EXPECT_EQ(a.Finalize(AggregateOp::kMin), 4.0);
  empty.Merge(a);
  EXPECT_EQ(empty.Finalize(AggregateOp::kMax), 4.0);
}

TEST(QueryResultTest, GroupsAccumulateByKey) {
  QueryResult result(1);
  result.Accumulate({Value(std::string("web"))}, {SampleOf(1.0)});
  result.Accumulate({Value(std::string("api"))}, {SampleOf(2.0)});
  result.Accumulate({Value(std::string("web"))}, {SampleOf(3.0)});
  EXPECT_EQ(result.num_groups(), 2u);
  auto rows = result.Finalize({Sum("x")});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(rows[0].group_key[0]), "api");
  EXPECT_EQ(rows[0].aggregates[0], 2.0);
  EXPECT_EQ(rows[1].aggregates[0], 4.0);
}

TEST(QueryResultTest, FoldGroupMatchesAccumulatingItsRows) {
  // Into a fresh key, a pre-aggregated group equals its rows accumulated
  // one by one (p99 keeps its histogram); into a held key, it merges.
  const std::vector<Aggregate> aggs = {Count(), Sum("x"), P99("x")};
  QueryResult by_row(aggs);
  QueryResult folded(aggs);
  std::vector<AggPartial> partials(aggs.size());
  for (double v : {0.5, 7.25, -3.0}) {
    by_row.Accumulate({Value(int64_t{1})},
                      {CountSample(), SampleOf(v), SampleOf(v)});
    partials[0].AddCountOnly();
    partials[1].AddSample(v);
    partials[2].AddSample(v, /*with_histogram=*/true);
  }
  folded.FoldGroup({Value(int64_t{1})}, partials);
  ASSERT_EQ(folded.num_groups(), 1u);
  EXPECT_EQ(folded.Finalize(aggs)[0].aggregates,
            by_row.Finalize(aggs)[0].aggregates);

  folded.FoldGroup({Value(int64_t{1})}, partials);
  ASSERT_EQ(folded.num_groups(), 1u);
  EXPECT_EQ(folded.Finalize(aggs)[0].aggregates[0], 6.0);
  EXPECT_EQ(folded.Finalize(aggs)[0].aggregates[1], 9.5);
}

TEST(QueryResultTest, IntKeysOrderNumerically) {
  QueryResult result(1);
  for (int64_t key : {500, -3, 200, 0}) {
    result.Accumulate({Value(key)}, {CountSample()});
  }
  auto rows = result.Finalize({Count()});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(std::get<int64_t>(rows[0].group_key[0]), -3);
  EXPECT_EQ(std::get<int64_t>(rows[1].group_key[0]), 0);
  EXPECT_EQ(std::get<int64_t>(rows[2].group_key[0]), 200);
  EXPECT_EQ(std::get<int64_t>(rows[3].group_key[0]), 500);
}

TEST(QueryResultTest, DoubleKeysOrderNumerically) {
  QueryResult result(1);
  for (double key : {2.5, -1.5, 0.0, 100.25}) {
    result.Accumulate({Value(key)}, {CountSample()});
  }
  auto rows = result.Finalize({Count()});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(std::get<double>(rows[0].group_key[0]), -1.5);
  EXPECT_EQ(std::get<double>(rows[3].group_key[0]), 100.25);
}

TEST(QueryResultTest, CompositeKeys) {
  QueryResult result(1);
  result.Accumulate({Value(std::string("a")), Value(int64_t{1})},
                    {CountSample()});
  result.Accumulate({Value(std::string("a")), Value(int64_t{2})},
                    {CountSample()});
  result.Accumulate({Value(std::string("a")), Value(int64_t{1})},
                    {CountSample()});
  EXPECT_EQ(result.num_groups(), 2u);
}

TEST(QueryResultTest, MergeCombinesGroupsAndStats) {
  QueryResult a(2), b(2);
  a.rows_scanned = 100;
  a.blocks_pruned = 2;
  a.leaves_total = 1;
  a.leaves_responded = 1;
  b.rows_scanned = 50;
  b.leaves_total = 1;
  b.leaves_responded = 1;

  a.Accumulate({Value(std::string("web"))}, {CountSample(), SampleOf(10.0)});
  b.Accumulate({Value(std::string("web"))}, {CountSample(), SampleOf(30.0)});
  b.Accumulate({Value(std::string("db"))}, {CountSample(), SampleOf(5.0)});

  a.Merge(std::move(b));
  EXPECT_EQ(a.rows_scanned, 150u);
  EXPECT_EQ(a.blocks_pruned, 2u);
  EXPECT_EQ(a.leaves_total, 2u);
  EXPECT_FALSE(a.IsPartial());

  auto rows = a.Finalize({Count(), Avg("latency")});
  ASSERT_EQ(rows.size(), 2u);
  // "db" first (key order), then "web" with merged avg (10+30)/2.
  EXPECT_EQ(std::get<std::string>(rows[0].group_key[0]), "db");
  EXPECT_EQ(std::get<std::string>(rows[1].group_key[0]), "web");
  EXPECT_EQ(rows[1].aggregates[0], 2.0);
  EXPECT_DOUBLE_EQ(rows[1].aggregates[1], 20.0);
}

TEST(QueryResultTest, PartialFlagReflectsMissingLeaves) {
  QueryResult merged(1);
  merged.leaves_total = 10;
  merged.leaves_responded = 8;
  EXPECT_TRUE(merged.IsPartial());
  merged.leaves_responded = 10;
  EXPECT_FALSE(merged.IsPartial());
}

TEST(QueryResultTest, MergeIntoEmptyAdoptsShape) {
  QueryResult empty;
  QueryResult b(1);
  b.Accumulate({Value(int64_t{1})}, {SampleOf(2.0)});
  empty.Merge(std::move(b));
  EXPECT_EQ(empty.num_groups(), 1u);
  auto rows = empty.Finalize({Sum("x")});
  EXPECT_EQ(rows[0].aggregates[0], 2.0);
}

TEST(QueryResultTest, GroupsMovedInFinalizeBitForBit) {
  // A group the result lacks is moved in whole. It must finalize exactly as
  // the source does, as merging it into fresh partials always did: sums
  // start at +0.0 (so -0.0 samples leave no -0.0 sum to flip), min/max are
  // copied and histogram counts add exactly.
  const std::vector<Aggregate> aggregates = {
      Count(), Sum("x"), Min("x"), Max("x"), P50("x"), P99("x")};
  QueryResult source(aggregates);
  for (int i = 0; i < 300; ++i) {
    const double v = i % 5 == 0 ? -0.0 : std::ldexp(1.0 + i, (i % 40) - 20);
    source.Accumulate({Value(int64_t{i % 7})},
                      {CountSample(), SampleOf(v), SampleOf(v), SampleOf(v),
                       SampleOf(v), SampleOf(v)});
  }
  const std::vector<ResultRow> want = source.Finalize(aggregates);
  QueryResult merged(aggregates);
  merged.Merge(std::move(source));
  const std::vector<ResultRow> got = merged.Finalize(aggregates);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].group_key, want[r].group_key);
    for (size_t a = 0; a < aggregates.size(); ++a) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[r].aggregates[a]),
                std::bit_cast<uint64_t>(want[r].aggregates[a]))
          << "row " << r << " aggregate " << a;
    }
  }
}

TEST(QueryResultTest, StringKeysWithEmbeddedTerminators) {
  QueryResult result(1);
  result.Accumulate({Value(std::string("ab"))}, {CountSample()});
  result.Accumulate({Value(std::string(std::string("a\0b", 3)))},
                    {CountSample()});
  // Different strings must form different groups despite the NUL.
  EXPECT_EQ(result.num_groups(), 2u);
}

}  // namespace
}  // namespace scuba
