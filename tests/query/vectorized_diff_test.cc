// Differential test: the vectorized engine (selection vectors, dictionary
// filters, zone maps, lazy decode) against the row-at-a-time scalar oracle,
// over randomized queries, at 1 and N scan threads. The engines must agree
// on results AND on errors (same status code), and the vectorized engine
// must be bit-deterministic across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "ingest/row_generator.h"
#include "query/executor.h"
#include "query/result_digest.h"
#include "util/thread_pool.h"

namespace scuba {
namespace {

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

// 6 sealed blocks of 2000 rows plus 500 unsealed write-buffer rows — the
// buffer path and the block path both participate in every query.
std::unique_ptr<Table> BuildTable(int64_t* min_time, int64_t* max_time) {
  auto table = std::make_unique<Table>("service_logs");
  RowGeneratorConfig config;
  config.seed = 11;
  config.rows_per_second = 500;
  RowGenerator gen(config);
  *min_time = gen.current_time();
  for (int b = 0; b < 6; ++b) {
    EXPECT_TRUE(table->AddRows(gen.NextBatch(2000), gen.current_time()).ok());
    EXPECT_TRUE(table->SealWriteBuffer(0).ok());
  }
  EXPECT_TRUE(table->AddRows(gen.NextBatch(500), gen.current_time()).ok());
  *max_time = gen.current_time();
  return table;
}

// Random queries over the generator's schema. Literal types deliberately
// mismatch the column type ~1 in 5 times so the error paths diff too.
class QueryFuzzer {
 public:
  explicit QueryFuzzer(uint32_t seed, int64_t min_time, int64_t max_time)
      : rng_(seed), min_time_(min_time), max_time_(max_time) {}

  Query Next() {
    Query q;
    q.table = "service_logs";
    if (Chance(0.3)) {
      int64_t span = max_time_ - min_time_;
      q.begin_time = min_time_ + Int(0, span / 2);
      q.end_time = q.begin_time + Int(1, span);
    }
    if (Chance(0.25)) q.time_bucket_seconds = Pick<int64_t>({10, 60, 300});
    int num_preds = static_cast<int>(Int(0, 3));
    for (int i = 0; i < num_preds; ++i) q.predicates.push_back(RandPredicate());
    int num_groups = static_cast<int>(Int(0, 3));
    for (int i = 0; i < num_groups; ++i) {
      q.group_by.push_back(Pick<std::string>(
          {"service", "host", "status", "endpoint", "latency_ms", "bytes_out",
           "error_msg"}));
    }
    q.aggregates.push_back(Count());
    int extra_aggs = static_cast<int>(Int(0, 2));
    for (int i = 0; i < extra_aggs; ++i) q.aggregates.push_back(RandAggregate());
    if (Chance(0.2)) q.limit = Int(1, 20);
    return q;
  }

 private:
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }
  int64_t Int(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }
  template <typename T>
  T Pick(std::vector<T> options) {
    return options[static_cast<size_t>(Int(0, options.size() - 1))];
  }

  Value RandLiteralFor(ColumnType type) {
    if (Chance(0.2)) {
      // Wrong-typed literal: both engines must reject identically.
      type = Pick<ColumnType>(
          {ColumnType::kInt64, ColumnType::kDouble, ColumnType::kString});
    }
    switch (type) {
      case ColumnType::kInt64:
        return Value(Pick<int64_t>({0, 1, 200, 500, 503, 1 << 20}));
      case ColumnType::kDouble:
        return Value(Pick<double>({0.0, 1.5, 10.0, 19.5, 100.0}));
      case ColumnType::kString:
      default:
        return Value(Pick<std::string>({"svc_3", "svc_17", "/api/v2/endpoint_5",
                                        "endpoint_1", "/api/", "host_2", "",
                                        "no_such_value"}));
    }
  }

  Predicate RandPredicate() {
    struct Col {
      const char* name;
      ColumnType type;
    };
    Col col = Pick<Col>({{"service", ColumnType::kString},
                         {"endpoint", ColumnType::kString},
                         {"host", ColumnType::kString},
                         {"status", ColumnType::kInt64},
                         {"bytes_out", ColumnType::kInt64},
                         {"latency_ms", ColumnType::kDouble},
                         {"missing_col", ColumnType::kInt64}});
    CompareOp op = Pick<CompareOp>({CompareOp::kEq, CompareOp::kNe,
                                    CompareOp::kLt, CompareOp::kLe,
                                    CompareOp::kGt, CompareOp::kGe,
                                    CompareOp::kContains, CompareOp::kPrefix});
    return Predicate{col.name, op, RandLiteralFor(col.type)};
  }

  Aggregate RandAggregate() {
    // `service` appears as an aggregate column to diff the
    // string-aggregate error path.
    std::string numeric =
        Pick<std::string>({"latency_ms", "bytes_out", "status", "service"});
    switch (Int(0, 5)) {
      case 0: return Sum(numeric);
      case 1: return Min(numeric);
      case 2: return Max(numeric);
      case 3: return Avg(numeric);
      case 4: return P50(numeric);
      default: return P99(numeric);
    }
  }

  std::mt19937 rng_;
  int64_t min_time_;
  int64_t max_time_;
};

class VectorizedDiffTest : public ::testing::Test {
 protected:
  VectorizedDiffTest() : pool_(3) {
    table_ = BuildTable(&min_time_, &max_time_);
  }

  // Runs the query through all three paths; returns true when it succeeded
  // (as opposed to an agreed-upon error).
  bool DiffOne(const Query& q, const std::string& label) {
    auto scalar = LeafExecutor::ExecuteScalar(*table_, q);
    auto vec1 = LeafExecutor::Execute(*table_, q);
    LeafExecutor::ExecOptions pooled;
    pooled.pool = &pool_;
    auto vecN = LeafExecutor::Execute(*table_, q, pooled);

    if (!scalar.ok()) {
      // Which block reports first may differ under the pool, so compare
      // status codes, not messages.
      EXPECT_FALSE(vec1.ok()) << label << ": scalar failed ("
                              << scalar.status().ToString()
                              << ") but vectorized succeeded";
      EXPECT_FALSE(vecN.ok()) << label;
      if (!vec1.ok()) {
        EXPECT_EQ(vec1.status().code(), scalar.status().code()) << label;
      }
      if (!vecN.ok()) {
        EXPECT_EQ(vecN.status().code(), scalar.status().code()) << label;
      }
      return false;
    }

    EXPECT_TRUE(vec1.ok()) << label << ": " << vec1.status().ToString();
    EXPECT_TRUE(vecN.ok()) << label << ": " << vecN.status().ToString();
    if (!vec1.ok() || !vecN.ok()) return false;

    // Scalar vs vectorized: same matches, same groups; aggregates to
    // relative tolerance (summation association differs by design).
    EXPECT_EQ(vec1->rows_matched, scalar->rows_matched) << label;
    auto srows = scalar->Finalize(q.aggregates);
    auto v1rows = vec1->Finalize(q.aggregates);
    auto vnrows = vecN->Finalize(q.aggregates);
    EXPECT_EQ(v1rows.size(), srows.size()) << label;
    if (v1rows.size() != srows.size()) return false;
    for (size_t r = 0; r < srows.size(); ++r) {
      EXPECT_TRUE(v1rows[r].group_key == srows[r].group_key) << label;
      EXPECT_EQ(v1rows[r].aggregates.size(), srows[r].aggregates.size());
      if (v1rows[r].aggregates.size() != srows[r].aggregates.size()) {
        return false;
      }
      for (size_t c = 0; c < srows[r].aggregates.size(); ++c) {
        double want = srows[r].aggregates[c];
        EXPECT_NEAR(v1rows[r].aggregates[c], want,
                    std::abs(want) * 1e-9 + 1e-12)
            << label << " group " << r << " agg " << c;
      }
    }

    // Serial vectorized vs pooled vectorized: per-block partials merge in
    // block order either way, so results must be bit-identical.
    EXPECT_EQ(vnrows.size(), v1rows.size()) << label;
    if (vnrows.size() != v1rows.size()) return false;
    for (size_t r = 0; r < v1rows.size(); ++r) {
      EXPECT_TRUE(vnrows[r].group_key == v1rows[r].group_key) << label;
      for (size_t c = 0; c < v1rows[r].aggregates.size(); ++c) {
        EXPECT_TRUE(
            SameBits(vnrows[r].aggregates[c], v1rows[r].aggregates[c]))
            << label << ": pooled scan not bit-identical at group " << r
            << " agg " << c;
      }
    }
    EXPECT_EQ(vecN->rows_matched, vec1->rows_matched) << label;
    return true;
  }

  std::unique_ptr<Table> table_;
  int64_t min_time_ = 0;
  int64_t max_time_ = 0;
  ThreadPool pool_;
};

TEST_F(VectorizedDiffTest, RandomizedQueriesAgree) {
  QueryFuzzer fuzz(20140601, min_time_, max_time_);
  int succeeded = 0;
  for (int i = 0; i < 60; ++i) {
    Query q = fuzz.Next();
    if (DiffOne(q, "query " + std::to_string(i))) ++succeeded;
    if (HasFatalFailure()) return;
  }
  // The fuzzer mixes in wrong-typed literals; most queries must still be
  // valid or the test isn't exercising the result path.
  EXPECT_GE(succeeded, 20);
}

TEST_F(VectorizedDiffTest, HandWrittenEdgeQueries) {
  // Empty selection after predicates: lazy decode skips the aggregate
  // columns entirely; must still agree with scalar.
  Query none;
  none.table = "service_logs";
  none.predicates = {
      {"service", CompareOp::kEq, Value(std::string("no_such_service"))}};
  none.group_by = {"endpoint"};
  none.aggregates = {Count(), Avg("latency_ms")};
  EXPECT_TRUE(DiffOne(none, "empty_selection"));

  // All rows match (dictionary filter's keep-everything short-circuit).
  Query all;
  all.table = "service_logs";
  all.predicates = {{"endpoint", CompareOp::kPrefix, Value(std::string("/"))}};
  all.aggregates = {Count(), Sum("bytes_out")};
  EXPECT_TRUE(DiffOne(all, "all_match"));

  // Compound: string dict filter + numeric range + bucketed percentile.
  Query compound;
  compound.table = "service_logs";
  compound.predicates = {
      {"service", CompareOp::kPrefix, Value(std::string("svc_1"))},
      {"status", CompareOp::kGe, Value(int64_t{500})},
      {"latency_ms", CompareOp::kLt, Value(15.0)}};
  compound.time_bucket_seconds = 60;
  compound.group_by = {"service"};
  compound.aggregates = {Count(), P99("latency_ms")};
  EXPECT_TRUE(DiffOne(compound, "compound"));

  // String aggregate: both engines reject with the same code.
  Query bad;
  bad.table = "service_logs";
  bad.aggregates = {Sum("service")};
  EXPECT_FALSE(DiffOne(bad, "string_aggregate"));
}

// Group-by results pinned bit for bit: each digest was recorded from the
// engine that built a Value key per matched row, so any regrouping scheme
// must reproduce every key and every aggregate's bit pattern, serial and
// pooled.
TEST_F(VectorizedDiffTest, GroupingDigestsArePinned) {
  const int64_t buffer_begin = table_->write_buffer().min_time();
  auto shape = [](std::vector<std::string> group_by,
                  std::vector<Aggregate> aggregates) {
    Query q;
    q.table = "service_logs";
    q.group_by = std::move(group_by);
    q.aggregates = std::move(aggregates);
    return q;
  };
  struct Pin {
    const char* name;
    Query query;
    uint32_t digest;
  };
  std::vector<Pin> pins;
  pins.push_back({"dict_key",
                  shape({"service"},
                        {Count(), Avg("latency_ms"), P99("latency_ms")}),
                  1267104836u});
  {
    Query q = shape({"endpoint"}, {Count(), P99("latency_ms")});
    q.begin_time = buffer_begin;
    pins.push_back({"buffered_endpoint", q, 2560089185u});
  }
  {
    Query q = shape({"endpoint"}, {Count(), Sum("latency_ms")});
    q.begin_time = buffer_begin;
    q.predicates = {
        {"service", CompareOp::kEq, Value(std::string("svc_3"))}};
    pins.push_back({"buffered_string_eq", q, 1512770285u});
  }
  pins.push_back(
      {"status",
       shape({"status"}, {Count(), Sum("bytes_out"), Min("latency_ms")}),
       2366244016u});
  pins.push_back({"latency",
                  shape({"latency_ms"}, {Count(), Sum("bytes_out")}),
                  2919089952u});
  pins.push_back({"two_keys",
                  shape({"service", "status"},
                        {Count(), Avg("latency_ms"), Max("latency_ms")}),
                  1813638124u});
  {
    Query q = shape({"endpoint"}, {Count(), Sum("latency_ms")});
    q.time_bucket_seconds = 60;
    pins.push_back({"bucket_key", q, 2270357559u});
  }
  {
    Query q = shape({}, {Count(), Avg("latency_ms"), P50("latency_ms")});
    q.time_bucket_seconds = 10;
    pins.push_back({"bucket_alone", q, 929990616u});
  }
  pins.push_back({"no_key",
                  shape({}, {Count(), Sum("latency_ms"), Min("latency_ms"),
                             Max("latency_ms"), Avg("bytes_out"),
                             P99("latency_ms")}),
                  2571091332u});
  pins.push_back({"three_keys_hashed",
                  shape({"host", "latency_ms", "status"},
                        {Count(), Sum("bytes_out"), Avg("latency_ms")}),
                  436562925u});
  {
    Query q = shape({"error_msg"}, {Count(), Sum("latency_ms")});
    q.predicates = {
        {"endpoint", CompareOp::kContains, Value(std::string("endpoint_1"))}};
    pins.push_back({"sparse_key_contains", q, 3733477865u});
  }

  LeafExecutor::ExecOptions pooled;
  pooled.pool = &pool_;
  for (const Pin& pin : pins) {
    auto vec1 = LeafExecutor::Execute(*table_, pin.query);
    auto vecN = LeafExecutor::Execute(*table_, pin.query, pooled);
    ASSERT_TRUE(vec1.ok()) << pin.name << ": " << vec1.status().ToString();
    ASSERT_TRUE(vecN.ok()) << pin.name << ": " << vecN.status().ToString();
    EXPECT_GT(vec1->rows_matched, 0u) << pin.name;
    EXPECT_EQ(ResultDigest(*vec1, pin.query.aggregates), pin.digest)
        << pin.name;
    EXPECT_EQ(ResultDigest(*vecN, pin.query.aggregates), pin.digest)
        << pin.name;
  }
}

TEST_F(VectorizedDiffTest, SignedZeroGroupKeysStayDistinct) {
  // -0.0 and 0.0 compare equal, and NaNs compare unequal to everything, but
  // group keys compare by bit pattern: four distinct groups in the scalar
  // engine, the vectorized one and under a pool, sealed or still buffered.
  const double nan_a = std::bit_cast<double>(uint64_t{0x7ff8000000000001});
  const double nan_b = std::bit_cast<double>(uint64_t{0x7ff8000000000002});
  const double keys[] = {0.0, -0.0, nan_a, nan_b};
  std::vector<uint64_t> want;
  for (double k : keys) want.push_back(std::bit_cast<uint64_t>(k));
  std::sort(want.begin(), want.end());
  for (bool sealed : {true, false}) {
    SCOPED_TRACE(sealed ? "sealed" : "buffered");
    Table table("zeros");
    std::vector<Row> rows;
    for (int i = 0; i < 40; ++i) {
      Row row;
      row.SetTime(1000 + i);
      row.Set("delta", keys[i % 4]);
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(table.AddRows(rows, 0).ok());
    if (sealed) {
      ASSERT_TRUE(table.SealWriteBuffer(0).ok());
    }

    Query q;
    q.table = "zeros";
    q.group_by = {"delta"};
    q.aggregates = {Count()};

    auto scalar = LeafExecutor::ExecuteScalar(table, q);
    auto vec1 = LeafExecutor::Execute(table, q);
    LeafExecutor::ExecOptions pooled;
    pooled.pool = &pool_;
    auto vecN = LeafExecutor::Execute(table, q, pooled);
    ASSERT_TRUE(scalar.ok());
    ASSERT_TRUE(vec1.ok());
    ASSERT_TRUE(vecN.ok());
    for (auto* result : {&*scalar, &*vec1, &*vecN}) {
      EXPECT_EQ(result->num_groups(), 4u);
      std::vector<uint64_t> bits;
      for (const ResultRow& row : result->Finalize(q.aggregates)) {
        bits.push_back(
            std::bit_cast<uint64_t>(std::get<double>(row.group_key[0])));
        EXPECT_EQ(row.aggregates[0], 10.0);
      }
      std::sort(bits.begin(), bits.end());
      EXPECT_EQ(bits, want);
    }
  }
}

}  // namespace
}  // namespace scuba
