// Aggregator result cache correctness: sealed whole-bucket segments serve
// cached per-leaf partials; everything that can still change — the
// write-buffer tail, tables that just ingested, leaves that restarted —
// must rescan. Results must be bit-identical with the cache on, always.

#include "server/result_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/shutdown.h"
#include "server/aggregator.h"
#include "server/leaf_server.h"
#include "test_util.h"

namespace scuba {
namespace {

using testing_util::ShmNamespace;
using testing_util::TempDir;

// Rows at one per second from `start`, one int64 `v` and a service tag, so
// a 60-second bucket holds exactly 60 rows.
std::vector<Row> SecondRows(size_t n, int64_t start) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.SetTime(start + static_cast<int64_t>(i));
    row.Set("v", static_cast<int64_t>(i % 100));
    row.Set("service", std::string(i % 2 == 0 ? "web" : "api"));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<ResultRow> Rows(const QueryResult& r, const Query& q) {
  return r.Finalize(q.aggregates);
}

void ExpectSameRows(const std::vector<ResultRow>& a,
                    const std::vector<ResultRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group_key, b[i].group_key);
    ASSERT_EQ(a[i].aggregates.size(), b[i].aggregates.size());
    for (size_t c = 0; c < a[i].aggregates.size(); ++c) {
      EXPECT_DOUBLE_EQ(a[i].aggregates[c], b[i].aggregates[c]);
    }
  }
}

class ResultCacheTest : public ::testing::Test {
 protected:
  // 60s-aligned, so [kT0, kT0+599] decomposes into exactly 10 whole buckets.
  static constexpr int64_t kT0 = 1400000040;

  ResultCacheTest() : ns_("rcache"), dir_("rcache") {
    aggregator_.EnableResultCache(4 << 20);
  }

  LeafServer* StartLeaf(uint32_t id) {
    LeafServerConfig config;
    config.leaf_id = id;
    config.namespace_prefix = ns_.prefix();
    config.backup_dir = dir_.path() + "/leaf_" + std::to_string(id);
    leaves_.push_back(std::make_unique<LeafServer>(config));
    EXPECT_TRUE(leaves_.back()->Start().ok());
    Register();
    return leaves_.back().get();
  }

  // Clean restart: shutdown to shm, successor adopts the segments. Seals
  // every write buffer as a side effect (the test's way of getting sealed
  // buckets) and bumps the leaf's instance token.
  LeafServer* RestartLeaf(size_t index) {
    ShutdownStats stats;
    EXPECT_TRUE(leaves_[index]->ShutdownToSharedMemory(&stats).ok());
    LeafServerConfig config = leaves_[index]->config();
    leaves_[index] = std::make_unique<LeafServer>(config);
    auto recovered = leaves_[index]->Start();
    EXPECT_TRUE(recovered.ok());
    Register();
    return leaves_[index].get();
  }

  void Register() {
    std::vector<LeafServer*> ptrs;
    for (auto& leaf : leaves_) ptrs.push_back(leaf.get());
    aggregator_.SetLeaves(std::move(ptrs));
  }

  // The standard dashboard query: per-minute buckets over [kT0, kT0+599],
  // which decomposes into a head fragment, whole buckets, and a tail.
  Query DashboardQuery() const {
    Query q;
    q.table = "events";
    q.begin_time = kT0;
    q.end_time = kT0 + 599;
    q.time_bucket_seconds = 60;
    q.group_by = {"service"};
    q.aggregates = {Count(), Avg("v")};
    return q;
  }

  QueryResult MustExecute(const Query& q) {
    auto result = aggregator_.Execute(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *std::move(result);
  }

  ResultCache* cache() { return aggregator_.result_cache(); }

  ShmNamespace ns_;
  TempDir dir_;
  std::vector<std::unique_ptr<LeafServer>> leaves_;
  Aggregator aggregator_;
};

TEST_F(ResultCacheTest, SealedBucketsHitOnRepeatWithIdenticalResults) {
  LeafServer* leaf = StartLeaf(0);
  ASSERT_TRUE(leaf->AddRows("events", SecondRows(600, kT0)).ok());
  RestartLeaf(0);  // seal everything

  Query q = DashboardQuery();
  QueryResult first = MustExecute(q);
  EXPECT_EQ(first.profile().cache_hit_buckets, 0u);
  EXPECT_GT(first.profile().cache_miss_buckets, 0u);
  EXPECT_GT(cache()->GetStats().stores, 0u);

  QueryResult second = MustExecute(q);
  EXPECT_GT(second.profile().cache_hit_buckets, 0u);
  EXPECT_EQ(second.profile().cache_miss_buckets, 0u);
  EXPECT_EQ(second.rows_matched, first.rows_matched);
  ExpectSameRows(Rows(first, q), Rows(second, q));

  // And the cached result still equals a cache-free aggregator's.
  Aggregator plain;
  std::vector<LeafServer*> ptrs{leaves_[0].get()};
  plain.SetLeaves(ptrs);
  auto uncached = plain.Execute(q);
  ASSERT_TRUE(uncached.ok());
  ExpectSameRows(Rows(*uncached, q), Rows(second, q));
}

TEST_F(ResultCacheTest, WriteBufferBucketsAreNeverStored) {
  LeafServer* leaf = StartLeaf(0);
  ASSERT_TRUE(leaf->AddRows("events", SecondRows(600, kT0)).ok());
  RestartLeaf(0);
  // A fresh unsealed tail in the LAST bucket of the window.
  ASSERT_TRUE(
      leaves_[0]->AddRows("events", SecondRows(30, kT0 + 570)).ok());

  Query q = DashboardQuery();
  QueryResult first = MustExecute(q);
  uint64_t stores_after_first = cache()->GetStats().stores;
  QueryResult second = MustExecute(q);

  // The buffer-overlapping bucket misses every time (never stored), the
  // sealed ones hit.
  EXPECT_GT(second.profile().cache_hit_buckets, 0u);
  EXPECT_GT(second.profile().cache_miss_buckets, 0u);
  EXPECT_EQ(cache()->GetStats().stores, stores_after_first);
  EXPECT_EQ(second.rows_matched, first.rows_matched);
  EXPECT_EQ(second.rows_matched, 630u);
  ExpectSameRows(Rows(first, q), Rows(second, q));
}

TEST_F(ResultCacheTest, IngestIntoCachedBucketInvalidates) {
  LeafServer* leaf = StartLeaf(0);
  ASSERT_TRUE(leaf->AddRows("events", SecondRows(600, kT0)).ok());
  RestartLeaf(0);

  Query q = DashboardQuery();
  QueryResult warm = MustExecute(q);
  (void)MustExecute(q);  // now served from cache

  // Late rows land in a long-sealed minute. They go to the write buffer,
  // but the ingest observer must also drop the cached partial for that
  // bucket — a stale hit would hide them forever.
  ASSERT_TRUE(
      leaves_[0]->AddRows("events", SecondRows(10, kT0 + 120)).ok());
  QueryResult after = MustExecute(q);
  EXPECT_EQ(after.rows_matched, warm.rows_matched + 10);
  EXPECT_GT(cache()->GetStats().invalidations, 0u);
  EXPECT_EQ(after.profile().cache_hit_buckets, 0u);  // all dropped

  // Once the late rows seal, the buckets become cacheable again.
  RestartLeaf(0);
  QueryResult resealed = MustExecute(q);
  EXPECT_EQ(resealed.rows_matched, warm.rows_matched + 10);
  QueryResult cached_again = MustExecute(q);
  EXPECT_GT(cached_again.profile().cache_hit_buckets, 0u);
  ExpectSameRows(Rows(resealed, q), Rows(cached_again, q));
}

TEST_F(ResultCacheTest, LeafRestartBumpsInstanceTokenAndMisses) {
  LeafServer* leaf = StartLeaf(0);
  ASSERT_TRUE(leaf->AddRows("events", SecondRows(600, kT0)).ok());
  RestartLeaf(0);

  Query q = DashboardQuery();
  QueryResult warm = MustExecute(q);
  QueryResult hit = MustExecute(q);
  EXPECT_GT(hit.profile().cache_hit_buckets, 0u);

  // The successor has a new instance token: its predecessor's entries are
  // unreachable (not merely invalidated), so the first post-restart query
  // rescans everything and refills.
  RestartLeaf(0);
  QueryResult post = MustExecute(q);
  EXPECT_EQ(post.profile().cache_hit_buckets, 0u);
  EXPECT_GT(post.profile().cache_miss_buckets, 0u);
  EXPECT_EQ(post.rows_matched, warm.rows_matched);
  ExpectSameRows(Rows(warm, q), Rows(post, q));

  QueryResult refilled = MustExecute(q);
  EXPECT_GT(refilled.profile().cache_hit_buckets, 0u);
  ExpectSameRows(Rows(warm, q), Rows(refilled, q));
}

TEST_F(ResultCacheTest, SystemTablesBypassTheCache) {
  StartLeaf(0);

  // Control first: the same shape against a regular table stores segments
  // (empty buckets cache too — they are facts about sealed history; the
  // ingested rows sit far outside the window, in the write buffer).
  ASSERT_TRUE(
      leaves_[0]->AddRows("events", SecondRows(10, kT0 + 100000)).ok());
  Query control = DashboardQuery();
  (void)MustExecute(control);
  EXPECT_GT(cache()->GetStats().stores, 0u);

  uint64_t stores_before = cache()->GetStats().stores;
  Query sys = DashboardQuery();
  sys.table = "__scuba_stats";
  sys.group_by.clear();
  sys.aggregates = {Count()};
  sys.begin_time = 0;
  sys.end_time = 599;  // shape qualifies; only the table name disqualifies
  QueryResult result = MustExecute(sys);
  EXPECT_EQ(cache()->GetStats().stores, stores_before);
  EXPECT_EQ(result.profile().cache_hit_buckets, 0u);
  EXPECT_EQ(result.profile().cache_miss_buckets, 0u);
}

TEST_F(ResultCacheTest, CacheStaysWithinByteBudgetOverManyCycles) {
  LeafServer* leaf = StartLeaf(0);
  ASSERT_TRUE(leaf->AddRows("events", SecondRows(600, kT0)).ok());
  RestartLeaf(0);

  // A budget small enough that 100 distinct dashboards cannot all fit.
  Aggregator bounded;
  bounded.EnableResultCache(16 * 1024);
  std::vector<LeafServer*> ptrs{leaves_[0].get()};
  bounded.SetLeaves(ptrs);
  ResultCache* cache = bounded.result_cache();

  for (int i = 0; i < 100; ++i) {
    Query q = DashboardQuery();
    // A different literal each cycle: distinct keys, no reuse.
    q.predicates = {{"v", CompareOp::kGe, Value(static_cast<int64_t>(i))}};
    auto result = bounded.Execute(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ResultCache::Stats stats = cache->GetStats();
    ASSERT_LE(stats.bytes, cache->max_bytes()) << "cycle " << i;
  }
  ResultCache::Stats stats = cache->GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST_F(ResultCacheTest, PercentilePartialsAreChargedTheirWindow) {
  LeafServer* leaf = StartLeaf(0);
  std::vector<Row> rows = SecondRows(600, kT0);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].Set("latency_ms", 20.0 + static_cast<double>(i % 7));
  }
  ASSERT_TRUE(leaf->AddRows("events", rows).ok());
  leaf = RestartLeaf(0);  // seal everything

  Query q = DashboardQuery();
  q.aggregates = {Count(), P99("latency_ms")};
  MustExecute(q);
  const ResultCache::Stats stats = cache()->GetStats();
  ASSERT_EQ(stats.entries, 10u);

  // Each entry is charged its partial's estimate, whose histograms count
  // only their bucket windows: the 30 samples of a (minute, service) group
  // span 20..26 ms, a handful of buckets.
  uint64_t expected = 0;
  for (int64_t b = 0; b < 10; ++b) {
    Query segment = q;
    segment.begin_time = kT0 + 60 * b;
    segment.end_time = segment.begin_time + 59;
    auto partial = leaf->ExecuteQuery(segment);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ASSERT_EQ(partial->num_groups(), 2u);
    expected += partial->EstimatedHeapBytes() +
                ResultCache::SegmentKey(0, leaf->instance_token(), q,
                                        segment.begin_time)
                    .size();
  }
  EXPECT_EQ(stats.bytes, expected);
  // A dense histogram per group would be 4 KiB each: 80 KiB over 20 groups.
  const uint64_t dense =
      stats.entries * 2 * Histogram::kNumBuckets * sizeof(uint64_t);
  EXPECT_LT(stats.bytes, dense / 4);
}

// --- direct unit tests -----------------------------------------------------

QueryResult MakeSmallResult(double count) {
  QueryResult r({Count()});
  std::vector<Value> key{Value(std::string("web"))};
  std::vector<QueryResult::Sample> samples{{0.0, false}};
  for (int i = 0; i < static_cast<int>(count); ++i) r.Accumulate(key, samples);
  return r;
}

TEST(ResultCacheUnitTest, SegmentKeySeparatesLiteralsAndBuckets) {
  Query a;
  a.table = "events";
  a.time_bucket_seconds = 60;
  a.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
  a.aggregates = {Count()};
  Query b = a;
  b.predicates[0].literal = Value(int64_t{200});

  // Fingerprint masks literals — the key must not.
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(ResultCache::SegmentKey(1, 7, a, 1200),
            ResultCache::SegmentKey(1, 7, b, 1200));
  EXPECT_NE(ResultCache::SegmentKey(1, 7, a, 1200),
            ResultCache::SegmentKey(1, 7, a, 1260));
  EXPECT_NE(ResultCache::SegmentKey(1, 7, a, 1200),
            ResultCache::SegmentKey(1, 8, a, 1200));
  EXPECT_NE(ResultCache::SegmentKey(2, 7, a, 1200),
            ResultCache::SegmentKey(1, 7, a, 1200));
  EXPECT_EQ(ResultCache::SegmentKey(1, 7, a, 1200),
            ResultCache::SegmentKey(1, 7, a, 1200));
}

TEST(ResultCacheUnitTest, StoreDroppedWhenEpochAdvancedPastScan) {
  ResultCache cache(1 << 20);
  uint64_t epoch = cache.TableEpoch(0, "events");
  cache.InvalidateTable(0, "events");  // ingest races the scan
  cache.Store("k", 0, "events", epoch, MakeSmallResult(5));
  QueryResult out({Count()});
  EXPECT_FALSE(cache.Lookup("k", &out));
  EXPECT_EQ(cache.GetStats().stores, 0u);

  uint64_t fresh = cache.TableEpoch(0, "events");
  cache.Store("k", 0, "events", fresh, MakeSmallResult(5));
  EXPECT_TRUE(cache.Lookup("k", &out));
  EXPECT_EQ(out.Finalize({Count()})[0].aggregates[0], 5.0);
}

TEST(ResultCacheUnitTest, LruEvictsOldestUnderPressure) {
  QueryResult sample = MakeSmallResult(1);
  const uint64_t per_entry = sample.EstimatedHeapBytes() + 2;
  ResultCache cache(3 * per_entry + per_entry / 2);  // room for ~3
  uint64_t epoch = cache.TableEpoch(0, "events");
  for (int i = 0; i < 5; ++i) {
    cache.Store("k" + std::to_string(i), 0, "events", epoch,
                MakeSmallResult(1));
  }
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
  QueryResult out({Count()});
  EXPECT_FALSE(cache.Lookup("k0", &out));  // oldest gone
  EXPECT_TRUE(cache.Lookup("k4", &out));   // newest resident
}

}  // namespace
}  // namespace scuba
