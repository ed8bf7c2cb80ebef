// Percentile results are pinned end to end: an 8-leaf cluster with sealed
// blocks and live write buffers answers P50/P90/P99 queries through the
// aggregator, and every schedule (per-leaf scan threads, sequential or
// parallel fan-out, result cache cold or warm) must produce the digests
// recorded here. The digests were recorded before histograms stored a
// window of buckets, found buckets through a lookup table and merged by
// moving groups, so each of those changes is held to bit-identical
// percentiles, sums, minima and maxima.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/shutdown.h"
#include "query/result_digest.h"
#include "server/aggregator.h"
#include "server/leaf_server.h"
#include "server/result_cache.h"
#include "test_util.h"
#include "util/random.h"

namespace scuba {
namespace {

using testing_util::ShmNamespace;
using testing_util::TempDir;

constexpr size_t kLeaves = 8;
constexpr int64_t kT0 = 1400000040;  // 60 s aligned
constexpr int kEndpoints = 40;

// Two rows a second from `start`. Each endpoint has its own latency scale,
// from sub-microsecond to beyond the histogram's top bucket, so groups
// occupy different bucket windows; a few rows are zero or negative (bucket
// 0) and a few are huge (bucket 511).
std::vector<Row> LatencyRows(size_t n, int64_t start, uint64_t seed) {
  Random random(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int endpoint = static_cast<int>(random.Uniform(kEndpoints));
    const double scale = std::pow(10.0, (endpoint % 14) - 4);
    double latency = scale * std::exp(random.NextDouble() * 3.0);
    if (random.Bernoulli(0.01)) latency = 0.0;
    if (random.Bernoulli(0.01)) latency = -latency;
    if (random.Bernoulli(0.01)) latency = 5e9 * (1.0 + random.NextDouble());
    Row row;
    row.SetTime(start + static_cast<int64_t>(i / 2));
    row.Set("service", "svc_" + std::to_string(random.Uniform(8)));
    row.Set("endpoint", "/ep/" + std::to_string(endpoint));
    row.Set("latency_ms", latency);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Builds the cluster: two add+restart rounds seal two row blocks per leaf,
// then a third batch stays in each write buffer.
class PercentileCluster {
 public:
  PercentileCluster(const std::string& tag, size_t num_query_threads)
      : ns_(tag), dir_(tag), num_query_threads_(num_query_threads) {
    for (size_t i = 0; i < kLeaves; ++i) {
      leaves_.push_back(std::make_unique<LeafServer>(Config(i)));
      EXPECT_TRUE(leaves_.back()->Start().ok());
    }
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < kLeaves; ++i) {
        EXPECT_TRUE(leaves_[i]
                        ->AddRows("requests",
                                  LatencyRows(600, kT0 + 300 * round,
                                              101 * (i + 1) + round))
                        .ok());
        ShutdownStats stats;
        EXPECT_TRUE(leaves_[i]->ShutdownToSharedMemory(&stats).ok());
        leaves_[i] = std::make_unique<LeafServer>(Config(i));
        EXPECT_TRUE(leaves_[i]->Start().ok());
      }
    }
    for (size_t i = 0; i < kLeaves; ++i) {
      EXPECT_TRUE(leaves_[i]
                      ->AddRows("requests",
                                LatencyRows(300, kT0 + 600, 7 * (i + 1)))
                      .ok());
    }
  }

  std::vector<LeafServer*> leaves() const {
    std::vector<LeafServer*> out;
    for (const auto& leaf : leaves_) out.push_back(leaf.get());
    return out;
  }

 private:
  LeafServerConfig Config(size_t i) const {
    LeafServerConfig config;
    config.leaf_id = static_cast<uint32_t>(i);
    config.namespace_prefix = ns_.prefix();
    config.backup_dir = dir_.path() + "/leaf_" + std::to_string(i);
    config.num_query_threads = num_query_threads_;
    return config;
  }

  ShmNamespace ns_;
  TempDir dir_;
  size_t num_query_threads_;
  std::vector<std::unique_ptr<LeafServer>> leaves_;
};

struct Pin {
  const char* name;
  Query query;
  uint32_t digest;
};

std::vector<Pin> Pins() {
  auto shape = [](std::vector<std::string> group_by) {
    Query q;
    q.table = "requests";
    q.begin_time = kT0;
    q.end_time = kT0 + 799;
    q.group_by = std::move(group_by);
    q.aggregates = {Count(),          Sum("latency_ms"), Min("latency_ms"),
                    Max("latency_ms"), P50("latency_ms"), P90("latency_ms"),
                    P99("latency_ms")};
    return q;
  };
  std::vector<Pin> pins;
  pins.push_back({"endpoint", shape({"endpoint"}), 3852019780u});
  pins.push_back({"service", shape({"service"}), 1275559985u});
  {
    Query q = shape({"service"});
    q.time_bucket_seconds = 60;
    pins.push_back({"bucketed_service", q, 27216188u});
  }
  {
    Query q = shape({});
    q.time_bucket_seconds = 60;
    pins.push_back({"bucketed_alone", q, 139623028u});
  }
  pins.push_back({"no_key", shape({}), 1756709324u});
  {
    // The dashboard's P99 panel over the buffered tail.
    Query q = shape({"endpoint"});
    q.begin_time = kT0 + 620;
    q.aggregates = {Count(), P99("latency_ms")};
    pins.push_back({"p99_panel", q, 1762790265u});
  }
  return pins;
}

uint32_t Digest(Aggregator* aggregator, const Query& query) {
  auto result = aggregator->Execute(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;
  EXPECT_EQ(result->leaves_responded, kLeaves);
  return ResultDigest(*result, query.aggregates);
}

void ExpectPinnedDigests(size_t threads) {
  PercentileCluster cluster("pdigest" + std::to_string(threads), threads);
  for (bool parallel : {false, true}) {
    Aggregator aggregator;
    aggregator.SetLeaves(cluster.leaves());
    aggregator.SetParallelFanout(parallel);
    for (const Pin& pin : Pins()) {
      EXPECT_EQ(Digest(&aggregator, pin.query), pin.digest)
          << pin.name << " threads " << threads << " parallel " << parallel;
    }
  }

  // Cache on: the first pass stores the sealed buckets' partials, the
  // second composes them with rescanned buffered buckets.
  Aggregator cached;
  cached.EnableResultCache(16 << 20);
  cached.SetLeaves(cluster.leaves());
  for (int pass = 0; pass < 2; ++pass) {
    for (const Pin& pin : Pins()) {
      EXPECT_EQ(Digest(&cached, pin.query), pin.digest)
          << pin.name << " threads " << threads << " cache pass " << pass;
    }
  }
  const ResultCache::Stats stats = cached.result_cache()->GetStats();
  EXPECT_GT(stats.stores, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(AggregatorPercentileDigestTest, PinnedWithOneScanThread) {
  ExpectPinnedDigests(1);
}

TEST(AggregatorPercentileDigestTest, PinnedWithFourScanThreads) {
  ExpectPinnedDigests(4);
}

}  // namespace
}  // namespace scuba
