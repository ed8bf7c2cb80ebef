// E7/E13 — Query performance: vectorized + parallel leaf scan (paper §1,
// §2: "These queries typically run in under a second over GBs of data").
//
// Three sections over a leaf table holding ~1M rows in 16 row blocks:
//
//   A. The E7 query set, scalar (row-at-a-time reference) vs vectorized,
//      single-threaded: the selection-vector + dictionary-filter win.
//   B. String-predicate selectivity sweep x scan threads {1, 2, 4}: how
//      the dictionary-aware filter and the per-row-block fan-out compose.
//   C. Zone-map pruning: a selective int64 predicate whose blocks are
//      skipped from the v2 footer min/max without decoding (the scalar
//      engine scans everything; the vectorized one reports blocks_pruned).
//   D. Observability overhead (E15): the heaviest query unsampled (null
//      tracer — what every production query pays for the always-on
//      QueryProfile) vs trace-sampled (PhaseTracer attached, spans per
//      block); emits the overhead percentage, the sampled profile, and
//      the span timeline.
//   E. Aggregator result cache (E16): a dashboard's bucketed query
//      re-issued over a fixed window against a 2-leaf fleet, with the
//      fingerprint-keyed partial-result cache off vs on. Sealed buckets
//      serve from cache; only the write-buffer tail rescans. Reports QPS
//      both ways and the decode_micros share; results must be
//      bit-identical (digest-checked).
//   F. Dashboard tail: the slowest dashboard panel (group by endpoint,
//      P99(latency_ms), last 30 s) on a leaf whose write buffer is three
//      quarters full, so the window's rows are buffered strings, not
//      sealed dictionary codes. Also timed: the panel with Avg in place
//      of P99 (its floor without percentile state) and an 8-way merge
//      of the P99 partial (the aggregator's layer).
//
// Every row carries `result_digest`, a CRC32C over the finalized rows
// (group keys + aggregate bit patterns, in Finalize's deterministic
// order): ci/check.sh re-runs the bench under SCUBA_FORCE_SCALAR=1 and
// asserts the digests match the SIMD run's.
//
// Thread speedups are hardware-dependent: on a single-core host the pool
// serializes and shows ~1x; expect the multi-thread gains on real cores.
// Every vectorized run is checked against the scalar result (matched rows
// and the finalized group keys must agree).
//
// Usage: bench_query [--json <path>] [--smoke]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "columnar/table.h"
#include "core/restart_manager.h"
#include "ingest/row_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "query/query_context.h"
#include "server/aggregator.h"
#include "server/leaf_server.h"
#include "query/result_digest.h"
#include "util/thread_pool.h"

namespace scuba {
namespace {

using bench_util::JsonPathFromArgs;
using bench_util::JsonWriter;

// ~1M rows across 16 row blocks; --smoke shrinks to 2 blocks.
size_t g_rows = 1 << 20;
int g_timed_iters = 5;

std::unique_ptr<Table> BuildTable() {
  auto table = std::make_unique<Table>("service_logs");
  RowGeneratorConfig config;
  config.seed = 3;
  config.rows_per_second = 2000;
  RowGenerator gen(config);
  for (size_t i = 0; i < g_rows / 8192; ++i) {
    if (!table->AddRows(gen.NextBatch(8192), gen.current_time()).ok()) {
      std::abort();
    }
  }
  if (!table->SealWriteBuffer(0).ok()) std::abort();
  return table;
}

// A leaf as the dashboard sees it: sealed blocks (a quarter of the main
// table's rows) plus a write buffer three quarters full (48,960 of 65,536
// rows; --smoke: 4,096), at 250 rows/s of event time, so the last 30 s
// are ~6,900 buffered rows.
std::unique_ptr<Table> BuildBufferedTable(bool smoke) {
  auto table = std::make_unique<Table>("service_logs");
  RowGeneratorConfig config;
  config.seed = 3;
  config.rows_per_second = 250;
  RowGenerator gen(config);
  auto add = [&](size_t rows) {
    for (size_t added = 0; added < rows; added += 8192) {
      const size_t batch = std::min<size_t>(8192, rows - added);
      if (!table->AddRows(gen.NextBatch(batch), gen.current_time()).ok()) {
        std::abort();
      }
    }
  };
  add(g_rows / 4);
  if (!table->SealWriteBuffer(0).ok()) std::abort();
  add(smoke ? 4096 : 48960);
  return table;
}

int64_t MaxTime(const Table& table) {
  int64_t max_time = 0;
  for (size_t b = 0; b < table.num_row_blocks(); ++b) {
    max_time = std::max(max_time, table.row_block(b)->header().max_time);
  }
  return max_time;
}

struct Timing {
  double millis = 0.0;  // best of g_timed_iters
  QueryResult result;
};

// Times `run` (warm-up + best-of-N) and returns the last result.
template <typename Run>
Timing Time(const Run& run) {
  Timing t;
  t.result = run();  // warm-up
  t.millis = 1e30;
  for (int i = 0; i < g_timed_iters; ++i) {
    double ms = bench_util::TimedMillis([&] { t.result = run(); });
    t.millis = std::min(t.millis, ms);
  }
  return t;
}

Timing TimeScalar(const Table& table, const Query& query) {
  return Time([&] {
    auto result = LeafExecutor::ExecuteScalar(table, query);
    if (!result.ok()) {
      std::fprintf(stderr, "scalar: %s\n", result.status().ToString().c_str());
      std::abort();
    }
    return *std::move(result);
  });
}

Timing TimeVectorized(const Table& table, const Query& query,
                      ThreadPool* pool) {
  return Time([&] {
    LeafExecutor::ExecOptions options;
    options.pool = pool;
    auto result = LeafExecutor::Execute(table, query, options);
    if (!result.ok()) {
      std::fprintf(stderr, "vectorized: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    return *std::move(result);
  });
}

void CheckAgainstScalar(const char* label, const QueryResult& scalar,
                        const QueryResult& vectorized) {
  // Finalizing with no aggregates yields the sorted group keys alone.
  std::vector<ResultRow> want = scalar.Finalize({});
  std::vector<ResultRow> got = vectorized.Finalize({});
  bool same_keys = want.size() == got.size();
  for (size_t i = 0; same_keys && i < want.size(); ++i) {
    same_keys = want[i].group_key == got[i].group_key;
  }
  if (!same_keys || scalar.rows_matched != vectorized.rows_matched) {
    std::fprintf(stderr,
                 "%s: vectorized mismatch (groups %zu vs %zu%s, matched %llu "
                 "vs %llu)\n",
                 label, want.size(), got.size(),
                 same_keys ? "" : ", keys differ",
                 static_cast<unsigned long long>(scalar.rows_matched),
                 static_cast<unsigned long long>(vectorized.rows_matched));
    std::abort();
  }
}

void Emit(JsonWriter* json, const std::string& section,
          const std::string& name, const std::string& engine, size_t threads,
          const Timing& t, double speedup,
          const std::vector<Aggregate>& aggregates) {
  json->Row();
  json->Field("section", section);
  json->Field("case", name);
  json->Field("engine", engine);
  json->Field("threads", static_cast<uint64_t>(threads));
  json->Field("millis", t.millis);
  json->Field("speedup_vs_scalar", speedup);
  json->Field("rows_scanned", t.result.rows_scanned);
  json->Field("rows_matched", t.result.rows_matched);
  json->Field("blocks_scanned", t.result.blocks_scanned);
  json->Field("blocks_pruned", t.result.blocks_pruned);
  json->Field("groups", static_cast<uint64_t>(t.result.num_groups()));
  json->Field("result_digest",
              static_cast<uint64_t>(ResultDigest(t.result, aggregates)));
  json->RawField("profile", t.result.profile().ToJson());
}

int Run(const std::string& json_path, bool smoke) {
  if (smoke) {
    g_rows = 2 * 8192;  // 2 row blocks
    g_timed_iters = 1;
  }
  std::unique_ptr<Table> table = BuildTable();
  JsonWriter json("query_engine");

  ThreadPool pool2(2);
  ThreadPool pool4(4);
  struct PoolRow {
    size_t threads;
    ThreadPool* pool;
  };
  const PoolRow pools[] = {{1, nullptr}, {2, &pool2}, {4, &pool4}};

  std::printf("E13: vectorized + parallel leaf query engine\n");
  std::printf("table: %llu rows, %zu row blocks; host cores: %u\n\n",
              static_cast<unsigned long long>(table->RowCount()),
              table->num_row_blocks(), std::thread::hardware_concurrency());

  // --- A: the E7 query set, scalar vs vectorized (single thread) ----------
  struct Case {
    const char* name;
    Query query;
  };
  std::vector<Case> cases;
  {
    Query q;
    q.table = "service_logs";
    q.aggregates = {Count()};
    cases.push_back({"count_all", q});
  }
  {
    Query q;
    q.table = "service_logs";
    q.group_by = {"service"};
    q.aggregates = {Count(), Avg("latency_ms")};
    cases.push_back({"group_by_service_avg_latency", q});
  }
  {
    Query q;
    q.table = "service_logs";
    q.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
    q.group_by = {"service"};
    q.aggregates = {Count()};
    cases.push_back({"filtered_error_count", q});
  }
  {
    Query q;
    q.table = "service_logs";
    q.begin_time = MaxTime(*table) - 30;
    q.aggregates = {Count(), Avg("latency_ms")};
    cases.push_back({"time_pruned_narrow_window", q});
  }
  {
    Query q;
    q.table = "service_logs";
    q.group_by = {"service"};
    q.aggregates = {P50("latency_ms"), P99("latency_ms")};
    cases.push_back({"p99_latency_by_service", q});
  }
  {
    Query q;
    q.table = "service_logs";
    q.time_bucket_seconds = 60;
    q.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
    q.aggregates = {Count()};
    cases.push_back({"error_timeline_per_minute", q});
  }

  std::printf("-- A: scalar vs vectorized (1 thread) --\n");
  std::printf("%-32s %12s %12s %9s\n", "case", "scalar_ms", "vector_ms",
              "speedup");
  for (const Case& c : cases) {
    Timing scalar = TimeScalar(*table, c.query);
    Timing vec = TimeVectorized(*table, c.query, nullptr);
    CheckAgainstScalar(c.name, scalar.result, vec.result);
    double speedup = vec.millis > 0 ? scalar.millis / vec.millis : 0.0;
    std::printf("%-32s %12.3f %12.3f %8.2fx\n", c.name, scalar.millis,
                vec.millis, speedup);
    Emit(&json, "query_set", c.name, "scalar", 1, scalar, 1.0,
         c.query.aggregates);
    Emit(&json, "query_set", c.name, "vectorized", 1, vec, speedup,
         c.query.aggregates);
  }

  // --- B: string-predicate selectivity x threads ---------------------------
  struct StringCase {
    const char* name;
    Predicate pred;
  };
  const StringCase string_cases[] = {
      {"string_eq_narrow",
       {"endpoint", CompareOp::kEq, Value(std::string("/api/v2/endpoint_7"))}},
      {"string_contains_mid",
       {"endpoint", CompareOp::kContains, Value(std::string("endpoint_1"))}},
      {"string_prefix_all",
       {"endpoint", CompareOp::kPrefix, Value(std::string("/api/v2/"))}},
  };

  std::printf("\n-- B: string-filter selectivity x scan threads --\n");
  std::printf("%-24s %9s %12s %9s %9s\n", "case", "threads", "millis",
              "speedup", "matched%");
  for (const StringCase& sc : string_cases) {
    Query q;
    q.table = "service_logs";
    q.predicates = {sc.pred};
    q.group_by = {"service"};
    q.aggregates = {Count(), Avg("latency_ms")};

    Timing scalar = TimeScalar(*table, q);
    double matched = 100.0 * static_cast<double>(scalar.result.rows_matched) /
                     static_cast<double>(scalar.result.rows_scanned);
    std::printf("%-24s %9s %12.3f %8.2fx %8.1f%%\n", sc.name, "scalar",
                scalar.millis, 1.0, matched);
    Emit(&json, "selectivity_sweep", sc.name, "scalar", 1, scalar, 1.0,
         q.aggregates);

    for (const PoolRow& p : pools) {
      Timing vec = TimeVectorized(*table, q, p.pool);
      CheckAgainstScalar(sc.name, scalar.result, vec.result);
      double speedup = vec.millis > 0 ? scalar.millis / vec.millis : 0.0;
      std::printf("%-24s %9zu %12.3f %8.2fx %8.1f%%\n", sc.name, p.threads,
                  vec.millis, speedup, matched);
      Emit(&json, "selectivity_sweep", sc.name, "vectorized", p.threads, vec,
           speedup, q.aggregates);
    }
  }

  // --- C: zone-map pruning -------------------------------------------------
  // A selective predicate on the time COLUMN (the query's [begin, end]
  // range stays wide open, so the header min/max prunes nothing): blocks
  // seal in time order, so the v2 footer zone map skips every block but
  // the last without decoding. The scalar engine has no zone maps and
  // scans all 16 blocks.
  {
    Query q;
    q.table = "service_logs";
    q.predicates = {
        {kTimeColumnName, CompareOp::kGe, Value(MaxTime(*table) - 30)}};
    q.group_by = {"service"};
    q.aggregates = {Count()};

    Timing scalar = TimeScalar(*table, q);
    Timing vec = TimeVectorized(*table, q, nullptr);
    CheckAgainstScalar("zone_map_prune", scalar.result, vec.result);
    double speedup = vec.millis > 0 ? scalar.millis / vec.millis : 0.0;
    uint64_t total = vec.result.blocks_scanned + vec.result.blocks_pruned;
    double pruned_frac = total > 0 ? static_cast<double>(
                                         vec.result.blocks_pruned) /
                                         static_cast<double>(total)
                                   : 0.0;
    std::printf("\n-- C: zone-map pruning (selective int64 predicate) --\n");
    std::printf("scalar: %.3f ms, %llu/%llu blocks scanned\n", scalar.millis,
                static_cast<unsigned long long>(scalar.result.blocks_scanned),
                static_cast<unsigned long long>(total));
    std::printf(
        "vector: %.3f ms, %llu/%llu blocks pruned (%.0f%%), %.2fx\n",
        vec.millis, static_cast<unsigned long long>(vec.result.blocks_pruned),
        static_cast<unsigned long long>(total), 100.0 * pruned_frac, speedup);
    Emit(&json, "zone_map", "zone_map_prune", "scalar", 1, scalar, 1.0,
         q.aggregates);
    Emit(&json, "zone_map", "zone_map_prune", "vectorized", 1, vec, speedup,
         q.aggregates);
    // A smoke run only has 2 blocks, so the 90% bar does not apply.
    if (!smoke && pruned_frac < 0.9) {
      std::fprintf(stderr, "zone maps pruned only %.0f%% of blocks\n",
                   100.0 * pruned_frac);
      return 1;
    }
  }

  // --- D: observability overhead (E15) -------------------------------------
  // The heaviest query from section A, run unsampled (null tracer: the
  // always-on QueryProfile is the only cost) vs trace-sampled (PhaseTracer
  // attached, one span + two synthesized children per block). Sampling is
  // 1-in-N in production, so the sampled cost is paid by ~none of the
  // fleet's queries; the unsampled number is the one the ≤2% E15 budget
  // applies to, against the pre-instrumentation E13 baseline.
  {
    Query q;
    q.table = "service_logs";
    q.group_by = {"service"};
    q.aggregates = {Count(), Avg("latency_ms")};

    Timing unsampled = TimeVectorized(*table, q, nullptr);
    std::unique_ptr<obs::PhaseTracer> tracer;
    Timing sampled = Time([&] {
      tracer = std::make_unique<obs::PhaseTracer>();
      QueryContext ctx;
      ctx.query_id = NextQueryId();
      ctx.sampled = true;
      ctx.tracer = tracer.get();
      LeafExecutor::ExecOptions options;
      options.ctx = &ctx;
      auto result = LeafExecutor::Execute(*table, q, options);
      if (!result.ok()) {
        std::fprintf(stderr, "sampled: %s\n",
                     result.status().ToString().c_str());
        std::abort();
      }
      return *std::move(result);
    });
    double overhead_pct =
        unsampled.millis > 0
            ? 100.0 * (sampled.millis - unsampled.millis) / unsampled.millis
            : 0.0;
    std::printf("\n-- D: observability overhead (group_by, 1 thread) --\n");
    std::printf("unsampled (profile only): %.3f ms\n", unsampled.millis);
    std::printf("sampled (span timeline):  %.3f ms  (%+.1f%%)\n",
                sampled.millis, overhead_pct);
    std::printf("%s\n", sampled.result.profile().ToText().c_str());
    Emit(&json, "observability_overhead", "group_by_service_avg_latency",
         "vectorized_unsampled", 1, unsampled, 1.0, q.aggregates);
    Emit(&json, "observability_overhead", "group_by_service_avg_latency",
         "vectorized_sampled", 1, sampled, 1.0, q.aggregates);
    json.Field("sampling_overhead_pct", overhead_pct);
    json.Section("profile", sampled.result.profile().ToJson());
    json.Section("trace", tracer->ToJson());
  }

  // --- E: aggregator result cache (E16) ------------------------------------
  // The dashboard-refresh pattern: the same bucketed query over a fixed
  // window, re-issued against a 2-leaf fleet. With the cache on, every
  // whole sealed bucket serves its per-leaf partial from memory after the
  // first pass; only the unsealed write-buffer tail rescans.
  {
    bench_util::BenchEnv env("e16");
    const size_t kLeaves = 2;
    std::vector<std::unique_ptr<LeafServer>> leaves;
    std::vector<LeafServer*> leaf_ptrs;
    for (size_t i = 0; i < kLeaves; ++i) {
      LeafServerConfig config;
      config.leaf_id = static_cast<uint32_t>(i);
      config.namespace_prefix = env.prefix();
      config.backup_dir = env.dir() + "/leaf_" + std::to_string(i);
      std::error_code ec;
      std::filesystem::create_directories(config.backup_dir, ec);
      if (ec) std::abort();
      leaves.push_back(std::make_unique<LeafServer>(config));
      if (!leaves.back()->Start().ok()) std::abort();
      leaf_ptrs.push_back(leaves.back().get());
    }
    RowGeneratorConfig config;
    config.seed = 3;
    config.rows_per_second = 2000;
    RowGenerator gen(config);
    for (size_t i = 0; i < g_rows / 8192; ++i) {
      if (!leaves[i % kLeaves]
               ->AddRows("service_logs", gen.NextBatch(8192))
               .ok()) {
        std::abort();
      }
    }

    Query q;
    q.table = "service_logs";
    q.begin_time = config.start_time;
    q.end_time = gen.current_time();  // fixed window, as a dashboard refresh
    q.time_bucket_seconds = 60;
    q.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
    q.group_by = {"service"};
    q.aggregates = {Count(), Avg("latency_ms")};

    const int iters = smoke ? 3 : 50;
    auto repeat = [&](Aggregator* agg) {
      Timing t;
      auto once = [&] {
        auto result = agg->Execute(q);
        if (!result.ok()) {
          std::fprintf(stderr, "e16: %s\n",
                       result.status().ToString().c_str());
          std::abort();
        }
        return *std::move(result);
      };
      t.result = once();  // warm-up (fills the cache when enabled)
      t.millis = bench_util::TimedMillis([&] {
        for (int i = 0; i < iters; ++i) t.result = once();
      });
      return t;
    };

    Aggregator agg_off;
    agg_off.SetLeaves(leaf_ptrs);
    Timing off = repeat(&agg_off);

    Aggregator agg_on;
    agg_on.EnableResultCache(64ull << 20);
    agg_on.SetLeaves(leaf_ptrs);
    Timing on = repeat(&agg_on);

    uint32_t digest_off = ResultDigest(off.result, q.aggregates);
    uint32_t digest_on = ResultDigest(on.result, q.aggregates);
    if (digest_off != digest_on) {
      std::fprintf(stderr, "e16: cached result digest mismatch (%08x vs %08x)\n",
                   digest_off, digest_on);
      std::abort();
    }

    double qps_off = off.millis > 0 ? 1000.0 * iters / off.millis : 0.0;
    double qps_on = on.millis > 0 ? 1000.0 * iters / on.millis : 0.0;
    double speedup = on.millis > 0 ? off.millis / on.millis : 0.0;
    auto decode_share = [](const QueryResult& r) {
      return r.profile().wall_micros > 0
                 ? 100.0 * static_cast<double>(r.profile().decode_micros) /
                       static_cast<double>(r.profile().wall_micros)
                 : 0.0;
    };
    ResultCache::Stats cache_stats = agg_on.result_cache()->GetStats();
    std::printf("\n-- E: aggregator result cache (repeated dashboard) --\n");
    std::printf("cache off: %8.2f q/s  (decode %4.1f%% of wall)\n", qps_off,
                decode_share(off.result));
    std::printf("cache on:  %8.2f q/s  (decode %4.1f%% of wall)  %.2fx\n",
                qps_on, decode_share(on.result), speedup);
    std::printf("           %llu bucket hits / %llu misses per query, "
                "%llu entries, %.1f KB cached\n",
                static_cast<unsigned long long>(
                    on.result.profile().cache_hit_buckets),
                static_cast<unsigned long long>(
                    on.result.profile().cache_miss_buckets),
                static_cast<unsigned long long>(cache_stats.entries),
                static_cast<double>(cache_stats.bytes) / 1024.0);
    Emit(&json, "result_cache", "repeated_dashboard", "cache_off", 1, off,
         1.0, q.aggregates);
    Emit(&json, "result_cache", "repeated_dashboard", "cache_on", 1, on,
         speedup, q.aggregates);
    json.Field("cache_qps_off", qps_off);
    json.Field("cache_qps_on", qps_on);
    json.Field("cache_speedup", speedup);
    if (!smoke && on.result.profile().cache_hit_buckets == 0) {
      std::fprintf(stderr, "e16: cache produced no bucket hits\n");
      return 1;
    }
  }

  // --- F: dashboard tail (the by_endpoint panel) ---------------------------
  // The dashboard's slowest panel. Its window lies in the write buffer, so
  // every matched row's endpoint is a buffered string (18-20 bytes, past
  // the short-string buffer) rather than a sealed block's dictionary code.
  {
    std::unique_ptr<Table> buffered = BuildBufferedTable(smoke);
    const int64_t end_time = buffered->write_buffer().max_time();
    Query q;
    q.table = "service_logs";
    q.begin_time = end_time - 29;
    q.end_time = end_time;
    q.group_by = {"endpoint"};
    q.aggregates = {Count(), P99("latency_ms")};

    Timing scalar = TimeScalar(*buffered, q);
    Timing vec = TimeVectorized(*buffered, q, nullptr);
    CheckAgainstScalar("by_endpoint_buffered", scalar.result, vec.result);
    double speedup = vec.millis > 0 ? scalar.millis / vec.millis : 0.0;
    std::printf("\n-- F: dashboard tail (by_endpoint, last 30 s) --\n");
    std::printf("table: %zu sealed blocks + %zu buffered rows; %llu rows "
                "matched, %zu groups\n",
                buffered->num_row_blocks(),
                buffered->write_buffer().row_count(),
                static_cast<unsigned long long>(vec.result.rows_matched),
                vec.result.num_groups());
    std::printf("scalar: %.3f ms  vectorized: %.3f ms  (%.2fx)\n",
                scalar.millis, vec.millis, speedup);
    Emit(&json, "dashboard_tail", "by_endpoint_buffered", "scalar", 1, scalar,
         1.0, q.aggregates);
    Emit(&json, "dashboard_tail", "by_endpoint_buffered", "vectorized", 1, vec,
         speedup, q.aggregates);

    // The same panel with Avg in place of P99: its floor without
    // percentile state.
    Query avg_q = q;
    avg_q.aggregates = {Count(), Avg("latency_ms")};
    Timing avg_scalar = TimeScalar(*buffered, avg_q);
    Timing avg = TimeVectorized(*buffered, avg_q, nullptr);
    CheckAgainstScalar("by_endpoint_avg_buffered", avg_scalar.result,
                       avg.result);
    Emit(&json, "dashboard_tail", "by_endpoint_avg_buffered", "vectorized", 1,
         avg, avg.millis > 0 ? avg_scalar.millis / avg.millis : 0.0,
         avg_q.aggregates);

    // The layer the aggregator adds: the P99 partial merged 8 ways, as
    // from 8 leaves. The copies are made outside the timed region and
    // moved in, as the aggregator moves each leaf's result.
    constexpr int kMergeLeaves = 8;
    Timing merge;
    merge.millis = 1e30;
    for (int i = 0; i <= g_timed_iters; ++i) {
      std::vector<QueryResult> from_leaves(kMergeLeaves, vec.result);
      QueryResult merged(q.aggregates);
      const double ms = bench_util::TimedMillis([&] {
        for (QueryResult& leaf : from_leaves) merged.Merge(std::move(leaf));
      });
      if (i > 0) merge.millis = std::min(merge.millis, ms);  // 0 = warm-up
      merge.result = std::move(merged);
    }
    std::printf("avg in place of p99: %.3f ms; %d-way merge of the p99 "
                "partial (%.1f KB): %.3f ms\n",
                avg.millis, kMergeLeaves,
                static_cast<double>(vec.result.EstimatedHeapBytes()) / 1024.0,
                merge.millis);
    Emit(&json, "dashboard_tail", "by_endpoint_merge8", "vectorized", 1, merge,
         0.0, q.aggregates);
  }

  if (!json_path.empty()) {
    json.Section("schema_version",
                 std::to_string(kRestartReportSchemaVersion));
    json.Section("metrics", obs::MetricsRegistry::Global().ToJson());
    if (!json.WriteTo(json_path)) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace scuba

int main(int argc, char** argv) {
  return scuba::Run(scuba::bench_util::JsonPathFromArgs(argc, argv),
                    scuba::bench_util::FlagFromArgs(argc, argv, "--smoke"));
}
