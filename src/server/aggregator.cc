#include "server/aggregator.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "columnar/row.h"
#include "obs/metrics.h"
#include "obs/stats_exporter.h"
#include "shm/restart_heartbeat.h"
#include "util/clock.h"

namespace scuba {
namespace {

// Aggregator-level query counters (scuba.server.aggregator.*). The
// per-table latency histograms are created on first use (dynamic names),
// not cached here.
struct AggregatorMetrics {
  obs::Counter* queries;
  obs::Counter* traces_sampled;
  obs::Counter* slow_queries_logged;
  obs::Counter* deadline_exceeded_leaves;
  obs::Histogram* query_latency_micros;
  obs::Histogram* fanout_queue_wait_micros;
  obs::Gauge* ingest_priority_hint;

  static AggregatorMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static AggregatorMetrics m{
        reg.GetCounter("scuba.server.aggregator.queries"),
        reg.GetCounter("scuba.server.aggregator.traces_sampled"),
        reg.GetCounter("scuba.server.aggregator.slow_queries_logged"),
        reg.GetCounter(
            "scuba.server.aggregator.deadline_exceeded_leaves"),
        reg.GetHistogram("scuba.server.aggregator.query_latency_micros"),
        reg.GetHistogram(
            "scuba.server.aggregator.fanout_queue_wait_micros"),
        reg.GetGauge("scuba.server.aggregator.ingest_priority_hint")};
    return m;
  }
};

// Releases an admitted query's slot on every exit path.
struct AdmissionTicket {
  AdmissionController* controller = nullptr;
  ~AdmissionTicket() {
    if (controller != nullptr) controller->Release();
  }
};

// Floor-divide toward negative infinity (the executor's bucketing rule —
// the cache's segment boundaries must match the result's bucket keys).
int64_t BucketFloor(int64_t t, int64_t w) {
  return (t >= 0 ? t / w : (t - w + 1) / w) * w;
}

// One human-readable line for an Unavailable leaf, with its live restore
// progress sampled from the shm heartbeat when one is published: how far
// along (by bytes) the restore is and the on-demand/background block
// split. This is what turns "leaf 3 was missing from this result" into
// "leaf 3 was 42% through a restore when we asked".
std::string DescribeUnavailableLeaf(const LeafServer& leaf,
                                    const Status& status) {
  const uint32_t leaf_id = leaf.config().leaf_id;
  std::string detail =
      "leaf " + std::to_string(leaf_id) + ": " + status.message();
  auto reading = RestartHeartbeat::ReadOnce(leaf.config().namespace_prefix,
                                            leaf_id);
  if (reading.ok()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  " (restore %.1f%% by bytes, blocks %llu/%llu, %llu on "
                  "demand)",
                  reading.value().Progress() * 100.0,
                  static_cast<unsigned long long>(
                      reading.value().blocks_restored),
                  static_cast<unsigned long long>(
                      reading.value().blocks_total),
                  static_cast<unsigned long long>(
                      reading.value().blocks_on_demand));
    detail += buf;
  }
  return detail;
}

}  // namespace

StatusOr<QueryResult> Aggregator::Execute(const Query& query) {
  SCUBA_RETURN_IF_ERROR(query.Validate());

  QueryContext ctx;
  ctx.query_id = NextQueryId();
  // The 1-in-N sampling decision. System tables are never sampled: the
  // dashboard and exporter poll them, and tracing the pollers would bury
  // the user queries the samples exist to explain.
  std::unique_ptr<obs::PhaseTracer> tracer;
  {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    if (trace_sample_every_n_ > 0 && !obs::IsSystemTable(query.table) &&
        trace_counter_++ % trace_sample_every_n_ == 0) {
      tracer = std::make_unique<obs::PhaseTracer>();
      ctx.sampled = true;
      ctx.tracer = tracer.get();
    }
  }

  auto result = Execute(query, ctx);

  if (tracer != nullptr) {
    AggregatorMetrics::Get().traces_sampled->Add(1);
    std::string json = tracer->ToJson();
    std::lock_guard<std::mutex> lock(obs_mutex_);
    last_trace_json_ = std::move(json);
  }
  return result;
}

StatusOr<QueryResult> Aggregator::Execute(const Query& query,
                                          const QueryContext& ctx) {
  SCUBA_RETURN_IF_ERROR(query.Validate());
  AggregatorMetrics::Get().queries->Add(1);
  const bool system = obs::IsSystemTable(query.table);

  // Push the overload state to the leaves' ingest-priority hint before
  // deciding this query's fate (cheap: one atomic compare on the common
  // path).
  if (slo_tracker_ != nullptr) UpdateIngestPriorityHint();

  // Admission: system queries always bypass (shedding the exporter's or
  // dashboard's own polls would blind the operator mid-overload).
  AdmissionTicket ticket;
  if (!system && admission_ != nullptr) {
    Stopwatch admit_watch;
    if (admission_->Admit() == AdmissionController::Decision::kShed) {
      RecordShedQuery(query, ctx.query_id, admit_watch.ElapsedMicros());
      return Status::ResourceExhausted(
          "query shed: cluster overloaded (p99 over SLO), retry later");
    }
    ticket.controller = admission_.get();
  }

  // Deadline: a non-system query without a caller-supplied deadline runs
  // under the aggregator's default budget. System queries never carry one
  // (the self-amplification guard: a deadline-abandoned `__scuba_slo` poll
  // would hide the overload it exists to show).
  QueryContext exec_ctx = ctx;
  int64_t deadline_budget_micros = 0;
  if (system) {
    exec_ctx.deadline_steady_micros = 0;
  } else if (exec_ctx.deadline_steady_micros == 0 &&
             default_deadline_micros_ > 0) {
    exec_ctx.deadline_steady_micros =
        SteadyNowMicros() + default_deadline_micros_;
    deadline_budget_micros = default_deadline_micros_;
  } else if (exec_ctx.deadline_steady_micros != 0) {
    const int64_t budget = exec_ctx.deadline_steady_micros - SteadyNowMicros();
    deadline_budget_micros = budget > 0 ? budget : 1;
  }

  Stopwatch wall;
  SCUBA_ASSIGN_OR_RETURN(QueryResult merged,
                         ExecuteInternal(query, exec_ctx));
  const int64_t wall_micros = wall.ElapsedMicros();

  // Third back-to-back root after fanout and merge: stamping, histograms,
  // fingerprinting and the slow-query log are real per-query work, and the
  // timeline owns up to it (the >90% wall-coverage bar counts roots only).
  obs::PhaseTracer::Span record_span(ctx.tracer, ctx.parent_span, "record");
  QueryProfile& profile = merged.profile();
  profile.query_id = ctx.query_id;
  profile.wall_micros = wall_micros;
  profile.deadline_micros = deadline_budget_micros;
  profile.leaves_total = merged.leaves_total;
  profile.leaves_responded = merged.leaves_responded;

  RecordQueryStats(query, merged, wall_micros, system);
  return merged;
}

void Aggregator::EnableAdmissionControl(const AdmissionOptions& options) {
  admission_ = std::make_unique<AdmissionController>(options, slo_tracker_);
}

void Aggregator::UpdateIngestPriorityHint() {
  const bool overloaded = slo_tracker_->overloaded();
  // Flip only on a transition; the common path is one atomic compare.
  bool expected = !overloaded;
  if (!ingest_hint_on_.compare_exchange_strong(expected, overloaded)) return;
  AggregatorMetrics::Get().ingest_priority_hint->Set(overloaded ? 1 : 0);
  for (LeafServer* leaf : leaves_) leaf->SetIngestPriorityHint(overloaded);
}

void Aggregator::EnableResultCache(uint64_t max_bytes) {
  result_cache_ = std::make_shared<ResultCache>(max_bytes);
  for (LeafServer* leaf : leaves_) InstallIngestObserver(leaf);
}

void Aggregator::InstallIngestObserver(LeafServer* leaf) {
  // Captures the cache by shared_ptr, not `this`: leaves routinely outlive
  // the aggregator object in rollover tests.
  std::shared_ptr<ResultCache> cache = result_cache_;
  const uint32_t leaf_id = leaf->config().leaf_id;
  leaf->SetIngestObserver([cache, leaf_id](const std::string& table) {
    cache->InvalidateTable(leaf_id, table);
  });
}

StatusOr<QueryResult> Aggregator::ExecuteLeaf(LeafServer* leaf,
                                              const Query& query,
                                              const QueryContext& ctx) {
  if (result_cache_ == nullptr || query.time_bucket_seconds <= 0 ||
      obs::IsSystemTable(query.table)) {
    return leaf->ExecuteQuery(query, ctx);
  }
  const int64_t w = query.time_bucket_seconds;
  // Unsigned span arithmetic: end - begin can overflow int64 for the
  // default [0, int64 max] range. Too many buckets -> bypass, don't split.
  // Pre-epoch or near-overflow ranges also bypass (real dashboard times
  // are unix seconds; keeping the segment math in [0, max - w] spares
  // every boundary computation an overflow check).
  const uint64_t span = static_cast<uint64_t>(query.end_time) -
                        static_cast<uint64_t>(query.begin_time);
  if (span / static_cast<uint64_t>(w) >= kMaxCachedBuckets ||
      query.begin_time < 0 ||
      query.end_time > std::numeric_limits<int64_t>::max() - w) {
    return leaf->ExecuteQuery(query, ctx);
  }
  // First bucket start fully inside the range; every segment boundary is
  // bucket-aligned, so each result group's rows fall in exactly ONE
  // segment and the merged result is bit-identical to one whole scan.
  int64_t first = BucketFloor(query.begin_time, w);
  if (first < query.begin_time) first += w;
  std::vector<int64_t> bucket_starts;
  for (int64_t s = first; s <= query.end_time - (w - 1); s += w) {
    bucket_starts.push_back(s);
  }
  if (bucket_starts.empty()) return leaf->ExecuteQuery(query, ctx);

  const uint32_t leaf_id = leaf->config().leaf_id;
  const uint64_t token = leaf->instance_token();
  QueryResult composed(query.aggregates);
  uint64_t hit_buckets = 0;
  uint64_t miss_buckets = 0;

  // Segments merge in time order (head, buckets, tail); any segment's
  // Unavailable makes the whole leaf unavailable, exactly like an
  // uncached restarting leaf.
  auto run_segment = [&](int64_t begin, int64_t end,
                         bool whole_bucket) -> Status {
    std::string key;
    if (whole_bucket) {
      key = ResultCache::SegmentKey(leaf_id, token, query, begin);
      QueryResult cached;
      if (result_cache_->Lookup(key, &cached)) {
        ++hit_buckets;
        composed.Merge(std::move(cached));
        return Status::OK();
      }
      ++miss_buckets;
    }
    const uint64_t epoch = result_cache_->TableEpoch(leaf_id, query.table);
    Query segment = query;
    segment.begin_time = begin;
    segment.end_time = end;
    SCUBA_ASSIGN_OR_RETURN(QueryResult partial,
                           leaf->ExecuteQuery(segment, ctx));
    // The composed result carries the leaf's 1/1 exactly once (below).
    partial.leaves_total = 0;
    partial.leaves_responded = 0;
    partial.profile().leaves_total = 0;
    partial.profile().leaves_responded = 0;
    if (whole_bucket &&
        !leaf->WriteBufferOverlaps(query.table, begin, end)) {
      result_cache_->Store(key, leaf_id, query.table, epoch, partial);
    }
    composed.Merge(std::move(partial));
    return Status::OK();
  };

  if (first > query.begin_time) {
    SCUBA_RETURN_IF_ERROR(run_segment(query.begin_time, first - 1, false));
  }
  for (int64_t s : bucket_starts) {
    SCUBA_RETURN_IF_ERROR(run_segment(s, s + (w - 1), true));
  }
  const int64_t last_end = bucket_starts.back() + (w - 1);
  if (last_end < query.end_time) {
    SCUBA_RETURN_IF_ERROR(run_segment(last_end + 1, query.end_time, false));
  }

  // Same contract as LeafServer::ExecuteQuery: the per-leaf result counts
  // itself once.
  composed.leaves_total = 1;
  composed.leaves_responded = 1;
  composed.profile().leaves_total = 1;
  composed.profile().leaves_responded = 1;
  composed.profile().cache_hit_buckets += hit_buckets;
  composed.profile().cache_miss_buckets += miss_buckets;
  return composed;
}

StatusOr<QueryResult> Aggregator::ExecuteInternal(const Query& query,
                                                  const QueryContext& ctx) {
  QueryResult merged(query.aggregates);
  merged.leaves_total = static_cast<uint32_t>(leaves_.size());
  obs::PhaseTracer* tracer = ctx.tracer;

  const bool parallel = parallel_fanout_ && leaves_.size() > 1;

  // Each leaf writes only its own slot — no merge lock; the merge below
  // walks the slots in leaf order so the output is deterministic and
  // identical to the sequential fan-out. queue_wait[i] is how long leaf
  // i's task sat behind busy pool workers before starting.
  std::vector<std::optional<StatusOr<QueryResult>>> slots(leaves_.size());
  std::vector<int64_t> queue_wait(leaves_.size(), 0);
  {
    // The fan-out and merge roots are recorded back to back on this
    // thread, so RootCoverageMicros() accounts for (nearly) the whole
    // aggregator wall time; per-leaf execute spans attach under the
    // fan-out root from whatever thread runs them.
    obs::PhaseTracer::Span fanout_span(tracer, ctx.parent_span, "fanout");
    QueryContext leaf_ctx = ctx;
    leaf_ctx.parent_span = fanout_span.id();
    if (parallel) {
      // Lazily build the shared fan-out pool when the first parallel query
      // needs it (previously: one std::thread spawned per leaf per query).
      // Queries over more leaves than workers just queue; the pool size
      // stays fixed. Construction happens under the fanout span so the
      // first query's timeline owns up to the setup cost.
      if (fanout_pool_ == nullptr) {
        fanout_pool_ = std::make_unique<ThreadPool>(
            std::min(leaves_.size(), kMaxFanoutThreads));
      }
      Stopwatch fanout_watch;
      Status fanout = ParallelFor(
          fanout_pool_.get(), leaves_.size(), [&](size_t i) -> Status {
            queue_wait[i] = fanout_watch.ElapsedMicros();
            slots[i] = ExecuteLeaf(leaves_[i], query, leaf_ctx);
            return Status::OK();
          });
      SCUBA_RETURN_IF_ERROR(fanout);  // the tasks themselves never fail
    } else {
      for (size_t i = 0; i < leaves_.size(); ++i) {
        slots[i] = ExecuteLeaf(leaves_[i], query, leaf_ctx);
      }
    }
  }

  Stopwatch merge_watch;
  {
    obs::PhaseTracer::Span merge_span(tracer, ctx.parent_span, "merge");
    AggregatorMetrics& metrics = AggregatorMetrics::Get();
    for (size_t i = 0; i < slots.size(); ++i) {
      StatusOr<QueryResult>& result = *slots[i];
      if (!result.ok()) {
        if (result.status().IsUnavailable()) {
          // Restarting leaf: its data is simply missing from the result,
          // but the profile records who was missing and how far along its
          // restore was (sampled from the shm heartbeat).
          merged.profile().unavailable_leaves.push_back(
              leaves_[i]->config().leaf_id);
          merged.profile().unavailable_detail.push_back(
              DescribeUnavailableLeaf(*leaves_[i], result.status()));
          continue;
        }
        if (result.status().IsDeadlineExceeded()) {
          // A leaf that outlived the query's deadline: the unit of
          // abandonment is the whole leaf (a half-scanned block set would
          // be WRONG, not partial). The result is served without it, same
          // partial-result contract as a restarting leaf, and the profile
          // says how many leaves were dropped this way.
          merged.profile().deadline_exceeded += 1;
          metrics.deadline_exceeded_leaves->Add(1);
          continue;
        }
        // A real query error names the leaf that produced it.
        return Status(result.status().code(),
                      "leaf " +
                          std::to_string(leaves_[i]->config().leaf_id) +
                          ": " + result.status().message());
      }
      // Count the leaf once; the per-leaf result already carries 1/1.
      result->leaves_total = 0;
      result->leaves_responded = 0;
      result->profile().leaves_total = 0;
      result->profile().leaves_responded = 0;
      if (parallel) {
        merged.profile().fanout_queue_wait_micros += queue_wait[i];
        metrics.fanout_queue_wait_micros->Record(
            static_cast<uint64_t>(queue_wait[i]));
      }
      merged.Merge(std::move(*result));
      ++merged.leaves_responded;
    }
  }
  merged.profile().merge_micros += merge_watch.ElapsedMicros();
  return merged;
}

void Aggregator::RecordQueryStats(const Query& query,
                                  const QueryResult& result,
                                  int64_t wall_micros, bool system) {
  AggregatorMetrics& metrics = AggregatorMetrics::Get();
  metrics.query_latency_micros->Record(static_cast<uint64_t>(wall_micros));
  // Self-amplification guard: the dashboard/exporter queries against
  // `__scuba*` tables feed neither the per-table histograms, the panel,
  // nor the slow-query log — otherwise monitoring the slow-query log
  // would fill the slow-query log.
  if (system) return;

  obs::MetricsRegistry::Global()
      .GetHistogram("scuba.server.aggregator.query_latency_micros." +
                    query.table)
      ->Record(static_cast<uint64_t>(wall_micros));

  // Feed the sliding-window SLO tracker (it re-checks the system guard
  // itself; this is the belt to its suspenders).
  if (slo_tracker_ != nullptr) slo_tracker_->Record(query.table, wall_micros);

  const char* kind = nullptr;
  {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    ++panel_.queries;
    panel_.deadline_exceeded_leaves += result.profile().deadline_exceeded;
    if (wall_micros > panel_.slowest_latency_micros ||
        panel_.slowest_query_id == 0) {
      panel_.slowest_query_id = result.profile().query_id;
      panel_.slowest_latency_micros = wall_micros;
      panel_.slowest_fingerprint = query.Fingerprint();
    }
    const bool sampled =
        slow_query_sample_every_n_ > 0 &&
        slow_query_counter_++ % slow_query_sample_every_n_ == 0;
    if (slow_query_threshold_micros_ > 0 &&
        wall_micros >= slow_query_threshold_micros_) {
      kind = "slow";
    } else if (sampled) {
      kind = "sample";
    }
  }
  if (kind == nullptr) return;

  // Route the row through the first live leaf's exporter; the row lands in
  // that leaf's `__scuba_queries` shard and merges through the normal
  // aggregation path like any other table.
  obs::StatsExporter* exporter = FindQueryRowExporter();
  if (exporter == nullptr) return;

  const QueryProfile& p = result.profile();
  Row row;
  row.Set("kind", std::string(kind))
      .Set("query_id", static_cast<int64_t>(p.query_id))
      .Set("fingerprint", query.Fingerprint())
      .Set("table", query.table)
      .Set("latency_micros", wall_micros)
      .Set("rows_scanned", static_cast<int64_t>(p.rows_scanned))
      .Set("rows_matched", static_cast<int64_t>(p.rows_matched))
      .Set("blocks_scanned", static_cast<int64_t>(p.blocks_scanned))
      .Set("blocks_time_pruned", static_cast<int64_t>(p.blocks_time_pruned))
      .Set("blocks_zone_pruned", static_cast<int64_t>(p.blocks_zone_pruned))
      .Set("bytes_decoded", static_cast<int64_t>(p.bytes_decoded))
      .Set("leaves_total", static_cast<int64_t>(p.leaves_total))
      .Set("leaves_responded", static_cast<int64_t>(p.leaves_responded));
  if (p.restore_wait_micros > 0 || p.blocks_restored_on_demand > 0) {
    row.Set("restore_wait_micros", p.restore_wait_micros)
        .Set("blocks_restored_on_demand",
             static_cast<int64_t>(p.blocks_restored_on_demand));
  }
  if (p.deadline_micros > 0 || p.deadline_exceeded > 0) {
    row.Set("deadline_micros", p.deadline_micros)
        .Set("deadline_exceeded", static_cast<int64_t>(p.deadline_exceeded));
  }
  if (!p.unavailable_detail.empty()) {
    std::string detail;
    for (const std::string& d : p.unavailable_detail) {
      if (!detail.empty()) detail += "; ";
      detail += d;
    }
    row.Set("unavailable_detail", std::move(detail));
  }
  if (exporter->ExportSystemRow(obs::kQueriesTableName, std::move(row)).ok()) {
    metrics.slow_queries_logged->Add(1);
  }
}

obs::StatsExporter* Aggregator::FindQueryRowExporter() {
  for (LeafServer* leaf : leaves_) {
    if (leaf->stats_exporter() != nullptr && leaf->IsAlive()) {
      return leaf->stats_exporter();
    }
  }
  return nullptr;
}

void Aggregator::RecordShedQuery(const Query& query, uint64_t query_id,
                                 int64_t queue_wait_micros) {
  {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    ++panel_.shed;
  }
  obs::StatsExporter* exporter = FindQueryRowExporter();
  if (exporter == nullptr) return;
  // latency_micros for a shed query is the time it spent waiting for a
  // slot that never came — what its user actually experienced.
  Row row;
  row.Set("kind", std::string("shed"))
      .Set("query_id", static_cast<int64_t>(query_id))
      .Set("fingerprint", query.Fingerprint())
      .Set("table", query.table)
      .Set("latency_micros", queue_wait_micros)
      .Set("shed", static_cast<int64_t>(1));
  if (exporter->ExportSystemRow(obs::kQueriesTableName, std::move(row)).ok()) {
    AggregatorMetrics::Get().slow_queries_logged->Add(1);
  }
}

double Aggregator::AvailableFraction() const {
  if (leaves_.empty()) return 1.0;
  size_t available = 0;
  for (LeafServer* leaf : leaves_) {
    if (leaf->CanAcceptQueries()) ++available;
  }
  return static_cast<double>(available) / static_cast<double>(leaves_.size());
}

}  // namespace scuba
