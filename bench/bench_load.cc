// E18 — the heavy-traffic load harness and the live SLO loop.
//
// Scuba is "the data management system Facebook uses for most real-time
// analysis" (§1): the restart machinery in E3-E6 only matters because the
// cluster is under continuous query load while it happens. This harness
// drives an in-process mini-cluster OPEN-LOOP — Poisson arrivals at a
// target QPS over a zipf-popular query deck, latency measured from the
// SCHEDULED arrival time — so overload shows up as growing latency and
// shed queries instead of being hidden by a back-pressured generator
// (the coordinated-omission trap).
//
// Three parts:
//  1. A latency/throughput curve: stepped target QPS, per-step
//     p50/p95/p99, while tailers keep ingesting.
//  2. Overdrive: the cluster pushed past capacity until the SLO tracker
//     trips overload and the admission controller sheds.
//  3. A monitored rollover mid-load: every leaf round-trips through
//     shared memory while the open-loop schedule keeps firing.
//
// `--smoke` runs a ~5 s self-checking leg for CI: overdriven past
// capacity, asserting that at least one query sheds, that `__scuba_slo`
// rows are queryable through the aggregator, and that every non-shed,
// non-truncated result is digest-identical to an unloaded run.
//
// Caveat for absolute numbers: this is one process on (typically) one or
// few cores, so "capacity" here is orders of magnitude below a real tier;
// the SHAPE of the curve (flat, knee, collapse-into-shedding) is the
// reproducible object, not the QPS values.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "cluster/dashboard.h"
#include "core/restart_manager.h"
#include "ingest/row_generator.h"
#include "load/load_driver.h"
#include "obs/metrics.h"
#include "obs/stats_exporter.h"
#include "query/result_digest.h"
#include "util/clock.h"

namespace scuba {
namespace {

using bench_util::BenchEnv;
using bench_util::JsonWriter;

constexpr const char* kTable = "requests";

/// The query deck, hot to cold: a production-like mix of cheap counters
/// and expensive wide group-bys. All entries carry the same FROZEN time
/// range covering only the preloaded rows, so results are bit-stable even
/// while tailers append new (later-timestamped) rows mid-run.
std::vector<LoadDeckEntry> BuildDeck(int64_t begin_time, int64_t end_time) {
  auto base = [&] {
    Query q;
    q.table = kTable;
    q.begin_time = begin_time;
    q.end_time = end_time;
    return q;
  };
  std::vector<LoadDeckEntry> deck;

  Query count = base();
  count.aggregates = {Count()};
  deck.push_back({count, "count"});

  Query errors = base();
  errors.predicates = {{"status", CompareOp::kGe, Value(int64_t{500})}};
  errors.aggregates = {Count(), Avg("latency_ms")};
  deck.push_back({errors, "errors"});

  Query by_service = base();
  by_service.group_by = {"service"};
  by_service.aggregates = {Count(), Avg("latency_ms")};
  deck.push_back({by_service, "by_service"});

  Query by_endpoint = base();
  by_endpoint.group_by = {"endpoint"};
  by_endpoint.aggregates = {Count(), P99("latency_ms")};
  deck.push_back({by_endpoint, "by_endpoint"});

  Query by_host = base();
  by_host.group_by = {"host"};
  by_host.aggregates = {Count(), Avg("latency_ms"), Sum("bytes_out")};
  deck.push_back({by_host, "by_host"});

  return deck;
}

/// Runs `driver` on its own thread while the main thread keeps tailers
/// ingesting fresh rows — load and ingest genuinely concurrent, as in
/// production. Returns once the whole schedule has completed.
void RunWithIngest(Cluster* cluster, RowGenerator* gen, LoadDriver* driver) {
  std::atomic<bool> done{false};
  std::thread load([&] {
    driver->Run(&cluster->aggregator());
    done.store(true);
  });
  while (!done.load()) {
    cluster->log().AppendBatch(kTable, gen->NextBatch(1000));
    if (!cluster->PumpTailers().ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  load.join();
}

void PrintSummary(const char* label, double target_qps,
                  const LoadSummary& s) {
  std::printf("%-16s target %6.0f qps | achieved %7.1f | ok %5llu shed "
              "%4llu err %3llu ddl %3llu | p50 %6.2f ms p95 %7.2f p99 "
              "%7.2f max %8.2f\n",
              label, target_qps, s.achieved_qps,
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.errors),
              static_cast<unsigned long long>(s.deadline_exceeded_leaves),
              s.p50_micros / 1e3, s.p95_micros / 1e3, s.p99_micros / 1e3,
              s.max_micros / 1e3);
}

void JsonPhase(JsonWriter* json, const std::string& phase, double target_qps,
               const LoadSummary& s) {
  json->Row();
  json->Field("phase", phase);
  json->Field("target_qps", target_qps);
  json->Field("achieved_qps", s.achieved_qps);
  json->Field("attempted", s.attempted);
  json->Field("ok", s.ok);
  json->Field("shed", s.shed);
  json->Field("errors", s.errors);
  json->Field("deadline_exceeded", s.deadline_exceeded_leaves);
  json->Field("p50_micros", s.p50_micros);
  json->Field("p95_micros", s.p95_micros);
  json->Field("p99_micros", s.p99_micros);
  json->Field("max_micros", s.max_micros);
}

/// Count(*) of a (system) table through the aggregator; -1 on error.
double TableCount(Aggregator* aggregator, const char* table) {
  Query q;
  q.table = table;
  q.aggregates = {Count()};
  auto result = aggregator->Execute(q);
  if (!result.ok()) return -1.0;
  auto rows = result->Finalize({Count()});
  return rows.empty() ? 0.0 : rows[0].aggregates[0];
}

struct Setup {
  std::unique_ptr<Cluster> cluster;
  RowGenerator gen;
  std::vector<LoadDeckEntry> deck;
};

/// Closed-loop capacity probe: `workers` threads execute the deck
/// round-robin as fast as the aggregator answers, for `duration_micros`.
/// Returns completed-ok queries per second — the number the health
/// engine's own queries would steal from if evaluation were expensive.
double ClosedLoopQps(Cluster* cluster, const std::vector<LoadDeckEntry>& deck,
                     int64_t duration_micros, size_t workers) {
  std::atomic<uint64_t> completed{0};
  const int64_t deadline = SteadyNowMicros() + duration_micros;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      size_t i = w;  // stagger starting deck positions across workers
      while (SteadyNowMicros() < deadline) {
        auto result = cluster->aggregator().Execute(deck[i % deck.size()].query);
        if (result.ok()) completed.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(completed.load()) /
         (static_cast<double>(duration_micros) / 1e6);
}

// E20 — health-engine overhead on query serving. The AlertEngine's rule
// pack runs REAL aggregator queries against the self-hosted tables; the
// claim to check is that a background monitor evaluating continuously
// costs ~nothing against the workload's serving capacity (system tables
// are a few hundred rows; workload blocks are the expensive part). Two
// fresh clusters, identical preload, closed-loop capacity probe each
// (after an untimed warm-up probe): mode 0 without a monitor, mode 1 with
// the evaluation thread at an aggressive period.
int RunHealthOverheadLeg(BenchEnv* env, JsonWriter* json, bool smoke) {
  std::printf("\n--- E20: health-engine overhead on serving capacity ---\n");
  std::printf("%12s %14s %14s %12s\n", "health", "qps", "evaluations",
              "rule_errors");
  const int64_t duration_micros = smoke ? 1'200'000 : 3'000'000;
  double out_rate[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    const bool health = mode == 1;
    ClusterConfig config;
    config.num_machines = 1;
    config.leaves_per_machine = 4;
    // Own namespace: the smoke cluster is still alive under env->prefix()
    // (same leaf ids); BenchEnv's prefix-scoped scrub still covers this.
    config.namespace_prefix = env->prefix() + "e20";
    config.backup_root =
        env->dir() + "/e20_" + (health ? "on" : "off");
    config.self_stats_enabled = true;
    config.self_stats_period_millis = 250;  // keep the judged tables live
    config.health_monitor_enabled = health;
    config.health_period_millis = 25;  // far hotter than any deployment
    Cluster cluster(config);
    if (!cluster.Start().ok()) return 1;

    RowGenerator gen;
    const size_t preload = smoke ? 16'000 : 48'000;
    cluster.log().AppendBatch(kTable, gen.NextBatch(preload));
    cluster.AddTailer(kTable, 512);
    if (!cluster.PumpTailers(true).ok()) return 1;
    const int64_t begin_time = gen.config().start_time;
    const int64_t end_time =
        gen.current_time() - gen.config().time_jitter_seconds - 1;
    std::vector<LoadDeckEntry> deck = BuildDeck(begin_time, end_time);

    const uint64_t errors_before = obs::MetricsRegistry::Global()
                                       .GetCounter("scuba.obs.health.rule_errors")
                                       ->Value();
    // Untimed warm-up of the same length: a fresh cluster's first second
    // of closed-loop load can run at a fraction of its steady rate (seen
    // at 0.5-0.7x in either mode, at random), which made the off-vs-on
    // delta read up to +-170%.
    ClosedLoopQps(&cluster, deck, duration_micros, 4);
    out_rate[mode] = ClosedLoopQps(&cluster, deck, duration_micros, 4);
    uint64_t evaluations = 0, rule_errors = 0;
    if (health) {
      evaluations = cluster.health_monitor()->engine().evaluations();
      rule_errors = obs::MetricsRegistry::Global()
                        .GetCounter("scuba.obs.health.rule_errors")
                        ->Value() -
                    errors_before;
      // A healthy loaded cluster must be judged healthy, continuously,
      // without a single failed rule query — otherwise the overhead
      // number is measuring a broken engine, not a working one.
      if (evaluations < 5) {
        std::fprintf(stderr, "E20: monitor barely ran (%llu evaluations)\n",
                     static_cast<unsigned long long>(evaluations));
        return 1;
      }
      if (cluster.health_monitor()->level() != obs::HealthLevel::kOk) {
        std::fprintf(stderr, "E20: loaded cluster judged unhealthy\n");
        return 1;
      }
    }
    std::printf("%12s %14.1f %14llu %12llu\n", health ? "on" : "off",
                out_rate[mode],
                static_cast<unsigned long long>(evaluations),
                static_cast<unsigned long long>(rule_errors));
    json->Row();
    json->Field("section", std::string("health_overhead"));
    json->Field("case", std::string("engine_overhead"));
    json->Field("mode", std::string(health ? "health_on" : "health_off"));
    json->Field("queries_per_sec", out_rate[mode]);
    json->Field("evaluations", evaluations);
    json->Field("rule_errors", rule_errors);
    cluster.Cleanup();
  }
  double overhead_pct =
      out_rate[0] <= 0 ? 0.0
                       : (out_rate[0] - out_rate[1]) / out_rate[0] * 100.0;
  std::printf("  serving throughput delta with health engine on: %+.2f%% "
              "(target < 1%%)\n", overhead_pct);
  json->Row();
  json->Field("section", std::string("health_overhead"));
  json->Field("case", std::string("engine_overhead_delta"));
  json->Field("query_throughput_delta_pct", overhead_pct);
  return 0;
}

Setup MakeLoadedCluster(BenchEnv* env, bool smoke) {
  ClusterConfig config;
  config.num_machines = smoke ? 1 : 2;
  config.leaves_per_machine = 4;
  config.namespace_prefix = env->prefix();
  config.backup_root = env->dir() + "/cluster";
  config.self_stats_enabled = true;
  // The periodic exporter thread stays quiet; the bench drives ExportOnce
  // at the points where it reads the system tables back.
  config.self_stats_period_millis = 3600 * 1000;
  // SLO + the full loop: tracker -> overload -> admission + deadlines.
  // Smoke uses a brutally low SLO so the overdriven run MUST trip it.
  config.slo_target_p99_micros = smoke ? 500 : 5000;
  config.slo_window_seconds = 5;
  config.admission_control_enabled = true;
  config.admission.overload_max_concurrent = smoke ? 1 : 2;
  config.admission.queue_capacity = smoke ? 2 : 8;
  config.admission.max_queue_wait_micros = 20'000;
  config.query_deadline_micros = 50'000;

  Setup setup;
  setup.cluster = std::make_unique<Cluster>(config);
  if (!setup.cluster->Start().ok()) return Setup();

  const size_t preload = smoke ? 24'000 : 48'000;
  setup.cluster->log().AppendBatch(kTable, setup.gen.NextBatch(preload));
  setup.cluster->AddTailer(kTable, 512);
  if (!setup.cluster->PumpTailers(true).ok()) return Setup();

  // Freeze the deck's time range strictly before anything a tailer will
  // deliver from here on (jitter margin included): digest stability.
  const int64_t begin_time = setup.gen.config().start_time;
  const int64_t end_time =
      setup.gen.current_time() - setup.gen.config().time_jitter_seconds - 1;
  setup.deck = BuildDeck(begin_time, end_time);
  return setup;
}

int RunSmoke(BenchEnv* env, const std::string& json_path) {
  std::printf("--- smoke: overdriven 3 s burst, self-checking ---\n");
  Setup setup = MakeLoadedCluster(env, /*smoke=*/true);
  if (setup.cluster == nullptr) return 1;
  Cluster& cluster = *setup.cluster;

  // Unloaded reference pass: one execution per deck entry, digest each.
  std::vector<uint32_t> reference(setup.deck.size(), 0);
  for (size_t i = 0; i < setup.deck.size(); ++i) {
    auto result = cluster.aggregator().Execute(setup.deck[i].query);
    if (!result.ok() || result->profile().deadline_exceeded > 0) {
      std::fprintf(stderr, "smoke: unloaded reference run failed for %s\n",
                   setup.deck[i].label.c_str());
      return 1;
    }
    reference[i] = ResultDigest(*result, setup.deck[i].query.aggregates);
  }

  LoadDriverOptions options;
  options.target_qps = 400.0;  // far past 1-core capacity for this deck
  options.duration_micros = 3'000'000;
  options.num_workers = 4;
  options.record_digests = true;
  options.seed = 18;
  LoadDriver driver(options, setup.deck);
  RunWithIngest(&cluster, &setup.gen, &driver);

  LoadSummary s = LoadDriver::Summarize(driver.records(), 0,
                                        options.duration_micros);
  PrintSummary("smoke", options.target_qps, s);

  int failures = 0;
  if (s.shed == 0) {
    std::fprintf(stderr, "smoke: overdriven run shed nothing — admission "
                         "control never engaged\n");
    ++failures;
  }

  // The SLO windows the tracker built during the burst must be queryable
  // back through the front door after one export cycle.
  if (!cluster.leaf(0)->stats_exporter()->ExportOnce().ok()) ++failures;
  const double slo_rows =
      TableCount(&cluster.aggregator(), obs::kSloTableName);
  if (slo_rows < 1.0) {
    std::fprintf(stderr, "smoke: no __scuba_slo rows queryable (got %.0f)\n",
                 slo_rows);
    ++failures;
  }

  // Digest identity: shedding and deadline-truncation are the ONLY ways
  // load may change an answer. Every ok, untruncated record must match
  // the unloaded reference bit for bit.
  uint64_t compared = 0, mismatched = 0;
  for (const LoadRecord& rec : driver.records()) {
    if (rec.outcome != LoadOutcome::kOk || rec.deadline_exceeded > 0) {
      continue;
    }
    ++compared;
    if (rec.digest != reference[rec.deck_index]) ++mismatched;
  }
  if (compared == 0 || mismatched != 0) {
    std::fprintf(stderr,
                 "smoke: digest check failed (%llu compared, %llu "
                 "mismatched)\n",
                 static_cast<unsigned long long>(compared),
                 static_cast<unsigned long long>(mismatched));
    ++failures;
  }
  std::printf("smoke: %llu shed, %.0f __scuba_slo rows, %llu/%llu digests "
              "identical to unloaded run\n",
              static_cast<unsigned long long>(s.shed), slo_rows,
              static_cast<unsigned long long>(compared - mismatched),
              static_cast<unsigned long long>(compared));

  JsonWriter json("bench_load");
  JsonPhase(&json, "smoke", options.target_qps, s);
  if (RunHealthOverheadLeg(env, &json, /*smoke=*/true) != 0) ++failures;

  if (!json_path.empty()) {
    json.Section("schema_version",
                 std::to_string(kRestartReportSchemaVersion));
    json.Section("metrics", obs::MetricsRegistry::Global().ToJson());
    if (!json.WriteTo(json_path)) ++failures;
  }
  cluster.Cleanup();
  return failures == 0 ? 0 : 1;
}

int RunFull(BenchEnv* env, const std::string& json_path) {
  Setup setup = MakeLoadedCluster(env, /*smoke=*/false);
  if (setup.cluster == nullptr) return 1;
  Cluster& cluster = *setup.cluster;
  JsonWriter json("bench_load");

  // Part 1: the latency/throughput curve. Each step is its own open-loop
  // schedule; tailers ingest throughout.
  std::printf("--- part 1: latency/throughput curve (open-loop, "
              "CO-safe latency) ---\n");
  for (double qps : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    LoadDriverOptions options;
    options.target_qps = qps;
    options.duration_micros = 2'000'000;
    options.num_workers = 4;
    options.seed = static_cast<uint64_t>(qps);
    LoadDriver driver(options, setup.deck);
    RunWithIngest(&cluster, &setup.gen, &driver);
    LoadSummary s = LoadDriver::Summarize(driver.records(), 0,
                                          options.duration_micros);
    PrintSummary("curve", qps, s);
    JsonPhase(&json, "curve", qps, s);
  }

  // Part 2: overdrive until the SLO tracker trips and admission sheds.
  std::printf("\n--- part 2: overdrive past capacity ---\n");
  {
    LoadDriverOptions options;
    options.target_qps = 600.0;
    options.duration_micros = 3'000'000;
    options.num_workers = 4;
    options.seed = 181;
    LoadDriver driver(options, setup.deck);
    RunWithIngest(&cluster, &setup.gen, &driver);
    LoadSummary s = LoadDriver::Summarize(driver.records(), 0,
                                          options.duration_micros);
    PrintSummary("overdrive", options.target_qps, s);
    JsonPhase(&json, "overdrive", options.target_qps, s);

    Dashboard::SloPanelStats panel = Dashboard::CollectSloPanel(
        *cluster.slo_tracker(), cluster.aggregator());
    std::printf("%s", Dashboard::RenderSloPanel(panel).c_str());
  }

  // Part 3: a monitored shared-memory rollover in the middle of the load.
  std::printf("\n--- part 3: rollover under load ---\n");
  {
    LoadDriverOptions options;
    options.target_qps = 50.0;
    options.duration_micros = 8'000'000;
    options.num_workers = 4;
    options.seed = 182;
    LoadDriver driver(options, setup.deck);

    const int64_t t0 = SteadyNowMicros();
    std::atomic<bool> done{false};
    std::thread load([&] {
      driver.Run(&cluster.aggregator());
      done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));

    RealRolloverOptions roll;
    roll.batch_fraction = 0.25;  // 2 of 8 leaves per batch
    const int64_t roll_begin = SteadyNowMicros() - t0;
    auto report = cluster.Rollover(roll);
    const int64_t roll_end = SteadyNowMicros() - t0;
    while (!done.load()) {
      cluster.log().AppendBatch(kTable, setup.gen.NextBatch(1000));
      if (!cluster.PumpTailers().ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    load.join();
    if (!report.ok()) {
      std::fprintf(stderr, "rollover failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("rollover: %zu leaves in %zu batches, %.2f s, min "
                "availability %.1f%%\n",
                report->leaves_rolled, report->num_batches,
                report->total_micros / 1e6, report->min_availability * 100);

    const auto& recs = driver.records();
    LoadSummary before = LoadDriver::Summarize(recs, 0, roll_begin);
    LoadSummary during = LoadDriver::Summarize(recs, roll_begin, roll_end);
    LoadSummary after =
        LoadDriver::Summarize(recs, roll_end, options.duration_micros);
    PrintSummary("pre-rollover", options.target_qps, before);
    PrintSummary("mid-rollover", options.target_qps, during);
    PrintSummary("post-rollover", options.target_qps, after);
    JsonPhase(&json, "rollover_before", options.target_qps, before);
    JsonPhase(&json, "rollover_during", options.target_qps, during);
    JsonPhase(&json, "rollover_after", options.target_qps, after);
  }

  // Part 4: the health engine's cost against serving capacity (E20).
  if (RunHealthOverheadLeg(env, &json, /*smoke=*/false) != 0) return 1;

  // Close with the self-hosted view: export, then read the SLO + shed
  // story back through the aggregator like any dashboard would.
  if (!cluster.leaf(0)->stats_exporter()->ExportOnce().ok()) return 1;
  std::printf("\nself-hosted: %.0f __scuba_slo rows, %.0f __scuba_queries "
              "rows\n",
              TableCount(&cluster.aggregator(), obs::kSloTableName),
              TableCount(&cluster.aggregator(), obs::kQueriesTableName));

  if (!json_path.empty()) {
    json.Section("schema_version",
                 std::to_string(kRestartReportSchemaVersion));
    json.Section("metrics", obs::MetricsRegistry::Global().ToJson());
    if (!json.WriteTo(json_path)) return 1;
  }
  cluster.Cleanup();
  return 0;
}

}  // namespace
}  // namespace scuba

int main(int argc, char** argv) {
  scuba::bench_util::BenchEnv env("e18");
  const std::string json_path =
      scuba::bench_util::JsonPathFromArgs(argc, argv);
  const bool smoke = scuba::bench_util::FlagFromArgs(argc, argv, "--smoke");
  std::printf("E18: open-loop load harness + SLO loop "
              "(deadlines, shedding, rollover under load)\n\n");
  return smoke ? scuba::RunSmoke(&env, json_path)
               : scuba::RunFull(&env, json_path);
}
