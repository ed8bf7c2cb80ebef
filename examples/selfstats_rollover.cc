// "Scuba monitors Scuba": the cluster's own restart history lives in the
// reserved __scuba_restarts table on every leaf, queryable through the
// normal aggregator fan-out — and because the table rides the
// shared-memory handoff, a rolling upgrade does not erase it. This demo
// (and CI smoke) proves the loop end to end:
//
//   1. start a mini-cluster with self-stats on; every leaf writes a
//      generation-1 restore row,
//   2. query the restart rows through the aggregator (non-zero BEFORE),
//   3. roll the cluster through shared memory, with the heartbeat-fed
//      dashboard view,
//   4. query again: the generation-1 rows are still there, joined by
//      generation-2 rows (non-zero AFTER, strictly more than before).
//
// Exits non-zero if any step fails — ci/check.sh runs it as the
// self-stats smoke leg.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "cluster/dashboard.h"
#include "ingest/row_generator.h"
#include "obs/stats_exporter.h"

namespace scuba {
namespace {

double CountRestartRows(Aggregator& aggregator) {
  Query q;
  q.table = obs::kRestartsTableName;
  q.aggregates = {Count()};
  auto result = aggregator.Execute(q);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return -1;
  }
  auto rows = result->Finalize({Count()});
  return rows.empty() ? 0.0 : rows[0].aggregates[0];
}

int Run() {
  ClusterConfig config;
  config.num_machines = 1;
  config.leaves_per_machine = 2;
  config.namespace_prefix =
      "scuba_selfstats_demo_" + std::to_string(getpid());
  config.backup_root =
      "/tmp/" + config.namespace_prefix;
  config.self_stats_enabled = true;

  Cluster cluster(config);
  if (!cluster.Start().ok()) return 1;

  RowGenerator gen;
  cluster.log().AppendBatch("requests", gen.NextBatch(4000));
  cluster.AddTailer("requests");
  auto pumped = cluster.PumpTailers(true);
  if (!pumped.ok() || *pumped != 4000) return 1;

  double before = CountRestartRows(cluster.aggregator());
  std::printf("restart rows in __scuba_restarts before rollover: %.0f\n",
              before);
  if (before <= 0) {
    std::fprintf(stderr, "FAIL: no restart rows before rollover\n");
    return 1;
  }

  RealRolloverOptions options;
  options.batch_fraction = 0.5;
  auto report = cluster.Rollover(options);
  if (!report.ok()) {
    std::fprintf(stderr, "rollover failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\nrollover dashboard (heartbeat-fed live phases):\n%s\n",
              Dashboard::RenderDetailed(report->timeline).c_str());
  if (report->shm_recoveries != cluster.num_leaves()) {
    std::fprintf(stderr, "FAIL: expected every leaf to recover via shm\n");
    return 1;
  }

  double after = CountRestartRows(cluster.aggregator());
  std::printf("restart rows in __scuba_restarts after rollover:  %.0f\n",
              after);
  if (after <= before) {
    std::fprintf(stderr,
                 "FAIL: restart history did not survive the rollover "
                 "(before=%.0f after=%.0f)\n", before, after);
    return 1;
  }

  std::printf("\nOK: generation-1 restart history survived the restart; "
              "generation 2 appended its own rows.\n");
  cluster.Cleanup();
  return 0;
}

}  // namespace
}  // namespace scuba

int main() { return scuba::Run(); }
