// E3 — Shutdown-to-shm and restore-from-shm cost (paper §4.3, Fig 6/7).
//
// "Usually, the leaf copies its data to shared memory and exits in 3-4
// seconds" and memory recovery "takes a few seconds per leaf". Both are
// linear memcpy-bound passes. This harness sweeps leaf sizes, measures
// both directions, reports per-byte rates, and extrapolates to the paper's
// 10-15 GB leaf to check the 3-4 s claim's shape.

#include <cstdio>

#include "bench_util.h"
#include "core/restart_manager.h"
#include "core/shutdown.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/leaf_server.h"
#include "shm/shm_segment.h"
#include "util/crc32c.h"

namespace scuba {
namespace {

using bench_util::BenchEnv;
using bench_util::FillLeafToBytes;
using bench_util::JsonWriter;
using bench_util::MiB;
using bench_util::Rate;

int Run(const std::string& json_path, bool smoke) {
  BenchEnv env("e3");
  JsonWriter json("shutdown_restore");

  std::printf("E3: shutdown/restore via shared memory (paper §4.3: copy out "
              "in 3-4 s for 10-15 GB)\n\n");
  std::printf("%10s %14s %14s %14s %14s %14s %10s\n", "leaf_MiB",
              "shutdown_ms", "out_GiB/s", "restore_ms", "back_GiB/s",
              "unverif_ms", "verify_x");

  std::vector<uint64_t> targets = {16ull << 20, 64ull << 20, 256ull << 20};
  if (smoke) targets = {4ull << 20};

  double last_out_rate = 0;
  double last_back_rate = 0;
  double last_unverified_rate = 0;
  std::string shutdown_trace_json;
  std::string restore_trace_json;
  // One shutdown of `leaf_map` to shm and restore into `restored`. The
  // restore checks every column's CRC32C when `verify`, as LeafServer does
  // by default; the verified round trip's timelines go into the artifact.
  auto round_trip = [&](LeafMap* leaf_map, bool verify, LeafMap* restored,
                        ShutdownStats* sstats, RestoreStats* rstats) {
    obs::PhaseTracer shutdown_tracer;
    ShutdownOptions soptions;
    soptions.namespace_prefix = env.prefix();
    soptions.tracer = &shutdown_tracer;
    if (!ShutdownToShm(leaf_map, soptions, sstats).ok()) return false;

    obs::PhaseTracer restore_tracer;
    RestartConfig rconfig;
    rconfig.namespace_prefix = env.prefix();
    rconfig.restore.verify_checksums = verify;
    rconfig.restore.tracer = &restore_tracer;
    if (!RestoreFromShm(restored, rconfig, rstats).ok()) return false;
    if (verify) {
      shutdown_trace_json = shutdown_tracer.ToJson();
      restore_trace_json = restore_tracer.ToJson();
    }
    return true;
  };
  for (uint64_t target : targets) {
    LeafMap leaf_map;
    uint64_t bytes = FillLeafToBytes(&leaf_map, target);

    // The server's configuration first, then the same data again with the
    // checksum off: the gap between the two restores is what verification
    // costs.
    ShutdownStats sstats;
    RestoreStats rstats;
    LeafMap restored;
    ShutdownStats unverified_sstats;
    RestoreStats unverified_rstats;
    LeafMap unverified_restored;
    if (!round_trip(&leaf_map, true, &restored, &sstats, &rstats) ||
        !round_trip(&restored, false, &unverified_restored,
                    &unverified_sstats, &unverified_rstats)) {
      return 1;
    }

    last_out_rate = Rate(sstats.bytes_copied, sstats.elapsed_micros);
    last_back_rate = Rate(rstats.bytes_copied, rstats.elapsed_micros);
    last_unverified_rate = Rate(unverified_rstats.bytes_copied,
                                unverified_rstats.elapsed_micros);
    const double verify_x =
        unverified_rstats.elapsed_micros <= 0
            ? 0.0
            : static_cast<double>(rstats.elapsed_micros) /
                  static_cast<double>(unverified_rstats.elapsed_micros);
    std::printf("%10.0f %14.1f %14.2f %14.1f %14.2f %14.1f %10.2f\n",
                MiB(bytes), sstats.elapsed_micros / 1000.0,
                last_out_rate / (1 << 30), rstats.elapsed_micros / 1000.0,
                last_back_rate / (1 << 30),
                unverified_rstats.elapsed_micros / 1000.0, verify_x);

    json.Row();
    json.Field("case", std::string("roundtrip"));
    json.Field("leaf_bytes", bytes);
    json.Field("shutdown_micros", sstats.elapsed_micros.load());
    json.Field("shutdown_bytes_per_sec", last_out_rate);
    json.Field("restore_micros", rstats.elapsed_micros.load());
    json.Field("restore_bytes_per_sec", last_back_rate);
    json.Field("verify_micros", rstats.verify_micros.load());
    json.Row();
    json.Field("case", std::string("roundtrip_unverified"));
    json.Field("leaf_bytes", bytes);
    json.Field("shutdown_micros", unverified_sstats.elapsed_micros.load());
    json.Field("shutdown_bytes_per_sec",
               Rate(unverified_sstats.bytes_copied,
                    unverified_sstats.elapsed_micros));
    json.Field("restore_micros", unverified_rstats.elapsed_micros.load());
    json.Field("restore_bytes_per_sec", last_unverified_rate);
  }
  std::printf("(restore_ms checks every column's CRC32C (crc32c path: %s), "
              "as the server does;\n unverif_ms restores the same data "
              "with the check off; verify_x = restore_ms / unverif_ms)\n\n",
              crc32c::ActivePathName());

  // Ablation: Fig 6's "estimate size of table". Underestimates pay
  // segment grows (ftruncate + mremap); overestimates are truncated free
  // of charge at Finish. The factor barely matters — which is why the
  // paper can use a simple estimate.
  const uint64_t ablation_bytes = smoke ? 8ull << 20 : 128ull << 20;
  std::printf("\nsize-estimate ablation (%.0f MiB leaf):\n",
              MiB(ablation_bytes));
  std::printf("%18s %14s %14s\n", "estimate_factor", "shutdown_ms",
              "segment_grows");
  for (double factor : {0.1, 0.5, 1.05, 2.0}) {
    LeafMap leaf_map;
    FillLeafToBytes(&leaf_map, ablation_bytes);
    ShutdownOptions soptions;
    soptions.namespace_prefix = env.prefix();
    soptions.leaf_id = 7;
    soptions.size_estimate_factor = factor;
    ShutdownStats sstats;
    if (!ShutdownToShm(&leaf_map, soptions, &sstats).ok()) return 1;
    std::printf("%18.2f %14.1f %14llu\n", factor,
                sstats.elapsed_micros / 1000.0,
                static_cast<unsigned long long>(sstats.segment_grow_count));
    json.Row();
    json.Field("case", std::string("estimate_ablation"));
    json.Field("estimate_factor", factor);
    json.Field("shutdown_micros", sstats.elapsed_micros.load());
    json.Field("segment_grows", sstats.segment_grow_count.load());
    ShmSegment::RemoveAll("/" + env.prefix() + "_leaf_7_");
  }

  double leaf_bytes = 12.0 * (1 << 30);
  std::printf("\nextrapolation to a 12 GB production leaf (measured rates):\n");
  std::printf("  shutdown copy-out: %5.1f s   (paper: 3-4 s)\n",
              leaf_bytes / last_out_rate);
  std::printf("  restore copy-back: %5.1f s   (paper: \"a few seconds\"; "
              "%.1f s unverified)\n",
              leaf_bytes / last_back_rate, leaf_bytes / last_unverified_rate);

  // E14 — self-stats exporter overhead on the restart path. The exporter
  // ("Scuba monitors Scuba") runs at a 1 s period while the leaf ingests,
  // is flushed + stopped before PREPARE, and its __scuba_stats rows ride
  // the shm handoff like any other table. The claim to check: enabling it
  // costs < 1% of shutdown/restore throughput.
  std::printf("\nE14: self-stats exporter overhead (1 s period):\n");
  std::printf("%12s %14s %14s %14s\n", "self_stats", "shutdown_ms",
              "out_GiB/s", "restore_ms");
  {
    // 8-batch smoke shutdowns finish in ~300 us, where the fixed per-table
    // cost of the (tiny) __scuba_stats table reads as a double-digit
    // throughput delta; 32 batches keeps smoke fast but amortizes it.
    const size_t batches = smoke ? 32 : 64;
    double out_rate[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      const bool self_stats = mode == 1;
      // Best-of-3: a millisecond-scale shutdown is at the scheduler's
      // mercy, and the delta below is a difference of two such timings;
      // each mode's best rep is its comparable capability.
      int64_t best_shutdown = 0, best_restore = 0;
      double best_back = 0;
      for (int rep = 0; rep < 3; ++rep) {
        LeafServerConfig lc;
        lc.leaf_id = 40 + static_cast<uint32_t>(mode * 3 + rep);
        lc.namespace_prefix = env.prefix();
        lc.self_stats_enabled = self_stats;
        lc.self_stats_period_millis = 1000;
        LeafServer leaf(lc);
        if (!leaf.Start().ok()) return 1;
        RowGenerator gen;
        for (size_t b = 0; b < batches; ++b) {
          if (!leaf.AddRows("e14", gen.NextBatch(4096)).ok()) return 1;
        }
        ShutdownStats sstats;
        if (!leaf.ShutdownToSharedMemory(&sstats).ok()) return 1;

        LeafServerConfig successor_config = lc;
        LeafServer successor(successor_config);
        auto recovery = successor.Start();
        if (!recovery.ok() ||
            recovery->source != RecoverySource::kSharedMemory) {
          return 1;
        }
        const RestoreStats& rstats = successor.last_recovery().shm_stats;
        double rate = Rate(sstats.bytes_copied, sstats.elapsed_micros);
        if (rate > out_rate[mode]) {
          out_rate[mode] = rate;
          best_shutdown = sstats.elapsed_micros.load();
          best_restore = rstats.elapsed_micros.load();
          best_back = Rate(rstats.bytes_copied, rstats.elapsed_micros);
        }
      }
      std::printf("%12s %14.1f %14.2f %14.1f\n", self_stats ? "on" : "off",
                  best_shutdown / 1000.0, out_rate[mode] / (1 << 30),
                  best_restore / 1000.0);
      json.Row();
      json.Field("case", std::string("exporter_overhead"));
      json.Field("self_stats", self_stats);
      json.Field("shutdown_micros", best_shutdown);
      json.Field("shutdown_bytes_per_sec", out_rate[mode]);
      json.Field("restore_micros", best_restore);
      json.Field("restore_bytes_per_sec", best_back);
    }
    double overhead_pct =
        out_rate[0] <= 0 ? 0.0
                         : (out_rate[0] - out_rate[1]) / out_rate[0] * 100.0;
    std::printf("  shutdown throughput delta with exporter on: %+.2f%% "
                "(target < 1%%)\n", overhead_pct);
    json.Row();
    json.Field("case", std::string("exporter_overhead_delta"));
    json.Field("shutdown_throughput_delta_pct", overhead_pct);
  }

  // E19 — flight-recorder overhead on the restart path. The crash-surviving
  // ring gets one record per phase transition and two per table copy plus a
  // CRC over 120 bytes each — noise against a memcpy of the whole leaf. The
  // claim to check: enabling it costs < 1% of shutdown throughput.
  std::printf("\nE19: flight-recorder overhead on the shutdown path:\n");
  std::printf("%12s %14s %14s %14s\n", "recorder", "shutdown_ms",
              "out_GiB/s", "restore_ms");
  {
    // 8-batch smoke shutdowns finish in ~300 us, where the fixed per-table
    // cost of the (tiny) __scuba_stats table reads as a double-digit
    // throughput delta; 32 batches keeps smoke fast but amortizes it.
    const size_t batches = smoke ? 32 : 64;
    double out_rate[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      const bool recorder = mode == 1;
      // Best-of-3, same rationale as E14.
      int64_t best_shutdown = 0, best_restore = 0;
      double best_back = 0;
      for (int rep = 0; rep < 3; ++rep) {
        LeafServerConfig lc;
        lc.leaf_id = 50 + static_cast<uint32_t>(mode * 3 + rep);
        lc.namespace_prefix = env.prefix();
        lc.self_stats_enabled = false;
        lc.flight_recorder_enabled = recorder;
        LeafServer leaf(lc);
        if (!leaf.Start().ok()) return 1;
        RowGenerator gen;
        for (size_t b = 0; b < batches; ++b) {
          if (!leaf.AddRows("e19", gen.NextBatch(4096)).ok()) return 1;
        }
        ShutdownStats sstats;
        if (!leaf.ShutdownToSharedMemory(&sstats).ok()) return 1;

        LeafServerConfig successor_config = lc;
        LeafServer successor(successor_config);
        auto recovery = successor.Start();
        if (!recovery.ok() ||
            recovery->source != RecoverySource::kSharedMemory) {
          return 1;
        }
        const RestoreStats& rstats = successor.last_recovery().shm_stats;
        double rate = Rate(sstats.bytes_copied, sstats.elapsed_micros);
        if (rate > out_rate[mode]) {
          out_rate[mode] = rate;
          best_shutdown = sstats.elapsed_micros.load();
          best_restore = rstats.elapsed_micros.load();
          best_back = Rate(rstats.bytes_copied, rstats.elapsed_micros);
        }
      }
      std::printf("%12s %14.1f %14.2f %14.1f\n", recorder ? "on" : "off",
                  best_shutdown / 1000.0, out_rate[mode] / (1 << 30),
                  best_restore / 1000.0);
      json.Row();
      json.Field("case", std::string("recorder_overhead"));
      json.Field("flight_recorder", recorder);
      json.Field("shutdown_micros", best_shutdown);
      json.Field("shutdown_bytes_per_sec", out_rate[mode]);
      json.Field("restore_micros", best_restore);
      json.Field("restore_bytes_per_sec", best_back);
    }
    double overhead_pct =
        out_rate[0] <= 0 ? 0.0
                         : (out_rate[0] - out_rate[1]) / out_rate[0] * 100.0;
    std::printf("  shutdown throughput delta with recorder on: %+.2f%% "
                "(target < 1%%)\n", overhead_pct);
    json.Row();
    json.Field("case", std::string("recorder_overhead_delta"));
    json.Field("shutdown_throughput_delta_pct", overhead_pct);
  }

  if (!json_path.empty()) {
    json.Section("schema_version",
                 std::to_string(kRestartReportSchemaVersion));
    json.Section("metrics", obs::MetricsRegistry::Global().ToJson());
    json.Section("shutdown_trace", shutdown_trace_json);
    json.Section("restore_trace", restore_trace_json);
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
