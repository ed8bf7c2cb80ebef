// E12 — Parallel copy engine for shutdown/restore (§4.2: recovery from
// shared memory is "limited only by memory bandwidth"; one memcpy stream
// does not saturate a multi-channel memory system).
//
// Sweeps copy threads in {1, 2, 4, 8} over both directions on the same
// leaf and reports GB/s plus the peak footprint against the §4.4 budget
// bound: live data + the in-flight byte budget (+ small bookkeeping
// slack). The footprint assertion runs unconditionally; the speedup is
// hardware-dependent (a single-core host serializes the workers and shows
// ~1x — expect >=2x at 4 threads on a real multi-core machine).

#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "core/footprint.h"
#include "core/restart_manager.h"
#include "core/shutdown.h"
#include "obs/metrics.h"
#include "shm/shm_segment.h"

namespace scuba {
namespace {

using bench_util::BenchEnv;
using bench_util::FillLeafToBytes;
using bench_util::JsonWriter;
using bench_util::MiB;
using bench_util::Rate;

constexpr uint64_t kLeafTargetBytes = 128ull << 20;
constexpr uint64_t kSlackBytes = 8ull << 20;  // headers/meta/alignment

struct LeafShape {
  uint64_t live_bytes = 0;
  uint64_t max_column_bytes = 0;   // shutdown's budget unit
  uint64_t max_block_bytes = 0;    // restore's budget unit
};

LeafShape ShapeOf(const LeafMap& leaf_map) {
  LeafShape shape;
  shape.live_bytes = leaf_map.TotalMemoryBytes();
  for (const std::string& name : leaf_map.TableNames()) {
    const Table* table = leaf_map.GetTable(name);
    for (size_t b = 0; b < table->num_row_blocks(); ++b) {
      const RowBlock* block = table->row_block(b);
      if (block == nullptr) continue;
      uint64_t block_payload = 0;
      for (size_t c = 0; c < block->num_columns(); ++c) {
        uint64_t bytes = block->column(c)->total_bytes();
        shape.max_column_bytes = std::max(shape.max_column_bytes, bytes);
        block_payload += bytes;
      }
      shape.max_block_bytes = std::max(shape.max_block_bytes, block_payload);
    }
  }
  return shape;
}

struct Sample {
  uint64_t bytes = 0;
  int64_t micros = 0;
  uint64_t peak = 0;
  uint64_t bound = 0;
  bool within = false;
};

int Run(const std::string& json_path) {
  BenchEnv env("e6");
  JsonWriter json("parallel_copy");

  std::printf("E12: parallel copy engine, threads x {shutdown, restore}\n");
  std::printf("footprint bound = live/segment bytes + in-flight budget "
              "+ %.0f MiB slack (threads=1: one copy unit)\n\n",
              MiB(kSlackBytes));
  std::printf("%8s %10s %14s %12s %12s %12s %8s\n", "threads", "dir",
              "GiB/s", "peak_MiB", "bound_MiB", "budget_MiB", "ok");

  double shutdown_base_rate = 0;
  double restore_base_rate = 0;
  double shutdown_4t_rate = 0;
  double restore_4t_rate = 0;
  bool all_within = true;

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LeafMap leaf_map;
    FillLeafToBytes(&leaf_map, kLeafTargetBytes);
    LeafShape shape = ShapeOf(leaf_map);

    // --- Shutdown direction -------------------------------------------
    ShutdownOptions soptions;
    soptions.namespace_prefix = env.prefix();
    soptions.num_copy_threads = threads;
    uint64_t sbudget = threads > 1 ? threads * shape.max_column_bytes
                                   : shape.max_column_bytes;
    FootprintTracker stracker;
    ShutdownStats sstats;
    if (!ShutdownToShm(&leaf_map, soptions, &sstats, &stracker).ok()) {
      std::fprintf(stderr, "shutdown failed (threads=%zu)\n", threads);
      return 1;
    }
    Sample sh;
    sh.bytes = sstats.bytes_copied;
    sh.micros = sstats.elapsed_micros;
    sh.peak = stracker.peak();
    sh.bound = shape.live_bytes + sbudget + kSlackBytes;
    sh.within = sh.peak <= sh.bound;
    double srate = Rate(sh.bytes, sh.micros);
    if (threads == 1) shutdown_base_rate = srate;
    if (threads == 4) shutdown_4t_rate = srate;
    std::printf("%8zu %10s %14.2f %12.0f %12.0f %12.0f %8s\n", threads,
                "shutdown", srate / (1 << 30), MiB(sh.peak), MiB(sh.bound),
                MiB(sbudget), sh.within ? "yes" : "NO");

    // --- Restore direction --------------------------------------------
    uint64_t shm_bytes =
        TotalShmBytes("/" + env.prefix() + "_leaf_0_");
    RestartConfig rconfig;
    rconfig.namespace_prefix = env.prefix();
    rconfig.num_copy_threads = threads;
    uint64_t rbudget = threads > 1 ? threads * shape.max_block_bytes
                                   : shape.max_block_bytes;
    FootprintTracker rtracker;
    RestoreStats rstats;
    LeafMap restored;
    if (!RestoreFromShm(&restored, rconfig, &rstats, &rtracker).ok()) {
      std::fprintf(stderr, "restore failed (threads=%zu)\n", threads);
      return 1;
    }
    Sample re;
    re.bytes = rstats.bytes_copied;
    re.micros = rstats.elapsed_micros;
    re.peak = rtracker.peak();
    re.bound = shm_bytes + rbudget + kSlackBytes;
    re.within = re.peak <= re.bound;
    double rrate = Rate(re.bytes, re.micros);
    if (threads == 1) restore_base_rate = rrate;
    if (threads == 4) restore_4t_rate = rrate;
    std::printf("%8zu %10s %14.2f %12.0f %12.0f %12.0f %8s\n", threads,
                "restore", rrate / (1 << 30), MiB(re.peak), MiB(re.bound),
                MiB(rbudget), re.within ? "yes" : "NO");

    all_within = all_within && sh.within && re.within;

    for (const auto& [dir, sample, rate, budget] :
         {std::tuple{"shutdown", sh, srate, sbudget},
          std::tuple{"restore", re, rrate, rbudget}}) {
      json.Row();
      json.Field("direction", std::string(dir));
      json.Field("threads", threads);
      json.Field("bytes_copied", sample.bytes);
      json.Field("elapsed_micros", sample.micros);
      json.Field("bytes_per_sec", rate);
      json.Field("peak_footprint_bytes", sample.peak);
      json.Field("footprint_bound_bytes", sample.bound);
      json.Field("in_flight_budget_bytes", budget);
      json.Field("within_bound", sample.within);
    }

    // Drop restored state and leftover segments before the next config.
    ShmSegment::RemoveAll("/" + env.prefix() + "_leaf_0_");
  }

  unsigned cores = std::thread::hardware_concurrency();
  std::printf("\nscaling at 4 threads vs 1 (host has %u core%s):\n", cores,
              cores == 1 ? "" : "s");
  std::printf("  shutdown: %.2f -> %.2f GiB/s (%.2fx)\n",
              shutdown_base_rate / (1 << 30), shutdown_4t_rate / (1 << 30),
              shutdown_base_rate > 0 ? shutdown_4t_rate / shutdown_base_rate
                                     : 0.0);
  std::printf("  restore:  %.2f -> %.2f GiB/s (%.2fx)\n",
              restore_base_rate / (1 << 30), restore_4t_rate / (1 << 30),
              restore_base_rate > 0 ? restore_4t_rate / restore_base_rate
                                    : 0.0);
  if (cores <= 1) {
    std::printf("  NOTE: single-core host — workers serialize; run on a "
                "multi-core machine to see the >=2x target.\n");
  }
  if (!all_within) {
    std::fprintf(stderr, "FOOTPRINT BUDGET EXCEEDED (see table above)\n");
    return 1;
  }
  std::printf("  footprint: within budget bound in every configuration\n");

  json.Section("metrics", obs::MetricsRegistry::Global().ToJson());
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace scuba

int main(int argc, char** argv) {
  return scuba::Run(scuba::bench_util::JsonPathFromArgs(argc, argv));
}
