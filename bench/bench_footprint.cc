// E8 — Memory footprint during the handoff (paper §4.4):
//
//   "There is still not enough physical memory free to allocate enough
//    space for it in shared memory, copy it all, and then free it from
//    the heap. Instead, we copy data gradually, allocating enough space
//    for one row block column at a time in shared memory, copying it, and
//    then freeing it from the heap. ... this method keeps the total
//    memory footprint of the leaf nearly unchanged."
//
// Table: peak(heap + shm) during shutdown for the paper's chunked
// free-as-you-copy strategy vs the naive copy-everything-then-free
// strategy, as a multiple of the live data size.

#include <cstdio>

#include "bench_util.h"
#include "core/restart_manager.h"
#include "core/shutdown.h"

namespace scuba {
namespace {

using bench_util::BenchEnv;
using bench_util::FillLeafToBytes;
using bench_util::MiB;

int Run() {
  BenchEnv env("e8");
  std::printf("E8: footprint during shutdown/restore (paper §4.4: "
              "\"nearly unchanged\")\n\n");
  std::printf("%10s %12s %16s %14s %16s\n", "leaf_MiB", "strategy",
              "peak_MiB", "peak/live", "restore_peak");

  uint32_t leaf_id = 0;
  for (uint64_t target : {32ull << 20, 128ull << 20}) {
    for (bool chunked : {true, false}) {
      LeafMap leaf_map;
      uint64_t live = FillLeafToBytes(&leaf_map, target);

      ShutdownOptions soptions;
      soptions.namespace_prefix = env.prefix();
      soptions.leaf_id = leaf_id;
      soptions.free_incrementally = chunked;
      FootprintTracker tracker;
      ShutdownStats sstats;
      if (!ShutdownToShm(&leaf_map, soptions, &sstats, &tracker).ok()) {
        return 1;
      }

      RestartConfig rconfig;
      rconfig.namespace_prefix = env.prefix();
      rconfig.leaf_id = leaf_id;
      FootprintTracker restore_tracker;
      RestoreStats rstats;
      LeafMap restored;
      if (!RestoreFromShm(&restored, rconfig, &rstats, &restore_tracker)
               .ok()) {
        return 1;
      }

      std::printf("%10.0f %12s %16.1f %13.2fx %15.2fx\n", MiB(live),
                  chunked ? "chunked" : "naive", MiB(tracker.peak()),
                  static_cast<double>(tracker.peak()) /
                      static_cast<double>(live),
                  static_cast<double>(restore_tracker.peak()) /
                      static_cast<double>(live));
      ++leaf_id;
    }
  }
  std::printf("\n-> the paper's strategy keeps peak ~1.0x live (one extra "
              "row block column); naive needs ~2x, which a 144 GB machine "
              "with 120 GB of data does not have.\n");
  return 0;
}

}  // namespace
}  // namespace scuba

int main() { return scuba::Run(); }
