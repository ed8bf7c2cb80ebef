// E11 — the paper's §6 prediction, measured:
//
//   "One large overhead in Scuba's disk recovery is translating from the
//    disk format to the heap memory format. ... We are planning to use
//    the shared memory format described in this paper as the disk format,
//    instead. We expect that the much simpler translation to heap memory
//    format will speed up disk recovery significantly."
//
// The same rows are ingested through a row-major-format leaf and a
// columnar-format leaf; both then crash and disk-recover. The raw read is
// throttled identically; the difference is pure translation. (The
// columnar file is also ~9x smaller — compression persists to disk — so
// its raw read shrinks too.)

#include <cstdio>

#include "bench_util.h"
#include "ingest/row_generator.h"
#include "server/leaf_server.h"

namespace scuba {
namespace {

using bench_util::BenchEnv;
using bench_util::MiB;

constexpr uint64_t kDiskBytesPerSec = 90ull << 20;

struct Outcome {
  double read_s = 0;
  double translate_s = 0;
  uint64_t disk_bytes = 0;
  uint64_t rows = 0;
};

StatusOr<Outcome> Run(BenchEnv* env, BackupFormatKind format,
                      uint32_t leaf_id, size_t batches) {
  LeafServerConfig config;
  config.leaf_id = leaf_id;
  config.namespace_prefix = env->prefix();
  config.backup_dir = env->dir() + "/leaf_" + std::to_string(leaf_id);
  config.backup_format = format;
  config.disk_throttle_bytes_per_sec = kDiskBytesPerSec;

  {
    LeafServer leaf(config);
    SCUBA_ASSIGN_OR_RETURN(RecoveryResult ignored, leaf.Start());
    (void)ignored;
    RowGeneratorConfig gconfig;
    gconfig.seed = 99;
    RowGenerator gen(gconfig);
    for (size_t i = 0; i < batches; ++i) {
      SCUBA_RETURN_IF_ERROR(leaf.AddRows("service_logs", gen.NextBatch(8192)));
    }
    leaf.Crash();  // unclean death: only the disk backup survives
  }

  LeafServer fresh(config);
  SCUBA_ASSIGN_OR_RETURN(RecoveryResult result, fresh.Start());
  if (result.source != RecoverySource::kDisk) {
    return Status::Internal("expected disk recovery");
  }
  Outcome outcome;
  outcome.rows = fresh.RowCount();
  outcome.read_s = result.disk_stats.read_micros / 1e6;
  outcome.translate_s = result.disk_stats.translate_micros / 1e6;
  outcome.disk_bytes = result.disk_stats.bytes_read;
  return outcome;
}

int Main() {
  BenchEnv env("e11");
  std::printf("E11: disk recovery with the row-major format vs the §6 "
              "columnar (shm-layout) format\n"
              "identical rows, disk read modeled at %.0f MB/s\n\n",
              static_cast<double>(kDiskBytesPerSec) / 1e6);
  std::printf("%12s %10s %10s %12s %12s %10s\n", "format", "disk_MiB",
              "read_s", "translate_s", "total_s", "rows");

  constexpr size_t kBatches = 24;  // ~196k rows, ~3 sealed blocks
  Outcome row_major;
  Outcome columnar;
  {
    auto outcome = Run(&env, BackupFormatKind::kRowMajor, 0, kBatches);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    row_major = *outcome;
  }
  {
    auto outcome = Run(&env, BackupFormatKind::kColumnar, 1, kBatches);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    columnar = *outcome;
  }

  for (const auto& [name, o] :
       {std::pair<const char*, Outcome&>{"row-major", row_major},
        std::pair<const char*, Outcome&>{"columnar", columnar}}) {
    std::printf("%12s %10.1f %10.2f %12.3f %12.2f %10llu\n", name,
                MiB(o.disk_bytes), o.read_s, o.translate_s,
                o.read_s + o.translate_s,
                static_cast<unsigned long long>(o.rows));
  }

  double speedup = (row_major.read_s + row_major.translate_s) /
                   (columnar.read_s + columnar.translate_s);
  std::printf("\ncolumnar disk recovery is %.1fx faster end-to-end "
              "(translate alone: %.0fx faster), and the file is %.1fx "
              "smaller — §6's expectation holds.\n",
              speedup, row_major.translate_s / columnar.translate_s,
              static_cast<double>(row_major.disk_bytes) /
                  static_cast<double>(columnar.disk_bytes));
  std::printf("(shared memory remains faster still: no disk read at "
              "all; see bench_disk_vs_shm.)\n");
  return 0;
}

}  // namespace
}  // namespace scuba

int main() { return scuba::Main(); }
