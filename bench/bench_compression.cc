// E2 — Column compression (paper §2.1).
//
// "Compression reduces the size of the row block column by a factor of
// about 30 ... a combination of dictionary encoding, bit packing, delta
// encoding, and lz4 compression, with at least two methods applied to each
// column." This harness builds a service-log row block and prints, per
// column: the chain chosen, raw vs stored bytes, the ratio, and the time to
// encode the column (RowBlockColumn::Build*, the work RowBlock::Build does
// per column: zone map, codec chain, assembly, CRC) in ns/row, the minimum
// of kRuns runs; then the whole-block ratio to compare against the paper's
// ~30x and the whole RowBlock::Build time.
//
// Usage: bench_compression [--json out.json]

#include <algorithm>
#include <cstdio>
#include <limits>
#include <variant>

#include "bench_util.h"
#include "columnar/row_block.h"
#include "columnar/write_buffer.h"
#include "compress/column_codec.h"
#include "ingest/row_generator.h"

namespace scuba {
namespace {

constexpr size_t kRows = 65536;
constexpr int kRuns = 9;

RowBlockColumn BuildColumn(const ColumnValues& values) {
  return std::visit(
      [](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<int64_t>>) {
          return RowBlockColumn::BuildInt64(v);
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          return RowBlockColumn::BuildDouble(v);
        } else {
          return RowBlockColumn::BuildString(v);
        }
      },
      values);
}

template <typename Run>
double MinMillis(const Run& run) {
  double best = std::numeric_limits<double>::max();
  for (int i = 0; i < kRuns; ++i) {
    best = std::min(best, bench_util::TimedMillis(run));
  }
  return best;
}

double NsPerRow(double millis) {
  return millis * 1e6 / static_cast<double>(kRows);
}

int Run(const std::string& json_path) {
  RowGeneratorConfig config;
  config.seed = 7;
  RowGenerator gen(config);
  WriteBuffer buffer;
  for (const Row& row : gen.NextBatch(kRows)) {
    if (!buffer.AddRow(row).ok()) return 1;
  }
  Schema schema;
  std::vector<ColumnValues> columns;
  buffer.TakeColumns(&schema, &columns);

  std::printf("E2: column compression on %zu service-log rows (paper §2.1: "
              "~30x); encode time is the minimum of %d runs\n\n",
              kRows, kRuns);
  std::printf("%-12s %-10s %-24s %12s %12s %8s %10s\n", "column", "type",
              "chain", "raw_bytes", "stored", "ratio", "ns/row");

  bench_util::JsonWriter json("bench_compression");
  uint64_t total_raw = 0;
  uint64_t total_stored = 0;
  double total_ns = 0;
  for (size_t c = 0; c < columns.size(); ++c) {
    const RowBlockColumn column = BuildColumn(columns[c]);
    const uint64_t raw = column.uncompressed_bytes();
    const uint64_t stored = column.total_bytes();
    const double ns_per_row =
        NsPerRow(MinMillis([&] { BuildColumn(columns[c]); }));
    total_raw += raw;
    total_stored += stored;
    total_ns += ns_per_row;
    const std::string chain =
        column_codec::ChainToString(column.compression_chain());
    const double ratio = static_cast<double>(raw) / static_cast<double>(stored);
    std::printf("%-12s %-10s %-24s %12llu %12llu %7.1fx %10.1f\n",
                schema.column(c).name.c_str(),
                std::string(ColumnTypeName(column.type())).c_str(),
                chain.c_str(), static_cast<unsigned long long>(raw),
                static_cast<unsigned long long>(stored), ratio, ns_per_row);
    json.Row();
    json.Field("column", schema.column(c).name);
    json.Field("chain", chain);
    json.Field("raw_bytes", raw);
    json.Field("stored_bytes", stored);
    json.Field("ratio", ratio);
    json.Field("encode_ns_per_row", ns_per_row);
  }
  double block_ms = std::numeric_limits<double>::max();
  for (int i = 0; i < kRuns; ++i) {
    std::vector<ColumnValues> copy = columns;
    block_ms = std::min(block_ms, bench_util::TimedMillis([&] {
      if (!RowBlock::Build(schema, std::move(copy), 0).ok()) std::abort();
    }));
  }
  const double block_ns = NsPerRow(block_ms);
  std::printf("%-12s %-10s %-24s %12llu %12llu %7.1fx %10.1f\n", "TOTAL", "",
              "", static_cast<unsigned long long>(total_raw),
              static_cast<unsigned long long>(total_stored),
              static_cast<double>(total_raw) /
                  static_cast<double>(total_stored),
              total_ns);
  std::printf("\nRowBlock::Build, whole block: %.1f ns/row\n", block_ns);
  std::printf("\npaper claim: ~30x with >=2 methods per column; "
              "every chain above has >=2 stages except raw fallbacks\n");
  json.Row();
  json.Field("total_raw_bytes", total_raw);
  json.Field("total_stored_bytes", total_stored);
  json.Field("total_encode_ns_per_row", total_ns);
  json.Field("block_build_ns_per_row", block_ns);
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace scuba

int main(int argc, char** argv) {
  return scuba::Run(scuba::bench_util::JsonPathFromArgs(argc, argv));
}
