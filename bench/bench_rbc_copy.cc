// E1 — Row block column relocation (paper §2.1, §4.4, Fig 3).
//
// The mechanism's enabling property: because every internal location in a
// row block column is an offset from its base, moving a column between heap
// and shared memory is ONE memcpy. The paper's rejected alternative would
// rebuild pointerful structures value by value. This benchmark measures
// both, at RBC sizes from a few KB to tens of MB; the gap is the per-byte
// advantage the restart path inherits.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "columnar/row_block_column.h"
#include "util/random.h"

namespace scuba {
namespace {

// Builds a string RBC with roughly `target_bytes` of encoded payload.
RowBlockColumn MakeColumn(size_t target_bytes) {
  Random random(target_bytes);
  std::vector<std::string> values;
  // Unique-ish strings defeat the dictionary so the buffer actually has
  // ~target_bytes of payload.
  size_t n = target_bytes / 24;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back("payload_" + std::to_string(random.Next()));
  }
  return RowBlockColumn::BuildString(values);
}

void BM_SingleMemcpyRelocate(benchmark::State& state) {
  RowBlockColumn column = MakeColumn(static_cast<size_t>(state.range(0)));
  Slice bytes = column.AsSlice();
  std::unique_ptr<uint8_t[]> dst(new uint8_t[bytes.size()]);
  for (auto _ : state) {
    // The paper's copy: relocate the whole column in one memcpy; only the
    // column's own address changes.
    std::memcpy(dst.get(), bytes.data(), bytes.size());
    benchmark::DoNotOptimize(dst.get());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
  state.counters["rbc_bytes"] = static_cast<double>(bytes.size());
}

void BM_ValueByValueTranslate(benchmark::State& state) {
  RowBlockColumn column = MakeColumn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    // The alternative a pointerful layout forces: decode every value and
    // re-encode it at the destination (here: decode + rebuild).
    std::vector<std::string> values;
    if (!column.DecodeString(&values).ok()) state.SkipWithError("decode");
    RowBlockColumn rebuilt = RowBlockColumn::BuildString(values);
    benchmark::DoNotOptimize(rebuilt.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(column.total_bytes()));
}

void BM_RelocateAndValidateCrc(benchmark::State& state) {
  // Relocation plus the CRC32C check every restore runs by default
  // (verify_checksums=true). SCUBA_FORCE_SCALAR=1 pins the table path.
  RowBlockColumn column = MakeColumn(static_cast<size_t>(state.range(0)));
  Slice bytes = column.AsSlice();
  for (auto _ : state) {
    std::unique_ptr<uint8_t[]> dst(new uint8_t[bytes.size()]);
    std::memcpy(dst.get(), bytes.data(), bytes.size());
    auto adopted = RowBlockColumn::FromBuffer(std::move(dst), bytes.size(),
                                              /*verify_checksum=*/true);
    if (!adopted.ok()) state.SkipWithError("validate");
    benchmark::DoNotOptimize(adopted->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}

BENCHMARK(BM_SingleMemcpyRelocate)->Range(64 << 10, 64 << 20);
BENCHMARK(BM_ValueByValueTranslate)->Range(64 << 10, 64 << 20);
BENCHMARK(BM_RelocateAndValidateCrc)->Range(64 << 10, 64 << 20);

}  // namespace
}  // namespace scuba
