#!/usr/bin/env bash
# CI gate: build + test in Release, rebuild the query/columnar/compress/
# disk/core suites and the server suites that move query results between
# leaf, aggregator and result cache under AddressSanitizer + UBSan, then
# rebuild the concurrency-sensitive targets under ThreadSanitizer and run the
# core/shm/util/disk/query suites (the restore engine's — blocking and
# instant, every source — parallel copy and parallel query scan data-race
# surface) and the compress/columnar suites (concurrent block builds).
#
# Usage: ci/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== Release build + full test suite ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${JOBS}"
ctest --test-dir build-release --output-on-failure -j "${JOBS}"

echo
echo "=== Bench smoke: tiny-scale --json runs parse and carry metrics ==="
cmake --build build-release -j "${JOBS}" \
  --target bench_shutdown_restore bench_query
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
./build-release/bench/bench_shutdown_restore --smoke \
  --json "${SMOKE_DIR}/shutdown_restore.json" >/dev/null
./build-release/bench/bench_query --smoke \
  --json "${SMOKE_DIR}/query.json" >/dev/null
python3 - "${SMOKE_DIR}/shutdown_restore.json" "${SMOKE_DIR}/query.json" \
  <<'PYEOF'
import json, sys

PROFILE_KEYS = {
    "query_id", "wall_micros", "blocks_scanned", "blocks_time_pruned",
    "blocks_zone_pruned", "rows_scanned", "rows_matched", "bytes_decoded",
    "leaves_total", "leaves_responded", "unavailable_leaves", "prune_micros",
    "decode_micros", "kernel_micros", "merge_micros", "leaf_execute_micros",
    "fanout_queue_wait_micros", "cache_hit_buckets", "cache_miss_buckets",
    "restore_wait_micros", "blocks_restored_on_demand", "unavailable_detail",
    "deadline_micros", "shed", "deadline_exceeded",
}

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("results"), f"{path}: empty results"
    assert doc.get("schema_version") == 8, \
        f"{path}: missing/unexpected schema_version: {doc.get('schema_version')!r}"
    metrics = doc.get("metrics")
    assert isinstance(metrics, dict), f"{path}: missing metrics block"
    for key in ("counters", "gauges", "histograms"):
        assert key in metrics, f"{path}: metrics missing '{key}'"
    print(f"{path}: OK ({len(doc['results'])} results, "
          f"{len(metrics['counters'])} counters)")

# Since schema v3: bench_query rows embed a complete QueryProfile each (with
# the SLO loop's deadline_micros/shed/deadline_exceeded fields), plus a
# top-level profile + sampled span timeline for the observability leg.
with open(sys.argv[2]) as f:
    query = json.load(f)
for row in query["results"]:
    profile = row.get("profile")
    assert isinstance(profile, dict), f"row {row.get('case')}: no profile"
    missing = PROFILE_KEYS - profile.keys()
    assert not missing, f"row {row.get('case')}: profile missing {missing}"
assert PROFILE_KEYS <= query.get("profile", {}).keys(), \
    "top-level profile incomplete"
trace = query.get("trace")
assert isinstance(trace, dict) and trace.get("spans"), \
    "missing sampled-query trace section"
span_names = {s.get("name") for s in trace["spans"]}
for name in ("prune", "decode", "kernel"):
    assert name in span_names, f"trace missing '{name}' span: {span_names}"
print(f"{sys.argv[2]}: profile schema OK "
      f"({len(query['results'])} rows, {len(trace['spans'])} spans)")
PYEOF

echo
echo "=== Load-harness smoke: overdriven run sheds, __scuba_slo queryable, health engine judged + costed ==="
cmake --build build-release -j "${JOBS}" --target bench_load
./build-release/bench/bench_load --smoke --json "${SMOKE_DIR}/load.json"
python3 - "${SMOKE_DIR}/load.json" <<'PYEOF'
import json, sys

# bench_load --smoke already asserts (and exits nonzero on) the semantic
# checks: >= 1 shed query, >= 1 __scuba_slo row through the aggregator,
# digest identity for non-shed / non-truncated queries, and the E20 leg's
# "health monitor evaluated repeatedly and judged the loaded cluster OK".
# Here: the JSON artifact has the per-phase latency fields the plotting
# scripts consume plus the E20 overhead rows the perf gate diffs.
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema_version") == 8, \
    f"missing/unexpected schema_version: {doc.get('schema_version')!r}"
rows = doc.get("results")
assert rows, "empty results"
phases = [r for r in rows if "phase" in r]
for row in phases:
    for key in ("phase", "target_qps", "achieved_qps", "shed",
                "deadline_exceeded", "p50_micros", "p95_micros",
                "p99_micros"):
        assert key in row, f"load row missing '{key}': {row}"
assert phases[0]["shed"] >= 1, f"smoke run shed nothing: {phases[0]}"

# E20: one closed-loop capacity row per health mode plus the delta row.
modes = {r.get("mode") for r in rows
         if r.get("case") == "engine_overhead"}
assert modes == {"health_off", "health_on"}, \
    f"expected health_off+health_on capacity rows, got {modes}"
on = next(r for r in rows if r.get("mode") == "health_on")
assert on["evaluations"] >= 5, f"monitor barely ran: {on}"
assert on["rule_errors"] == 0, f"health rules errored under load: {on}"
delta = [r for r in rows if r.get("case") == "engine_overhead_delta"]
assert delta and "query_throughput_delta_pct" in delta[0], \
    f"missing engine_overhead_delta row: {delta}"
print(f"load smoke OK: {phases[0]['shed']} shed, "
      f"p99 {phases[0]['p99_micros']} us under overdrive, health engine "
      f"{on['evaluations']} evaluations, "
      f"{delta[0]['query_throughput_delta_pct']:+.2f}% capacity delta")
PYEOF

echo
echo "=== Perf gate: smoke metrics vs ci/bench_baseline.json ==="
python3 ci/compare_bench.py compare ci/bench_baseline.json \
  "${SMOKE_DIR}/shutdown_restore.json" "${SMOKE_DIR}/query.json" \
  "${SMOKE_DIR}/load.json"

echo
echo "=== SIMD/scalar equivalence: forced-scalar rerun must match digests ==="
SCUBA_FORCE_SCALAR=1 ./build-release/bench/bench_query --smoke \
  --json "${SMOKE_DIR}/query_scalar.json" >/dev/null
python3 - "${SMOKE_DIR}/query.json" "${SMOKE_DIR}/query_scalar.json" <<'PYEOF'
import json, sys

# Every (section, case, engine, threads) row must produce the same result
# digest whether the packed SIMD kernels ran or SCUBA_FORCE_SCALAR pinned
# the whole process to the scalar tier: a SIMD kernel may only ever be
# faster, never different.
def digests(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for row in doc["results"]:
        key = (row["section"], row["case"], row["engine"], row["threads"])
        out[key] = (row["result_digest"], row["rows_matched"])
    return out

simd, scalar = digests(sys.argv[1]), digests(sys.argv[2])
assert simd.keys() == scalar.keys(), \
    f"row sets differ: {simd.keys() ^ scalar.keys()}"
for key in sorted(simd):
    assert simd[key] == scalar[key], \
        f"{key}: simd {simd[key]} != forced-scalar {scalar[key]}"
print(f"{len(simd)} rows digest-identical under SCUBA_FORCE_SCALAR=1")
PYEOF

echo
echo "=== CRC32C table path: checksum users pass with the hardware CRC pinned off ==="
# Result digests above are crc32c::Extend values too, so the digest
# comparison already checks that both CRC paths agree; these suites cover
# every stored CRC (RBC footers, .bak/.cols records, shm metadata,
# heartbeat, flight recorder) on the table path.
SCUBA_FORCE_SCALAR=1 ctest --test-dir build-release --output-on-failure \
  -j "${JOBS}" -R 'Crc32c|RowBlockColumn|BackupFormat|ColumnarBackup|ShutdownRestore|RoundTripProperty|LeafMetadata|RestartHeartbeat|FlightRecorder'

echo
echo "=== Instant restore smoke: serving during restore is bit-identical ==="
cmake --build build-release -j "${JOBS}" --target bench_instant_restore
./build-release/bench/bench_instant_restore --smoke \
  --json "${SMOKE_DIR}/instant_restore.json" >/dev/null
python3 - "${SMOKE_DIR}/instant_restore.json" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("schema_version") == 8, \
    f"missing/unexpected schema_version: {doc.get('schema_version')!r}"
summaries = {row["mode"]: row for row in doc["results"]
             if row.get("section") == "summary"}
assert set(summaries) == {"blocking", "instant"}, \
    f"expected blocking+instant summaries, got {set(summaries)}"

# Every query kind's digest must be identical whether the leaf was fully
# recovered up front or served while its blocks streamed in.
digest_keys = {k for k in summaries["blocking"] if k.startswith("digest_")}
assert digest_keys, "no digest fields in the blocking summary"
for key in sorted(digest_keys):
    b, i = summaries["blocking"][key], summaries["instant"][key]
    assert b == i, f"{key}: blocking {b} != instant {i}"

# The priority queue must have actually beaten the background filler.
on_demand = summaries["instant"]["blocks_on_demand"]
assert on_demand >= 1, f"no blocks restored on demand ({on_demand})"
curve = [row for row in doc["results"] if row.get("section") == "curve"]
assert curve, "missing throughput-over-time curve rows"
print(f"instant restore OK: {len(digest_keys)} digests identical, "
      f"{on_demand} blocks on demand, {len(curve)} curve bins")
PYEOF

echo
echo "=== Self-stats smoke: __scuba_restarts rows survive a rollover ==="
cmake --build build-release -j "${JOBS}" --target selfstats_rollover
./build-release/examples/selfstats_rollover

echo
echo "=== Slow-query-log smoke: a slow query's __scuba_queries row survives a rollover ==="
cmake --build build-release -j "${JOBS}" --target slow_query_log
./build-release/examples/slow_query_log

echo
echo "=== Alert smoke: injected faults fire the rule pack, gate the rollover, land in __scuba_alerts ==="
cmake --build build-release -j "${JOBS}" --target health_alerts
./build-release/examples/health_alerts

echo
echo "=== ASan+UBSan build + query/columnar/compress/disk/core/server suites ==="
# SCUBA_ASAN makes every UBSan report fatal, so any report fails its suite.
# disk_test and core_test cover the backup readers' offset arithmetic over
# bytes read from disk. Query results are moved from block partials into
# the leaf's result, from leaves into the aggregator's and through the
# result cache, so server_test's aggregator, cache and profile suites run
# too (not ConcurrencyTest: it takes minutes even without sanitizers).
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCUBA_ASAN=ON \
  >/dev/null
cmake --build build-asan -j "${JOBS}" \
  --target query_test columnar_test compress_test disk_test core_test \
  server_test
for suite in query_test columnar_test compress_test disk_test core_test; do
  "./build-asan/tests/${suite}" --gtest_brief=1
done
./build-asan/tests/server_test --gtest_brief=1 \
  --gtest_filter='Aggregator*:ResultCache*:ProfileDeterminism*'

echo
echo "=== TSan build + core/shm/util/disk/query/obs/compress/columnar suites ==="
# compress_test and columnar_test run whole: blocks are built concurrently
# (leaves ingest on their own threads, the restore engine translates on its
# copy workers), and LZ4's hash table is thread_local.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCUBA_TSAN=ON \
  >/dev/null
cmake --build build-tsan -j "${JOBS}" \
  --target util_test shm_test disk_test core_test query_test server_test \
  obs_test load_test compress_test columnar_test
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
  -R 'Crc32c|ThreadPool|ParallelFor|ByteBudget|ParallelCopy|ShutdownRestore|Shm|TableSegment|LeafMetadata|ParallelScan|VectorizedDiff|Aggregator|ObsMetrics|ObsTracer|RestartTrace|RestartHeartbeat|StatsExporter|SelfStats|QueryTrace|SlowQueryLog|ProfileDeterminism|PackedKernelFuzz|PackedScan|ResultCache|InstantRestore|SloTracker|Admission|LoadDriver|SnapshotDelta|FlightRecorder|Autopsy|RestartsTable|Hysteresis|AlertEngine|HealthMonitor|AlertsTable|RestartManager|BackupRoundTrip|ColumnarBackup|ColumnarLeaf|RoundTripProperty|LeafServer|RestartEvents|Lz4|Bitpack|ChainTest|CodecTruncationFuzz|ColumnCodec|CodecProperty|DeltaTest|MiniBlock|ZigZagAll|DictionaryTest|EncoderDigest|LayoutVersion|RowBlock|WriteBuffer|TableTest|LeafMapTest|SchemaTest|SchemaEvolution|TypesTest'

echo
echo "=== OK ==="
