#ifndef SCUBA_BENCH_BENCH_UTIL_H_
#define SCUBA_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "columnar/leaf_map.h"
#include "ingest/row_generator.h"
#include "shm/shm_segment.h"
#include "util/clock.h"

namespace scuba {
namespace bench_util {

/// The one monotonic timer every bench uses (steady clock, via
/// util/clock.h's Stopwatch): milliseconds consumed by a single call of
/// `run`. Benches wanting best-of-N wrap this in their own loop.
template <typename Run>
inline double TimedMillis(const Run& run) {
  Stopwatch watch;
  run();
  return static_cast<double>(watch.ElapsedMicros()) / 1000.0;
}

/// A /dev/shm + /tmp namespace unique to this process, scrubbed on exit.
class BenchEnv {
 public:
  explicit BenchEnv(const std::string& tag)
      : prefix_("scbench_" + std::to_string(getpid()) + "_" + tag),
        dir_("/tmp/" + prefix_) {
    ShmSegment::RemoveAll("/" + prefix_);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) std::abort();
  }
  ~BenchEnv() {
    ShmSegment::RemoveAll("/" + prefix_);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best effort
  }

  const std::string& prefix() const { return prefix_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string prefix_;
  std::string dir_;
};

/// Sum of sealed row-block bytes (excludes write-buffer estimates, which
/// overstate pre-compression size by ~10x).
inline uint64_t SealedBytes(const LeafMap& leaf_map) {
  uint64_t bytes = 0;
  for (const std::string& name : leaf_map.TableNames()) {
    const Table* table = leaf_map.GetTable(name);
    for (size_t b = 0; b < table->num_row_blocks(); ++b) {
      if (table->row_block(b) != nullptr) {
        bytes += table->row_block(b)->MemoryBytes();
      }
    }
  }
  return bytes;
}

/// Fills a leaf map with service-log tables until its SEALED (compressed)
/// heap size is at least `target_bytes`. Returns the actual heap bytes.
inline uint64_t FillLeafToBytes(LeafMap* leaf_map, uint64_t target_bytes,
                                size_t num_tables = 4, uint64_t seed = 42) {
  RowGeneratorConfig config;
  config.seed = seed;
  RowGenerator gen(config);
  size_t t = 0;
  while (SealedBytes(*leaf_map) < target_bytes) {
    Table* table =
        leaf_map->GetOrCreateTable("table_" + std::to_string(t % num_tables));
    if (!table->AddRows(gen.NextBatch(16384), gen.current_time()).ok()) {
      std::abort();
    }
    if (!table->SealWriteBuffer(gen.current_time()).ok()) std::abort();
    ++t;
  }
  return leaf_map->TotalMemoryBytes();
}

inline double MiB(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

inline double Rate(uint64_t bytes, int64_t micros) {
  return micros <= 0 ? 0.0
                     : static_cast<double>(bytes) /
                           (static_cast<double>(micros) / 1e6);
}

/// Minimal machine-readable bench output: a flat JSON document of the form
///   {"bench": "<name>", "results": [{...}, {...}], "<section>": {...}}
/// where each result row is a string->scalar map. Rows are built with
/// Row()/Field(); extra top-level sections (e.g. the "metrics" registry
/// snapshot or a "trace" span timeline) are attached with Section(); the
/// document is written once at the end — enough for the plotting/CI
/// scripts without dragging in a JSON library.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Starts a new result row.
  void Row() { rows_.emplace_back(); }

  void Field(const std::string& key, const std::string& value) {
    // Appended in place: GCC 12 at -O3 reports a false -Wrestrict on
    // `"\"" + Escaped(value)` when this inlines into some callers.
    std::string quoted = "\"";
    quoted += Escaped(value);
    quoted += '"';
    Append(key, std::move(quoted));
  }
  void Field(const std::string& key, double value) {
    std::ostringstream os;
    os << value;
    Append(key, os.str());
  }
  void Field(const std::string& key, uint64_t value) {
    Append(key, std::to_string(value));
  }
  void Field(const std::string& key, int64_t value) {
    Append(key, std::to_string(value));
  }
  void Field(const std::string& key, bool value) {
    Append(key, value ? "true" : "false");
  }

  /// Attaches a pre-encoded JSON value as a field of the current row
  /// (e.g. a QueryProfile::ToJson() object); `raw_json` must be valid
  /// JSON.
  void RawField(const std::string& key, std::string raw_json) {
    Append(key, std::move(raw_json));
  }

  /// Attaches a pre-encoded JSON value as a top-level section; `raw_json`
  /// must be valid JSON (e.g. MetricsRegistry::ToJson() or
  /// PhaseTracer::ToJson()). A repeated key replaces the earlier value.
  void Section(const std::string& key, std::string raw_json) {
    for (auto& [k, v] : sections_) {
      if (k == key) {
        v = std::move(raw_json);
        return;
      }
    }
    sections_.emplace_back(key, std::move(raw_json));
  }

  /// Writes the document; returns false (and prints to stderr) on failure.
  bool WriteTo(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "json: cannot open %s\n", path.c_str());
      return false;
    }
    out << "{\"bench\": \"" << Escaped(bench_name_) << "\", \"results\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{";
      for (size_t f = 0; f < rows_[i].size(); ++f) {
        if (f > 0) out << ", ";
        out << "\"" << Escaped(rows_[i][f].first)
            << "\": " << rows_[i][f].second;
      }
      out << "}";
    }
    out << "]";
    for (const auto& [key, raw] : sections_) {
      out << ", \"" << Escaped(key) << "\": " << raw;
    }
    out << "}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string r;
    r.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') r.push_back('\\');
      r.push_back(c);
    }
    return r;
  }
  void Append(const std::string& key, std::string encoded) {
    if (rows_.empty()) rows_.emplace_back();
    rows_.back().emplace_back(key, std::move(encoded));
  }

  std::string bench_name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Parses a `--json <path>` argument pair; returns "" when absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

/// True when a bare flag (e.g. "--smoke") is present.
inline bool FlagFromArgs(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

}  // namespace bench_util
}  // namespace scuba

#endif  // SCUBA_BENCH_BENCH_UTIL_H_
