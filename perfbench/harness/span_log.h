#ifndef PERFBENCH_HARNESS_SPAN_LOG_H_
#define PERFBENCH_HARNESS_SPAN_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Spans the traced run records around each harness call into the
/// program: name, start, end, the span that caused it, and the id shared
/// by every span of one request (a query, an ingest batch, a restart).
/// Spans stay in memory until the run ends; nothing is written while the
/// clock runs.
class SpanLog {
 public:
  struct Span {
    const char* name = "";  // a string literal
    int64_t start_us = 0;   // offsets from the run's start
    int64_t end_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = a root span
    uint64_t trace = 0;   // id of the request's root span
  };

  /// Per-thread append buffer: each recording thread owns one, so
  /// recording takes no lock.
  class Buffer {
   public:
    void Add(const Span& span) { spans_.push_back(span); }

   private:
    friend class SpanLog;
    std::vector<Span> spans_;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (never 0).
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// A buffer for the calling thread, or nullptr when tracing is off.
  /// The log owns it; it lives as long as the log.
  Buffer* NewBuffer();

  /// All spans recorded so far. Call once the recording threads joined.
  std::vector<Span> Collect() const;

  /// Per span name: count, total duration and self time (duration minus
  /// the part its child spans cover), in microseconds.
  struct NameTotals {
    uint64_t count = 0;
    int64_t total_us = 0;
    int64_t self_us = 0;
  };
  static std::map<std::string, NameTotals> Totals(
      const std::vector<Span>& spans);

  /// Writes one JSON object per line. False when the file cannot be
  /// written.
  static bool WriteJsonLines(const std::vector<Span>& spans,
                             const std::string& path);

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPAN_LOG_H_
