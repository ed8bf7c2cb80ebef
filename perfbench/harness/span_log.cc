#include "span_log.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanLog::Buffer* SpanLog::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->spans_.reserve(1 << 14);
  return buffers_.back().get();
}

std::vector<SpanLog::Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans_.begin(), buffer->spans_.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
  });
  return all;
}

std::map<std::string, SpanLog::NameTotals> SpanLog::Totals(
    const std::vector<Span>& spans) {
  // Children of one span are recorded back to back on one thread and do
  // not overlap each other, so their durations sum to the covered part.
  std::unordered_map<uint64_t, int64_t> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& s : spans) {
    NameTotals& t = totals[s.name];
    const int64_t duration = s.end_us - s.start_us;
    auto it = child_us.find(s.id);
    ++t.count;
    t.total_us += duration;
    t.self_us += duration - (it == child_us.end() ? 0 : it->second);
  }
  return totals;
}

bool SpanLog::WriteJsonLines(const std::vector<Span>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"trace\":%llu}\n",
                 s.name, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
