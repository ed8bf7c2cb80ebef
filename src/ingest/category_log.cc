#include "ingest/category_log.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "obs/stats_exporter.h"
#include "util/clock.h"
#include "util/logging.h"

namespace scuba {

int64_t CategoryLog::SteadyNowMicros() { return scuba::SteadyNowMicros(); }

bool CategoryLog::IsReservedCategory(const std::string& category) {
  return obs::IsSystemTable(category);
}

void CategoryLog::Append(const std::string& category, Row row) {
  if (IsReservedCategory(category)) {
    DropReserved(category, 1);
    return;
  }
  const int64_t now = SteadyNowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  Log& log = logs_[category];
  log.rows.push_back(std::move(row));
  log.append_micros.push_back(now);
}

void CategoryLog::AppendBatch(const std::string& category,
                              std::vector<Row> rows) {
  if (IsReservedCategory(category)) {
    DropReserved(category, rows.size());
    return;
  }
  const int64_t now = SteadyNowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  Log& log = logs_[category];
  // Range inserts grow the vectors geometrically, so an append costs about
  // one batch; reserving the exact new size would move the whole log on
  // every batch.
  log.rows.insert(log.rows.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  log.append_micros.insert(log.append_micros.end(), rows.size(), now);
}

void CategoryLog::DropReserved(const std::string& category, size_t rows) {
  obs::IncrCounter("scuba.ingest.reserved_category_drops", rows);
  SCUBA_WARN << "dropping " << rows << " rows for reserved category '"
             << category << "' (the __scuba namespace is self-stats only)";
}

size_t CategoryLog::Read(const std::string& category, uint64_t offset,
                         size_t max_rows, std::vector<Row>* out) const {
  int64_t unused = 0;
  return Read(category, offset, max_rows, out, &unused);
}

size_t CategoryLog::Read(const std::string& category, uint64_t offset,
                         size_t max_rows, std::vector<Row>* out,
                         int64_t* oldest_append_micros) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = logs_.find(category);
  if (it == logs_.end() || offset >= it->second.rows.size()) return 0;
  const Log& log = it->second;
  size_t available = log.rows.size() - static_cast<size_t>(offset);
  size_t n = std::min(available, max_rows);
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(log.rows[static_cast<size_t>(offset) + i]);
  }
  // Appends are in stamp order, so the range's first row is its oldest.
  if (n > 0) {
    *oldest_append_micros = log.append_micros[static_cast<size_t>(offset)];
  }
  return n;
}

uint64_t CategoryLog::Size(const std::string& category) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = logs_.find(category);
  return it == logs_.end() ? 0 : it->second.rows.size();
}

std::vector<std::string> CategoryLog::Categories() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(logs_.size());
  for (const auto& [name, log] : logs_) names.push_back(name);
  return names;
}

}  // namespace scuba
