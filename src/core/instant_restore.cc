#include "core/instant_restore.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "disk/backup_reader.h"
#include "disk/columnar_backup.h"
#include "disk/file.h"
#include "obs/metrics.h"
#include "shm/leaf_metadata.h"
#include "shm/shm_segment.h"
#include "shm/table_segment.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace scuba {
namespace {

// Cumulative process-wide mirror of RestoreStats (scuba.core.restore.*),
// fed by every restore — blocking or instant, any source.
struct RestoreMetrics {
  obs::Counter* operations;
  obs::Counter* tables;
  obs::Counter* row_blocks;
  obs::Counter* columns;
  obs::Counter* bytes;
  obs::Counter* blocks_on_demand;
  obs::Counter* blocks_background;
  obs::Counter* verify_micros;
  obs::Histogram* block_bytes;
  obs::Histogram* elapsed_micros;

  static RestoreMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static RestoreMetrics m{
        reg.GetCounter("scuba.core.restore.operations"),
        reg.GetCounter("scuba.core.restore.tables_restored"),
        reg.GetCounter("scuba.core.restore.row_blocks_restored"),
        reg.GetCounter("scuba.core.restore.columns_restored"),
        reg.GetCounter("scuba.core.restore.bytes_copied"),
        reg.GetCounter("scuba.core.restore.blocks_on_demand"),
        reg.GetCounter("scuba.core.restore.blocks_background"),
        reg.GetCounter("scuba.core.restore.verify_micros"),
        reg.GetHistogram("scuba.core.restore.block_bytes"),
        reg.GetHistogram("scuba.core.restore.elapsed_micros")};
    return m;
  }
};

// Leaked /dev/shm segments are invisible to the process that leaked them;
// a destroy failure must at least leave a trace for the operator. The
// warning metric makes the partial failure visible to dashboards, not
// just whoever happens to read stderr.
void DestroyAllSegmentsLogged(LeafMetadata* meta, const char* why) {
  Status s = meta->DestroyAllSegments();
  if (!s.ok()) {
    obs::IncrCounter("scuba.core.restore.shm_scrub_failures");
    SCUBA_WARN << "failed to destroy shm segments (" << why
               << "); /dev/shm segments may be leaked: " << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Shared-memory source
// ---------------------------------------------------------------------------

class ShmRestoreSource : public RestoreSource {
 public:
  ShmRestoreSource(LeafMetadata meta, bool verify_checksums)
      : meta_(std::move(meta)), verify_(verify_checksums) {}

  // Opens every table segment and enumerates units TAIL-FIRST per segment,
  // so the background filler drains each segment in the same order Fig 7's
  // blocking restore does and truncation can follow right behind it.
  Status Init() {
    for (const std::string& segment_name : meta_.table_segment_names()) {
      auto reader_or = TableSegmentReader::Open(segment_name);
      if (!reader_or.ok()) return reader_or.status();
      auto seg = std::make_unique<Segment>(std::move(reader_or).value());
      const size_t table_index = segments_.size();
      seg->first_unit = units_.size();
      const size_t n = seg->reader.num_row_blocks();
      seg->done.assign(n, 0);
      TableInfo info;
      info.name = seg->reader.table_name();
      info.num_slots = n;
      tables_.push_back(std::move(info));
      for (size_t rb = n; rb-- > 0;) {
        const TableSegmentReader::BlockEntry& entry = seg->reader.block(rb);
        RestoreUnit unit;
        unit.table_index = table_index;
        unit.slot = rb;
        unit.min_time = entry.meta.header.min_time;
        unit.max_time = entry.meta.header.max_time;
        for (const auto& [offset, size] : entry.columns) {
          (void)offset;
          unit.bytes += size;
        }
        total_bytes_ += unit.bytes;
        unit_loc_.emplace_back(table_index, rb);
        units_.push_back(unit);
      }
      segments_.push_back(std::move(seg));
    }
    return Status::OK();
  }

  RecoverySource recovery_source() const override {
    return RecoverySource::kSharedMemory;
  }
  const std::vector<TableInfo>& tables() const override { return tables_; }
  const std::vector<RestoreUnit>& units() const override { return units_; }
  uint64_t total_bytes() const override { return total_bytes_; }

  StatusOr<LoadedUnit> Load(size_t i) override {
    const auto& [s, rb] = unit_loc_[i];
    Segment* seg = segments_[s].get();
    const TableSegmentReader::BlockEntry& entry = seg->reader.block(rb);
    const size_t num_columns = entry.columns.size();
    std::vector<std::unique_ptr<RowBlockColumn>> columns(num_columns);
    LoadedUnit loaded;
    for (size_t c = 0; c < num_columns; ++c) {
      const auto& [offset, size] = entry.columns[c];
      // Fig 7's single memcpy per column, through the stable base captured
      // at open — in-place truncation never moves live offsets.
      std::unique_ptr<uint8_t[]> heap_buf(new uint8_t[size]);
      std::memcpy(heap_buf.get(), seg->base + offset, size);
      auto column = RowBlockColumn::FromBuffer(std::move(heap_buf), size,
                                               verify_, &loaded.verify_micros);
      if (!column.ok()) return column.status();
      columns[c] =
          std::make_unique<RowBlockColumn>(std::move(column).value());
    }
    auto block = RowBlock::FromParts(entry.meta.header, entry.meta.schema,
                                     std::move(columns));
    if (!block.ok()) return block.status();
    loaded.block = std::move(block).value();
    loaded.columns_copied = num_columns;
    return loaded;
  }

  Drained UnitDrained(size_t i) override {
    const auto& [s, rb] = unit_loc_[i];
    Segment* seg = segments_[s].get();
    seg->done[rb] = 1;
    // Truncate the tail-contiguous drained run: a priority block finished
    // mid-segment stays mapped until everything behind it (toward the
    // tail) lands, keeping truncation strictly tail-ordered. Units are
    // enumerated tail-first, so the run is a contiguous unit range.
    Drained drained{seg->first_unit + seg->drained,
                    seg->first_unit + seg->drained, 0};
    const size_t n = seg->reader.num_row_blocks();
    const size_t before = seg->reader.segment_bytes();
    while (seg->drained < n && seg->done[n - 1 - seg->drained] != 0) {
      size_t idx = n - 1 - seg->drained;
      Status s2 = seg->reader.TruncateTo(seg->reader.block(idx).block_offset);
      if (!s2.ok()) {
        // Truncation is an optimization (early page release), not a
        // correctness step — warn and keep draining.
        SCUBA_WARN << "restore: truncate failed on "
                   << seg->reader.table_name() << ": " << s2.ToString();
      }
      ++seg->drained;
    }
    drained.end_unit = seg->first_unit + seg->drained;
    drained.bytes_freed = before - seg->reader.segment_bytes();
    return drained;
  }

  Status Finalize() override {
    for (auto& seg : segments_) {
      SCUBA_RETURN_IF_ERROR(seg->reader.Unlink());
    }
    return meta_.Destroy();
  }

  void Abandon() override {
    // The valid bit is already false (set at open), so the next process
    // takes the disk path regardless; scrubbing just frees /dev/shm now.
    DestroyAllSegmentsLogged(&meta_, "restore abandoned");
  }

 private:
  struct Segment {
    explicit Segment(TableSegmentReader r)
        : reader(std::move(r)), base(reader.data()) {}
    TableSegmentReader reader;
    const uint8_t* base;  // stable across in-place truncation
    size_t first_unit = 0;  // this segment's units: [first_unit, +blocks)
    std::vector<uint8_t> done;
    size_t drained = 0;
  };

  LeafMetadata meta_;
  bool verify_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<TableInfo> tables_;
  std::vector<RestoreUnit> units_;
  std::vector<std::pair<size_t, size_t>> unit_loc_;  // (segment, block)
  uint64_t total_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Columnar-disk source (.cols)
// ---------------------------------------------------------------------------

class ColsRestoreSource : public RestoreSource {
 public:
  ColsRestoreSource(std::string dir, uint64_t throttle_bytes_per_sec,
                    bool verify_checksums, int64_t now)
      : dir_(std::move(dir)),
        throttle_(throttle_bytes_per_sec),
        verify_(verify_checksums),
        now_(now) {}

  Status Init(const ColsCuts& cuts) {
    SCUBA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           ColumnarBackupReader::ListTables(dir_));
    if (names.empty()) {
      return Status::NotFound("no .cols backups in " + dir_);
    }
    for (const std::string& name : names) {
      auto cut = cuts.find(name);
      SCUBA_ASSIGN_OR_RETURN(
          ColumnarBackupReader::TableBackup backup,
          ColumnarBackupReader::ReadTable(
              dir_, name, cut == cuts.end() ? SIZE_MAX : cut->second,
              throttle_, now_));
      open_stats_.Add(backup.stats);

      const size_t table_index = tables_.size();
      TableInfo info;
      info.name = name;
      info.num_slots = backup.blocks.size();
      tables_.push_back(std::move(info));
      for (size_t b = 0; b < backup.blocks.size(); ++b) {
        const ColumnarBackupReader::BlockRef& ref = backup.blocks[b];
        RestoreUnit unit;
        unit.table_index = table_index;
        unit.slot = b;
        unit.min_time = ref.meta.header.min_time;
        unit.max_time = ref.meta.header.max_time;
        unit.bytes = ref.payload.size();
        total_bytes_ += unit.bytes;
        unit_loc_.emplace_back(table_index, b);
        units_.push_back(unit);
      }
      backups_.push_back(std::move(backup));
    }
    return Status::OK();
  }

  RecoverySource recovery_source() const override {
    return RecoverySource::kDisk;
  }
  const std::vector<TableInfo>& tables() const override { return tables_; }
  const std::vector<RestoreUnit>& units() const override { return units_; }
  uint64_t total_bytes() const override { return total_bytes_; }
  DiskRestoreStats open_stats() const override { return open_stats_; }

  StatusOr<LoadedUnit> Load(size_t i) override {
    const auto& [t, b] = unit_loc_[i];
    const ColumnarBackupReader::BlockRef& ref = backups_[t].blocks[b];
    Stopwatch watch;
    LoadedUnit loaded;
    SCUBA_ASSIGN_OR_RETURN(
        loaded.block, ColumnarBackupReader::ParseBlock(ref.payload, verify_,
                                                       &loaded.verify_micros));
    loaded.columns_copied = ref.meta.column_sizes.size();
    loaded.disk.translate_micros = watch.ElapsedMicros();
    return loaded;
  }

  std::unique_ptr<Table> TakeTail(size_t table_index) override {
    return std::move(backups_[table_index].tail);
  }

  // The .cols files ARE the durable backup; nothing to release or scrub.

 private:
  std::string dir_;
  uint64_t throttle_;
  bool verify_;
  int64_t now_;
  std::vector<ColumnarBackupReader::TableBackup> backups_;
  std::vector<TableInfo> tables_;
  std::vector<RestoreUnit> units_;
  std::vector<std::pair<size_t, size_t>> unit_loc_;  // (table, block)
  uint64_t total_bytes_ = 0;
  DiskRestoreStats open_stats_;
};

// ---------------------------------------------------------------------------
// Row-major-disk source (.bak)
// ---------------------------------------------------------------------------

class BakRestoreSource : public RestoreSource {
 public:
  BakRestoreSource(std::string dir, uint64_t throttle_bytes_per_sec,
                   int64_t now)
      : dir_(std::move(dir)), throttle_(throttle_bytes_per_sec), now_(now) {}

  Status Init() {
    SCUBA_ASSIGN_OR_RETURN(std::vector<std::string> files,
                           ListFiles(dir_, ".bak"));
    if (files.empty()) {
      return Status::NotFound("no .bak backups in " + dir_);
    }
    std::sort(files.begin(), files.end());
    for (const std::string& file : files) {
      const size_t table_index = tables_.size();
      TableInfo info;
      info.name = file.substr(0, file.size() - 4);
      info.num_slots = 0;  // unknown until the translate runs
      tables_.push_back(std::move(info));
      // The row-major format cannot be random-accessed at block
      // granularity (recovery re-runs the whole decode+compress
      // pipeline), so the unit is the whole table with an
      // overlaps-everything time range: a query touching the table waits
      // for the table. This is the paper-honest floor; the .cols format
      // exists precisely to do better.
      RestoreUnit unit;
      unit.table_index = table_index;
      unit.slot = 0;
      unit.min_time = std::numeric_limits<int64_t>::min();
      unit.max_time = std::numeric_limits<int64_t>::max();
      unit.bytes = FileSize(dir_ + "/" + file);
      unit.whole_table = true;
      total_bytes_ += unit.bytes;
      units_.push_back(unit);
    }
    return Status::OK();
  }

  RecoverySource recovery_source() const override {
    return RecoverySource::kDisk;
  }
  const std::vector<TableInfo>& tables() const override { return tables_; }
  const std::vector<RestoreUnit>& units() const override { return units_; }
  uint64_t total_bytes() const override { return total_bytes_; }

  StatusOr<LoadedUnit> Load(size_t i) override {
    const std::string& name = tables_[units_[i].table_index].name;
    // Translate into a table of its own off the leaf's lock, then hand it
    // over whole — sealed blocks and unsealed write buffer — for adoption.
    // The file is read only up to its size at open: records the leaf
    // appended since are rows it ingested itself.
    LoadedUnit loaded;
    loaded.table = std::make_unique<Table>(name);
    SCUBA_RETURN_IF_ERROR(BackupReader::RecoverTable(
        dir_ + "/" + name + ".bak", units_[i].bytes, loaded.table.get(),
        throttle_, now_, &loaded.disk));
    return loaded;
  }

 private:
  std::string dir_;
  uint64_t throttle_;
  int64_t now_;
  std::vector<TableInfo> tables_;
  std::vector<RestoreUnit> units_;
  uint64_t total_bytes_ = 0;
};

uint64_t AutoBudget(const InstantRestoreEngine::Options& options,
                    const std::vector<RestoreUnit>& units) {
  if (options.max_in_flight_bytes != 0) return options.max_in_flight_bytes;
  uint64_t max_unit = 0;
  for (const RestoreUnit& u : units) max_unit = std::max(max_unit, u.bytes);
  return std::max<size_t>(1, options.num_copy_threads) * max_unit;
}

}  // namespace

StatusOr<std::unique_ptr<RestoreSource>> OpenShmRestoreSource(
    const std::string& namespace_prefix, uint32_t leaf_id,
    bool verify_checksums) {
  if (!LeafMetadata::Exists(namespace_prefix, leaf_id)) {
    return Status::NotFound("no shared memory metadata for leaf " +
                            std::to_string(leaf_id));
  }
  auto meta_or = LeafMetadata::Open(namespace_prefix, leaf_id);
  if (!meta_or.ok()) {
    // Unreadable metadata: scrub any segments we can find by prefix so the
    // broken state does not linger.
    ShmSegment::RemoveAll("/" + namespace_prefix + "_leaf_" +
                          std::to_string(leaf_id) + "_");
    return Status::FailedPrecondition("leaf metadata unreadable: " +
                                      meta_or.status().ToString());
  }
  LeafMetadata meta = std::move(meta_or).value();
  // Fig 7: if valid bit is false -> delete segments, recover from disk.
  if (!meta.valid()) {
    DestroyAllSegmentsLogged(&meta, "valid bit false");
    return Status::FailedPrecondition(
        "shared memory valid bit is false (crash or interrupted restore)");
  }
  // Layout version mismatch: this binary cannot interpret the segments.
  if (meta.layout_version() != kShmLayoutVersion) {
    DestroyAllSegmentsLogged(&meta, "layout version mismatch");
    return Status::FailedPrecondition(
        "shared memory layout version mismatch: segment v" +
        std::to_string(meta.layout_version()) + " vs binary v" +
        std::to_string(kShmLayoutVersion));
  }
  // Fig 7: set valid bit to false before touching segments — if the
  // restore is interrupted from here on, the next restart takes the disk
  // path.
  SCUBA_RETURN_IF_ERROR(meta.SetValid(false));

  auto source =
      std::make_unique<ShmRestoreSource>(std::move(meta), verify_checksums);
  Status s = source->Init();
  if (!s.ok()) {
    source->Abandon();
    return Status::Corruption("table segment unreadable: " + s.ToString());
  }
  return StatusOr<std::unique_ptr<RestoreSource>>(std::move(source));
}

StatusOr<std::unique_ptr<RestoreSource>> OpenColsRestoreSource(
    const std::string& dir, uint64_t throttle_bytes_per_sec,
    bool verify_checksums, const ColsCuts& cuts, int64_t now) {
  if (dir.empty() || !FileExists(dir)) {
    return Status::NotFound("no backup directory at '" + dir + "'");
  }
  auto source = std::make_unique<ColsRestoreSource>(
      dir, throttle_bytes_per_sec, verify_checksums, now);
  SCUBA_RETURN_IF_ERROR(source->Init(cuts));
  return StatusOr<std::unique_ptr<RestoreSource>>(std::move(source));
}

StatusOr<std::unique_ptr<RestoreSource>> OpenBakRestoreSource(
    const std::string& dir, uint64_t throttle_bytes_per_sec, int64_t now) {
  if (dir.empty() || !FileExists(dir)) {
    return Status::NotFound("no backup directory at '" + dir + "'");
  }
  auto source =
      std::make_unique<BakRestoreSource>(dir, throttle_bytes_per_sec, now);
  SCUBA_RETURN_IF_ERROR(source->Init());
  return StatusOr<std::unique_ptr<RestoreSource>>(std::move(source));
}

StatusOr<std::vector<Table*>> CreateRestoreTables(RestoreSource* source,
                                                  const TableLimits& limits,
                                                  int64_t now,
                                                  LeafMap* leaf_map) {
  std::vector<Table*> tables;
  tables.reserve(source->tables().size());
  for (size_t t = 0; t < source->tables().size(); ++t) {
    const RestoreSource::TableInfo& info = source->tables()[t];
    SCUBA_ASSIGN_OR_RETURN(Table * table,
                           leaf_map->CreateTable(info.name, limits));
    table->ReserveRestoreSlots(info.num_slots);
    if (std::unique_ptr<Table> tail = source->TakeTail(t)) {
      SCUBA_RETURN_IF_ERROR(table->AdoptRecovered(tail.get(), now));
    }
    tables.push_back(table);
  }
  return tables;
}

Status AdoptRestoredUnit(Table* table, const RestoreUnit& unit,
                         LoadedUnit loaded, int64_t now) {
  if (!unit.whole_table) {
    table->AdoptRowBlockAt(unit.slot, std::move(loaded.block));
    return Status::OK();
  }
  if (loaded.table == nullptr) return Status::OK();
  return table->AdoptRecovered(loaded.table.get(), now);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

InstantRestoreEngine::InstantRestoreEngine(
    std::unique_ptr<RestoreSource> source, Options options, AdoptFn adopt,
    DoneFn done)
    : source_(std::move(source)),
      options_(std::move(options)),
      adopt_(std::move(adopt)),
      done_(std::move(done)),
      phase_(RestorePhase(source_->recovery_source())),
      budget_(AutoBudget(options_, source_->units())),
      bitmap_(source_->units().size()) {
  const std::vector<RestoreUnit>& units = source_->units();
  started_.assign(units.size(), 0);
  priority_requested_.assign(units.size(), 0);
  holds_budget_.assign(units.size(), 0);
  table_units_.resize(source_->tables().size());
  table_remaining_.assign(source_->tables().size(), 0);
  table_begun_.assign(source_->tables().size(), 0);
  bucket_remaining_.assign(RestartHeartbeat::kBitmapBuckets, 0);
  for (size_t i = 0; i < units.size(); ++i) {
    table_units_[units[i].table_index].push_back(i);
    ++table_remaining_[units[i].table_index];
    ++bucket_remaining_[RestoreBitmap::BucketOf(
        i, units.size(), RestartHeartbeat::kBitmapBuckets)];
  }
}

InstantRestoreEngine::~InstantRestoreEngine() { Abandon(); }

void InstantRestoreEngine::Launch(size_t spawn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_flag_ = true;
    active_workers_ = std::max<size_t>(1, options_.num_copy_threads);
  }
  RestoreMetrics::Get().operations->Add(1);
  started_micros_ = RealClock::Get()->NowMicros();
  options_.events.RestoreBegin(phase_,
                               RecoverySourceName(source_->recovery_source()),
                               source_->units().size());
  workers_.reserve(spawn);
  for (size_t t = 0; t < spawn; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void InstantRestoreEngine::Start() {
  Launch(std::max<size_t>(1, options_.num_copy_threads));
}

Status InstantRestoreEngine::Run() {
  blocking_ = true;
  Launch(std::max<size_t>(1, options_.num_copy_threads) - 1);
  WorkerLoop();
  // Joining the spawned workers also waits out whichever of them was last
  // to leave and is still finalizing the source and firing done.
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  return final_status_;
}

int InstantRestoreEngine::TableIndex(const std::string& name) const {
  const std::vector<RestoreSource::TableInfo>& tables = source_->tables();
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool InstantRestoreEngine::PickUnit(size_t* unit, bool* on_demand) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cancelled_) return false;
  // Queries first: the deque is LIFO-pushed so the most recent waiter's
  // blocks are nearest the front, but any entry beats background work.
  while (!priority_.empty()) {
    size_t u = priority_.front();
    priority_.pop_front();
    if (started_[u] != 0) continue;  // claimed since it was queued
    started_[u] = 1;
    *unit = u;
    *on_demand = true;
    NoteClaimedLocked(u);
    return true;
  }
  // Background sequential filler: next unclaimed unit in source order
  // (tail-first within each shm segment, forward within each .cols file).
  while (next_background_ < started_.size() &&
         started_[next_background_] != 0) {
    ++next_background_;
  }
  if (next_background_ < started_.size()) {
    size_t u = next_background_++;
    started_[u] = 1;
    *unit = u;
    // A unit a query asked for but a background scan reached first still
    // counts as on-demand: the query is blocked on it either way.
    *on_demand = priority_requested_[u] != 0;
    NoteClaimedLocked(u);
    return true;
  }
  // Everything is claimed (maybe still in flight on other workers); this
  // worker has no more work.
  return false;
}

void InstantRestoreEngine::NoteClaimedLocked(size_t u) {
  const size_t t = source_->units()[u].table_index;
  if (table_begun_[t] != 0) return;
  table_begun_[t] = 1;
  options_.events.TableBegin(phase_, source_->tables()[t].name, 0,
                             table_units_[t].size());
}

void InstantRestoreEngine::FailLocked(size_t u, Status status) {
  if (first_error_.ok()) {
    first_error_ = std::move(status);
    failed_unit_ = static_cast<int64_t>(u);
  }
  cancelled_ = true;
  ReleaseAllBudgetLocked();
  done_cv_.notify_all();
}

void InstantRestoreEngine::ReleaseBudgetLocked(size_t u) {
  if (holds_budget_[u] == 0) return;
  holds_budget_[u] = 0;
  budget_.Release(source_->units()[u].bytes);
}

void InstantRestoreEngine::ReleaseAllBudgetLocked() {
  for (size_t u = 0; u < holds_budget_.size(); ++u) ReleaseBudgetLocked(u);
}

void InstantRestoreEngine::WorkerLoop() {
  const std::vector<RestoreUnit>& units = source_->units();
  RestoreMetrics& metrics = RestoreMetrics::Get();
  for (;;) {
    size_t u = 0;
    bool on_demand = false;
    {
      std::lock_guard<std::mutex> claim(claim_mutex_);
      if (!PickUnit(&u, &on_demand)) break;
      budget_.Acquire(units[u].bytes);
    }
    const RestoreUnit& unit = units[u];
    {
      // Re-check after a potentially long Acquire: a cancel while parked
      // must not start new copies.
      std::lock_guard<std::mutex> lock(mutex_);
      if (cancelled_) {
        budget_.Release(unit.bytes);
        continue;  // PickUnit returns false next round
      }
      holds_budget_[u] = 1;
    }

    StatusOr<LoadedUnit> loaded = source_->Load(u);
    Status status = loaded.status();
    uint64_t num_blocks = 0;
    uint64_t num_columns = 0;
    DiskRestoreStats disk;
    int64_t verify_micros = 0;
    if (status.ok()) {
      num_blocks = loaded.value().NumBlocks();
      num_columns = loaded.value().columns_copied;
      disk = loaded.value().disk;
      verify_micros = loaded.value().verify_micros;
      if (options_.footprint != nullptr) options_.footprint->Add(unit.bytes);
      status = adopt_(unit, std::move(loaded).value());
    }
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      FailLocked(u, std::move(status));
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      bitmap_.Set(u);
      ++done_count_;
      stats_.row_blocks_restored += num_blocks;
      stats_.columns_restored += num_columns;
      stats_.bytes_copied += unit.bytes;
      stats_.verify_micros += verify_micros;
      disk_stats_.Add(disk);
      if (on_demand) {
        ++stats_.blocks_on_demand;
        metrics.blocks_on_demand->Add(1);
      } else {
        ++stats_.blocks_background;
        metrics.blocks_background->Add(1);
      }
      metrics.row_blocks->Add(num_blocks);
      metrics.columns->Add(num_columns);
      metrics.bytes->Add(unit.bytes);
      metrics.verify_micros->Add(static_cast<uint64_t>(verify_micros));
      metrics.block_bytes->Record(unit.bytes);
      const size_t bucket = RestoreBitmap::BucketOf(
          u, units.size(), RestartHeartbeat::kBitmapBuckets);
      const uint64_t completed_bits =
          --bucket_remaining_[bucket] == 0 ? 1ull << bucket : 0;
      options_.events.BlockRestored(unit.bytes, on_demand, completed_bits);
      if (--table_remaining_[unit.table_index] == 0) {
        options_.events.TableEnd(phase_,
                                 source_->tables()[unit.table_index].name, 0,
                                 table_units_[unit.table_index].size());
      }
      const RestoreSource::Drained drained = source_->UnitDrained(u);
      if (options_.footprint != nullptr) {
        options_.footprint->Sub(drained.bytes_freed);
      }
      // Budget returns once the source's pages are gone; a query-pulled
      // unit returns it now, since its pages may wait on a watermark that
      // only background work advances.
      if (on_demand || cancelled_) ReleaseBudgetLocked(u);
      for (size_t v = drained.first_unit; v < drained.end_unit; ++v) {
        ReleaseBudgetLocked(v);
      }
      done_cv_.notify_all();
    }
    if (options_.unit_hook) options_.unit_hook(u);
  }

  bool last;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last = (--active_workers_ == 0);
  }
  if (last) FinishOnLastWorker();
}

void InstantRestoreEngine::FinishOnLastWorker() {
  // All workers have left their loops: no Load/adopt is running anywhere,
  // so the source and the leaf's tables are quiescent — safe to finalize
  // or hand control to the fallback.
  bool abandoned;
  bool was_cancelled;
  Status err;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    abandoned = abandoned_;
    was_cancelled = cancelled_;
    err = first_error_;
    finished_ = true;
    done_cv_.notify_all();
  }
  if (abandoned) return;  // Abandon() owns the source teardown
  Status result;
  if (was_cancelled) {
    if (err.ok()) err = Status::Internal("restore cancelled");
    options_.events.Cancel(phase_, err.ToString(), done_count_,
                           source_->units().size());
    source_->Abandon();
    result = err;
  } else {
    stats_.tables_restored += source_->tables().size();
    stats_.elapsed_micros = RealClock::Get()->NowMicros() - started_micros_;
    disk_stats_.Add(source_->open_stats());
    RestoreMetrics& metrics = RestoreMetrics::Get();
    metrics.tables->Add(source_->tables().size());
    metrics.elapsed_micros->Record(
        static_cast<uint64_t>(stats_.elapsed_micros.load()));
    result = source_->Finalize();
    SCUBA_INFO << "restore (" << (blocking_ ? "blocking" : "instant") << ", "
               << RecoverySourceName(source_->recovery_source())
               << "): " << stats_.tables_restored << " tables, "
               << stats_.row_blocks_restored << " blocks ("
               << stats_.blocks_on_demand << " on demand), "
               << stats_.bytes_copied << " bytes in "
               << stats_.elapsed_micros / 1000 << " ms ("
               << std::max<size_t>(1, options_.num_copy_threads)
               << " copy threads), checksums "
               << stats_.verify_micros / 1000 << " ms (crc32c "
               << crc32c::ActivePathName() << ")";
    options_.events.RestoreEnd(phase_, done_count_, source_->units().size());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    source_released_ = true;
    final_status_ = result;
  }
  if (done_) done_(result);
}

InstantRestoreEngine::WaitResult InstantRestoreEngine::EnsureAvailable(
    size_t table_index, int64_t begin, int64_t end) {
  WaitResult result;
  const int64_t t0 = RealClock::Get()->NowMicros();
  std::unique_lock<std::mutex> lock(mutex_);
  if (table_index >= table_units_.size()) return result;
  const std::vector<RestoreUnit>& units = source_->units();
  std::vector<size_t> wait_set;
  for (size_t u : table_units_[table_index]) {
    if (bitmap_.Test(u)) continue;
    if (!units[u].OverlapsTimeRange(begin, end)) continue;
    wait_set.push_back(u);
    if (started_[u] == 0 && priority_requested_[u] == 0) {
      priority_requested_[u] = 1;
      priority_.push_front(u);
      ++result.blocks_requested;
    }
  }
  if (wait_set.empty()) return result;
  done_cv_.wait(lock, [&] {
    if (cancelled_) return true;
    for (size_t u : wait_set) {
      if (!bitmap_.Test(u)) return false;
    }
    return true;
  });
  for (size_t u : wait_set) {
    if (!bitmap_.Test(u)) {
      result.cancelled = true;
      break;
    }
  }
  result.waited_micros = RealClock::Get()->NowMicros() - t0;
  return result;
}

void InstantRestoreEngine::Cancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_ || cancelled_) return;
  cancelled_ = true;
  ReleaseAllBudgetLocked();
  options_.events.Cancel(phase_, "restore cancel requested", done_count_,
                         source_->units().size());
  done_cv_.notify_all();
}

void InstantRestoreEngine::Abandon() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (abandoned_) return;
    abandoned_ = true;
    cancelled_ = true;
    ReleaseAllBudgetLocked();
    done_cv_.notify_all();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  bool need_release;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    need_release = !source_released_;
    source_released_ = true;
  }
  if (need_release) source_->Abandon();
}

InstantRestoreEngine::Progress InstantRestoreEngine::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Progress p;
  p.units_total = bitmap_.size();
  p.units_done = done_count_;
  p.blocks_on_demand = stats_.blocks_on_demand.load();
  p.blocks_background = stats_.blocks_background.load();
  p.finished = finished_;
  p.cancelled = cancelled_;
  return p;
}

bool InstantRestoreEngine::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

int64_t InstantRestoreEngine::failed_unit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_unit_;
}

}  // namespace scuba
