#include "core/shutdown.h"

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "shm/leaf_metadata.h"
#include "shm/table_segment.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace scuba {
namespace {

// Cumulative process-wide mirror of ShutdownStats (scuba.core.shutdown.*).
struct ShutdownMetrics {
  obs::Counter* operations;
  obs::Counter* tables;
  obs::Counter* row_blocks;
  obs::Counter* columns;
  obs::Counter* bytes;
  obs::Counter* segment_grows;
  obs::Histogram* column_bytes;
  obs::Histogram* elapsed_micros;

  static ShutdownMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ShutdownMetrics m{
        reg.GetCounter("scuba.core.shutdown.operations"),
        reg.GetCounter("scuba.core.shutdown.tables_copied"),
        reg.GetCounter("scuba.core.shutdown.row_blocks_copied"),
        reg.GetCounter("scuba.core.shutdown.columns_copied"),
        reg.GetCounter("scuba.core.shutdown.bytes_copied"),
        reg.GetCounter("scuba.core.shutdown.segment_grows"),
        reg.GetHistogram("scuba.core.shutdown.column_bytes"),
        reg.GetHistogram("scuba.core.shutdown.elapsed_micros")};
    return m;
  }
};

std::string TableSegmentName(const ShutdownOptions& options, size_t index) {
  return "/" + options.namespace_prefix + "_leaf_" +
         std::to_string(options.leaf_id) + "_table_" + std::to_string(index);
}

// Largest single RBC buffer in the leaf — the unit of the §4.4 footprint
// overshoot, and the auto-budget multiplier.
uint64_t MaxColumnBytes(const LeafMap& leaf_map) {
  uint64_t max_column = 0;
  for (const std::string& name : leaf_map.TableNames()) {
    const Table* table = leaf_map.GetTable(name);
    for (size_t b = 0; b < table->num_row_blocks(); ++b) {
      const RowBlock* block = table->row_block(b);
      if (block == nullptr) continue;
      for (size_t c = 0; c < block->num_columns(); ++c) {
        if (block->column(c) != nullptr) {
          max_column = std::max(max_column, block->column(c)->total_bytes());
        }
      }
    }
  }
  return max_column;
}

// One table's shm segment plus what is needed to seal and free it after
// the copy fan-out completes.
struct TableCopyJob {
  std::unique_ptr<TableSegmentWriter> writer;
  std::string table_name;
  uint64_t num_blocks = 0;
  uint64_t table_bytes = 0;
};

}  // namespace

Status ShutdownToShm(LeafMap* leaf_map, const ShutdownOptions& options,
                     ShutdownStats* stats, FootprintTracker* tracker) {
  Stopwatch watch;
  obs::PhaseTracer* tracer = options.tracer;
  // The first span opens immediately: metric-handle initialization (first
  // call only) costs tens of microseconds and must not show up as a hole
  // at the front of the timeline.
  obs::PhaseTracer::Span seal_span(tracer, "seal_buffers");
  ShutdownMetrics& metrics = ShutdownMetrics::Get();
  metrics.operations->Add(1);

  // The server's PREPARE step seals write buffers; seal here as a backstop
  // so no buffered rows are silently dropped. Done before byte accounting
  // so heap_bytes reflects the sealed (compressed) sizes.
  std::vector<std::string> table_names = leaf_map->TableNames();
  for (const std::string& name : table_names) {
    SCUBA_RETURN_IF_ERROR(
        leaf_map->GetTable(name)->SealWriteBuffer(options.now));
  }
  seal_span.End();

  // Combined heap+shm accounting, shared by all copy workers.
  FootprintCounter footprint(leaf_map->TotalMemoryBytes(), tracker);
  // External progress publication (§4.3 made observable).
  const RestartEvents& events = options.events;

  // Cooperative cancel: the first observer (an options.cancel flip or a
  // failed worker) sets `aborted`; everyone else drains fast.
  std::atomic<bool> aborted{false};
  auto cancelled = [&options, &aborted] {
    return aborted.load(std::memory_order_relaxed) ||
           (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_acquire));
  };

  // Fig 6 step 1-2: metadata segment with valid=false.
  obs::PhaseTracer::Span meta_span(tracer, "create_metadata");
  SCUBA_ASSIGN_OR_RETURN(
      LeafMetadata meta,
      LeafMetadata::Create(options.namespace_prefix, options.leaf_id));
  meta_span.End();

  // The copy-out phase: budget sizing, per-table layout reservation, the
  // column memcpy fan-out, and segment sealing all belong to it.
  obs::PhaseTracer::Span copy_span(tracer, "copy_out");
  events.EnterCopyPhase(RestartPhase::kCopyOut, leaf_map->TotalMemoryBytes(),
                        table_names.size());

  // In-flight budget: bytes copied to shm whose heap column has not been
  // freed yet. Serial mode needs none — the Fig 6 loop frees each column
  // right after its copy, so the overshoot is exactly one column.
  const size_t threads = std::max<size_t>(1, options.num_copy_threads);
  uint64_t budget_limit = 0;
  if (threads > 1) {
    budget_limit = options.max_in_flight_bytes != 0
                       ? options.max_in_flight_bytes
                       : threads * MaxColumnBytes(*leaf_map);
  }
  ByteBudget budget(budget_limit);

  // Destruction order matters on early return: the pool (declared last)
  // drains and joins first, so queued tasks never outlive the writers,
  // tables, budget, or footprint counter they reference.
  std::vector<TableCopyJob> jobs;
  jobs.reserve(table_names.size());
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  for (size_t t = 0; t < table_names.size(); ++t) {
    Table* table = leaf_map->GetTable(table_names[t]);

    // Serial mode: the span covers the table's whole Fig 6 copy. Parallel
    // mode: it covers only the layout reservation — the copies drain
    // asynchronously under the enclosing copy_out span.
    obs::PhaseTracer::Span table_span(
        tracer, (pool == nullptr ? "table:" : "reserve:") + table_names[t]);

    // Fig 6: estimate size of table, create table shm segment.
    uint64_t table_bytes = table->MemoryBytes();
    table_span.AddBytes(table_bytes);
    size_t estimate = static_cast<size_t>(
        static_cast<double>(table_bytes) * options.size_estimate_factor +
        4096.0 + 512.0 * static_cast<double>(table->num_row_blocks()));
    std::string segment_name = TableSegmentName(options, t);
    SCUBA_ASSIGN_OR_RETURN(
        TableSegmentWriter writer,
        TableSegmentWriter::Create(segment_name, table->name(), estimate));
    SCUBA_RETURN_IF_ERROR(meta.AddTableSegment(segment_name));

    jobs.push_back(TableCopyJob{
        std::make_unique<TableSegmentWriter>(std::move(writer)),
        table_names[t], table->num_row_blocks(), table_bytes});
    TableCopyJob& job = jobs.back();
    events.TableBegin(RestartPhase::kCopyOut, job.table_name, table_bytes,
                      job.num_blocks);
    TableSegmentWriter* w = job.writer.get();
    footprint.Add(w->used_bytes());

    // Reserve the whole table's layout serially — reservation may grow
    // (remap) the segment, so every reservation must finish before this
    // segment's copies start (the table_segment.h contract). Tasks are
    // buffered and submitted only after the loop, once the mapping can no
    // longer move; copies then write to disjoint, stable offsets.
    std::vector<std::function<void()>> deferred;
    if (pool != nullptr) deferred.reserve(job.num_blocks);
    for (uint64_t b = 0; b < job.num_blocks; ++b) {
      RowBlock* block = table->mutable_row_block(b);
      SCUBA_RETURN_IF_ERROR(w->AppendRowBlockMeta(*block));

      const size_t num_columns = block->num_columns();
      std::vector<size_t> offsets(num_columns);
      for (size_t c = 0; c < num_columns; ++c) {
        uint64_t grows_before = tracer != nullptr ? w->grow_count() : 0;
        int64_t reserve_start = tracer != nullptr ? tracer->ElapsedMicros() : 0;
        SCUBA_ASSIGN_OR_RETURN(
            offsets[c],
            w->ReserveColumnSlot(block->column(c)->total_bytes()));
        if (tracer != nullptr && w->grow_count() != grows_before) {
          tracer->AddCompletedSpan("segment_grow", reserve_start,
                                   tracer->ElapsedMicros(),
                                   block->column(c)->total_bytes());
        }
      }

      // Fig 6 inner loop for one row block: copy each column (ONE memcpy —
      // offsets, not pointers, make the buffer position-independent), then
      // delete it from the heap.
      auto copy_block = [w, block, offsets = std::move(offsets), &budget,
                         &footprint, stats, &metrics, &events, &cancelled,
                         &aborted, &options,
                         free_incrementally = options.free_incrementally] {
        // Cancel granularity is one row block: a watchdog kill lands here
        // before the next block's memcpys start.
        if (cancelled()) {
          aborted.store(true, std::memory_order_relaxed);
          return;
        }
        for (size_t c = 0; c < offsets.size(); ++c) {
          const RowBlockColumn* column = block->column(c);
          uint64_t column_bytes = column->total_bytes();
          budget.Acquire(column_bytes);
          w->CopyIntoSlot(offsets[c], column->AsSlice());
          footprint.Add(column_bytes);
          ++stats->columns_copied;
          stats->bytes_copied += column_bytes;
          metrics.columns->Add(1);
          metrics.bytes->Add(column_bytes);
          metrics.column_bytes->Record(column_bytes);
          events.BytesCopied(column_bytes);
          if (free_incrementally) {
            // Fig 6: delete row block column from heap.
            block->ReleaseColumn(c).reset();
            footprint.Sub(column_bytes);
          }
          budget.Release(column_bytes);
        }
        ++stats->row_blocks_copied;
        metrics.row_blocks->Add(1);
        if (options.after_block_copied) options.after_block_copied();
      };
      if (pool != nullptr) {
        deferred.push_back(std::move(copy_block));
      } else {
        copy_block();
        if (aborted.load(std::memory_order_relaxed)) {
          events.Cancel(RestartPhase::kCopyOut, "shutdown cancelled mid-copy");
          return Status::Aborted("shutdown cancelled mid-copy");
        }
      }
    }
    for (auto& task : deferred) pool->Submit(std::move(task));

    if (pool == nullptr) {
      // Serial mode: seal and free this table before moving to the next,
      // exactly the Fig 6 ordering.
      stats->segment_grow_count += w->grow_count();
      metrics.segment_grows->Add(w->grow_count());
      SCUBA_RETURN_IF_ERROR(w->Finish(job.num_blocks));
      if (options.free_incrementally) {
        for (uint64_t b = 0; b < job.num_blocks; ++b) {
          // Fig 6: delete row block from heap (columns already freed).
          table->ReleaseRowBlock(b).reset();
        }
        // Fig 6: delete table from heap.
        leaf_map->ReleaseTable(table_names[t]).reset();
      }
      ++stats->tables_copied;
      metrics.tables->Add(1);
      events.TableEnd(RestartPhase::kCopyOut, job.table_name, job.table_bytes,
                      job.num_blocks);
      // Unmap now, inside the table span: munmap's page-table teardown is
      // proportional to segment size and must not land after the timeline.
      job.writer.reset();
    }
  }

  if (pool != nullptr) {
    // The drain: layout is fully reserved, workers finish the memcpys,
    // then every segment is sealed.
    obs::PhaseTracer::Span drain_span(tracer, "drain");
    pool->Wait();
    if (cancelled()) {
      // A worker observed the cancel (or the flag flipped while draining):
      // segments are part-copied, so skip sealing — the valid bit stays
      // false and the successor disk-recovers.
      events.Cancel(RestartPhase::kCopyOut, "shutdown cancelled mid-copy");
      return Status::Aborted("shutdown cancelled mid-copy");
    }
    for (TableCopyJob& job : jobs) {
      stats->segment_grow_count += job.writer->grow_count();
      metrics.segment_grows->Add(job.writer->grow_count());
      SCUBA_RETURN_IF_ERROR(job.writer->Finish(job.num_blocks));
      if (options.free_incrementally) {
        Table* table = leaf_map->GetTable(job.table_name);
        for (uint64_t b = 0; b < job.num_blocks; ++b) {
          table->ReleaseRowBlock(b).reset();
        }
        leaf_map->ReleaseTable(job.table_name).reset();
      }
      ++stats->tables_copied;
      metrics.tables->Add(1);
      events.TableEnd(RestartPhase::kCopyOut, job.table_name, job.table_bytes,
                      job.num_blocks);
      // As in serial mode: the size-proportional munmap belongs to the
      // drain, not to destructors running after the timeline closed.
      job.writer.reset();
    }
    // Tear the pool down while the drain span is open: joining the worker
    // threads is part of the drain, not post-shutdown cleanup.
    pool.reset();
  }

  // Naive (non-paper) strategy frees everything only now.
  if (!options.free_incrementally) {
    for (const std::string& name : table_names) {
      Table* table = leaf_map->GetTable(name);
      footprint.Sub(table->MemoryBytes());
      leaf_map->ReleaseTable(name).reset();
    }
  }
  copy_span.End();

  // Fig 6 final step: set valid bit to true. Everything before this point
  // leaves the valid bit false, so a failure or kill forces disk recovery.
  if (cancelled()) {
    events.Cancel(RestartPhase::kCopyOut,
                  "shutdown cancelled before set_valid");
    return Status::Aborted("shutdown cancelled before set_valid");
  }
  obs::PhaseTracer::Span valid_span(tracer, "set_valid");
  events.EnterPhase(RestartPhase::kSetValid, "",
                    stats->bytes_copied.load(std::memory_order_relaxed));
  SCUBA_RETURN_IF_ERROR(meta.SetValid(true));
  valid_span.End();

  // The epilogue — stats recording plus the one-line shutdown log (a
  // formatted write() syscall) — is covered by its own span so the dumped
  // timeline accounts for (nearly) all wall time.
  obs::PhaseTracer::Span report_span(tracer, "report");
  stats->elapsed_micros = watch.ElapsedMicros();
  metrics.elapsed_micros->Record(
      static_cast<uint64_t>(stats->elapsed_micros.load()));
  SCUBA_INFO << "shutdown-to-shm: " << stats->tables_copied << " tables, "
             << stats->bytes_copied << " bytes in "
             << stats->elapsed_micros / 1000 << " ms ("
             << threads << (threads == 1 ? " thread)" : " threads)");
  return Status::OK();
}

}  // namespace scuba
