#include "cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "disk/file.h"
#include "shm/restart_heartbeat.h"
#include "shm/shm_segment.h"
#include "util/clock.h"
#include "util/logging.h"

namespace scuba {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), random_(config_.seed) {
  // The SLO tracker exists before any leaf: MakeLeafConfig hands leaf 0 a
  // pointer so its exporter feeds `__scuba_slo`.
  if (config_.slo_target_p99_micros > 0) {
    obs::SloTrackerOptions topts;
    topts.slo_p99_micros = config_.slo_target_p99_micros;
    if (config_.slo_window_seconds > 0) {
      topts.window_seconds = config_.slo_window_seconds;
    }
    if (config_.clock != nullptr) {
      Clock* clock = config_.clock;
      topts.now_unix_seconds = [clock] { return clock->NowUnixSeconds(); };
    }
    slo_tracker_ = std::make_unique<obs::SloTracker>(topts);
  }
  size_t total = config_.num_machines * config_.leaves_per_machine;
  leaves_.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    leaves_.push_back(
        std::make_unique<LeafServer>(MakeLeafConfig(static_cast<uint32_t>(i))));
  }
  aggregator_.SetLeaves(LeafPointers());
  aggregator_.SetTraceSampling(config_.trace_sample_every_n);
  aggregator_.SetSlowQueryLog(config_.slow_query_log_threshold_micros,
                              config_.slow_query_sample_every_n);
  if (slo_tracker_ != nullptr) {
    aggregator_.SetSloTracker(slo_tracker_.get());
    if (config_.admission_control_enabled) {
      aggregator_.EnableAdmissionControl(config_.admission);
      // Shed decisions land in leaf 0's flight-recorder ring (the same
      // leaf that publishes `__scuba_slo`): an autopsy of a leaf that died
      // under load then shows the shedding in its final timeline.
      if (!leaves_.empty()) {
        aggregator_.admission_controller()->SetFlightRecorder(
            leaves_[0]->flight_recorder());
      }
    }
  }
  if (config_.query_deadline_micros > 0) {
    aggregator_.SetDefaultDeadlineMicros(config_.query_deadline_micros);
  }
}

Cluster::~Cluster() = default;

LeafServerConfig Cluster::MakeLeafConfig(uint32_t leaf_id) const {
  LeafServerConfig lc;
  lc.leaf_id = leaf_id;
  lc.namespace_prefix = config_.namespace_prefix;
  if (!config_.backup_root.empty()) {
    lc.backup_dir = config_.backup_root + "/leaf_" + std::to_string(leaf_id);
  }
  lc.memory_recovery_enabled = config_.memory_recovery_enabled;
  lc.instant_restore_enabled = config_.instant_restore_enabled;
  lc.memory_capacity_bytes = config_.leaf_memory_capacity_bytes;
  lc.default_table_limits = config_.default_table_limits;
  lc.publish_restart_heartbeat = config_.publish_restart_heartbeat;
  lc.self_stats_enabled = config_.self_stats_enabled;
  lc.self_stats_period_millis = config_.self_stats_period_millis;
  // Exactly ONE leaf publishes the tracker's windows into `__scuba_slo` —
  // every leaf shares the process-wide tracker, so wiring more would
  // duplicate the rows at query time.
  lc.slo_tracker = (leaf_id == 0) ? slo_tracker_.get() : nullptr;
  lc.clock = config_.clock;
  return lc;
}

std::vector<LeafServer*> Cluster::LeafPointers() const {
  std::vector<LeafServer*> pointers;
  pointers.reserve(leaves_.size());
  for (const auto& leaf : leaves_) pointers.push_back(leaf.get());
  return pointers;
}

Status Cluster::Start() {
  if (!config_.backup_root.empty()) {
    SCUBA_RETURN_IF_ERROR(EnsureDir(config_.backup_root));
  }
  for (auto& leaf : leaves_) {
    SCUBA_ASSIGN_OR_RETURN(RecoveryResult result, leaf->Start());
    (void)result;
  }
  if (config_.health_monitor_enabled && health_monitor_ == nullptr) {
    // The rules are evaluated by REAL aggregator queries against the
    // self-hosted tables — the monitor watches exactly what an operator
    // querying `__scuba_slo` would see, and its own queries are system
    // queries (no admission, no SLO feed, no self-amplification).
    obs::AlertEngine::Options eopts;
    eopts.query =
        [this](const Query& q) -> StatusOr<std::vector<ResultRow>> {
      StatusOr<QueryResult> result = aggregator_.Execute(q);
      if (!result.ok()) return result.status();
      return result->Finalize(q.aggregates, q.limit);
    };
    // Alert transitions route to the first live leaf's exporter, resolved
    // per emission — rollovers replace LeafServer objects, so a captured
    // pointer would dangle.
    eopts.sink = [this](Row row) -> Status {
      for (auto& leaf : leaves_) {
        if (leaf->stats_exporter() != nullptr && leaf->IsAlive()) {
          return leaf->stats_exporter()->ExportSystemRow(
              obs::kAlertsTableName, std::move(row));
        }
      }
      return Status::Unavailable("no live leaf exporter for __scuba_alerts");
    };
    if (config_.clock != nullptr) {
      Clock* clock = config_.clock;
      eopts.now_unix_seconds = [clock] { return clock->NowUnixSeconds(); };
    }
    obs::HealthMonitorOptions mopts;
    mopts.period_millis = config_.health_period_millis;
    health_monitor_ = std::make_unique<obs::HealthMonitor>(
        obs::DefaultRulePack(config_.health_rules), std::move(eopts), mopts);
    health_monitor_->Start();
  }
  return Status::OK();
}

void Cluster::AddTailer(const std::string& category, size_t batch_rows) {
  TailerConfig tc;
  tc.category = category;
  tc.batch_rows = batch_rows;
  tc.seed = config_.seed + tailers_.size() + 1;
  tailers_.push_back(std::make_unique<Tailer>(tc, &log_, LeafPointers()));
}

StatusOr<uint64_t> Cluster::PumpTailers(bool flush) {
  uint64_t delivered = 0;
  for (auto& tailer : tailers_) {
    SCUBA_ASSIGN_OR_RETURN(uint64_t n, tailer->Pump(flush));
    delivered += n;
  }
  return delivered;
}

Status Cluster::MonitoredShutdown(
    LeafServer* old_leaf, const RealRolloverOptions& options,
    RealRolloverReport* report,
    const std::function<DashboardSample()>& base_sample) {
  uint32_t leaf_id = old_leaf->config().leaf_id;
  auto reader =
      RestartHeartbeat::OpenForRead(config_.namespace_prefix, leaf_id);
  ShutdownStats stats;
  if (!reader.ok()) {
    // No heartbeat block (leaf opted out or attach failed at start): fall
    // back to the unmonitored synchronous path.
    return old_leaf->ShutdownToSharedMemory(&stats);
  }

  Status shutdown_status;
  std::atomic<bool> done{false};
  std::thread worker([&] {
    shutdown_status = old_leaf->ShutdownToSharedMemory(&stats);
    done.store(true, std::memory_order_release);
  });

  // Poll the heartbeat: any advance (phase, bytes, or stamp) resets the
  // stall clock; silence past the threshold means the copy loop is wedged
  // (or the process would be dead, in the multi-process deployment) and
  // the leaf gets a targeted cancel instead of a blind kill -9.
  RestartHeartbeat::Reading last{};
  RestartPhase recorded_phase = RestartPhase::kIdle;
  int64_t last_advance_micros = RestartHeartbeat::MonotonicMicros();
  const int64_t stall_micros = options.heartbeat_stall_millis * 1000;
  bool cancelled = false;
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.heartbeat_poll_millis));
    auto reading = reader->Read();
    if (reading.ok()) {
      if (reading->AdvancedOver(last)) {
        last = *reading;
        last_advance_micros = RestartHeartbeat::MonotonicMicros();
      }
      // Timeline: one live sample per phase transition, carrying the
      // heartbeat's progress counters for the dashboard.
      if (reading->phase != recorded_phase) {
        recorded_phase = reading->phase;
        DashboardSample s = base_sample();
        s.phase = std::string(RestartPhaseName(reading->phase));
        s.bytes_copied = reading->bytes_copied;
        s.bytes_total = reading->bytes_total;
        s.blocks_total = reading->blocks_total;
        s.blocks_restored = reading->blocks_restored;
        s.blocks_on_demand = reading->blocks_on_demand;
        report->timeline.push_back(s);
      }
    }
    if (!cancelled && stall_micros > 0 &&
        RestartHeartbeat::MonotonicMicros() - last_advance_micros >
            stall_micros) {
      SCUBA_WARN << "leaf " << leaf_id << " heartbeat stalled in phase "
                 << RestartPhaseName(last.phase) << " ("
                 << last.bytes_copied << "/" << last.bytes_total
                 << " bytes); cancelling shutdown";
      // The watchdog's verdict goes into the leaf's own flight-recorder
      // ring: the successor's autopsy then shows WHO cancelled and why,
      // not just that the copy stopped.
      const RestartEvents events = old_leaf->restart_events();
      events.Stall(last.phase,
                   RestartHeartbeat::MonotonicMicros() - last_advance_micros,
                   last.bytes_copied);
      events.Cancel(last.phase, "watchdog: heartbeat stall");
      old_leaf->RequestShutdownCancel();
      cancelled = true;
      ++report->heartbeat_stall_cancels;
    }
  }
  worker.join();
  return shutdown_status;
}

Status Cluster::RolloverLeaf(
    size_t index, const RealRolloverOptions& options,
    RealRolloverReport* report,
    const std::function<DashboardSample()>& base_sample) {
  LeafServer* old_leaf = leaves_[index].get();
  uint32_t leaf_id = old_leaf->config().leaf_id;

  if (options.use_shared_memory) {
    if (options.inject_shutdown_kill_rate > 0 &&
        random_.Bernoulli(options.inject_shutdown_kill_rate)) {
      old_leaf->InjectShutdownKillForTest();
    }
    Status s;
    if (options.monitor_heartbeat &&
        old_leaf->config().publish_restart_heartbeat) {
      s = MonitoredShutdown(old_leaf, options, report, base_sample);
    } else {
      ShutdownStats stats;
      s = old_leaf->ShutdownToSharedMemory(&stats);
    }
    if (s.IsAborted()) {
      // Watchdog kill (§4.3): the script gives up on this leaf; its
      // successor recovers from the disk backup instead.
      ++report->watchdog_kills;
    } else {
      SCUBA_RETURN_IF_ERROR(s);
    }
  } else {
    // Forced disk path: flush backups via clean shm shutdown, then scrub
    // the segments so the new process must read from disk.
    ShutdownStats stats;
    SCUBA_RETURN_IF_ERROR(old_leaf->ShutdownToSharedMemory(&stats));
    ShmSegment::RemoveAll("/" + config_.namespace_prefix + "_leaf_" +
                          std::to_string(leaf_id) + "_");
  }

  // The "new binary": a fresh LeafServer for the same id recovers the
  // previous process's state.
  auto fresh = std::make_unique<LeafServer>(MakeLeafConfig(leaf_id));
  SCUBA_ASSIGN_OR_RETURN(RecoveryResult result, fresh->Start());
  // The successor drained its predecessor's flight-recorder ring during
  // Start(); surface the postmortem on the rollover timeline so the
  // dashboard's detailed view can show it next to the live phase samples.
  if (fresh->last_autopsy().has_events) {
    DashboardSample s = base_sample();
    s.phase = std::string(RestartPhaseName(RestartPhase::kOpenMetadata));
    s.autopsy = fresh->last_autopsy().Summary();
    report->timeline.push_back(std::move(s));
  }
  switch (result.source) {
    case RecoverySource::kSharedMemory:
      ++report->shm_recoveries;
      break;
    case RecoverySource::kDisk:
      ++report->disk_recoveries;
      break;
    case RecoverySource::kFresh:
      ++report->fresh_recoveries;
      break;
  }
  if (index == 0 && aggregator_.admission_controller() != nullptr) {
    // The admission controller mirrors shed decisions into leaf 0's
    // flight-recorder ring. The assignment below destroys the old leaf
    // (and the ring mapping it owns), so re-point the controller at the
    // successor's ring first.
    aggregator_.admission_controller()->SetFlightRecorder(
        fresh->flight_recorder());
  }
  leaves_[index] = std::move(fresh);
  return Status::OK();
}

bool Cluster::HealthGatePasses(const RealRolloverOptions& options,
                               RealRolloverReport* report) {
  if (health_monitor_ == nullptr || !options.health_gate_enabled ||
      options.health_gate_override) {
    return true;
  }
  // Evaluate inline on the orchestrator thread: the gate must judge the
  // cluster as it is NOW, not as of the background thread's last tick
  // (and with period_millis <= 0 there is no background thread at all).
  (void)health_monitor_->EvaluateNow();
  obs::HealthLevel level = health_monitor_->level();

  if (level == obs::HealthLevel::kDegraded) {
    // Warnings pause rather than abort: give the cluster the pause budget
    // to digest whatever the last batch stirred up, keep the tailers
    // draining meanwhile, and re-judge.
    ++report->health_gate_pauses;
    Stopwatch pause;
    while (level == obs::HealthLevel::kDegraded &&
           pause.ElapsedMicros() <
               options.health_gate_max_pause_millis * 1000) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.health_gate_poll_millis));
      if (options.pump_tailers_between_batches) {
        (void)PumpTailers().status();
      }
      (void)health_monitor_->EvaluateNow();
      level = health_monitor_->level();
    }
  }
  if (level == obs::HealthLevel::kOk) return true;

  // CRITICAL, or DEGRADED that outlasted the pause budget: stop pushing
  // restarts into a cluster that is already hurting.
  std::string reason(obs::HealthLevelName(level));
  for (const obs::ActiveAlert& alert : health_monitor_->ActiveAlerts()) {
    reason += " ";
    reason += alert.name;
  }
  SCUBA_WARN << "health gate aborting rollover: " << reason;
  report->health_gate_aborted = true;
  report->health_gate_reason = std::move(reason);
  return false;
}

StatusOr<RealRolloverReport> Cluster::Rollover(
    const RealRolloverOptions& options) {
  RealRolloverReport report;
  Stopwatch watch;

  const size_t total = leaves_.size();
  report.rows_before = TotalRowCount();
  size_t batch_size = std::max<size_t>(
      1, static_cast<size_t>(std::floor(static_cast<double>(total) *
                                        options.batch_fraction)));
  batch_size = std::min(
      batch_size, config_.num_machines * options.max_restarting_per_machine);

  // Stripe the batch across machines: leaves are stored machine-striped
  // (leaf i on machine i % M), so consecutive indices hit distinct
  // machines.
  size_t next = 0;
  auto base = [&](size_t restarting) {
    DashboardSample s;
    s.time_seconds = static_cast<double>(watch.ElapsedMicros()) / 1e6;
    s.fraction_restarting =
        static_cast<double>(restarting) / static_cast<double>(total);
    s.fraction_new =
        static_cast<double>(report.leaves_rolled) / static_cast<double>(total);
    s.fraction_old = 1.0 - s.fraction_restarting - s.fraction_new;
    s.restarting_leaves = restarting;
    return s;
  };
  auto sample = [&](size_t restarting) {
    report.timeline.push_back(base(restarting));
  };

  sample(0);
  while (next < total) {
    // Health gate: between batches is the one safe stopping point — no
    // leaf is mid-handoff — so judge the cluster here before taking the
    // next slice of it offline.
    if (!HealthGatePasses(options, &report)) {
      report.rows_after = TotalRowCount();
      report.total_micros = watch.ElapsedMicros();
      return report;  // aborted: OK status, report says why
    }
    size_t batch = std::min(batch_size, total - next);
    sample(batch);
    report.min_availability = std::min(
        report.min_availability,
        1.0 - static_cast<double>(batch) / static_cast<double>(total));

    for (size_t i = 0; i < batch; ++i) {
      SCUBA_RETURN_IF_ERROR(
          RolloverLeaf(next + i, options, &report, [&] { return base(1); }));
      ++report.leaves_rolled;
    }
    next += batch;
    ++report.num_batches;

    // Leaf objects were replaced: refresh every pointer holder.
    aggregator_.SetLeaves(LeafPointers());
    for (auto& tailer : tailers_) tailer->SetLeaves(LeafPointers());

    if (options.pump_tailers_between_batches) {
      SCUBA_RETURN_IF_ERROR(PumpTailers().status());
    }
    sample(0);
  }

  report.rows_after = TotalRowCount();
  report.total_micros = watch.ElapsedMicros();
  return report;
}

Status Cluster::ShutdownAllToSharedMemory() {
  for (auto& leaf : leaves_) {
    if (leaf->state() == LeafState::kAlive) {
      ShutdownStats stats;
      SCUBA_RETURN_IF_ERROR(leaf->ShutdownToSharedMemory(&stats));
    }
  }
  return Status::OK();
}

uint64_t Cluster::TotalRowCount() const {
  uint64_t rows = 0;
  for (const auto& leaf : leaves_) {
    if (leaf->state() == LeafState::kAlive) rows += leaf->RowCount();
  }
  return rows;
}

void Cluster::Cleanup() {
  ShmSegment::RemoveAll("/" + config_.namespace_prefix + "_");
  if (!config_.backup_root.empty()) {
    for (const auto& leaf : leaves_) {
      const std::string& dir = leaf->config().backup_dir;
      // Remove every backup artifact regardless of format (.bak, .cols,
      // .tail.<k>).
      auto files = ListFiles(dir, "");
      if (files.ok()) {
        for (const std::string& f : *files) RemoveFile(dir + "/" + f).ok();
      }
      ::remove(dir.c_str());
    }
    ::remove(config_.backup_root.c_str());
  }
}

}  // namespace scuba
