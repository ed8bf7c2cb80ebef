#ifndef SCUBA_OBS_HEALTH_H_
#define SCUBA_OBS_HEALTH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "columnar/row.h"
#include "obs/hysteresis.h"
#include "query/query.h"
#include "query/result.h"
#include "util/status.h"

namespace scuba {
namespace obs {

/// How loud a firing rule is. Warnings degrade the cluster's health
/// level; criticals make it CRITICAL (and abort a gated rollover).
enum class AlertSeverity { kWarning, kCritical };
std::string_view AlertSeverityName(AlertSeverity severity);

/// The cluster health level the dashboard panel and the rollover gate
/// consume: derived from the set of currently-firing alerts.
enum class HealthLevel { kOk, kDegraded, kCritical };
std::string_view HealthLevelName(HealthLevel level);

/// How a rule turns its query results into a firing decision.
enum class AlertRuleKind {
  /// `value <compare> threshold` over one query's aggregate.
  kThreshold,
  /// `value / baseline <compare> threshold` over two queries' aggregates
  /// (e.g. recent restore latency vs the whole restart history, or cache
  /// hits vs lookups). A zero or absent baseline never fires.
  kRatio,
  /// Fires when the recent window returned NO data while the baseline
  /// window had some — the "frozen producer" shape: a tailer or exporter
  /// that stops emitting produces no rows to threshold on, only silence.
  kAbsence,
};
std::string_view AlertRuleKindName(AlertRuleKind kind);

/// One aggregation the engine issues against a self-hosted `__scuba*`
/// table: `aggregate` over rows matching `predicates` within the window
/// ending at evaluation time.
struct AlertQuerySpec {
  std::string table;
  std::vector<Predicate> predicates;
  Aggregate aggregate = Count();
  /// Query range: [now - window_seconds, now].
  int64_t window_seconds = 60;
};

/// A declarative alert rule, evaluated by real aggregator queries against
/// the self-hosted system tables — Scuba alerting on Scuba. Transitions
/// (not evaluations) are recorded to `__scuba_alerts` through the sink.
struct AlertRule {
  std::string name;
  std::string description;
  AlertSeverity severity = AlertSeverity::kWarning;
  AlertRuleKind kind = AlertRuleKind::kThreshold;

  /// The recent-window query (all kinds).
  AlertQuerySpec value;
  /// The comparison/baseline query (kRatio and kAbsence; kAbsence uses
  /// its row count only — "had the producer ever emitted?").
  AlertQuerySpec baseline;

  /// kThreshold: Compare(value, threshold). kRatio:
  /// Compare(value / baseline, threshold). Ignored by kAbsence.
  CompareOp compare = CompareOp::kGt;
  double threshold = 0.0;

  /// Firing/clear streaks — the same enter/exit state machine as the SLO
  /// tracker's overload latch. Defaults fire after 1 breaching evaluation
  /// and clear after 2 clean ones (alert rules usually run at export-cycle
  /// cadence, where one cycle is already a full window of evidence).
  HysteresisOptions hysteresis{/*enter_consecutive=*/1,
                               /*exit_consecutive=*/2};
};

/// A currently-firing alert, for the dashboard health panel.
struct ActiveAlert {
  std::string name;
  AlertSeverity severity = AlertSeverity::kWarning;
  double value = 0.0;
  double threshold = 0.0;
  int64_t since_unix = 0;  // when the firing transition happened
};

/// Thresholds for the default rule pack (DefaultRulePack below). The
/// windows are deliberately generous multiples of the 1 s export cycle so
/// one late export never fakes an absence.
struct DefaultRulePackOptions {
  /// Recent window for most rules.
  int64_t window_seconds = 60;
  /// History window for the ratio/absence baselines.
  int64_t baseline_window_seconds = 3600;
  /// admission_shed_storm: fires past this many shed queries per window.
  double shed_storm_threshold = 10.0;
  /// restore_throughput_regression: recent mean restore micros must stay
  /// under this multiple of the historical mean.
  double restore_regression_factor = 3.0;
  /// result_cache_hit_collapse: hit/lookup ratio floor.
  double cache_hit_floor = 0.10;
};

/// The seven default rules: sustained SLO breach, admission shed storm,
/// rollover/heartbeat stall, crash-fallback restores, restore-throughput
/// regression vs the restart history, result-cache hit collapse, and
/// ingest-freshness stall. All of them read only `__scuba*` tables.
std::vector<AlertRule> DefaultRulePack(
    const DefaultRulePackOptions& options = DefaultRulePackOptions());

/// Evaluates a rule set against the live cluster by issuing aggregator
/// queries (system queries: they bypass admission, deadlines, the SLO
/// tracker and the trace sampler — monitoring the overload must not
/// manufacture or hide it). Each rule owns a HysteresisLatch; a latch
/// transition emits exactly one `__scuba_alerts` row through the sink and
/// updates the derived HealthLevel.
///
/// Thread-safe: EvaluateOnce bodies are serialized by an internal mutex;
/// level() is a lock-free atomic read (the rollover gate's fast path).
class AlertEngine {
 public:
  /// Executes one query and returns its FINALIZED rows (the caller wraps
  /// Aggregator::Execute + QueryResult::Finalize with the query's own
  /// aggregates/limit). Returning finalized plain-data rows rather than a
  /// QueryResult keeps obs below the query layer in the link graph.
  using QueryFn =
      std::function<StatusOr<std::vector<ResultRow>>(const Query&)>;
  /// Receives one row per firing/clear transition (typically a leaf
  /// StatsExporter's ExportSystemRow into `__scuba_alerts`). May be empty
  /// (no alert table).
  using AlertSink = std::function<Status(Row row)>;

  struct Options {
    QueryFn query;    // required
    AlertSink sink;   // optional
    /// Evaluation timestamp source (window ends, row stamps); unset = the
    /// system clock. Tests inject a simulated clock here.
    std::function<int64_t()> now_unix_seconds;
  };

  AlertEngine(std::vector<AlertRule> rules, Options options);

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// One evaluation pass over every rule. Query errors count the rule as
  /// an evaluation error (its latch holds its state); the pass continues.
  struct EvalOutcome {
    size_t fired = 0;    // rules that transitioned to firing this pass
    size_t cleared = 0;  // rules that transitioned to clear this pass
    size_t errors = 0;   // rules whose queries failed
  };
  EvalOutcome EvaluateOnce();

  /// Lock-free: the health level derived from the firing set at the end
  /// of the last evaluation (kOk before the first).
  HealthLevel level() const {
    return static_cast<HealthLevel>(level_.load(std::memory_order_relaxed));
  }

  /// Currently-firing alerts, most recent transition last.
  std::vector<ActiveAlert> ActiveAlerts() const;

  uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  size_t num_rules() const { return states_.size(); }

 private:
  struct RuleState {
    AlertRule rule;
    HysteresisLatch latch;
    double last_value = 0.0;
    double last_baseline = 0.0;
    int64_t fired_at_unix = 0;
  };

  int64_t Now() const;
  /// Runs one AlertQuerySpec; fills the aggregate value and whether any
  /// row matched. A query whose window holds no rows is "no data", which
  /// thresholds treat as clean and absence treats as the signal.
  Status EvalSpec(const AlertQuerySpec& spec, int64_t now, double* value,
                  bool* has_data) const;
  /// The rule's enter condition for this evaluation.
  Status EvalCondition(RuleState* state, int64_t now, bool* breach) const;
  void EmitTransition(const RuleState& state, bool firing, int64_t now);
  void RecomputeLevelLocked();

  Options options_;

  mutable std::mutex mutex_;  // guards states_ (latches, last values)
  std::vector<RuleState> states_;

  std::atomic<int> level_{static_cast<int>(HealthLevel::kOk)};
  std::atomic<uint64_t> evaluations_{0};
};

/// Knobs for the background evaluation thread.
struct HealthMonitorOptions {
  /// Evaluation period; <= 0 disables the thread entirely — the owner
  /// drives evaluation itself via EvaluateNow() (the rollover gate does
  /// this between batches, and tests do it for determinism).
  int64_t period_millis = 1000;
};

/// Owns an AlertEngine plus an optional background thread that evaluates
/// it periodically — the consumption side of "Scuba monitors Scuba".
class HealthMonitor {
 public:
  HealthMonitor(std::vector<AlertRule> rules, AlertEngine::Options eopts,
                HealthMonitorOptions mopts = HealthMonitorOptions());
  ~HealthMonitor();  // Stop()s if still running

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Spawns the background evaluation thread (no-op when period <= 0 or
  /// already running).
  void Start();
  /// Stops and joins the background thread.
  void Stop();

  /// One synchronous evaluation pass on the caller's thread, serialized
  /// with the background thread by the engine's own mutex.
  AlertEngine::EvalOutcome EvaluateNow() { return engine_.EvaluateOnce(); }

  HealthLevel level() const { return engine_.level(); }
  std::vector<ActiveAlert> ActiveAlerts() const {
    return engine_.ActiveAlerts();
  }
  AlertEngine& engine() { return engine_; }
  const AlertEngine& engine() const { return engine_; }

 private:
  void ThreadMain();

  AlertEngine engine_;
  HealthMonitorOptions options_;

  std::mutex thread_mutex_;
  std::condition_variable cv_;
  std::thread thread_;
  bool stopping_ = false;
};

}  // namespace obs
}  // namespace scuba

#endif  // SCUBA_OBS_HEALTH_H_
