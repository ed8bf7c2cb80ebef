#ifndef SCUBA_CORE_RESTART_EVENTS_H_
#define SCUBA_CORE_RESTART_EVENTS_H_

#include <cstdint>
#include <string_view>

#include "core/restore.h"
#include "core/state_machine.h"
#include "shm/flight_recorder.h"
#include "shm/restart_heartbeat.h"

namespace scuba {

/// The phase a restore from `source` runs in: copy_in for shared memory,
/// disk_recover for a backup. Recovery publishes it when it opens the
/// source, and the restore engine stamps its frames with it.
RestartPhase RestorePhase(RecoverySource source);

/// The one path from a restart step to the leaf's two crash-surviving shm
/// sinks: the RestartHeartbeat (where a restart is, for observers polling
/// from outside the process) and the FlightRecorder (what happened, for
/// the successor's autopsy). Each step is one call here, and this class
/// alone decides what each sink sees, so the two cannot disagree on the
/// phase a step ran in.
///
/// A copyable value over two nullable, non-owning pointers: either sink
/// may be absent (disabled, or its shm attach failed), and a
/// default-constructed value reports nothing. The leaf owns both sinks and
/// keeps them alive while any copy is in use. Every method is safe from
/// any thread — both sinks are lock-free words in shared memory.
class RestartEvents {
 public:
  RestartEvents() = default;
  RestartEvents(RestartHeartbeat* heartbeat, FlightRecorder* recorder)
      : heartbeat_(heartbeat), recorder_(recorder) {}

  /// Enters `phase`: the heartbeat phase, then a kPhase frame.
  void EnterPhase(RestartPhase phase, std::string_view detail = {},
                  uint64_t a0 = 0, uint64_t a1 = 0) const;

  /// Enters a copy phase that moves `bytes_total` bytes in `units` units:
  /// the heartbeat's byte total first, so an observer that sees the phase
  /// can already render a percentage, then the phase and its frame
  /// (a0 = the total, a1 = units).
  void EnterCopyPhase(RestartPhase phase, uint64_t bytes_total,
                      uint64_t units, std::string_view detail = {}) const;

  /// The restart op failed: heartbeat `failed`, and a `failed` phase frame
  /// carrying the reason.
  void Fail(std::string_view reason) const;

  /// One table's copy began / ended (a0 = bytes, a1 = blocks).
  void TableBegin(RestartPhase phase, std::string_view table, uint64_t bytes,
                  uint64_t blocks) const;
  void TableEnd(RestartPhase phase, std::string_view table, uint64_t bytes,
                uint64_t blocks) const;

  /// `bytes` more landed in the destination.
  void BytesCopied(uint64_t bytes) const;

  /// The restore engine began draining `units` units from `source`.
  void RestoreBegin(RestartPhase phase, std::string_view source,
                    uint64_t units) const;
  /// One restored unit of `bytes`, pulled by a query (`on_demand`) or the
  /// background filler; `bitmap_bits` are the coarse heartbeat buckets it
  /// completed (0 for none).
  void BlockRestored(uint64_t bytes, bool on_demand,
                     uint64_t bitmap_bits) const;
  /// The restore engine drained `done` of `total` units and finished.
  void RestoreEnd(RestartPhase phase, uint64_t done, uint64_t total) const;

  /// Decisions, each with the reason an autopsy reports.
  void Cancel(RestartPhase phase, std::string_view why, uint64_t a0 = 0,
              uint64_t a1 = 0) const;
  void Fallback(RestartPhase phase, std::string_view why) const;
  /// A watchdog saw no heartbeat advance for `silent_micros` in `phase`.
  void Stall(RestartPhase phase, int64_t silent_micros,
             uint64_t bytes_copied) const;
  void State(LeafState next, LeafState old) const;

  /// Frames outside any restart op: a process starting, a last word
  /// before a (simulated) death.
  void Info(std::string_view detail) const;
  void Error(std::string_view detail) const;

 private:
  void Record(FlightRecorder::EventType type, RestartPhase phase,
              std::string_view detail, uint64_t a0 = 0,
              uint64_t a1 = 0) const;

  RestartHeartbeat* heartbeat_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace scuba

#endif  // SCUBA_CORE_RESTART_EVENTS_H_
