#include "core/restart_events.h"

#include <string>

namespace scuba {

using EventType = FlightRecorder::EventType;

RestartPhase RestorePhase(RecoverySource source) {
  return source == RecoverySource::kSharedMemory ? RestartPhase::kCopyIn
                                                 : RestartPhase::kDiskRecover;
}

void RestartEvents::Record(EventType type, RestartPhase phase,
                           std::string_view detail, uint64_t a0,
                           uint64_t a1) const {
  if (recorder_ != nullptr) recorder_->Record(type, phase, detail, a0, a1);
}

void RestartEvents::EnterPhase(RestartPhase phase, std::string_view detail,
                               uint64_t a0, uint64_t a1) const {
  if (heartbeat_ != nullptr) heartbeat_->SetPhase(phase);
  Record(EventType::kPhase, phase, detail, a0, a1);
}

void RestartEvents::EnterCopyPhase(RestartPhase phase, uint64_t bytes_total,
                                   uint64_t units,
                                   std::string_view detail) const {
  if (heartbeat_ != nullptr) heartbeat_->SetBytesTotal(bytes_total);
  EnterPhase(phase, detail, bytes_total, units);
}

void RestartEvents::Fail(std::string_view reason) const {
  EnterPhase(RestartPhase::kFailed, reason);
}

void RestartEvents::TableBegin(RestartPhase phase, std::string_view table,
                               uint64_t bytes, uint64_t blocks) const {
  Record(EventType::kTableCopyBegin, phase, table, bytes, blocks);
}

void RestartEvents::TableEnd(RestartPhase phase, std::string_view table,
                             uint64_t bytes, uint64_t blocks) const {
  Record(EventType::kTableCopyEnd, phase, table, bytes, blocks);
}

void RestartEvents::BytesCopied(uint64_t bytes) const {
  if (heartbeat_ != nullptr) heartbeat_->AddBytesCopied(bytes);
}

void RestartEvents::RestoreBegin(RestartPhase phase, std::string_view source,
                                 uint64_t units) const {
  if (heartbeat_ != nullptr) heartbeat_->SetBlocksTotal(units);
  Record(EventType::kRestore, phase,
         "engine start: " + std::string(source), 0, units);
}

void RestartEvents::BlockRestored(uint64_t bytes, bool on_demand,
                                  uint64_t bitmap_bits) const {
  if (heartbeat_ == nullptr) return;
  heartbeat_->AddBytesCopied(bytes);
  heartbeat_->AddBlockRestored(on_demand);
  if (bitmap_bits != 0) heartbeat_->OrRestoreBitmap(bitmap_bits);
}

void RestartEvents::RestoreEnd(RestartPhase phase, uint64_t done,
                               uint64_t total) const {
  Record(EventType::kRestore, phase, "engine done", done, total);
}

void RestartEvents::Cancel(RestartPhase phase, std::string_view why,
                           uint64_t a0, uint64_t a1) const {
  Record(EventType::kCancel, phase, why, a0, a1);
}

void RestartEvents::Fallback(RestartPhase phase, std::string_view why) const {
  Record(EventType::kFallback, phase, why);
}

void RestartEvents::Stall(RestartPhase phase, int64_t silent_micros,
                          uint64_t bytes_copied) const {
  Record(EventType::kStall, phase, RestartPhaseName(phase),
         static_cast<uint64_t>(silent_micros), bytes_copied);
}

void RestartEvents::State(LeafState next, LeafState old) const {
  Record(EventType::kState, RestartPhase::kIdle, LeafStateName(next),
         static_cast<uint64_t>(next), static_cast<uint64_t>(old));
}

void RestartEvents::Info(std::string_view detail) const {
  Record(EventType::kInfo, RestartPhase::kIdle, detail);
}

void RestartEvents::Error(std::string_view detail) const {
  Record(EventType::kError, RestartPhase::kIdle, detail);
}

}  // namespace scuba
