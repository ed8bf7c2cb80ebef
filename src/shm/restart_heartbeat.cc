#include "shm/restart_heartbeat.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "util/crc32c.h"

namespace scuba {
namespace {

constexpr uint64_t kMagic = 0x5343554248423164ull;  // "SCUBHB1d"

// CRC32C over the slow fields (magic|version word, generation, phase,
// bytes_total, blocks_total), masked so a zeroed page never validates.
uint64_t SlowFieldChecksum(uint64_t word0, uint64_t generation, uint64_t phase,
                           uint64_t bytes_total, uint64_t blocks_total) {
  uint64_t words[5] = {word0, generation, phase, bytes_total, blocks_total};
  return crc32c::Mask(
      crc32c::Value(reinterpret_cast<const uint8_t*>(words), sizeof(words)));
}

}  // namespace

std::string_view RestartPhaseName(RestartPhase phase) {
  switch (phase) {
    case RestartPhase::kIdle:
      return "idle";
    case RestartPhase::kPrepare:
      return "prepare";
    case RestartPhase::kCopyOut:
      return "copy_out";
    case RestartPhase::kSetValid:
      return "set_valid";
    case RestartPhase::kExited:
      return "exited";
    case RestartPhase::kOpenMetadata:
      return "open_metadata";
    case RestartPhase::kCopyIn:
      return "copy_in";
    case RestartPhase::kDiskRecover:
      return "disk_recover";
    case RestartPhase::kAlive:
      return "alive";
    case RestartPhase::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string RestartHeartbeat::SegmentNameForLeaf(
    const std::string& namespace_prefix, uint32_t leaf_id) {
  return "/" + namespace_prefix + "_hb_" + std::to_string(leaf_id);
}

int64_t RestartHeartbeat::MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint64_t>* RestartHeartbeat::Slot(size_t i) {
  return reinterpret_cast<std::atomic<uint64_t>*>(segment_.data()) + i;
}

const std::atomic<uint64_t>* RestartHeartbeat::Slot(size_t i) const {
  return reinterpret_cast<const std::atomic<uint64_t>*>(segment_.data()) + i;
}

void RestartHeartbeat::Seal() {
  uint64_t checksum = SlowFieldChecksum(
      Slot(0)->load(std::memory_order_relaxed),
      Slot(1)->load(std::memory_order_relaxed),
      Slot(2)->load(std::memory_order_relaxed),
      Slot(4)->load(std::memory_order_relaxed),
      Slot(7)->load(std::memory_order_relaxed));
  // Release-publish the checksum so a reader that validates it also sees
  // the slow-field values it covers.
  Slot(6)->store(checksum, std::memory_order_release);
}

StatusOr<RestartHeartbeat> RestartHeartbeat::Attach(
    const std::string& namespace_prefix, uint32_t leaf_id) {
  static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t));
  std::string name = SegmentNameForLeaf(namespace_prefix, leaf_id);

  // Reinitialize an existing, correctly-sized block IN PLACE: an observer
  // that mapped it while watching the predecessor's shutdown keeps seeing
  // the successor's restore through the same mapping. Only a missing or
  // wrongly-sized block is (re)created.
  uint64_t prev_generation = 0;
  std::optional<ShmSegment> segment;
  if (ShmSegment::Exists(name)) {
    SCUBA_ASSIGN_OR_RETURN(ShmSegment opened, ShmSegment::Open(name));
    if (opened.size() >= kBlockBytes) {
      segment.emplace(std::move(opened));
    } else {
      SCUBA_RETURN_IF_ERROR(ShmSegment::Remove(name));
    }
  }
  if (!segment.has_value()) {
    SCUBA_ASSIGN_OR_RETURN(ShmSegment created,
                           ShmSegment::Create(name, kBlockBytes));
    segment.emplace(std::move(created));
  }

  RestartHeartbeat hb(std::move(segment).value());
  {
    uint64_t word0 = hb.Slot(0)->load(std::memory_order_relaxed);
    uint64_t generation = hb.Slot(1)->load(std::memory_order_relaxed);
    uint64_t phase = hb.Slot(2)->load(std::memory_order_relaxed);
    uint64_t total = hb.Slot(4)->load(std::memory_order_relaxed);
    uint64_t blocks_total = hb.Slot(7)->load(std::memory_order_relaxed);
    uint64_t checksum = hb.Slot(6)->load(std::memory_order_acquire);
    if (word0 == (kMagic ^ kLayoutVersion) &&
        checksum ==
            SlowFieldChecksum(word0, generation, phase, total, blocks_total)) {
      // Valid predecessor block: continue its generation sequence. An
      // invalid one (stale garbage, torn write at death, other layout)
      // restarts from generation 1.
      prev_generation = generation;
    }
  }
  hb.generation_ = prev_generation + 1;
  hb.Slot(0)->store(kMagic ^ kLayoutVersion, std::memory_order_relaxed);
  hb.Slot(1)->store(hb.generation_, std::memory_order_relaxed);
  hb.Slot(2)->store(static_cast<uint64_t>(RestartPhase::kIdle),
                    std::memory_order_relaxed);
  hb.Slot(3)->store(0, std::memory_order_relaxed);
  hb.Slot(4)->store(0, std::memory_order_relaxed);
  hb.Slot(5)->store(static_cast<uint64_t>(MonotonicMicros()),
                    std::memory_order_relaxed);
  hb.Slot(7)->store(0, std::memory_order_relaxed);
  hb.Slot(8)->store(0, std::memory_order_relaxed);
  hb.Slot(9)->store(0, std::memory_order_relaxed);
  hb.Slot(10)->store(0, std::memory_order_relaxed);
  hb.Slot(11)->store(0, std::memory_order_relaxed);
  hb.Seal();
  return hb;
}

Status RestartHeartbeat::Remove(const std::string& namespace_prefix,
                                uint32_t leaf_id) {
  return ShmSegment::Remove(SegmentNameForLeaf(namespace_prefix, leaf_id));
}

void RestartHeartbeat::SetPhase(RestartPhase phase) {
  Slot(2)->store(static_cast<uint64_t>(phase), std::memory_order_relaxed);
  Seal();
  Beat();
}

void RestartHeartbeat::SetBytesTotal(uint64_t total) {
  // A new total starts a new copy: progress counts from zero again.
  Slot(3)->store(0, std::memory_order_relaxed);
  Slot(4)->store(total, std::memory_order_relaxed);
  Seal();
  Beat();
}

void RestartHeartbeat::AddBytesCopied(uint64_t bytes) {
  Slot(3)->fetch_add(bytes, std::memory_order_relaxed);
  Beat();
}

void RestartHeartbeat::SetBlocksTotal(uint64_t total) {
  Slot(7)->store(total, std::memory_order_relaxed);
  Seal();
  Beat();
}

void RestartHeartbeat::AddBlockRestored(bool on_demand) {
  Slot(8)->fetch_add(1, std::memory_order_relaxed);
  if (on_demand) Slot(9)->fetch_add(1, std::memory_order_relaxed);
  Beat();
}

void RestartHeartbeat::OrRestoreBitmap(uint64_t bits) {
  Slot(10)->fetch_or(bits, std::memory_order_relaxed);
}

void RestartHeartbeat::Beat() {
  Slot(5)->store(static_cast<uint64_t>(MonotonicMicros()),
                 std::memory_order_relaxed);
}

StatusOr<RestartHeartbeat> RestartHeartbeat::OpenForRead(
    const std::string& namespace_prefix, uint32_t leaf_id) {
  std::string name = SegmentNameForLeaf(namespace_prefix, leaf_id);
  if (!ShmSegment::Exists(name)) {
    return Status::NotFound("no restart heartbeat block: " + name);
  }
  SCUBA_ASSIGN_OR_RETURN(ShmSegment segment, ShmSegment::Open(name));
  if (segment.size() < kBlockBytes) {
    return Status::Unavailable("restart heartbeat block truncated: " + name);
  }
  return RestartHeartbeat(std::move(segment));
}

StatusOr<RestartHeartbeat::Reading> RestartHeartbeat::Read() const {
  uint64_t checksum = Slot(6)->load(std::memory_order_acquire);
  uint64_t word0 = Slot(0)->load(std::memory_order_relaxed);
  uint64_t generation = Slot(1)->load(std::memory_order_relaxed);
  uint64_t phase = Slot(2)->load(std::memory_order_relaxed);
  uint64_t total = Slot(4)->load(std::memory_order_relaxed);
  uint64_t blocks_total = Slot(7)->load(std::memory_order_relaxed);
  if (word0 != (kMagic ^ kLayoutVersion) ||
      checksum !=
          SlowFieldChecksum(word0, generation, phase, total, blocks_total)) {
    return Status::Unavailable("restart heartbeat block not valid: " +
                               segment_.name());
  }
  // A checksum collision on garbage is astronomically unlikely but a
  // mislabelled phase would silently poison the postmortem autopsy, so
  // also reject any phase outside the enum's range.
  if (phase > static_cast<uint64_t>(RestartPhase::kFailed)) {
    return Status::Unavailable("restart heartbeat phase out of range: " +
                               segment_.name());
  }
  Reading reading;
  reading.generation = generation;
  reading.phase = static_cast<RestartPhase>(phase);
  reading.bytes_copied = Slot(3)->load(std::memory_order_relaxed);
  reading.bytes_total = total;
  reading.stamp_micros =
      static_cast<int64_t>(Slot(5)->load(std::memory_order_relaxed));
  reading.blocks_total = blocks_total;
  reading.blocks_restored = Slot(8)->load(std::memory_order_relaxed);
  reading.blocks_on_demand = Slot(9)->load(std::memory_order_relaxed);
  reading.restore_bitmap = Slot(10)->load(std::memory_order_relaxed);
  return reading;
}

StatusOr<RestartHeartbeat::Reading> RestartHeartbeat::ReadOnce(
    const std::string& namespace_prefix, uint32_t leaf_id) {
  SCUBA_ASSIGN_OR_RETURN(RestartHeartbeat hb,
                         OpenForRead(namespace_prefix, leaf_id));
  return hb.Read();
}

}  // namespace scuba
