#ifndef SCUBA_CORE_STATE_MACHINE_H_
#define SCUBA_CORE_STATE_MACHINE_H_

#include <string_view>

#include "util/status.h"

namespace scuba {

/// Leaf server states (Fig 5a/5b). "At all times, each leaf and table
/// keeps track of its state. The state ... determines which actions are
/// permissible: adding data, deleting (expired) data, evaluating queries"
/// (§4.3).
enum class LeafState {
  kInit = 0,            // new process, nothing recovered yet
  kMemoryRecovery = 1,  // restoring from shared memory
  kDiskRecovery = 2,    // restoring from the on-disk backup
  kAlive = 3,           // serving adds, deletes, and queries
  kCopyToShm = 4,       // clean shutdown: copying heap -> shm
  kExit = 5,            // terminal
  kRestoring = 6,       // instant restore: serving queries while row
                        // blocks stream in on demand (restore bitmap)
};

/// Table states (Fig 5c/5d). Tables add one state over leaves: PREPARE,
/// which rejects new requests, kills in-progress deletes, waits for
/// in-flight adds/queries, and flushes to disk.
enum class TableState {
  kInit = 0,
  kMemoryRecovery = 1,
  kDiskRecovery = 2,
  kAlive = 3,
  kPrepare = 4,
  kCopyToShm = 5,
  kDone = 6,  // terminal (backup finished)
  kRestoring = 7,  // instant restore: queryable, blocks still landing
};

std::string_view LeafStateName(LeafState state);
std::string_view TableStateName(TableState state);

/// Validating wrapper around LeafState with the Fig 5 transition edges:
///   backup  (5a): Alive -> CopyToShm -> Exit
///   restore (5b): Init -> MemoryRecovery | DiskRecovery -> Alive,
///                 MemoryRecovery -> DiskRecovery (exception),
///                 Init -> Alive (fresh leaf with no prior data).
///   instant restore extension: MemoryRecovery | DiskRecovery -> Restoring
///                 (metadata opened, blocks stream in on demand),
///                 Restoring -> Alive (last block landed) and
///                 Restoring -> DiskRecovery (engine cancelled: fall back
///                 to the blocking disk path). There is deliberately no
///                 Restoring -> CopyToShm edge: a clean shutdown must wait
///                 for the restore to finish first.
class LeafStateMachine {
 public:
  LeafStateMachine() : state_(LeafState::kInit) {}

  LeafState state() const { return state_; }

  /// Moves to `next` if that edge exists; FailedPrecondition otherwise.
  Status Transition(LeafState next);

  /// Process death (a crash or kill) from any state. Not a Fig 5 edge: a
  /// dead leaf simply stops, in the terminal state a clean exit reaches.
  void ForceExit() { state_ = LeafState::kExit; }

  static bool IsAllowed(LeafState from, LeafState to);

  // Permissible actions per state (§4.3): memory recovery accepts nothing;
  // disk recovery accepts adds and queries (returning partial results);
  // instant restore accepts both (queries wait for their blocks, so
  // results are complete, not partial); only a live leaf deletes expired
  // data — expiry during restore would race block adoption order.
  bool CanAcceptAdds() const {
    return state_ == LeafState::kAlive ||
           state_ == LeafState::kDiskRecovery ||
           state_ == LeafState::kRestoring;
  }
  bool CanAcceptQueries() const {
    return state_ == LeafState::kAlive ||
           state_ == LeafState::kDiskRecovery ||
           state_ == LeafState::kRestoring;
  }
  bool CanDeleteExpired() const { return state_ == LeafState::kAlive; }

 private:
  LeafState state_;
};

/// Validating wrapper around TableState with the Fig 5c/5d edges:
///   backup  (5c): Alive -> Prepare -> CopyToShm -> Done
///   restore (5d): Init -> MemoryRecovery | DiskRecovery -> Alive,
///                 MemoryRecovery -> DiskRecovery (exception),
///                 Init -> Alive (fresh table).
class TableStateMachine {
 public:
  TableStateMachine() : state_(TableState::kInit) {}

  TableState state() const { return state_; }

  Status Transition(TableState next);

  static bool IsAllowed(TableState from, TableState to);

  bool CanAcceptAdds() const {
    return state_ == TableState::kAlive ||
           state_ == TableState::kDiskRecovery ||
           state_ == TableState::kRestoring;
  }
  bool CanAcceptQueries() const {
    return state_ == TableState::kAlive ||
           state_ == TableState::kDiskRecovery ||
           state_ == TableState::kRestoring;
  }
  /// Deletes are killed once shutdown starts; "any needed deletions are
  /// made after recovery" (Fig 5 caption).
  bool CanDeleteExpired() const { return state_ == TableState::kAlive; }

 private:
  TableState state_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_STATE_MACHINE_H_
