#include "core/restore.h"

namespace scuba {

std::string_view RecoverySourceName(RecoverySource source) {
  switch (source) {
    case RecoverySource::kSharedMemory:
      return "shared-memory";
    case RecoverySource::kDisk:
      return "disk";
    case RecoverySource::kFresh:
      return "fresh";
  }
  return "unknown";
}

}  // namespace scuba
