#include "util/cpu_features.h"

#include <cstdlib>

namespace scuba {
namespace {

CpuFeatures Probe() {
  CpuFeatures features;
  const char* force = std::getenv("SCUBA_FORCE_SCALAR");
  features.force_scalar = force != nullptr && force[0] != '\0' &&
                          !(force[0] == '0' && force[1] == '\0');
#if defined(__x86_64__) || defined(_M_X64)
  // Idempotent; needed when the first probe runs inside a static
  // constructor, before libgcc's own has filled in the CPU model.
  __builtin_cpu_init();
  features.sse42 = __builtin_cpu_supports("sse4.2");
  features.avx2 = __builtin_cpu_supports("avx2");
#endif
  return features;
}

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

}  // namespace scuba
