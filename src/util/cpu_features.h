#ifndef SCUBA_UTIL_CPU_FEATURES_H_
#define SCUBA_UTIL_CPU_FEATURES_H_

namespace scuba {

/// The one CPU probe every runtime-dispatched kernel reads (the packed scan
/// kernels' SIMD tier, the CRC32C path). Probed once per process from CPUID;
/// all fields are false on non-x86 hosts.
struct CpuFeatures {
  /// SCUBA_FORCE_SCALAR is set to a non-empty value other than "0": every
  /// dispatched kernel takes its portable path, whatever the CPU offers.
  bool force_scalar = false;
  bool sse42 = false;  // the crc32 instruction
  bool avx2 = false;
};

const CpuFeatures& GetCpuFeatures();

}  // namespace scuba

#endif  // SCUBA_UTIL_CPU_FEATURES_H_
