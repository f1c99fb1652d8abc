#ifndef HBTREE_BENCH_SUPPORT_HARNESS_H_
#define HBTREE_BENCH_SUPPORT_HARNESS_H_

#include <cstddef>
#include <vector>

#include "bench_support/args.h"
#include "bench_support/calibrate.h"
#include "bench_support/report.h"
#include "gpusim/device.h"
#include "sim/platform.h"

namespace hbtree::bench {

/// Dataset-size sweep from --min_log2/--max_log2 (inclusive, powers of
/// two). The paper sweeps 2^23 (8M) to 2^30 (1B); defaults here are
/// smaller so the full suite runs quickly — pass larger bounds to
/// reproduce at paper scale.
inline std::vector<std::size_t> SizeSweepFromArgs(const Args& args,
                                                  int default_min,
                                                  int default_max,
                                                  int step = 1) {
  const int lo = static_cast<int>(args.GetInt("min_log2", default_min));
  const int hi = static_cast<int>(args.GetInt("max_log2", default_max));
  std::vector<std::size_t> sizes;
  for (int log2n = lo; log2n <= hi; log2n += step) {
    sizes.push_back(std::size_t{1} << log2n);
  }
  return sizes;
}

/// A simulated heterogeneous platform instance (device + PCIe link).
struct SimPlatform {
  sim::PlatformSpec spec;
  gpu::Device device;
  gpu::TransferEngine transfer;

  explicit SimPlatform(const sim::PlatformSpec& s)
      : spec(s), device(s.gpu), transfer(&device, s.pcie) {}
};

inline sim::PlatformSpec PlatformFromArgs(const Args& args,
                                          const char* default_name) {
  return sim::PlatformSpec::Parse(
      args.GetString("platform", default_name));
}

}  // namespace hbtree::bench

#endif  // HBTREE_BENCH_SUPPORT_HARNESS_H_
