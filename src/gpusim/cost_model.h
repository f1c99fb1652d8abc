#ifndef HBTREE_GPUSIM_COST_MODEL_H_
#define HBTREE_GPUSIM_COST_MODEL_H_

#include "gpusim/warp.h"
#include "sim/platform.h"

namespace hbtree::gpu {

/// Modelled execution time of one kernel launch.
struct KernelTime {
  double total_us = 0;
  double launch_us = 0;    // K_init in the Section 5.4 cost model
  double memory_us = 0;    // bandwidth-bound component
  double compute_us = 0;   // instruction-issue-bound component
  double latency_us = 0;   // latency-bound component (low occupancy)
  /// Link time of the kernel's stores into host-mapped memory:
  /// mapped_bytes / PCIe D2H bandwidth. The stream overlaps the body.
  double stream_us = 0;
  /// Achieved occupancy: resident warps / max resident warps, in [0, 1].
  /// Small bucket launches under-fill the machine and score low here.
  double occupancy = 0;
  /// Which component dominated (for utilization reporting).
  const char* bound = "memory";
};

/// Roofline-style kernel time estimate.
///
/// A GPU hides memory latency with resident warps rather than caches
/// (Section 5.1): with enough warps in flight, execution time is the
/// maximum of the bandwidth term and the instruction-issue term. When the
/// launch is too small to fill the machine (few resident warps), the
/// latency term dominates — which is exactly why the bucket size M matters
/// in Figure 11 and why K_init punishes small buckets.
///
/// Stores into host-mapped memory stream over the PCIe link while the
/// body runs, so the kernel takes K_init + max(body, stream). No T_init
/// is charged: no copy is submitted. This overlap rule is a model
/// assumption (DESIGN.md §1), not a fit to measured hardware.
KernelTime EstimateKernelTime(const sim::GpuSpec& spec,
                              const sim::PcieSpec& pcie,
                              const KernelStats& stats);

}  // namespace hbtree::gpu

#endif  // HBTREE_GPUSIM_COST_MODEL_H_
