#include "gpusim/cost_model.h"

#include <algorithm>

namespace hbtree::gpu {

KernelTime EstimateKernelTime(const sim::GpuSpec& spec,
                              const sim::PcieSpec& pcie,
                              const KernelStats& stats) {
  KernelTime t;
  t.launch_us = spec.kernel_launch_us;
  if (stats.warps_executed == 0) {
    t.total_us = t.launch_us;
    t.bound = "launch";
    return t;
  }

  // Bandwidth term: achieved DRAM bandwidth for scattered 64 B
  // transactions, plus L2-served traffic at roughly 4x DRAM bandwidth.
  const double bytes_per_us =
      spec.memory_bandwidth_gbps * 1e3 * spec.random_access_efficiency;
  t.memory_us = static_cast<double>(stats.dram_bytes) / bytes_per_us +
                static_cast<double>(stats.l2_bytes) / (bytes_per_us * 3.0);

  // Instruction-issue term: warp instructions retire at
  // sm_count * warp_ipc_per_sm per cycle.
  const double instr_per_us =
      spec.sm_count * spec.warp_ipc_per_sm * spec.core_clock_ghz * 1e3;
  t.compute_us =
      static_cast<double>(stats.warp_instructions) / instr_per_us;

  // Latency term: a warp's dependent loads (one gather per tree level)
  // serialize, but the transactions of one gather — and the gathers of
  // all resident warps — overlap. With W warps capped by the resident
  // limit, the kernel cannot finish faster than
  // gathers * latency / min(W, resident).
  const double resident = static_cast<double>(
      std::min<std::uint64_t>(stats.warps_executed,
                              static_cast<std::uint64_t>(
                                  spec.max_resident_warps)));
  t.occupancy = spec.max_resident_warps > 0
                    ? resident / static_cast<double>(spec.max_resident_warps)
                    : 0.0;
  // Gathers served by the L2 observe roughly a third of DRAM latency.
  const double total_bytes =
      static_cast<double>(stats.dram_bytes + stats.l2_bytes);
  const double dram_share =
      total_bytes > 0 ? stats.dram_bytes / total_bytes : 1.0;
  const double blended_latency_ns =
      spec.memory_latency_ns * (dram_share + (1.0 - dram_share) / 3.0);
  t.latency_us = static_cast<double>(stats.memory_gathers) *
                 blended_latency_ns / resident / 1e3;

  t.stream_us = static_cast<double>(stats.mapped_bytes) /
                (pcie.bandwidth_d2h_gbps * 1e3);

  double body = std::max({t.memory_us, t.compute_us, t.latency_us});
  if (body == t.memory_us) {
    t.bound = "memory";
  } else if (body == t.compute_us) {
    t.bound = "compute";
  } else {
    t.bound = "latency";
  }
  if (t.stream_us > body) {
    body = t.stream_us;
    t.bound = "stream";
  }
  t.total_us = t.launch_us + body;
  return t;
}

}  // namespace hbtree::gpu
