#ifndef HBTREE_HYBRID_GPU_BUILD_H_
#define HBTREE_HYBRID_GPU_BUILD_H_

#include <cstdint>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "cpubtree/implicit_btree.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "gpusim/cost_model.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"

namespace hbtree {

/// GPU-assisted I-segment construction — the paper's future-work
/// direction #1 ("this could be further improved by employing GPU cycles
/// in support of parallel update query execution", Section 7), applied to
/// the implicit tree's rebuild path.
///
/// Observation: the implicit I-segment is nothing but the leaf-line
/// maxima regrouped level by level. So instead of building it on the CPU
/// and shipping the whole segment over PCIe (Figure 15's third bar), the
/// host ships only the *leaf maxima* and a kernel builds every inner
/// level in device memory with perfectly coalesced streaming accesses —
/// saving both host build time and part of the transfer.

template <typename K>
struct ImplicitBuildParams {
  gpu::DevicePtr nodes;    // I-segment output (same layout as the mirror)
  gpu::DevicePtr maxima_a; // scratch: child maxima of the current level
  gpu::DevicePtr maxima_b; // scratch: maxima of the level being built
  std::vector<std::uint64_t> level_offsets;  // node offsets, per level
  std::vector<std::uint64_t> level_alloc;    // node counts, per level
  int height = 0;
  int fanout = 0;  // == keys per node (hybrid layout)
  bool pin_last_key = true;  // hybrid layout: K_F-1 := kMax
};

/// Builds all inner levels on the device. `maxima_a` must hold the
/// leaf-line maxima (level_alloc[0] keys, padding = kMax). Returns kernel
/// stats for the cost model.
template <typename K>
gpu::KernelStats RunImplicitBuildKernel(gpu::Device& device,
                                        const ImplicitBuildParams<K>& p) {
  gpu::KernelStats stats;
  constexpr int kWarp = gpu::WarpScope::kWarpSize;
  constexpr K kMax = KeyTraits<K>::kMax;
  const int keys_per_node = KeyTraits<K>::kPerCacheLine;

  gpu::DevicePtr src = p.maxima_a;
  gpu::DevicePtr dst = p.maxima_b;
  std::uint64_t child_count = p.level_alloc[0];

  for (int level = 1; level <= p.height; ++level) {
    const std::uint64_t node_count = p.level_alloc[level];
    const std::uint64_t key_count = node_count * keys_per_node;
    // One lane per key: reads are consecutive child maxima (coalesced),
    // writes stream into the I-segment.
    for (std::uint64_t base = 0; base < key_count; base += kWarp) {
      const int lanes = static_cast<int>(
          std::min<std::uint64_t>(kWarp, key_count - base));
      gpu::WarpScope warp(&device, &stats, lanes);
      std::uint64_t in_off[kWarp];
      std::uint64_t out_off[kWarp];
      K value[kWarp];

      for (int lane = 0; lane < lanes; ++lane) {
        const std::uint64_t key_index = base + lane;
        const std::uint64_t node = key_index / keys_per_node;
        const int j = static_cast<int>(key_index % keys_per_node);
        // Child of slot j; fanout may exceed keys_per_node by one (the
        // CPU layout), in which case the last child has no key.
        const std::uint64_t child = node * p.fanout + j;
        in_off[lane] =
            std::min(child, child_count - 1) * sizeof(K);  // clamped read
        out_off[lane] =
            (p.level_offsets[level] + node) * kCacheLineSize +
            j * sizeof(K);
        (void)value;
      }
      warp.Gather(src, in_off, lanes, value);
      warp.Instruction(2);
      for (int lane = 0; lane < lanes; ++lane) {
        const std::uint64_t key_index = base + lane;
        const std::uint64_t node = key_index / keys_per_node;
        const int j = static_cast<int>(key_index % keys_per_node);
        const std::uint64_t child = node * p.fanout + j;
        if (child >= child_count) value[lane] = kMax;
        if (p.pin_last_key && j == keys_per_node - 1) value[lane] = kMax;
        (void)node;
      }
      warp.Scatter(p.nodes, out_off, lanes, value);

      // Lanes owning a node's last child also emit the node's subtree
      // maximum into the next level's scratch.
      std::uint64_t max_off[kWarp];
      K max_val[kWarp];
      int emitters = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        const std::uint64_t key_index = base + lane;
        const std::uint64_t node = key_index / keys_per_node;
        const int j = static_cast<int>(key_index % keys_per_node);
        if (j != 0) continue;  // one emitter per node, lane j==0
        const std::uint64_t last_child = node * p.fanout + p.fanout - 1;
        const K* maxima = device.HostViewAs<K>(src);
        max_val[emitters] =
            last_child < child_count ? maxima[last_child] : kMax;
        max_off[emitters] = node * sizeof(K);
        ++emitters;
      }
      if (emitters > 0) {
        warp.Scatter(dst, max_off, emitters, max_val);
        warp.Instruction(1);
      }
    }
    std::swap(src, dst);
    child_count = node_count;
  }
  return stats;
}

/// Host-side driver: builds the L-segment and host I-segment as usual,
/// then reconstructs the device I-segment from the uploaded leaf maxima
/// instead of transferring the whole segment. On success `*us_out`
/// receives the modelled time (maxima upload + build kernel) in µs;
/// compare with HBImplicitTree::SyncISegment (upload of the full
/// segment). Device failures (scratch OOM, injected transfer or kernel
/// faults) surface as a typed Status after bounded retries of the
/// transient ones.
///
/// `device_nodes` must be the tree's device mirror allocation.
template <typename K>
Status TryBuildISegmentOnDevice(const ImplicitBTree<K>& host,
                                gpu::Device& device,
                                gpu::TransferEngine& transfer,
                                gpu::DevicePtr device_nodes, double* us_out,
                                gpu::KernelStats* stats_out = nullptr,
                                const fault::RetryPolicy& retry = {}) {
  HBTREE_CHECK(host.height() >= 1);
  const std::uint64_t leaf_lines = host.level_alloc(0);
  fault::FaultInjector* injector = device.fault_injector();

  // Leaf maxima on the host (a streaming pass the CPU does during the
  // L-segment rebuild anyway).
  std::vector<K> maxima(leaf_lines);
  const auto* leaves = host.l_segment_lines();
  constexpr int kPairs = KeyTraits<K>::kPairsPerCacheLine;
  for (std::uint64_t line = 0; line < leaf_lines; ++line) {
    maxima[line] = leaves[line].pairs[kPairs - 1].key;
  }

  gpu::ScopedDeviceAlloc maxima_a(&device, leaf_lines * sizeof(K));
  gpu::ScopedDeviceAlloc maxima_b(
      &device, std::max<std::uint64_t>(leaf_lines, 1) * sizeof(K));
  if (!maxima_a.ok() || !maxima_b.ok()) {
    return Status::DeviceOom(
        "build scratch maxima do not fit in device memory");
  }

  double backoff_us = 0;
  HBTREE_RETURN_IF_ERROR(fault::RetryTransient(
      retry,
      [&] {
        return transfer.TryCopyToDevice(maxima_a.get(), maxima.data(),
                                        leaf_lines * sizeof(K));
      },
      nullptr, &backoff_us));
  double total_us =
      transfer.HostToDeviceUs(leaf_lines * sizeof(K)) + backoff_us;

  ImplicitBuildParams<K> params;
  params.nodes = device_nodes;
  params.maxima_a = maxima_a.get();
  params.maxima_b = maxima_b.get();
  params.height = host.height();
  params.fanout = host.fanout();
  params.pin_last_key = host.config().hybrid_layout;
  params.level_offsets.assign(host.height() + 1, 0);
  params.level_alloc.assign(host.height() + 1, 0);
  params.level_alloc[0] = leaf_lines;
  for (int level = 1; level <= host.height(); ++level) {
    params.level_offsets[level] = host.level_offset(level);
    params.level_alloc[level] = host.level_alloc(level);
  }
  gpu::KernelStats stats;
  backoff_us = 0;
  HBTREE_RETURN_IF_ERROR(fault::RetryTransient(
      retry,
      [&]() -> Status {
        if (injector != nullptr) {
          HBTREE_RETURN_IF_ERROR(injector->Check(fault::Site::kKernel));
        }
        stats = RunImplicitBuildKernel<K>(device, params);
        return Status::Ok();
      },
      nullptr, &backoff_us));
  if (stats_out != nullptr) *stats_out = stats;
  total_us +=
      gpu::EstimateKernelTime(device.spec(), transfer.pcie(), stats).total_us;
  total_us += backoff_us;

  if (us_out != nullptr) *us_out = total_us;
  return Status::Ok();
}

/// Aborting convenience wrapper; returns the modelled time in µs.
template <typename K>
double BuildISegmentOnDevice(const ImplicitBTree<K>& host,
                             gpu::Device& device,
                             gpu::TransferEngine& transfer,
                             gpu::DevicePtr device_nodes,
                             gpu::KernelStats* stats_out = nullptr) {
  double us = 0;
  const Status status = TryBuildISegmentOnDevice(
      host, device, transfer, device_nodes, &us, stats_out);
  // Unreachable without an armed fault injector (see CheckPipelineOk).
  HBTREE_CHECK_MSG(status.ok(), "device-side I-segment build failed: %s",
                   status.message().c_str());
  return us;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_GPU_BUILD_H_
