#ifndef HBTREE_HYBRID_HB_IMPLICIT_H_
#define HBTREE_HYBRID_HB_IMPLICIT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "cpubtree/implicit_btree.h"
#include "gpusim/device.h"
#include "hybrid/gpu_kernels.h"
#include "mem/page_allocator.h"

namespace hbtree {

/// Implicit HB+-tree (Sections 5.1-5.2): the array-shaped variant for
/// search-dominated workloads.
///
/// The I-segment (inner nodes) is mirrored into GPU device memory while
/// the L-segment (leaf lines) lives only in CPU memory — leaves need the
/// most space and are touched once per query, inner levels are touched
/// H times, so the split matches each memory's capacity/bandwidth profile.
/// Updates rebuild the host tree and re-upload the I-segment (Section
/// 5.6, Figure 15).
template <typename K>
class HBImplicitTree {
 public:
  struct Config {
    typename ImplicitBTree<K>::Config tree;

    Config() {
      // Fanout drops to the key count per line so one GPU thread maps to
      // one key (Section 5.2).
      tree.hybrid_layout = true;
    }
  };

  HBImplicitTree(const Config& config, PageRegistry* registry,
                 gpu::Device* device, gpu::TransferEngine* transfer)
      : config_(config),
        host_tree_(config.tree, registry),
        device_(device),
        transfer_(transfer) {
    HBTREE_CHECK(config.tree.hybrid_layout);
    HBTREE_CHECK(device != nullptr && transfer != nullptr);
  }

  ~HBImplicitTree() {
    if (!device_nodes_.is_null()) device_->Free(device_nodes_);
  }

  HBImplicitTree(const HBImplicitTree&) = delete;
  HBImplicitTree& operator=(const HBImplicitTree&) = delete;

  /// Builds the host tree and mirrors the I-segment to the device. Fails
  /// with kOutOfRange when the kernels' result word cannot address every
  /// leaf line, and with kDeviceOom when the I-segment does not fit into
  /// device memory; the host tree is still valid either way and CPU-only
  /// search keeps working.
  Status TryBuild(const std::vector<KeyValue<K>>& sorted_pairs) {
    host_tree_.Build(sorted_pairs);
    return UploadISegment();
  }
  bool Build(const std::vector<KeyValue<K>>& sorted_pairs) {
    return TryBuild(sorted_pairs).ok();
  }

  /// Re-uploads the I-segment after a host-side rebuild; returns the
  /// modelled transfer time in µs (Figure 15's third phase).
  double SyncISegment() {
    HBTREE_CHECK(!device_nodes_.is_null());
    return transfer_->CopyToDevice(
        device_nodes_, host_tree_.i_segment_nodes(),
        host_tree_.i_segment_node_count() * kCacheLineSize);
  }

  /// Kernel launch parameters for a bucket of `count` queries already in
  /// device memory. `start_level` < height and non-null `start_nodes`
  /// implement the load-balancing scheme (Section 5.5).
  ImplicitKernelParams<K> MakeKernelParams(
      gpu::DevicePtr queries, gpu::DevicePtr results, std::uint32_t count,
      int start_level = -1,
      gpu::DevicePtr start_nodes = gpu::DevicePtr{}) const {
    HBTREE_CHECK(!device_nodes_.is_null());
    ImplicitKernelParams<K> params;
    params.nodes = device_nodes_;
    params.level_offsets.assign(host_tree_.height() + 1, 0);
    params.level_alloc.assign(host_tree_.height() + 1, 0);
    params.level_alloc[0] = host_tree_.level_alloc(0);
    for (int level = 1; level <= host_tree_.height(); ++level) {
      params.level_offsets[level] = host_tree_.level_offset(level);
      params.level_alloc[level] = host_tree_.level_alloc(level);
    }
    params.start_level =
        start_level < 0 ? host_tree_.height() : start_level;
    params.fanout = host_tree_.fanout();
    params.launch = {queries, start_nodes, results, count};
    return params;
  }

  const ImplicitBTree<K>& host_tree() const { return host_tree_; }
  ImplicitBTree<K>& host_tree() { return host_tree_; }
  gpu::Device& device() { return *device_; }
  gpu::TransferEngine& transfer() { return *transfer_; }

  /// Test hook, the mirror's counterpart of the host tree's Validate():
  /// true when the device copy of the I-segment equals the host's byte
  /// for byte.
  bool MirrorMatchesHost() const {
    return !device_nodes_.is_null() &&
           std::memcmp(device_->HostView(device_nodes_),
                       host_tree_.i_segment_nodes(),
                       host_tree_.i_segment_node_count() * kCacheLineSize) ==
               0;
  }

  /// The device mirror allocation (used by the GPU-assisted rebuild of
  /// hybrid/gpu_build.h).
  gpu::DevicePtr device_nodes() const { return device_nodes_; }

 private:
  Status UploadISegment() {
    if (!device_nodes_.is_null()) {
      device_->Free(device_nodes_);
      device_nodes_ = gpu::DevicePtr{};
    }
    HBTREE_RETURN_IF_ERROR(CheckResultWordField(
        host_tree_.level_alloc(0), kResultWordBits, "leaf lines"));
    const std::size_t bytes =
        host_tree_.i_segment_node_count() * kCacheLineSize;
    device_nodes_ = device_->TryMalloc(bytes);
    if (device_nodes_.is_null()) {
      return Status::DeviceOom("I-segment does not fit in device memory");
    }
    transfer_->CopyToDevice(device_nodes_, host_tree_.i_segment_nodes(),
                            bytes);
    return Status::Ok();
  }

  Config config_;
  ImplicitBTree<K> host_tree_;
  gpu::Device* device_;
  gpu::TransferEngine* transfer_;
  gpu::DevicePtr device_nodes_;
};

}  // namespace hbtree

#endif  // HBTREE_HYBRID_HB_IMPLICIT_H_
