#ifndef HBTREE_HYBRID_HB_FAST_H_
#define HBTREE_HYBRID_HB_FAST_H_

#include <cstdint>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "fast/fast_tree.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"
#include "hybrid/gpu_kernels.h"
#include "mem/page_allocator.h"

namespace hbtree {

/// HB-FAST: the paper's future-work direction #2 realized — "a general
/// framework which enables the use of a CPU-GPU hybrid platform for any
/// arbitrary leaf-stored tree structure" (Section 7).
///
/// FAST is such a structure: its blocked separator array is the inner
/// part (mirrored to the GPU), the sorted pair array is the leaf part
/// (CPU memory). Plugging it into the same bucket pipeline as the
/// HB+-trees takes one adapter (see bucket_pipeline.h), which is the
/// framework claim made concrete.
///
/// It also doubles as an ablation: FAST's one-thread-per-query descent
/// cannot coalesce its block loads the way the HB+-tree's team search
/// does, so a warp issues up to 32 memory transactions per level instead
/// of ~4 — measured head-to-head in bench/ext_hb_fast.

/// Launch parameters for the blocked binary-search kernel.
template <typename K>
struct FastKernelParams {
  gpu::DevicePtr blocks;  // the blocked separator array
  int block_levels = 0;
  int start_block_level = 0;  // 0 unless the CPU pre-descended
  /// Base block offset of each block level (host-side kernel constant).
  std::vector<std::uint64_t> level_bases;
  /// Start nodes are block indices; results: lower-bound position.
  SearchLaunch launch;
};

/// Runs the FAST descent on the device: one thread per query (FAST's
/// search is inherently scalar), 32 queries per warp. Functionally
/// identical to FastTree::LowerBoundIndex.
template <typename K>
gpu::KernelStats RunFastSearch(gpu::Device& device,
                               const FastKernelParams<K>& p) {
  gpu::KernelStats stats;
  constexpr int kBlockDepth = FastTree<K>::kBlockDepth;
  // The block index at a level equals the leaf-path prefix, so one
  // register carries both.
  RunTeamSearch<K, /*kTeam=*/1>(
      device, &stats, p.launch, /*root=*/0,
      [&](gpu::WarpScope& warp, int lanes, const K* query,
          std::uint64_t* block, ResultWord* word) {
        std::uint64_t offsets[gpu::WarpScope::kWarpSize];
        for (int bl = p.start_block_level; bl < p.block_levels; ++bl) {
          // Each lane loads its own 64-byte block line: no team
          // cooperation, so up to `lanes` distinct transactions per level.
          for (int lane = 0; lane < lanes; ++lane) {
            offsets[lane] = (p.level_bases[bl] + block[lane]) * kCacheLineSize;
          }
          const std::byte* blocks =
              warp.RecordAccess(p.blocks, offsets, lanes, sizeof(K));
          warp.Instruction(2 * kBlockDepth);  // compares + index updates
          for (int lane = 0; lane < lanes; ++lane) {
            const K* line =
                reinterpret_cast<const K*>(blocks + offsets[lane]);
            unsigned in_block = 0;
            for (int d = 0; d < kBlockDepth; ++d) {
              const K sep = line[(1u << d) - 1 + in_block];
              in_block = 2 * in_block + (sep < query[lane] ? 1 : 0);
            }
            block[lane] = (block[lane] << kBlockDepth) | in_block;
          }
        }
        for (int lane = 0; lane < lanes; ++lane) {
          word[lane] = static_cast<ResultWord>(block[lane]);
        }
      });
  return stats;
}

/// FAST hybridized over the CPU-GPU platform: blocked separators in
/// device memory, the sorted pair array in host memory.
template <typename K>
class HBFastTree {
 public:
  struct Config {
    typename FastTree<K>::Config tree;
  };

  HBFastTree(const Config& config, PageRegistry* registry,
             gpu::Device* device, gpu::TransferEngine* transfer)
      : host_tree_(config.tree, registry),
        device_(device),
        transfer_(transfer) {
    HBTREE_CHECK(device != nullptr && transfer != nullptr);
  }

  ~HBFastTree() {
    if (!device_blocks_.is_null()) device_->Free(device_blocks_);
  }

  HBFastTree(const HBFastTree&) = delete;
  HBFastTree& operator=(const HBFastTree&) = delete;

  /// Builds the host tree and mirrors the separator blocks. Fails with
  /// kOutOfRange when a lower-bound position (the depth()-bit leaf path)
  /// does not fit the kernels' result word, and with kDeviceOom when the
  /// blocks do not fit into device memory.
  Status TryBuild(const std::vector<KeyValue<K>>& sorted_pairs) {
    host_tree_.Build(sorted_pairs);
    if (!device_blocks_.is_null()) {
      device_->Free(device_blocks_);
      device_blocks_ = gpu::DevicePtr{};
    }
    HBTREE_RETURN_IF_ERROR(CheckResultWordField(
        std::uint64_t{1} << host_tree_.depth(), kResultWordBits,
        "lower-bound positions"));
    device_blocks_ = device_->TryMalloc(host_tree_.tree_bytes());
    if (device_blocks_.is_null()) {
      return Status::DeviceOom("FAST blocks do not fit in device memory");
    }
    transfer_->CopyToDevice(device_blocks_, host_tree_.tree_data(),
                            host_tree_.tree_bytes());
    return Status::Ok();
  }
  bool Build(const std::vector<KeyValue<K>>& sorted_pairs) {
    return TryBuild(sorted_pairs).ok();
  }

  FastKernelParams<K> MakeKernelParams(
      gpu::DevicePtr queries, gpu::DevicePtr results, std::uint32_t count,
      int start_level = -1,
      gpu::DevicePtr start_nodes = gpu::DevicePtr{}) const {
    HBTREE_CHECK(!device_blocks_.is_null());
    FastKernelParams<K> params;
    params.blocks = device_blocks_;
    params.block_levels = host_tree_.block_levels();
    // The pipeline counts levels downward from `height`; FAST's kernel
    // counts block levels upward from the root.
    params.start_block_level =
        start_level < 0 ? 0 : host_tree_.block_levels() - start_level;
    params.level_bases.assign(host_tree_.block_levels(), 0);
    std::uint64_t base = 0, blocks_at = 1;
    for (int bl = 0; bl < host_tree_.block_levels(); ++bl) {
      params.level_bases[bl] = base;
      base += blocks_at;
      blocks_at *= FastTree<K>::kBlockFanout;
    }
    params.launch = {queries, start_nodes, results, count};
    return params;
  }

  const FastTree<K>& host_tree() const { return host_tree_; }
  FastTree<K>& host_tree() { return host_tree_; }
  gpu::Device& device() { return *device_; }
  gpu::TransferEngine& transfer() { return *transfer_; }

 private:
  FastTree<K> host_tree_;
  gpu::Device* device_;
  gpu::TransferEngine* transfer_;
  gpu::DevicePtr device_blocks_;
};

}  // namespace hbtree

#endif  // HBTREE_HYBRID_HB_FAST_H_
