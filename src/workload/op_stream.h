#ifndef HBTREE_WORKLOAD_OP_STREAM_H_
#define HBTREE_WORKLOAD_OP_STREAM_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/random.h"
#include "core/types.h"
#include "workload/dataset.h"
#include "workload/spec.h"

namespace hbtree::workload {

enum class OpKind : std::uint8_t {
  kRead,
  kUpdate,           // blind write of a fresh value to an existing key
  kInsert,           // write of a fresh key
  kScan,             // range scan of scan_len records from key
  kReadModifyWrite,  // dependent read-then-write of an existing key
};

struct Op {
  OpKind kind = OpKind::kRead;
  Key64 key = 0;
  Key64 value = 0;  // kUpdate / kInsert / kReadModifyWrite payload
  int scan_len = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

/// One client's deterministic operation stream for a workload: same
/// (spec, dataset, client, clients, seed) → bit-identical ops on every
/// platform.
///
/// Concurrent-client exactness: mutating ops (update / insert / rmw) are
/// remapped onto the client's own residue class of the record index space
/// (index ≡ client mod clients), and fresh insert keys are minted in
/// per-client disjoint sequences — so clients never write the same key
/// and each client's local oracle stays exact while reads/scans roam the
/// whole key space.
class OpStream {
 public:
  /// `dataset` must outlive the stream. 0 <= client < clients, and the
  /// dataset must hold at least `clients` records.
  OpStream(const WorkloadSpec& spec, const BootstrapDataset* dataset,
           int client, int clients, std::uint64_t seed);

  Op Next();
  std::vector<Op> Take(std::size_t n);

  /// Fresh keys this stream has minted so far, oldest first.
  const std::vector<Key64>& inserted() const { return inserted_; }

 private:
  Key64 KeyAt(std::uint64_t idx) const;
  std::uint64_t OwnIndex(std::uint64_t idx) const;
  Key64 FreshKey();

  const WorkloadSpec spec_;
  const BootstrapDataset* dataset_;
  int client_;
  int clients_;
  Rng rng_;
  KeyChooser chooser_;
  std::uint64_t items_;
  // Mix thresholds in basis points, cumulative.
  std::uint64_t read_cut_, update_cut_, insert_cut_, scan_cut_;
  std::vector<Key64> inserted_;
  std::uint64_t append_counter_ = 0;
  std::unordered_set<Key64> scatter_used_;  // scatter-mode dedup
};

}  // namespace hbtree::workload

#endif  // HBTREE_WORKLOAD_OP_STREAM_H_
