#include "workload/op_stream.h"

#include <algorithm>

#include "core/macros.h"

namespace hbtree::workload {

namespace {

std::uint64_t ClientSeed(std::uint64_t seed, int client) {
  // Two mixer steps keep adjacent client seeds uncorrelated.
  std::uint64_t state = seed ^ (0x636c69656e74ull + client);  // "client"
  SplitMix64(state);
  return SplitMix64(state);
}

struct KeyLess {
  bool operator()(const KeyValue<Key64>& a, Key64 b) const {
    return a.key < b;
  }
  bool operator()(Key64 a, const KeyValue<Key64>& b) const {
    return a < b.key;
  }
};

}  // namespace

OpStream::OpStream(const WorkloadSpec& spec, const BootstrapDataset* dataset,
                   int client, int clients, std::uint64_t seed)
    : spec_(spec),
      dataset_(dataset),
      client_(client),
      clients_(clients),
      rng_(ClientSeed(seed, client)),
      chooser_(spec.chooser, dataset->pairs.size()),
      items_(dataset->pairs.size()) {
  HBTREE_CHECK_MSG(clients >= 1 && client >= 0 && client < clients,
                   "bad client slot %d/%d", client, clients);
  HBTREE_CHECK_MSG(items_ >= static_cast<std::uint64_t>(clients),
                   "dataset smaller than the client fleet");
  HBTREE_CHECK_MSG(spec.read_bp >= 0 && spec.update_bp >= 0 &&
                       spec.insert_bp >= 0 && spec.scan_bp >= 0 &&
                       spec.rmw_bp >= 0 &&
                       spec.read_bp + spec.update_bp + spec.insert_bp +
                               spec.scan_bp + spec.rmw_bp ==
                           10000,
                   "workload '%s': mix shares must sum to 10000 bp",
                   spec.name.c_str());
  HBTREE_CHECK_MSG(spec.scan_bp == 0 || spec.max_scan_len >= 1,
                   "max_scan_len must be >= 1 when the mix scans");
  read_cut_ = static_cast<std::uint64_t>(spec.read_bp);
  update_cut_ = read_cut_ + spec.update_bp;
  insert_cut_ = update_cut_ + spec.insert_bp;
  scan_cut_ = insert_cut_ + spec.scan_bp;
}

Key64 OpStream::KeyAt(std::uint64_t idx) const {
  if (idx < items_) return dataset_->pairs[idx].key;
  return inserted_[idx - items_];
}

std::uint64_t OpStream::OwnIndex(std::uint64_t idx) const {
  // Indices at or above items_ are this client's own inserts already.
  if (idx >= items_) return idx;
  const std::uint64_t clients = static_cast<std::uint64_t>(clients_);
  std::uint64_t own = idx - idx % clients + static_cast<std::uint64_t>(client_);
  if (own >= items_) own -= clients;
  return own;
}

Key64 OpStream::FreshKey() {
  if (dataset_->append) {
    const std::uint64_t slot =
        append_counter_++ * static_cast<std::uint64_t>(clients_) +
        static_cast<std::uint64_t>(client_);
    return dataset_->append_base + slot * dataset_->append_stride;
  }
  // Scatter: draw from [0, 2^63) so the residue remap can't wrap, remap
  // to this client's residue class, reject bootstrap collisions and our
  // own earlier mints.
  const std::uint64_t clients = static_cast<std::uint64_t>(clients_);
  for (;;) {
    const std::uint64_t draw = rng_.Next() >> 1;
    Key64 candidate =
        draw - draw % clients + static_cast<std::uint64_t>(client_);
    if (candidate == 0 || candidate == KeyTraits<Key64>::kMax) continue;
    if (std::binary_search(dataset_->pairs.begin(), dataset_->pairs.end(),
                           candidate, KeyLess{})) {
      continue;
    }
    if (!scatter_used_.insert(candidate).second) continue;
    return candidate;
  }
}

Op OpStream::Next() {
  Op op;
  const std::uint64_t pick = rng_.NextBounded(10000);
  if (pick < read_cut_) {
    op.kind = OpKind::kRead;
    op.key = KeyAt(chooser_.Next(rng_, inserted_.size()));
  } else if (pick < update_cut_) {
    op.kind = OpKind::kUpdate;
    op.key = KeyAt(OwnIndex(chooser_.Next(rng_, inserted_.size())));
    op.value = rng_.Next();
  } else if (pick < insert_cut_) {
    op.kind = OpKind::kInsert;
    op.key = FreshKey();
    op.value = rng_.Next();
    inserted_.push_back(op.key);
  } else if (pick < scan_cut_) {
    op.kind = OpKind::kScan;
    op.key = KeyAt(chooser_.Next(rng_, inserted_.size()));
    op.scan_len =
        1 + static_cast<int>(rng_.NextBounded(
                static_cast<std::uint64_t>(spec_.max_scan_len)));
  } else {
    op.kind = OpKind::kReadModifyWrite;
    op.key = KeyAt(OwnIndex(chooser_.Next(rng_, inserted_.size())));
    op.value = rng_.Next();
  }
  return op;
}

std::vector<Op> OpStream::Take(std::size_t n) {
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ops.push_back(Next());
  return ops;
}

}  // namespace hbtree::workload
