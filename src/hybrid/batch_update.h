#ifndef HBTREE_HYBRID_BATCH_UPDATE_H_
#define HBTREE_HYBRID_BATCH_UPDATE_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/macros.h"
#include "core/status.h"
#include "core/types.h"
#include "fault/retry.h"
#include "hybrid/bucket_pipeline.h"
#include "hybrid/hb_regular.h"
#include "obs/trace.h"

namespace hbtree {

/// Batch update methods for the regular HB+-tree (Section 5.6).
enum class UpdateMethod {
  /// Asynchronous, one worker: apply all updates in main memory, then
  /// transfer the whole I-segment once.
  kAsyncSingleThread,
  /// Asynchronous, parallel: groups of queries are applied by several
  /// workers under per-node locks; queries that would split or merge are
  /// deferred to a single-threaded pass; the I-segment transfers once.
  kAsyncParallel,
  /// Synchronized: a modifying thread applies updates and enqueues every
  /// modified inner node; a synchronizing thread mirrors each node to GPU
  /// memory concurrently (one small transfer per node).
  kSynchronized,
};

const char* UpdateMethodName(UpdateMethod m);

struct BatchUpdateConfig {
  /// Worker threads actually spawned for the functional parallel phase.
  int real_threads = 4;
  /// Worker threads assumed by the cost model (the paper's machine runs
  /// 16 hardware threads; this host may have fewer).
  int model_threads = 16;
  /// Modelled single-thread cost of one update query (descend + leaf
  /// edit), in µs. Derive from the CPU cost model for the tree size.
  double cpu_update_us = 0.15;

  /// Queries per parallel group (the paper processes groups of 16K).
  static constexpr int group_size = 16 * 1024;
  /// Modelled cost of one lock acquisition, µs. The parallel apply
  /// takes one per leaf run (BatchUpdateStats::leaf_runs); the
  /// synchronized method and RunMixedWorkload pay one per operation.
  static constexpr double lock_overhead_us = 0.02;
  /// Modelled per-query cost of the key sort that precedes the
  /// asynchronous apply: the read path's bucket-sort rate. Serial: it
  /// runs before the workers fan out.
  static constexpr double sort_us_per_query = kSortUsPerQuery;
  /// Parallel scaling efficiency of the lock-based phase. Updates are
  /// dependent random accesses, so extra threads mostly hide latency the
  /// way software pipelining would; the paper measures only ~3x from 16
  /// hardware threads (Section 6.3).
  static constexpr double parallel_efficiency = 0.2;
};

struct BatchUpdateStats {
  std::uint64_t queries = 0;
  std::uint64_t applied = 0;     // non-duplicate inserts + present deletes
  std::uint64_t structural = 0;  // handled via the single-threaded path
  std::uint64_t modified_nodes = 0;
  /// Parallel apply: runs of sorted updates on one leaf, one stripe lock
  /// each, counted as one worker would (the same for any worker count).
  std::uint64_t leaf_runs = 0;
  std::uint64_t sync_retries = 0;  // transient sync faults retried
  std::uint64_t delta_syncs = 0;   // I-segment syncs taking the delta path
  std::uint64_t full_syncs = 0;    // I-segment syncs taking the full path
  std::uint64_t delta_nodes = 0;   // hot fragments shipped by delta syncs
  double update_us = 0;  // modelled tree-update time
  double sync_us = 0;    // modelled I-segment synchronization time
  double total_us = 0;   // method-dependent combination
};

/// One tree operation of a folded batch (see FoldSortedBatch).
struct FoldedUpdate {
  std::uint32_t index;  // the batch entry to apply
  /// Its outcome counts negated toward `applied`: it is a delete that
  /// stands in for a key whose first op in the batch is an insert.
  bool negated;
};

/// Folds each key's ops into their net effect. `sorted` holds (key, batch
/// index) pairs in (key, index) order, so one key's ops are adjacent and
/// in arrival order. Under arrival-order replay an insert applies only to
/// an absent key and a delete only to a present one, so a key's net
/// effect is
///   - its first insert, when no delete is among its ops;
///   - otherwise its last delete, then the first insert after that
///     delete (the op right after it), if there is one.
/// Appends those tree ops, at most two per key, to `out` in key order.
///
/// Returns the part of the replay's applied count that the ops fix by
/// themselves. After any op the key is present exactly when the op was an
/// insert, so each op after a key's first applies exactly when its kind
/// differs from its predecessor's (one compare with the sorted
/// neighbour). Whether the first op applies depends on the pre-batch
/// state, which the key's first tree op sees: the caller counts that op's
/// outcome, negated when `negated`. The insert after the last delete
/// always applies and counts through its own outcome instead.
template <typename K>
std::uint64_t FoldSortedBatch(
    const std::vector<UpdateQuery<K>>& batch,
    const std::vector<std::pair<K, std::uint32_t>>& sorted,
    std::vector<FoldedUpdate>* out) {
  auto is_insert = [&](std::size_t i) {
    return batch[sorted[i].second].kind == UpdateQuery<K>::Kind::kInsert;
  };
  std::uint64_t changes = 0;
  std::size_t end = 0;
  for (std::size_t begin = 0; begin < sorted.size(); begin = end) {
    std::size_t last_delete = sorted.size();  // none yet
    for (end = begin;
         end < sorted.size() && sorted[end].first == sorted[begin].first;
         ++end) {
      if (end > begin && is_insert(end) != is_insert(end - 1)) ++changes;
      if (!is_insert(end)) last_delete = end;
    }
    if (last_delete == sorted.size()) {
      out->push_back({sorted[begin].second, false});
      continue;
    }
    out->push_back({sorted[last_delete].second, is_insert(begin)});
    if (last_delete + 1 < end) {
      out->push_back({sorted[last_delete + 1].second, false});
      --changes;
    }
  }
  return changes;
}

/// Executes `batch` against the tree with the chosen method. The host
/// tree ALWAYS reflects the whole batch on return — submitted updates
/// must not silently vanish — but device-mirror synchronization can fail
/// (device OOM, injected transfer faults that survive the bounded
/// retries). In that case the returned Status is the sync error, the
/// mirror is stale (tree.mirror_valid() == false) and the caller must
/// route lookups through the CPU until a later TrySyncISegment succeeds.
/// The returned stats carry the simulated platform timing.
template <typename K>
Status TryRunBatchUpdate(HBRegularTree<K>& tree,
                         const std::vector<UpdateQuery<K>>& batch,
                         UpdateMethod method,
                         const BatchUpdateConfig& config,
                         BatchUpdateStats* stats_out) {
  BatchUpdateStats& stats = *stats_out;
  stats = BatchUpdateStats{};
  stats.queries = batch.size();
  HBTREE_TRACE_SPAN_ARG("update.batch", "hybrid", "queries",
                        static_cast<double>(batch.size()));
  RegularBTree<K>& host = tree.host_tree();
  std::vector<ModifiedNode> modified;
  // Transient device-sync faults retry under the default policy
  // (TryRunBatchUpdate only; the aborting path never sees them without an
  // armed injector).
  const fault::RetryPolicy retry;
  Status sync_status = Status::Ok();

  if (method == UpdateMethod::kSynchronized) {
    // Modifying thread: full structural API per query, recording modified
    // nodes; synchronizing thread mirrors each one (here executed inline;
    // the timing model runs the two threads concurrently, so the total is
    // the max of the two streams — the paper finds the transfer stream
    // dominates, bounded by the per-transfer initialization latency).
    double sync_us = 0;
    std::uint64_t applied = 0;
    for (const auto& update : batch) {
      std::vector<ModifiedNode> local;
      bool ok = update.kind == UpdateQuery<K>::Kind::kInsert
                    ? host.Insert(update.pair, &local)
                    : host.Erase(update.pair.key, &local);
      if (ok) ++applied;
      for (const auto& node : local) {
        // Once a node sync fails terminally the mirror is stale and only
        // a bulk resync can repair it — skip further per-node transfers
        // but keep applying the host-side updates.
        if (!sync_status.ok()) continue;
        double node_us = 0;
        double backoff_us = 0;
        const Status s = fault::RetryTransient(
            retry, [&] { return tree.TrySyncNode(node, &node_us); },
            &stats.sync_retries, &backoff_us);
        sync_us += node_us + backoff_us;
        if (!s.ok()) sync_status = s;
      }
      stats.modified_nodes += local.size();
    }
    stats.applied = applied;
    stats.update_us =
        batch.size() * (config.cpu_update_us + config.lock_overhead_us);
    stats.sync_us = sync_us;
    stats.total_us = std::max(stats.update_us, stats.sync_us);
    return sync_status;
  }

  // Asynchronous methods: apply everything in main memory first, in key
  // order. The sorted stream is what makes gapped leaves pay: updates
  // landing in the same big leaf form a run that reuses one descent (the
  // leaf's external bound tells us when the run ends) and edits the
  // leaf's lines sequentially instead of hopping across the keyspace.
  // Each key's ops fold into their net effect first, so only the folded
  // ops descend, edit a leaf and pay the per-update cost; every op pays
  // the sort (sort_us_per_query, same rate as the read path's bucket
  // sort), which covers the fold's one compare per op.
  const bool parallel = method == UpdateMethod::kAsyncParallel;
  std::uint64_t structural = 0;
  std::uint64_t held = 0;  // held back behind a deferred op on their key
  std::uint64_t leaf_runs = 0;

  // Packed (key, index) records sort in-cache instead of chasing the
  // batch array through an index indirection; ordering by (key, index)
  // keeps each key's ops in arrival order, which the fold needs.
  std::vector<std::pair<K, std::uint32_t>> keyed(batch.size());
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    keyed[i] = {batch[i].pair.key, i};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<FoldedUpdate> order;
  order.reserve(batch.size());
  std::uint64_t applied = FoldSortedBatch(batch, keyed, &order);

  if (!parallel) {
    NodeRef cached = kNullRef;
    K cached_bound{};
    for (const FoldedUpdate& op : order) {
      const auto& update = batch[op.index];
      const bool is_insert = update.kind == UpdateQuery<K>::Kind::kInsert;
      // Ascending keys: while the key stays under the cached leaf's
      // external bound it descends to the same last-inner node.
      NodeRef ln;
      if (cached != kNullRef && update.pair.key <= cached_bound) {
        ln = cached;
      } else {
        ln = host.FindLastInner(update.pair.key);
        cached = ln;
        cached_bound = host.big_leaf(ln).info.upper_bound;
      }
      bool ok;
      if (host.WouldBeStructural(ln, is_insert, update.pair.key)) {
        ++structural;
        ok = is_insert ? host.Insert(update.pair, &modified)
                       : host.Erase(update.pair.key, &modified);
        cached = kNullRef;  // the split/merge moved this leaf's range
      } else {
        ok = host.ApplyNonStructural(ln, is_insert, update.pair, &modified);
      }
      if (ok != op.negated) ++applied;
    }
  } else {
    // Parallel phase per group: non-structural updates under striped
    // per-node locks, one acquisition per leaf run; structural ones
    // deferred (paper: > 99% resolve in the parallel phase thanks to the
    // 256-entry big leaves).
    constexpr int kStripes = 1024;
    static std::mutex stripes[kStripes];
    const std::size_t group = static_cast<std::size_t>(config.group_size);
    // Spawning more functional workers than the host has cores buys no
    // parallelism — it only adds context switches and contended futex
    // waits that preempt concurrent readers (the cost model's view of
    // the paper's 16-thread machine stays `model_threads`, so modelled
    // timings do not change with the host).
    const unsigned hw = std::thread::hardware_concurrency();
    const int workers =
        std::max(1, std::min(config.real_threads,
                             hw == 0 ? config.real_threads
                                     : static_cast<int>(hw)));
    for (std::size_t begin = 0; begin < order.size(); begin += group) {
      const std::size_t end = std::min(order.size(), begin + group);
      std::vector<std::vector<const FoldedUpdate*>> deferred(workers);
      std::vector<std::vector<ModifiedNode>> worker_modified(workers);
      std::vector<std::uint64_t> worker_applied(workers, 0);
      std::vector<std::uint64_t> worker_held(workers, 0);
      std::vector<std::uint64_t> worker_runs(workers, 0);
      const std::size_t span = (end - begin + workers - 1) / workers;
      // Workers take contiguous slices of the sorted order, cut only
      // between leaves: a boundary advances past the updates that share
      // a leaf with the one before it (every worker computes the same
      // cut). Each leaf's updates then run on one worker in key order,
      // so the leaves' edits, the structural checks and the leaf runs
      // are those of a single worker, whatever the worker count. Equal
      // keys share a leaf, so same-key ops keep their arrival order too.
      auto slice_edge = [&](std::size_t x) {
        if (x <= begin || x >= end) return x;
        const K bound =
            host.big_leaf(
                    host.FindLastInner(batch[order[x - 1].index].pair.key))
                .info.upper_bound;
        while (x < end && batch[order[x].index].pair.key <= bound) ++x;
        return x;
      };
      auto run_worker = [&](int w) {
        const std::size_t lo = slice_edge(begin + w * span);
        const std::size_t hi =
            slice_edge(std::min(end, begin + (w + 1) * span));
        NodeRef cached = kNullRef;
        K cached_bound{};
        // The stripe lock of `cached` (the paper's per-node lock): held
        // while consecutive updates reuse its descent and released
        // before the next descent, so a worker never holds two. The
        // structural check reads the leaf state ApplyNonStructural
        // writes, so it runs under the lock too.
        std::unique_lock<std::mutex> lock;
        for (std::size_t i = lo; i < hi; ++i) {
          const FoldedUpdate& op = order[i];
          const auto& update = batch[op.index];
          // Ops on one key keep their batch order: once one is deferred
          // to the single-threaded pass, the one after it (adjacent in
          // the sorted slice) is deferred behind it, or the insert that
          // follows a delete deferred for a merge would run before it.
          if (!deferred[w].empty() &&
              batch[deferred[w].back()->index].pair.key == update.pair.key) {
            deferred[w].push_back(&op);
            ++worker_held[w];
            continue;
          }
          const bool is_insert =
              update.kind == UpdateQuery<K>::Kind::kInsert;
          // Descent reuse is safe here because every structural query is
          // deferred: nothing in the parallel phase changes a leaf's
          // external bound, so a cached (node, bound) stays valid for
          // the whole group.
          if (cached == kNullRef || update.pair.key > cached_bound) {
            if (lock.owns_lock()) lock.unlock();
            cached = host.FindLastInner(update.pair.key);
            cached_bound = host.big_leaf(cached).info.upper_bound;
            lock = std::unique_lock<std::mutex>(stripes[cached % kStripes]);
            ++worker_runs[w];
          }
          if (host.WouldBeStructural(cached, is_insert, update.pair.key)) {
            deferred[w].push_back(&op);
            continue;  // deferred: the leaf is untouched, cache holds
          }
          if (host.ApplyNonStructural(cached, is_insert, update.pair,
                                      &worker_modified[w]) != op.negated) {
            ++worker_applied[w];
          }
        }
      };
      if (workers == 1) {
        // Single functional worker: run inline, no thread spawn/join.
        run_worker(0);
      } else {
        std::vector<std::thread> threads;
        for (int w = 0; w < workers; ++w) {
          threads.emplace_back(run_worker, w);
        }
        for (auto& thread : threads) thread.join();
      }
      for (int w = 0; w < workers; ++w) {
        applied += worker_applied[w];
        held += worker_held[w];
        leaf_runs += worker_runs[w];
        modified.insert(modified.end(), worker_modified[w].begin(),
                        worker_modified[w].end());
        // Single-threaded pass over the deferred (structural) queries.
        for (const FoldedUpdate* op : deferred[w]) {
          ++structural;
          const auto& update = batch[op->index];
          const bool ok = update.kind == UpdateQuery<K>::Kind::kInsert
                              ? host.Insert(update.pair, &modified)
                              : host.Erase(update.pair.key, &modified);
          if (ok != op->negated) ++applied;
        }
      }
    }
  }

  stats.applied = applied;
  stats.structural = structural;
  stats.modified_nodes = modified.size();
  stats.leaf_runs = leaf_runs;

  // One I-segment sync: TrySyncISegment ships only the dirty hot
  // fragments when the mirror allows it, else uploads the whole segment.
  const std::uint64_t delta0 = tree.delta_syncs();
  const std::uint64_t full0 = tree.full_syncs();
  const std::uint64_t delta_nodes0 = tree.delta_nodes_synced();
  double sync_us = 0;
  double backoff_us = 0;
  {
    HBTREE_TRACE_SPAN("update.sync", "hybrid");
    sync_status = fault::RetryTransient(
        retry, [&] { return tree.TrySyncISegment(&sync_us); },
        &stats.sync_retries, &backoff_us);
  }
  stats.sync_us = sync_us + backoff_us;
  stats.delta_syncs = tree.delta_syncs() - delta0;
  stats.full_syncs = tree.full_syncs() - full0;
  stats.delta_nodes = tree.delta_nodes_synced() - delta_nodes0;

  const double sort_us = batch.size() * config.sort_us_per_query;
  // Structural queries run twice; a held-back op never runs in the
  // parallel phase, so it pays only its serial run, in the tail.
  const double single_us =
      (order.size() - held) * config.cpu_update_us +
      (structural - held) * config.cpu_update_us;
  if (parallel) {
    const double lock_us = leaf_runs * config.lock_overhead_us;
    stats.update_us =
        sort_us +
        (single_us + lock_us) /
            (config.model_threads * config.parallel_efficiency) +
        structural * config.cpu_update_us;  // serial tail
  } else {
    stats.update_us = sort_us + single_us;
  }
  stats.total_us = stats.update_us + stats.sync_us;
  return sync_status;
}

/// Unwraps the Status of a mirror sync that cannot fail: without an armed
/// fault injector, sync failures are unreachable (see CheckPipelineOk).
inline void CheckMirrorSyncOk(const Status& status) {
  HBTREE_CHECK_MSG(status.ok(), "device mirror sync failed: %s",
                   status.message().c_str());
}

/// Aborting convenience wrapper with the original signature.
template <typename K>
BatchUpdateStats RunBatchUpdate(HBRegularTree<K>& tree,
                                const std::vector<UpdateQuery<K>>& batch,
                                UpdateMethod method,
                                const BatchUpdateConfig& config) {
  BatchUpdateStats stats;
  CheckMirrorSyncOk(TryRunBatchUpdate(tree, batch, method, config, &stats));
  return stats;
}

/// Mixed search/update execution on the CPU (Appendix B.3, Figure 21):
/// query-processing threads resolve a stream whose fraction
/// `update_ratio` are updates, comparing the synchronous and asynchronous
/// I-segment maintenance strategies.
struct MixedWorkloadStats {
  std::uint64_t operations = 0;
  std::uint64_t updates = 0;
  std::uint64_t modified_nodes = 0;
  double total_us = 0;
  double mops() const { return total_us > 0 ? operations / total_us : 0; }
};

template <typename K>
MixedWorkloadStats RunMixedWorkload(HBRegularTree<K>& tree,
                                    const std::vector<K>& search_queries,
                                    const std::vector<UpdateQuery<K>>& updates,
                                    double update_ratio, UpdateMethod method,
                                    const BatchUpdateConfig& config,
                                    double cpu_search_us) {
  HBTREE_CHECK(update_ratio >= 0 && update_ratio <= 1);
  RegularBTree<K>& host = tree.host_tree();
  MixedWorkloadStats stats;
  std::size_t update_next = 0;
  std::size_t search_next = 0;
  double accumulated_updates = 0;
  double sync_us = 0;
  std::uint64_t modified_count = 0;
  // Interleave deterministically at the requested ratio until either
  // stream runs dry.
  const std::size_t total = search_queries.size() + updates.size();
  for (std::size_t i = 0; i < total; ++i) {
    accumulated_updates += update_ratio;
    const bool do_update = accumulated_updates >= 1.0 &&
                           update_next < updates.size();
    if (!do_update && search_next >= search_queries.size()) break;
    if (do_update) {
      accumulated_updates -= 1.0;
      const auto& update = updates[update_next++];
      std::vector<ModifiedNode> local;
      bool is_insert = update.kind == UpdateQuery<K>::Kind::kInsert;
      if (is_insert) {
        host.Insert(update.pair, &local);
      } else {
        host.Erase(update.pair.key, &local);
      }
      modified_count += local.size();
      if (method == UpdateMethod::kSynchronized) {
        for (const auto& node : local) {
          double node_us = 0;
          CheckMirrorSyncOk(tree.TrySyncNode(node, &node_us));
          sync_us += node_us;
        }
      }
      ++stats.updates;
    } else if (search_next < search_queries.size()) {
      host.Search(search_queries[search_next++]);
    }
    ++stats.operations;
  }
  stats.modified_nodes = modified_count;
  if (method != UpdateMethod::kSynchronized) {
    CheckMirrorSyncOk(tree.TrySyncISegment(&sync_us));
  }

  // Every operation pays the mutex/synchronization overhead the paper
  // observes even at 100% searches (Appendix B.3).
  const double op_us =
      (stats.operations - stats.updates) * (cpu_search_us +
                                            config.lock_overhead_us) +
      stats.updates * (config.cpu_update_us + config.lock_overhead_us);
  const double cpu_us =
      op_us / (config.model_threads * config.parallel_efficiency);
  if (method == UpdateMethod::kSynchronized) {
    stats.total_us = std::max(cpu_us, sync_us);
  } else {
    // Asynchronous: the bulk transfer is excluded, as in Figure 21.
    stats.total_us = cpu_us;
  }
  return stats;
}

}  // namespace hbtree

#endif  // HBTREE_HYBRID_BATCH_UPDATE_H_
