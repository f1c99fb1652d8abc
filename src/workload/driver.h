#ifndef HBTREE_WORKLOAD_DRIVER_H_
#define HBTREE_WORKLOAD_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "workload/dataset.h"
#include "workload/op_stream.h"
#include "workload/spec.h"

namespace hbtree::workload {

struct ReplayOptions {
  int clients = 4;
  std::size_t ops_per_client = 16 * 1024;
  /// Outstanding async requests per client; the oldest half-window is
  /// harvested when full (same cadence as bench/serve_throughput).
  std::size_t in_flight = 1024;
  std::uint64_t seed = 1;
  /// Per-request deadline budget passed to every Submit*; zero means
  /// none. Overload runs give low-priority tenants
  /// tight budgets here so their requests shed instead of queueing.
  std::chrono::microseconds deadline{0};
};

struct ReplayTotals {
  std::uint64_t reads = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t scans = 0;
  std::uint64_t scan_items = 0;  // records returned across all scans
  std::uint64_t rmws = 0;
  std::uint64_t rejected = 0;    // non-ok futures (shed / rejected)
  double wall_seconds = 0;
};

/// Replays a workload through the serving front-end with one thread per
/// client. Op streams are generated up front (deterministic from
/// options.seed) so the timed region measures serving, not generation.
///
/// Semantics per op kind:
///  - read  → SubmitLookup, async window
///  - update → SubmitUpdate(kInsert of the existing key): a duplicate
///    insert is a no-op on the tree, but it pays the full admission /
///    batch / dual-snapshot commit path, which is what the bench
///    measures — and it keeps dataset membership (and thus hit rate)
///    constant over the run. Value-changing semantics are covered by the
///    differential tests, which toggle delete/insert with fences.
///  - insert → SubmitUpdate(kInsert of a fresh key), async window
///  - scan  → SubmitRange(key, scan_len), async window
///  - rmw   → SubmitLookup(key).get() then SubmitUpdate: the read is
///    waited synchronously to model the read-then-write dependency.
inline ReplayTotals ReplayWorkload(serve::Server<Key64>& server,
                                   const WorkloadSpec& spec,
                                   const BootstrapDataset& dataset,
                                   const ReplayOptions& options) {
  std::vector<std::vector<Op>> plans;
  plans.reserve(options.clients);
  for (int c = 0; c < options.clients; ++c) {
    OpStream stream(spec, &dataset, c, options.clients, options.seed);
    plans.push_back(stream.Take(options.ops_per_client));
  }

  std::atomic<std::uint64_t> reads{0}, read_hits{0}, updates{0}, inserts{0},
      scans{0}, scan_items{0}, rmws{0}, rejected{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (int c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      struct PendingRead {
        std::future<serve::ReadResult<Key64>> future;
        bool is_scan;
      };
      std::deque<PendingRead> read_window;
      std::deque<std::future<serve::UpdateResult>> update_window;
      const std::size_t harvest =
          std::max<std::size_t>(1, options.in_flight / 2);
      std::uint64_t local_reads = 0, local_hits = 0, local_updates = 0,
                    local_inserts = 0, local_scans = 0, local_scan_items = 0,
                    local_rmws = 0, local_rejected = 0;

      auto harvest_read = [&](PendingRead& pending) {
        serve::ReadResult<Key64> result = pending.future.get();
        if (!result.status.ok()) {
          ++local_rejected;
        } else if (pending.is_scan) {
          local_scan_items += result.range.size();
        } else {
          local_hits += result.lookup.found;
        }
      };
      auto push_read = [&](std::future<serve::ReadResult<Key64>> future,
                           bool is_scan) {
        if (read_window.size() >= options.in_flight) {
          for (std::size_t h = 0; h < harvest; ++h) {
            harvest_read(read_window.front());
            read_window.pop_front();
          }
        }
        read_window.push_back({std::move(future), is_scan});
      };
      auto push_update = [&](std::future<serve::UpdateResult> future) {
        if (update_window.size() >= options.in_flight) {
          for (std::size_t h = 0; h < harvest; ++h) {
            local_rejected += !update_window.front().get().status.ok();
            update_window.pop_front();
          }
        }
        update_window.push_back(std::move(future));
      };

      // Every op carries the stream's tenant identity and the replay's
      // deadline budget into admission (see WorkloadSpec::tenant).
      const serve::TenantId tenant = spec.tenant;
      const std::chrono::microseconds deadline = options.deadline;
      for (const Op& op : plans[c]) {
        switch (op.kind) {
          case OpKind::kRead:
            ++local_reads;
            push_read(server.SubmitLookup(op.key, deadline, tenant),
                      /*is_scan=*/false);
            break;
          case OpKind::kUpdate:
          case OpKind::kInsert: {
            op.kind == OpKind::kUpdate ? ++local_updates : ++local_inserts;
            UpdateQuery<Key64> update;
            update.kind = UpdateQuery<Key64>::Kind::kInsert;
            update.pair = {op.key, op.value};
            push_update(server.SubmitUpdate(update, deadline, tenant));
            break;
          }
          case OpKind::kScan:
            ++local_scans;
            push_read(server.SubmitRange(op.key, op.scan_len, deadline,
                                         tenant),
                      /*is_scan=*/true);
            break;
          case OpKind::kReadModifyWrite: {
            ++local_rmws;
            serve::ReadResult<Key64> read =
                server.SubmitLookup(op.key, deadline, tenant).get();
            if (!read.status.ok()) {
              ++local_rejected;
            } else {
              local_hits += read.lookup.found;
            }
            UpdateQuery<Key64> update;
            update.kind = UpdateQuery<Key64>::Kind::kInsert;
            update.pair = {op.key, op.value};
            push_update(server.SubmitUpdate(update, deadline, tenant));
            break;
          }
        }
      }
      for (auto& pending : read_window) harvest_read(pending);
      for (auto& f : update_window) {
        local_rejected += !f.get().status.ok();
      }

      reads.fetch_add(local_reads);
      read_hits.fetch_add(local_hits);
      updates.fetch_add(local_updates);
      inserts.fetch_add(local_inserts);
      scans.fetch_add(local_scans);
      scan_items.fetch_add(local_scan_items);
      rmws.fetch_add(local_rmws);
      rejected.fetch_add(local_rejected);
    });
  }
  for (auto& t : clients) t.join();
  const auto end = std::chrono::steady_clock::now();

  ReplayTotals totals;
  totals.reads = reads.load();
  totals.read_hits = read_hits.load();
  totals.updates = updates.load();
  totals.inserts = inserts.load();
  totals.scans = scans.load();
  totals.scan_items = scan_items.load();
  totals.rmws = rmws.load();
  totals.rejected = rejected.load();
  totals.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  return totals;
}

}  // namespace hbtree::workload

#endif  // HBTREE_WORKLOAD_DRIVER_H_
