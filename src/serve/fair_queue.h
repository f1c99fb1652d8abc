#ifndef HBTREE_SERVE_FAIR_QUEUE_H_
#define HBTREE_SERVE_FAIR_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "serve/tenant.h"

namespace hbtree::serve {

/// Outcome of a deadline-bounded admission attempt.
enum class PushResult {
  kOk,       // admitted
  kClosed,   // queue closed (server shutting down)
  kTimeout,  // not admitted by the deadline: the request is shed at the door
};

/// Per-lane scheduling contract of a FairAdmissionQueue (one lane per
/// tenant; see TenantSpec::weight / TenantSpec::shed_on_full for the
/// semantics).
struct LaneConfig {
  int weight = 1;
  bool shed_on_full = false;
};

/// Weighted-fair multi-tenant admission queue: one bounded FIFO lane per
/// tenant, batch consumption by deficit round-robin over the lane
/// weights. A one-lane queue is a plain bounded FIFO.
///
/// Producers (client threads) block in Push() while their lane is full —
/// the serving layer's backpressure: admission slows to the rate the
/// pipeline drains buckets instead of queueing unboundedly. Consumers
/// (batcher threads; a shard may run several read workers against one
/// queue) pop up to a bucket's worth of operations at once, waiting
/// briefly for a partial bucket to fill so light load still ships with
/// bounded added latency. Every push notifies one consumer.
///
/// Isolation properties (the whole point versus a single FIFO):
///  * A tenant that floods its lane fills only its own bounded lane —
///    other tenants' admission latency is untouched (capacity is per
///    lane, not shared).
///  * When several lanes are backlogged, each bucket window carries ops
///    in proportion to the configured weights (DRR: every lane earns
///    `weight x quantum` credit per round and spends one credit per op;
///    unused credit of a drained lane is forfeited, so an idle tenant
///    cannot bank share). A hostile tenant is bounded to its weight
///    share of every bucket no matter how much it offers.
///  * The scheduler is work-conserving: when only one lane has work, it
///    gets the whole bucket.
///
/// Shedding: a lane configured shed_on_full resolves PushUntil with
/// kTimeout immediately when its lane is full instead of blocking until
/// the deadline — open-loop (paced) sources keep their offered rate and
/// absorb the loss themselves; blocking lanes keep the pre-QoS
/// backpressure contract. An already-expired deadline sheds immediately
/// in either mode: admitting it would only waste a bucket slot on a
/// request that must resolve kDeadlineExceeded anyway, and the
/// condition-variable wait must not run at all (wait_until with a past
/// deadline still checks the predicate, which would ADMIT the expired
/// request whenever the lane has space).
///
/// Thread-safety: all operations are guarded by one mutex; any number of
/// producers and batch consumers may run concurrently. The consumer
/// wakes blocked producers every time it drains items, so small lane
/// capacities cannot livelock a batch fill.
template <typename T>
class FairAdmissionQueue {
 public:
  /// `lane_capacity` bounds every lane independently (clamped to >= 1: a
  /// zero capacity would make every Push() wait forever); at least one
  /// lane is always configured.
  FairAdmissionQueue(std::size_t lane_capacity,
                     std::vector<LaneConfig> lanes)
      : capacity_(lane_capacity == 0 ? 1 : lane_capacity),
        // Constructed in place (not pushed): a Lane holds a deque of
        // potentially move-only items, which vector growth would copy.
        lanes_(lanes.empty() ? 1 : lanes.size()) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes_[i].config = lanes[i];
      lanes_[i].config.weight = std::max(1, lanes[i].weight);
    }
    for (const Lane& lane : lanes_) total_weight_ += lane.config.weight;
  }

  FairAdmissionQueue(const FairAdmissionQueue&) = delete;
  FairAdmissionQueue& operator=(const FairAdmissionQueue&) = delete;

  /// Blocking admission into `lane` (no deadline): waits for lane space,
  /// false when closed. `item` is moved from only when admitted, so the
  /// caller can still reject it (resolve its promise) on failure.
  bool Push(std::size_t lane, T&& item) {
    Lane& l = lanes_[lane];
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || l.items.size() < capacity_; });
    if (closed_) return false;
    l.items.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Deadline-bounded admission. kTimeout means shed at the door: the
  /// deadline already passed, the lane stayed full until the deadline,
  /// or the lane is full and configured shed_on_full. On kClosed and
  /// kTimeout `item` is left untouched.
  PushResult PushUntil(std::size_t lane, T&& item,
                       std::chrono::steady_clock::time_point deadline) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return PushResult::kTimeout;
    }
    Lane& l = lanes_[lane];
    std::unique_lock<std::mutex> lock(mutex_);
    if (l.config.shed_on_full && !closed_ && l.items.size() >= capacity_) {
      return PushResult::kTimeout;
    }
    if (!not_full_.wait_until(lock, deadline, [&] {
          return closed_ || l.items.size() < capacity_;
        })) {
      return PushResult::kTimeout;
    }
    if (closed_) return PushResult::kClosed;
    l.items.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Pops up to `max` items into `out` (appended) by deficit
  /// round-robin over the lanes. Waits up to `idle_wait` for the first
  /// item, then keeps collecting until `max` items or `fill_wait` has
  /// elapsed since the first item — the bucket-fill window. Returns the
  /// number popped (0 on timeout or when closed and drained).
  std::size_t PopBatch(std::vector<T>* out, std::size_t max,
                       std::chrono::microseconds idle_wait,
                       std::chrono::microseconds fill_wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!not_empty_.wait_for(lock, idle_wait,
                             [this] { return closed_ || !Empty(); })) {
      return 0;
    }
    if (Empty()) return 0;  // closed and drained
    std::size_t popped = 0;
    const auto deadline = std::chrono::steady_clock::now() + fill_wait;
    for (;;) {
      const std::size_t drained = DrainRound(out, max - popped);
      popped += drained;
      if (popped >= max || closed_) break;
      if (drained > 0) not_full_.notify_all();
      if (!not_empty_.wait_until(lock, deadline,
                                 [this] { return closed_ || !Empty(); })) {
        break;  // fill window expired: ship the partial bucket
      }
    }
    lock.unlock();
    not_full_.notify_all();
    return popped;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Total queued items across lanes.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const Lane& lane : lanes_) total += lane.items.size();
    return total;
  }

  std::size_t lane_size(std::size_t lane) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lanes_[lane].items.size();
  }

 private:
  struct Lane {
    LaneConfig config;
    std::deque<T> items;
    // DRR credit in ops. Persists across PopBatch calls while the lane
    // stays backlogged; forfeited (reset to 0) whenever the lane drains
    // so an idle tenant cannot bank share.
    std::size_t deficit = 0;
  };

  bool Empty() const {
    for (const Lane& lane : lanes_) {
      if (!lane.items.empty()) return false;
    }
    return true;
  }

  /// One DRR round under the lock: every lane earns weight x quantum
  /// credit, then spends it oldest-first, bounded by `budget` total.
  /// The rotation start survives across rounds/calls so no lane is
  /// systematically first.
  std::size_t DrainRound(std::vector<T>* out, std::size_t budget) {
    if (budget == 0) return 0;
    // Quantum sized so one fully-backlogged round roughly fills the
    // budget in weight proportion (at least 1 op per weight unit).
    const std::size_t quantum =
        std::max<std::size_t>(1, budget / static_cast<std::size_t>(
                                              total_weight_));
    std::size_t taken = 0;
    const std::size_t n = lanes_.size();
    for (std::size_t i = 0; i < n && taken < budget; ++i) {
      Lane& lane = lanes_[(next_lane_ + i) % n];
      if (lane.items.empty()) {
        lane.deficit = 0;
        continue;
      }
      lane.deficit +=
          quantum * static_cast<std::size_t>(lane.config.weight);
      std::size_t take =
          std::min({lane.deficit, lane.items.size(), budget - taken});
      lane.deficit -= take;
      taken += take;
      while (take-- > 0) {
        out->push_back(std::move(lane.items.front()));
        lane.items.pop_front();
      }
      if (lane.items.empty()) lane.deficit = 0;
    }
    next_lane_ = (next_lane_ + 1) % n;
    return taken;
  }

  const std::size_t capacity_;  // per lane
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Lane> lanes_;
  int total_weight_ = 0;
  std::size_t next_lane_ = 0;
  bool closed_ = false;
};

}  // namespace hbtree::serve

#endif  // HBTREE_SERVE_FAIR_QUEUE_H_
