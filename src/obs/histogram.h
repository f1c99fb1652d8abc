#ifndef HBTREE_OBS_HISTOGRAM_H_
#define HBTREE_OBS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hbtree::obs {

/// One tail-latency sample linked back to its trace span: the answer to
/// "which dispatch was that p99 outlier, and where did its time go".
/// `trace_id` identifies the recording TraceSession (exported as the
/// trace JSON's top-level `traceId`), `span_id` the specific span (the
/// bucket dispatch / update commit that served the sample). Both stay
/// below 2^53 so they survive a round trip through JSON doubles.
struct Exemplar {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  int shard = -1;          // key-range shard that served the sample
  double modelled_us = 0;  // modelled device time charged to its bucket
  std::uint64_t wall_ns = 0;  // the sample's own recorded latency
};

/// Exemplar pinned to the histogram bucket its sample landed in.
struct BucketExemplar {
  int bucket = -1;
  Exemplar exemplar;
};

/// Percentile summary extracted from a LatencyHistogram.
struct LatencySummary {
  std::uint64_t count = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double mean_us = 0;
  /// Captured tail exemplars (empty unless the owner recorded any via
  /// RecordWithExemplar), sorted by bucket ascending.
  std::vector<BucketExemplar> exemplars;
};

/// Lock-free log-scaled latency histogram (HdrHistogram-lite): four
/// sub-buckets per power of two of nanoseconds, so any recorded value is
/// attributed within ~12% of its true magnitude — plenty for p50/p99
/// reporting. Record() is wait-free (one relaxed fetch_add plus a CAS
/// loop for the running maximum) so every serving thread can record into
/// the same histogram without contention on a lock.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 2;               // 4 sub-buckets/octave
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kLinearLimit = 1 << (kSubBits + 1);  // 0..7 exact
  static constexpr int kBuckets = kLinearLimit + (64 - kSubBits - 1) * kSub;
  /// Exemplar reservoir bound: at most this many (bucket, exemplar)
  /// entries per histogram, regardless of how many shards merge in.
  static constexpr int kMaxExemplars = 8;

  void Record(std::uint64_t ns) {
    counts_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (ns > seen &&
           !max_ns_.compare_exchange_weak(seen, ns,
                                          std::memory_order_relaxed)) {
    }
  }

  /// Record() plus exemplar capture: if the sample's bucket is at or
  /// above the exemplar threshold, it competes for a reservoir slot. The
  /// reservoir keeps at most kMaxExemplars entries, one per bucket, each
  /// holding the max-latency sample seen for that bucket; when full, the
  /// lowest-bucket entry is evicted for a higher-bucket sample, so the
  /// extreme tail always keeps its exemplar. The threshold pre-check is
  /// one relaxed load; only qualifying samples (the tail) take the
  /// reservoir lock.
  void RecordWithExemplar(std::uint64_t ns, const Exemplar& exemplar) {
    Record(ns);
    const int bucket = BucketIndex(ns);
    if (bucket < exemplar_threshold_.load(std::memory_order_relaxed)) return;
    Exemplar e = exemplar;
    e.wall_ns = ns;
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    Offer(bucket, e);
  }

  /// Capture floor: samples whose bucket lies below the threshold are
  /// not considered for the reservoir. 0 (the default) captures into the
  /// reservoir from the first sample on; owners typically raise it to
  /// the bucket of a trailing percentile (see obs::Histogram).
  void SetExemplarThresholdNs(std::uint64_t ns) {
    exemplar_threshold_.store(BucketIndex(ns), std::memory_order_relaxed);
  }

  /// Current reservoir contents, sorted by bucket ascending.
  std::vector<BucketExemplar> Exemplars() const {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    std::vector<BucketExemplar> out;
    out.reserve(static_cast<std::size_t>(exemplar_count_));
    for (int i = 0; i < exemplar_count_; ++i) out.push_back(exemplars_[i]);
    std::sort(out.begin(), out.end(),
              [](const BucketExemplar& a, const BucketExemplar& b) {
                return a.bucket < b.bucket;
              });
    return out;
  }

  /// Adds `other`'s contents into this histogram (counts, sum, running
  /// max). Safe against concurrent Record() on either side in the usual
  /// monitoring sense: a racing sample lands wholly in one histogram or
  /// the other, never half.
  void MergeFrom(const LatencyHistogram& other) {
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t n = other.counts_[b].load(std::memory_order_relaxed);
      if (n != 0) counts_[b].fetch_add(n, std::memory_order_relaxed);
    }
    sum_ns_.fetch_add(other.sum_ns_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    const std::uint64_t other_max =
        other.max_ns_.load(std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (other_max > seen &&
           !max_ns_.compare_exchange_weak(seen, other_max,
                                          std::memory_order_relaxed)) {
    }
    // Exemplars reconcile under the same policy as live capture: per
    // bucket the max-latency sample wins, the reservoir stays bounded,
    // and higher buckets displace lower ones — so merging N shards'
    // histograms keeps the globally worst tail samples. Snapshot the
    // source first: both sides may be recording concurrently, and taking
    // the two locks in a fixed order (snapshot then insert) avoids any
    // lock-order cycle between histograms merged in both directions.
    const std::vector<BucketExemplar> theirs = other.Exemplars();
    if (!theirs.empty()) {
      std::lock_guard<std::mutex> lock(exemplar_mutex_);
      for (const BucketExemplar& be : theirs) Offer(be.bucket, be.exemplar);
    }
  }

  /// Zeroes the histogram. Windowed reporting drains a histogram with
  /// MergeFrom + Reset; a Record() racing the pair may be dropped from
  /// both windows — acceptable for monitoring, not for exact accounting.
  void Reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    exemplar_count_ = 0;
  }

  /// Mid-point of the bucket `ns` falls into (its representative value).
  static std::uint64_t BucketMidpointNs(int bucket) {
    if (bucket < kLinearLimit) return bucket;
    const int rel = bucket - kLinearLimit;
    const int exp = kSubBits + 1 + rel / kSub;
    const int sub = rel % kSub;
    const std::uint64_t low =
        (std::uint64_t{1} << exp) +
        (static_cast<std::uint64_t>(sub) << (exp - kSubBits));
    const std::uint64_t width = std::uint64_t{1} << (exp - kSubBits);
    return low + width / 2;
  }

  static int BucketIndex(std::uint64_t ns) {
    if (ns < kLinearLimit) return static_cast<int>(ns);
    const int exp = 63 - std::countl_zero(ns);
    const int sub = static_cast<int>((ns >> (exp - kSubBits)) & (kSub - 1));
    return kLinearLimit + (exp - kSubBits - 1) * kSub + sub;
  }

  /// Consistent-enough snapshot for reporting: concurrent Record() calls
  /// may or may not be included, as with any monitoring counter read.
  LatencySummary Summarize() const {
    std::array<std::uint64_t, kBuckets> counts;
    std::uint64_t total = 0;
    for (int b = 0; b < kBuckets; ++b) {
      counts[b] = counts_[b].load(std::memory_order_relaxed);
      total += counts[b];
    }
    LatencySummary summary;
    summary.count = total;
    if (total == 0) return summary;
    summary.max_us = max_ns_.load(std::memory_order_relaxed) / 1e3;
    summary.mean_us = sum_ns_.load(std::memory_order_relaxed) / 1e3 / total;

    auto percentile = [&](double q) {
      const std::uint64_t rank = static_cast<std::uint64_t>(q * (total - 1));
      std::uint64_t seen = 0;
      for (int b = 0; b < kBuckets; ++b) {
        seen += counts[b];
        if (seen > rank) return BucketMidpointNs(b) / 1e3;
      }
      return BucketMidpointNs(kBuckets - 1) / 1e3;
    };
    summary.p50_us = percentile(0.50);
    summary.p90_us = percentile(0.90);
    summary.p99_us = percentile(0.99);
    // The histogram midpoint can overshoot the true maximum; clamp so the
    // reported percentiles never exceed the observed max.
    summary.p50_us = std::min(summary.p50_us, summary.max_us);
    summary.p90_us = std::min(summary.p90_us, summary.max_us);
    summary.p99_us = std::min(summary.p99_us, summary.max_us);
    summary.exemplars = Exemplars();
    return summary;
  }

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

 private:
  /// Inserts under exemplar_mutex_ (caller holds it). One entry per
  /// bucket (max wall_ns wins); when full, the lowest-bucket entry yields
  /// to a strictly higher bucket.
  void Offer(int bucket, const Exemplar& exemplar) {
    int lowest = 0;
    for (int i = 0; i < exemplar_count_; ++i) {
      if (exemplars_[i].bucket == bucket) {
        if (exemplar.wall_ns > exemplars_[i].exemplar.wall_ns) {
          exemplars_[i].exemplar = exemplar;
        }
        return;
      }
      if (exemplars_[i].bucket < exemplars_[lowest].bucket) lowest = i;
    }
    if (exemplar_count_ < kMaxExemplars) {
      exemplars_[exemplar_count_++] = BucketExemplar{bucket, exemplar};
      return;
    }
    if (exemplars_[lowest].bucket < bucket) {
      exemplars_[lowest] = BucketExemplar{bucket, exemplar};
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};

  /// Minimum bucket index worth an exemplar (see RecordWithExemplar).
  std::atomic<int> exemplar_threshold_{0};
  mutable std::mutex exemplar_mutex_;  // guards the reservoir below
  std::array<BucketExemplar, kMaxExemplars> exemplars_{};
  int exemplar_count_ = 0;
};

}  // namespace hbtree::obs

#endif  // HBTREE_OBS_HISTOGRAM_H_
