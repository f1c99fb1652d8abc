#ifndef HBTREE_FAULT_FAULT_INJECTOR_H_
#define HBTREE_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <random>
#include <vector>

#include "core/status.h"

namespace hbtree::fault {

/// Device-side operations that can be made to fail. The sites mirror the
/// failure modes a real CUDA deployment survives: allocation (OOM /
/// fragmentation), H2D transfers (bus faults, ECC retries), and kernel
/// execution (launch failures, preemption timeouts). No D2H site exists:
/// kernels store their results into host-mapped memory as they run, so a
/// lost result is a kernel fault and its retry rewrites every result.
enum class Site : int {
  kDeviceAlloc = 0,
  kTransferH2D = 1,
  kKernel = 2,
};
inline constexpr int kSiteCount = 3;

/// Per-site injection policy. Both mechanisms compose: an operation fails
/// if its ordinal is scheduled *or* the probability draw fires.
struct SitePolicy {
  /// Probability in [0, 1] that any one operation at this site faults.
  double probability = 0.0;
  /// Deterministic schedule: 1-based operation ordinals (per site) that
  /// fault regardless of probability. Lets tests force exact sequences,
  /// e.g. "fail transfers 3..6" to open a circuit breaker on cue.
  std::vector<std::uint64_t> fail_ordinals;

  bool enabled() const { return probability > 0 || !fail_ordinals.empty(); }
};

/// Injection configuration for one device (serving slots each get their
/// own injector so the two snapshot instances fault independently).
struct FaultConfig {
  std::uint64_t seed = 0;
  SitePolicy sites[kSiteCount];

  SitePolicy& site(Site s) { return sites[static_cast<int>(s)]; }
  const SitePolicy& site(Site s) const {
    return sites[static_cast<int>(s)];
  }

  bool enabled() const {
    for (const SitePolicy& policy : sites) {
      if (policy.enabled()) return true;
    }
    return false;
  }

  /// Convenience: probability on the H2D transfer site only (the fault
  /// class the retry/backoff policy targets).
  static FaultConfig Transfers(double probability, std::uint64_t seed);
};

/// Seedable, thread-safe fault source consulted by the simulated device
/// layer. One instance per Device; the read and update workers of a
/// serving slot may consult it concurrently, so state is mutex-guarded
/// (injection sits on modelled-µs paths, not real hot loops).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  /// Decides whether the next operation at `site` faults; advances the
  /// site's ordinal either way.
  bool ShouldFail(Site site);

  /// Convenience wrapper: Ok, or the typed error for the site.
  Status Check(Site site);

  /// Typed error for `site` without consuming an ordinal (for callers
  /// that observed a failure by other means, e.g. a null TryMalloc).
  static Status ErrorFor(Site site);

  // -- Introspection (all thread-safe) -----------------------------------
  std::uint64_t checks(Site site) const;
  std::uint64_t injected(Site site) const;
  std::uint64_t total_injected() const;

 private:
  struct SiteState {
    std::uint64_t ordinal = 0;  // operations seen
    std::uint64_t injected = 0;
  };

  FaultConfig config_;
  mutable std::mutex mutex_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  SiteState state_[kSiteCount];
};

}  // namespace hbtree::fault

#endif  // HBTREE_FAULT_FAULT_INJECTOR_H_
