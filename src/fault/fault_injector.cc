#include "fault/fault_injector.h"

#include <algorithm>

namespace hbtree::fault {

FaultConfig FaultConfig::Transfers(double probability, std::uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.site(Site::kTransferH2D).probability = probability;
  return config;
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config), rng_(config.seed) {
  for (SitePolicy& policy : config_.sites) {
    std::sort(policy.fail_ordinals.begin(), policy.fail_ordinals.end());
  }
}

bool FaultInjector::ShouldFail(Site site) {
  const int index = static_cast<int>(site);
  const SitePolicy& policy = config_.sites[index];
  std::lock_guard<std::mutex> lock(mutex_);
  SiteState& state = state_[index];
  const std::uint64_t ordinal = ++state.ordinal;
  bool fail = std::binary_search(policy.fail_ordinals.begin(),
                                 policy.fail_ordinals.end(), ordinal);
  // The draw is consumed only when a probability is configured, so a
  // schedule-only policy stays byte-for-byte deterministic.
  if (!fail && policy.probability > 0 && unit_(rng_) < policy.probability) {
    fail = true;
  }
  if (fail) ++state.injected;
  return fail;
}

Status FaultInjector::Check(Site site) {
  if (!ShouldFail(site)) return Status::Ok();
  return ErrorFor(site);
}

Status FaultInjector::ErrorFor(Site site) {
  switch (site) {
    case Site::kDeviceAlloc:
      return Status::DeviceOom("injected device allocation failure");
    case Site::kTransferH2D:
      return Status::TransferFailure("injected H2D transfer fault");
    case Site::kKernel:
      return Status::KernelFailure("injected kernel execution fault");
  }
  return Status::Error("injected fault");
}

std::uint64_t FaultInjector::checks(Site site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_[static_cast<int>(site)].ordinal;
}

std::uint64_t FaultInjector::injected(Site site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_[static_cast<int>(site)].injected;
}

std::uint64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const SiteState& state : state_) total += state.injected;
  return total;
}

}  // namespace hbtree::fault
