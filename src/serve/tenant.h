#ifndef HBTREE_SERVE_TENANT_H_
#define HBTREE_SERVE_TENANT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hbtree::serve {

/// Index into ServerOptions::tenants; every request carries one. Tenant 0
/// always exists (the default tenant when no topology is configured), so
/// single-tenant callers never have to mention tenants at all.
using TenantId = int;

/// Degradation order. When a deadline squeeze, a full lane, or an open
/// circuit breaker forces the serving layer to drop work, lower classes
/// are shed first: kLow work is dropped proactively in degraded mode,
/// kNormal work is shed only by its own deadlines, and kHigh work is
/// never shed by policy (only an explicitly expired deadline can shed
/// it).
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

inline const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "?";
}

/// One tenant's admission contract.
struct TenantSpec {
  std::string name = "default";

  /// Deficit-round-robin share: when several lanes are backlogged, each
  /// bucket window carries ops in proportion to the weights. A lane with
  /// no backlog donates its share (the scheduler is work-conserving), so
  /// weights bound interference, not utilization.
  int weight = 1;

  /// Shed order under overload/degradation (see Priority).
  Priority priority = Priority::kNormal;

  /// Admission policy when this tenant's lane is full: false blocks the
  /// submitter until space or deadline (backpressure, the pre-QoS
  /// behaviour); true sheds immediately (kTimeout) so an open-loop
  /// source keeps its offered rate and absorbs the loss itself. Hostile
  /// or best-effort tenants should shed; interactive tenants that can
  /// slow down should block.
  bool shed_on_full = false;

  /// Per-tenant SLO targets that TenantServeSlos() turns into specs for
  /// Shutdown() to evaluate: wall read p99 budget and tolerated shed
  /// fraction.
  double read_p99_slo_us = 200'000;
  double slo_budget = 0.01;
};

/// The implicit topology when ServerOptions::tenants is empty: one
/// default tenant, weight 1, normal priority, blocking admission —
/// exactly the pre-QoS single-FIFO behaviour.
inline std::vector<TenantSpec> DefaultTenants() { return {TenantSpec{}}; }

}  // namespace hbtree::serve

#endif  // HBTREE_SERVE_TENANT_H_
