// Fault-tolerance acceptance tests for the serving layer: with double-
// digit injected device fault rates a mixed lookup/update workload must
// complete with zero aborts, every future resolved (success or typed
// error), results differentially checked against a std::map reference,
// and the circuit breaker observed both opening (CPU-only buckets
// served) and closing (GPU path restored). Also covers deterministic
// breaker cycling on a scheduled fault, retry accounting, and
// deadline-based load shedding.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <random>
#include <vector>

#include "fault/fault_injector.h"
#include "serve/server.h"

namespace hbtree {
namespace {

constexpr std::uint64_t kStable = 8 * 1024;
constexpr std::uint64_t kDynBase = 1ull << 40;
constexpr std::uint64_t kDynSpan = 4096;

Key64 StableValue(std::uint64_t key) { return key * 3 + 1; }
Key64 DynamicValue(std::uint64_t key) { return key + 7; }

std::vector<KeyValue<Key64>> StableDataset() {
  std::vector<KeyValue<Key64>> data;
  data.reserve(kStable);
  for (std::uint64_t k = 1; k <= kStable; ++k) {
    data.push_back(KeyValue<Key64>{k, StableValue(k)});
  }
  return data;
}

UpdateQuery<Key64> Insert(std::uint64_t key) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kInsert,
                            KeyValue<Key64>{key, DynamicValue(key)}};
}

UpdateQuery<Key64> Delete(std::uint64_t key) {
  return UpdateQuery<Key64>{UpdateQuery<Key64>::Kind::kDelete,
                            KeyValue<Key64>{key, 0}};
}

serve::ServerOptions FaultOptions() {
  serve::ServerOptions options;
  options.bucket_size = 256;
  options.cpu_queries_per_us = 20.0;
  options.update_batch_size = 256;
  return options;
}

// The acceptance scenario: >=10% transfer fault rate plus kernel faults,
// no pipeline retries (every injected fault kills its bucket), a tight
// breaker. Rounds of concurrent lookups+updates run until the breaker
// has both opened and closed; each round ends with a quiescent
// differential sweep against the std::map reference.
TEST(ServeFault, FaultyDeviceServesExactResultsAndBreakerCycles) {
  auto data = StableDataset();
  serve::ServerOptions options = FaultOptions();
  options.fault = fault::FaultConfig::Transfers(0.15, 7);
  options.fault.site(fault::Site::kKernel).probability = 0.05;
  options.max_device_retries = 0;
  options.breaker_failure_threshold = 2;
  options.breaker_probe_interval = 2;

  Status create_status;
  auto server_ptr =
      serve::Server<Key64>::Create(options, data, &create_status);
  ASSERT_NE(server_ptr, nullptr) << create_status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::map<std::uint64_t, std::uint64_t> reference;
  for (const auto& kv : data) reference[kv.key] = kv.value;

  std::mt19937_64 rng(11);
  bool opened = false;
  bool closed = false;
  constexpr int kMaxRounds = 120;
  int rounds = 0;
  for (; rounds < kMaxRounds; ++rounds) {
    // -- Concurrent phase: racy reads + an update batch in flight. Reads
    // can only be checked for invariants here (stable region exact, any
    // dynamic hit carries the inserted value) — the exact check follows
    // once the updates commit.
    std::vector<std::future<serve::ReadResult<Key64>>> reads;
    std::vector<std::uint64_t> read_keys;
    std::vector<std::future<serve::UpdateResult>> writes;
    std::vector<UpdateQuery<Key64>> submitted;
    for (int j = 0; j < 256; ++j) {
      const std::uint64_t key = kDynBase + rng() % kDynSpan;
      const UpdateQuery<Key64> update =
          rng() % 2 == 0 ? Insert(key) : Delete(key);
      submitted.push_back(update);
      writes.push_back(server.SubmitUpdate(update));
      if (j % 2 == 0) {
        const std::uint64_t probe = rng() % 2 == 0
                                        ? 1 + rng() % kStable
                                        : kDynBase + rng() % kDynSpan;
        read_keys.push_back(probe);
        reads.push_back(server.SubmitLookup(probe));
      }
    }
    for (auto& f : writes) {
      const serve::UpdateResult committed = f.get();
      ASSERT_TRUE(committed.status.ok()) << committed.status.message();
    }
    // Updates commit in submission order, so the reference replays them
    // in the same order.
    for (const auto& update : submitted) {
      if (update.kind == UpdateQuery<Key64>::Kind::kInsert) {
        reference[update.pair.key] = update.pair.value;
      } else {
        reference.erase(update.pair.key);
      }
    }
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const serve::ReadResult<Key64> result = reads[i].get();
      ASSERT_TRUE(result.status.ok()) << result.status.message();
      const std::uint64_t key = read_keys[i];
      if (key <= kStable) {
        ASSERT_TRUE(result.lookup.found) << "stable key " << key;
        ASSERT_EQ(result.lookup.value, StableValue(key));
      } else if (result.lookup.found) {
        ASSERT_EQ(result.lookup.value, DynamicValue(key));
      }
    }

    // -- Quiescent differential sweep: every committed update is visible
    // (read-your-writes), so served results must match the reference
    // exactly — through GPU, degraded-CPU, and probe paths alike.
    std::vector<std::future<serve::ReadResult<Key64>>> sweep;
    std::vector<std::uint64_t> sweep_keys;
    for (int j = 0; j < 384; ++j) {
      std::uint64_t key;
      switch (rng() % 3) {
        case 0:
          key = 1 + rng() % kStable;
          break;
        case 1:
          key = kStable + 1 + rng() % kStable;  // never-populated gap
          break;
        default:
          key = kDynBase + rng() % kDynSpan;
          break;
      }
      sweep_keys.push_back(key);
      sweep.push_back(server.SubmitLookup(key));
    }
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const serve::ReadResult<Key64> result = sweep[i].get();
      ASSERT_TRUE(result.status.ok()) << result.status.message();
      const auto it = reference.find(sweep_keys[i]);
      if (it == reference.end()) {
        ASSERT_FALSE(result.lookup.found) << "key " << sweep_keys[i];
      } else {
        ASSERT_TRUE(result.lookup.found) << "key " << sweep_keys[i];
        ASSERT_EQ(result.lookup.value, it->second);
      }
    }

    // A stable-region range scan stays exact under faults too (the scan
    // is host-side, but its bucket shares the pinned snapshot).
    const std::uint64_t first = 1 + rng() % (kStable - 16);
    auto range = server.SubmitRange(first, 8).get();
    ASSERT_TRUE(range.status.ok());
    ASSERT_EQ(range.range.size(), 8u);
    for (int j = 0; j < 8; ++j) {
      ASSERT_EQ(range.range[j].key, first + j);
      ASSERT_EQ(range.range[j].value, StableValue(first + j));
    }

    const serve::ServeStats stats = server.Stats();
    opened = stats.breaker_opens >= 1;
    closed = stats.breaker_closes >= 1;
    if (opened && closed && rounds >= 3) break;
  }

  ASSERT_TRUE(opened) << "breaker never opened in " << rounds << " rounds";
  ASSERT_TRUE(closed) << "breaker never closed in " << rounds << " rounds";

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  const serve::ServeStats stats = server.Stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GE(stats.device_faults, 1u);
  EXPECT_GE(stats.cpu_fallback_buckets, 1u);
  EXPECT_GE(stats.cpu_fallback_lookups, 1u);
  EXPECT_GE(stats.probe_attempts, 1u);
  EXPECT_EQ(stats.shed_reads, 0u);   // no deadlines configured
  EXPECT_EQ(stats.shed_updates, 0u);
}

// A scheduled fault drives one full deterministic breaker cycle:
// bucket 1 fails its query upload (no retries, threshold 1) -> breaker
// opens and the bucket is re-served by the CPU; bucket 2 probes (interval
// 1), succeeds on the device, and closes the breaker. Both lookups
// return exact results throughout.
TEST(ServeFault, ScheduledFaultCyclesBreakerDeterministically) {
  auto data = StableDataset();
  serve::ServerOptions options = FaultOptions();
  options.fault.site(fault::Site::kTransferH2D).fail_ordinals = {1};
  options.max_device_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_probe_interval = 1;

  auto server_ptr = serve::Server<Key64>::Create(options, data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  auto first = server.SubmitLookup(17).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_TRUE(first.lookup.found);
  EXPECT_EQ(first.lookup.value, StableValue(17));
  serve::ServeStats after_fault = server.Stats();
  EXPECT_EQ(after_fault.device_faults, 1u);
  EXPECT_EQ(after_fault.breaker_opens, 1u);
  EXPECT_EQ(after_fault.cpu_fallback_buckets, 1u);
  EXPECT_EQ(after_fault.breaker_closes, 0u);

  auto second = server.SubmitLookup(18).get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.lookup.found);
  EXPECT_EQ(second.lookup.value, StableValue(18));
  serve::ServeStats after_probe = server.Stats();
  EXPECT_EQ(after_probe.probe_attempts, 1u);
  EXPECT_EQ(after_probe.breaker_closes, 1u);
  EXPECT_EQ(after_probe.cpu_fallback_buckets, 1u);  // probe served on GPU
  EXPECT_EQ(after_probe.faults_injected, 1u);
}

// With retries enabled, transient faults are absorbed below the breaker:
// lookups stay exact, the retry counters account for the recovered
// faults, and (at this fault rate and budget) no bucket fails outright.
TEST(ServeFault, RetriesAbsorbTransientFaults) {
  auto data = StableDataset();
  serve::ServerOptions options = FaultOptions();
  options.fault = fault::FaultConfig::Transfers(0.2, 21);
  options.max_device_retries = 4;

  auto server_ptr = serve::Server<Key64>::Create(options, data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  std::mt19937_64 rng(5);
  std::vector<std::future<serve::ReadResult<Key64>>> window;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = 1 + rng() % kStable;
    keys.push_back(key);
    window.push_back(server.SubmitLookup(key));
    if (window.size() == 256) {
      for (std::size_t j = 0; j < window.size(); ++j) {
        const auto result = window[j].get();
        ASSERT_TRUE(result.status.ok());
        ASSERT_TRUE(result.lookup.found);
        ASSERT_EQ(result.lookup.value,
                  StableValue(keys[keys.size() - window.size() + j]));
      }
      window.clear();
    }
  }
  for (auto& f : window) ASSERT_TRUE(f.get().status.ok());

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  const serve::ServeStats stats = server.Stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.transfer_retries, 0u);
}

// Deadline-based load shedding: a request submitted with an already-
// expired budget resolves with kDeadlineExceeded — and a shed update is
// guaranteed NOT to have been applied.
TEST(ServeFault, ExpiredDeadlinesShedTyped) {
  auto data = StableDataset();
  auto server_ptr = serve::Server<Key64>::Create(FaultOptions(), data);
  ASSERT_NE(server_ptr, nullptr);
  serve::Server<Key64>& server = *server_ptr;

  const auto expired = std::chrono::microseconds(-1);
  auto read = server.SubmitLookup(17, expired).get();
  EXPECT_EQ(read.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(read.lookup.found);

  auto update = server.SubmitUpdate(Insert(kDynBase), expired).get();
  EXPECT_EQ(update.status.code(), StatusCode::kDeadlineExceeded);
  // The shed insert must not be visible.
  EXPECT_FALSE(server.SubmitLookup(kDynBase).get().lookup.found);

  // A generous deadline serves normally.
  auto served =
      server.SubmitLookup(17, std::chrono::microseconds(5'000'000)).get();
  ASSERT_TRUE(served.status.ok());
  EXPECT_TRUE(served.lookup.found);

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  const serve::ServeStats stats = server.Stats();
  EXPECT_GE(stats.shed_reads, 1u);
  EXPECT_GE(stats.shed_updates, 1u);
  EXPECT_EQ(stats.faults_injected, 0u);
}

// Two-tenant QoS under sustained faults: with 15% injected transfer
// faults cycling the breaker, low-priority reads are shed in degraded
// mode (kUnavailable) while the high-priority tenant is never shed —
// i.e. every shed that happens is a low-priority shed, so low sheds
// strictly precede any high shed. Both tenants' served results stay
// differentially exact against the std::map reference.
TEST(ServeFault, DegradedModeShedsLowPriorityBeforeHigh) {
  auto data = StableDataset();
  serve::ServerOptions options = FaultOptions();
  options.fault = fault::FaultConfig::Transfers(0.15, 13);
  options.max_device_retries = 0;
  options.breaker_failure_threshold = 2;
  options.breaker_probe_interval = 4;
  serve::TenantSpec high;
  high.name = "interactive";
  high.weight = 4;
  high.priority = serve::Priority::kHigh;
  serve::TenantSpec low;
  low.name = "besteffort";
  low.weight = 1;
  low.priority = serve::Priority::kLow;
  low.shed_on_full = true;
  options.tenants = {high, low};

  Status create_status;
  auto server_ptr =
      serve::Server<Key64>::Create(options, data, &create_status);
  ASSERT_NE(server_ptr, nullptr) << create_status.message();
  serve::Server<Key64>& server = *server_ptr;

  std::map<std::uint64_t, std::uint64_t> reference;
  for (const auto& kv : data) reference[kv.key] = kv.value;

  std::mt19937_64 rng(17);
  constexpr int kMaxRounds = 200;
  int rounds = 0;
  std::uint64_t low_served = 0, low_shed = 0;
  for (; rounds < kMaxRounds; ++rounds) {
    // Concurrent phase: both tenants read the never-mutated stable
    // region (served results must be exact regardless of racing
    // updates); the high tenant also commits updates in the dynamic
    // region to exercise the oracle through the tenant-tagged path.
    std::vector<std::future<serve::ReadResult<Key64>>> high_reads;
    std::vector<std::future<serve::ReadResult<Key64>>> low_reads;
    std::vector<std::uint64_t> high_keys, low_keys;
    std::vector<std::future<serve::UpdateResult>> writes;
    std::vector<UpdateQuery<Key64>> submitted;
    for (int j = 0; j < 128; ++j) {
      const std::uint64_t hk = 1 + rng() % kStable;
      high_keys.push_back(hk);
      high_reads.push_back(server.SubmitLookup(hk, {}, /*tenant=*/0));
      const std::uint64_t lk = 1 + rng() % kStable;
      low_keys.push_back(lk);
      low_reads.push_back(server.SubmitLookup(lk, {}, /*tenant=*/1));
      if (j % 4 == 0) {
        const std::uint64_t key = kDynBase + rng() % kDynSpan;
        const UpdateQuery<Key64> update =
            rng() % 2 == 0 ? Insert(key) : Delete(key);
        submitted.push_back(update);
        writes.push_back(server.SubmitUpdate(update, {}, /*tenant=*/0));
      }
    }
    for (auto& f : writes) {
      const serve::UpdateResult committed = f.get();
      ASSERT_TRUE(committed.status.ok()) << committed.status.message();
    }
    for (const auto& update : submitted) {
      if (update.kind == UpdateQuery<Key64>::Kind::kInsert) {
        reference[update.pair.key] = update.pair.value;
      } else {
        reference.erase(update.pair.key);
      }
    }
    // High-priority reads are NEVER shed: no deadline was set and high
    // priority is exempt from degraded-mode shedding.
    for (std::size_t i = 0; i < high_reads.size(); ++i) {
      const serve::ReadResult<Key64> result = high_reads[i].get();
      ASSERT_TRUE(result.status.ok()) << result.status.message();
      ASSERT_TRUE(result.lookup.found);
      ASSERT_EQ(result.lookup.value, StableValue(high_keys[i]));
    }
    // Low-priority reads either serve exactly or shed kUnavailable
    // (degraded mode) — never a wrong answer, never a silent drop.
    for (std::size_t i = 0; i < low_reads.size(); ++i) {
      const serve::ReadResult<Key64> result = low_reads[i].get();
      if (result.status.ok()) {
        ++low_served;
        ASSERT_TRUE(result.lookup.found);
        ASSERT_EQ(result.lookup.value, StableValue(low_keys[i]));
      } else {
        ASSERT_EQ(result.status.code(), StatusCode::kUnavailable)
            << result.status.message();
        ++low_shed;
      }
    }
    const serve::ServeStats stats = server.Stats();
    if (stats.breaker_opens >= 1 && stats.tenants[1].shed_reads >= 1 &&
        rounds >= 3) {
      break;
    }
  }

  // Quiescent differential sweep over the dynamic region through the
  // high tenant (whose reads are never shed).
  std::vector<std::future<serve::ReadResult<Key64>>> sweep;
  std::vector<std::uint64_t> sweep_keys;
  for (int j = 0; j < 384; ++j) {
    const std::uint64_t key = kDynBase + rng() % kDynSpan;
    sweep_keys.push_back(key);
    sweep.push_back(server.SubmitLookup(key, {}, /*tenant=*/0));
  }
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const serve::ReadResult<Key64> result = sweep[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.message();
    const auto it = reference.find(sweep_keys[i]);
    if (it == reference.end()) {
      ASSERT_FALSE(result.lookup.found) << "key " << sweep_keys[i];
    } else {
      ASSERT_TRUE(result.lookup.found) << "key " << sweep_keys[i];
      ASSERT_EQ(result.lookup.value, it->second);
    }
  }

  server.Shutdown();
  EXPECT_TRUE(server.ValidateTrees());
  const serve::ServeStats stats = server.Stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  // Strict precedence: some low-priority sheds happened, zero
  // high-priority sheds ever did.
  EXPECT_GE(stats.tenants[1].shed_reads, 1u)
      << "breaker opened " << stats.breaker_opens
      << " times in " << rounds << " rounds without a degraded shed";
  EXPECT_EQ(stats.tenants[0].shed_reads, 0u);
  EXPECT_EQ(stats.tenants[0].shed_updates, 0u);
  // Every read shed in this run was a degraded-mode (priority) shed:
  // no deadlines were configured.
  EXPECT_EQ(stats.degraded_sheds, stats.shed_reads);
  EXPECT_EQ(stats.tenants[1].shed_reads, stats.shed_reads);
  EXPECT_EQ(low_shed, stats.tenants[1].shed_reads);
  EXPECT_EQ(low_served, stats.tenants[1].lookups);
  EXPECT_GT(stats.tenants[0].lookups, 0u);
  EXPECT_GT(stats.tenants[0].updates, 0u);
}

}  // namespace
}  // namespace hbtree
