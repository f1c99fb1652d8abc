// Unit tests for the fault-injection subsystem (src/fault/): policy
// semantics (probability vs deterministic schedule), seeded determinism,
// typed error mapping, retry/backoff behaviour, and the wiring through
// the simulated device and transfer engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "gpusim/device.h"
#include "sim/platform.h"

namespace hbtree {
namespace {

using fault::FaultConfig;
using fault::FaultInjector;
using fault::RetryPolicy;
using fault::Site;

TEST(FaultInjector, DisabledNeverFails) {
  FaultInjector injector{FaultConfig{}};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ShouldFail(Site::kTransferH2D));
  }
  EXPECT_EQ(injector.total_injected(), 0u);
  EXPECT_EQ(injector.checks(Site::kTransferH2D), 1000u);
}

TEST(FaultInjector, ScheduleFailsExactOrdinals) {
  FaultConfig config;
  config.site(Site::kKernel).fail_ordinals = {3, 5, 5, 1};  // dups + unsorted
  FaultInjector injector(config);
  std::vector<std::uint64_t> failed;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    if (injector.ShouldFail(Site::kKernel)) failed.push_back(i);
  }
  EXPECT_EQ(failed, (std::vector<std::uint64_t>{1, 3, 5}));
  // Other sites are untouched by the kernel schedule.
  EXPECT_FALSE(injector.ShouldFail(Site::kTransferH2D));
  EXPECT_EQ(injector.injected(Site::kKernel), 3u);
  EXPECT_EQ(injector.total_injected(), 3u);
}

TEST(FaultInjector, ProbabilityIsSeededAndDeterministic) {
  const FaultConfig config = FaultConfig::Transfers(0.3, 99);
  FaultInjector a(config);
  FaultInjector b(config);
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool fa = a.ShouldFail(Site::kTransferH2D);
    EXPECT_EQ(fa, b.ShouldFail(Site::kTransferH2D));
    failures += fa;
  }
  // ~600 expected; generous bounds keep this robust across libstdc++s.
  EXPECT_GT(failures, 400);
  EXPECT_LT(failures, 800);
  // A different seed produces a different stream somewhere.
  FaultInjector c(FaultConfig::Transfers(0.3, 100));
  bool diverged = false;
  FaultInjector a2(config);
  for (int i = 0; i < 2000 && !diverged; ++i) {
    diverged = a2.ShouldFail(Site::kTransferH2D) !=
               c.ShouldFail(Site::kTransferH2D);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, TransfersScheduleIsPinned) {
  // The first 256 H2D decisions of a seeded transfer config (bit i of
  // word i / 64 set when decision i faults), pinned because every seeded
  // fault test and bench replays this stream. A draw is consumed only
  // when a site with a probability is checked, so the sites a config
  // names but no caller checks cannot shift it. (The bits are
  // libstdc++'s mt19937_64 and uniform_real_distribution.)
  constexpr std::uint64_t kExpected[4] = {
      0xd0d9120671501188ULL, 0x221000604a6c8134ULL, 0x91404e0028062d06ULL,
      0x00200c080e8227a4ULL};
  FaultInjector injector(FaultConfig::Transfers(0.3, 99));
  std::uint64_t words[4] = {0, 0, 0, 0};
  for (int i = 0; i < 256; ++i) {
    if (injector.ShouldFail(Site::kTransferH2D)) {
      words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  for (int w = 0; w < 4; ++w) EXPECT_EQ(words[w], kExpected[w]) << w;
  EXPECT_EQ(injector.injected(Site::kTransferH2D), 73u);
  EXPECT_EQ(injector.checks(Site::kKernel), 0u);
}

TEST(FaultInjector, ErrorForMapsSitesToTypedCodes) {
  EXPECT_EQ(FaultInjector::ErrorFor(Site::kDeviceAlloc).code(),
            StatusCode::kDeviceOom);
  EXPECT_EQ(FaultInjector::ErrorFor(Site::kTransferH2D).code(),
            StatusCode::kTransferFailure);
  EXPECT_EQ(FaultInjector::ErrorFor(Site::kKernel).code(),
            StatusCode::kKernelFailure);
  EXPECT_TRUE(FaultInjector::ErrorFor(Site::kTransferH2D).IsTransient());
  EXPECT_FALSE(FaultInjector::ErrorFor(Site::kDeviceAlloc).IsTransient());
}

TEST(Retry, RetriesTransientUntilSuccess) {
  int attempts = 0;
  std::uint64_t retries = 0;
  double backoff_us = 0;
  const Status status = fault::RetryTransient(
      RetryPolicy{3, 10.0, 2.0},
      [&]() -> Status {
        if (++attempts < 3) {
          return Status::TransferFailure("transient");
        }
        return Status::Ok();
      },
      &retries, &backoff_us);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retries, 2u);
  EXPECT_DOUBLE_EQ(backoff_us, 10.0 + 20.0);  // exponential
}

TEST(Retry, DoesNotRetryTerminalErrors) {
  int attempts = 0;
  const Status status = fault::RetryTransient(
      RetryPolicy{5, 10.0, 2.0}, [&]() -> Status {
        ++attempts;
        return Status::DeviceOom("terminal");
      });
  EXPECT_EQ(status.code(), StatusCode::kDeviceOom);
  EXPECT_EQ(attempts, 1);
}

TEST(Retry, GivesUpAfterMaxRetries) {
  int attempts = 0;
  std::uint64_t retries = 0;
  const Status status = fault::RetryTransient(
      RetryPolicy{2, 10.0, 2.0},
      [&]() -> Status {
        ++attempts;
        return Status::KernelFailure("still down");
      },
      &retries);
  EXPECT_EQ(status.code(), StatusCode::kKernelFailure);
  EXPECT_EQ(attempts, 3);  // 1 attempt + 2 retries
  EXPECT_EQ(retries, 2u);
}

TEST(DeviceWiring, InjectedAllocFailureReturnsNull) {
  sim::PlatformSpec platform = sim::PlatformSpec::Parse("m1");
  gpu::Device device(platform.gpu);
  FaultConfig config;
  config.site(Site::kDeviceAlloc).fail_ordinals = {2};
  FaultInjector injector(config);
  device.set_fault_injector(&injector);

  gpu::DevicePtr first = device.TryMalloc(1024);
  EXPECT_FALSE(first.is_null());
  EXPECT_TRUE(device.TryMalloc(1024).is_null());  // ordinal 2 injected
  gpu::DevicePtr third = device.TryMalloc(1024);
  EXPECT_FALSE(third.is_null());
  device.Free(first);
  device.Free(third);
  EXPECT_EQ(device.used_bytes(), 0u);
}

TEST(DeviceWiring, InjectedTransferFaultCopiesNothing) {
  sim::PlatformSpec platform = sim::PlatformSpec::Parse("m1");
  gpu::Device device(platform.gpu);
  gpu::TransferEngine transfer(&device, platform.pcie);
  FaultConfig config;
  config.site(Site::kTransferH2D).fail_ordinals = {1};
  FaultInjector injector(config);
  device.set_fault_injector(&injector);

  gpu::ScopedDeviceAlloc buffer(&device, sizeof(std::uint64_t));
  ASSERT_TRUE(buffer.ok());
  std::uint64_t read_back = 0;
  std::memcpy(device.HostView(buffer.get()), &read_back, sizeof(read_back));
  const std::uint64_t sentinel = 0xdeadbeef;
  EXPECT_EQ(transfer.TryCopyToDevice(buffer.get(), &sentinel,
                                     sizeof(sentinel)).code(),
            StatusCode::kTransferFailure);
  std::memcpy(&read_back, device.HostView(buffer.get()), sizeof(read_back));
  EXPECT_EQ(read_back, 0u);  // the faulted copy moved nothing
  double us = 0;
  ASSERT_TRUE(transfer
                  .TryCopyToDevice(buffer.get(), &sentinel, sizeof(sentinel),
                                   &us)
                  .ok());
  EXPECT_GT(us, 0);
  std::memcpy(&read_back, device.HostView(buffer.get()), sizeof(read_back));
  EXPECT_EQ(read_back, sentinel);
  EXPECT_EQ(injector.total_injected(), 1u);
}

}  // namespace
}  // namespace hbtree
