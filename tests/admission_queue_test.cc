// FairAdmissionQueue: admission edge cases and weighted-fair lane
// scheduling.
//
// The edge-case tests pin shedding and batching behaviour that used to
// be wrong: an already-expired deadline must shed at the door (never
// ride the condition-variable wait path, which would admit it whenever
// the lane had space) and leave the item with the caller, a zero
// capacity must clamp to one, a non-shedding lane must wait out its
// deadline, and a capacity-1 lane must not livelock a batch fill (the
// consumer must wake blocked producers while it collects instead of
// sitting out the whole fill window).
//
// The scheduling tests pin the QoS contract: per-lane isolation,
// deficit-round-robin weight shares, work conservation, shed_on_full,
// and FIFO order within a lane.

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/fair_queue.h"

namespace hbtree::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(FairQueue, ExpiredDeadlineShedsEvenWithSpace) {
  FairAdmissionQueue<int> queue(16, {{1, false}, {1, false}});
  EXPECT_EQ(queue.PushUntil(1, 9, steady_clock::now() - milliseconds(1)),
            PushResult::kTimeout);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(FairQueue, ExpiredDeadlineLeavesItemUntouched) {
  FairAdmissionQueue<std::vector<int>> queue(4, {{1, false}});
  std::vector<int> payload = {1, 2, 3};
  EXPECT_EQ(queue.PushUntil(0, std::move(payload),
                            steady_clock::now() - milliseconds(1)),
            PushResult::kTimeout);
  // kTimeout promises the caller can still reject via the item (resolve
  // its promise); the payload must not have been moved out.
  EXPECT_EQ(payload.size(), 3u);
}

TEST(FairQueue, ZeroCapacityClampsToOne) {
  FairAdmissionQueue<int> queue(0, {{1, false}});
  EXPECT_TRUE(queue.Push(0, 7));  // would deadlock forever at capacity 0
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 4, microseconds(1000), microseconds(0)),
            1u);
  EXPECT_EQ(out, std::vector<int>({7}));
}

TEST(FairQueue, PushUntilTimesOutOnFullLane) {
  // A non-shedding lane waits for space until the deadline, then sheds.
  FairAdmissionQueue<int> queue(1, {{1, false}});
  ASSERT_TRUE(queue.Push(0, 1));
  const auto start = steady_clock::now();
  EXPECT_EQ(queue.PushUntil(0, 2, start + milliseconds(20)),
            PushResult::kTimeout);
  EXPECT_GE(steady_clock::now() - start, milliseconds(19));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(FairQueue, DrainsBacklogInWeightProportion) {
  // Lanes weighted 3:1, both backlogged beyond the bucket: one bucket
  // window must carry ops in weight proportion.
  FairAdmissionQueue<int> queue(256, {{3, false}, {1, false}});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.Push(0, 1000 + i));
    ASSERT_TRUE(queue.Push(1, 2000 + i));
  }
  std::vector<int> out;
  ASSERT_EQ(queue.PopBatch(&out, 16, microseconds(1000), microseconds(0)),
            16u);
  int lane0 = 0, lane1 = 0;
  for (int v : out) (v < 2000 ? lane0 : lane1)++;
  EXPECT_EQ(lane0, 12);  // 3/4 of the 16-op budget
  EXPECT_EQ(lane1, 4);   // 1/4
}

TEST(FairQueue, FifoWithinLane) {
  FairAdmissionQueue<int> queue(64, {{2, false}, {1, false}});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.Push(0, 1000 + i));
    ASSERT_TRUE(queue.Push(1, 2000 + i));
  }
  std::vector<int> out;
  ASSERT_EQ(queue.PopBatch(&out, 16, microseconds(1000), microseconds(0)),
            16u);
  int last0 = -1, last1 = -1;
  for (int v : out) {
    if (v < 2000) {
      EXPECT_GT(v, last0);
      last0 = v;
    } else {
      EXPECT_GT(v, last1);
      last1 = v;
    }
  }
}

TEST(FairQueue, WorkConservingWhenOneLaneIdle) {
  // Only the weight-1 lane has work: it gets the whole bucket, not its
  // 1/4 share.
  FairAdmissionQueue<int> queue(64, {{3, false}, {1, false}});
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(queue.Push(1, int{i}));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 16, microseconds(1000), microseconds(0)),
            16u);
}

TEST(FairQueue, IdleLaneForfeitsBankedCredit) {
  FairAdmissionQueue<int> queue(64, {{1, false}, {1, false}});
  // Lane 0 drains completely across several rounds while lane 1 is idle;
  // then both get backlogged. Lane 0 must not have banked credit: the
  // next window still splits evenly.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.Push(0, int{i}));
  std::vector<int> out;
  ASSERT_EQ(queue.PopBatch(&out, 8, microseconds(1000), microseconds(0)),
            8u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(queue.Push(0, 1000 + i));
    ASSERT_TRUE(queue.Push(1, 2000 + i));
  }
  out.clear();
  ASSERT_EQ(queue.PopBatch(&out, 8, microseconds(1000), microseconds(0)),
            8u);
  int lane0 = 0;
  for (int v : out) lane0 += v < 2000;
  EXPECT_EQ(lane0, 4);
}

TEST(FairQueue, ShedOnFullLaneShedsImmediatelyAndIsolates) {
  FairAdmissionQueue<int> queue(4, {{1, false}, {1, true}});
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.Push(1, int{i}));
  // Hostile lane full: sheds with no waiting even though the deadline is
  // far out.
  const auto start = steady_clock::now();
  EXPECT_EQ(queue.PushUntil(1, 99, start + std::chrono::seconds(10)),
            PushResult::kTimeout);
  EXPECT_LT(steady_clock::now() - start, milliseconds(100));
  // The other tenant's lane is untouched: admission succeeds instantly.
  EXPECT_EQ(queue.PushUntil(0, 7, steady_clock::now() + milliseconds(100)),
            PushResult::kOk);
  EXPECT_EQ(queue.lane_size(0), 1u);
  EXPECT_EQ(queue.lane_size(1), 4u);
}

TEST(FairQueue, CapacityOneBatchFillDoesNotLivelock) {
  FairAdmissionQueue<int> queue(1, {{1, false}, {1, false}});
  constexpr int kPerLane = 32;
  std::thread p0([&] {
    for (int i = 0; i < kPerLane; ++i) ASSERT_TRUE(queue.Push(0, int{i}));
  });
  std::thread p1([&] {
    for (int i = 0; i < kPerLane; ++i) ASSERT_TRUE(queue.Push(1, int{i}));
  });
  std::vector<int> out;
  const auto start = steady_clock::now();
  std::size_t popped = 0;
  while (popped < 2 * kPerLane) {
    popped += queue.PopBatch(&out, 2 * kPerLane - popped,
                             microseconds(100'000),
                             microseconds(10'000'000));
    ASSERT_LT(steady_clock::now() - start, std::chrono::seconds(5));
  }
  p0.join();
  p1.join();
  EXPECT_EQ(out.size(), static_cast<std::size_t>(2 * kPerLane));
}

TEST(FairQueue, CloseUnblocksProducersAndDrains) {
  FairAdmissionQueue<int> queue(1, {{1, false}});
  ASSERT_TRUE(queue.Push(0, 1));
  std::thread blocked([&] { EXPECT_FALSE(queue.Push(0, 2)); });
  std::this_thread::sleep_for(milliseconds(10));
  queue.Close();
  blocked.join();
  // Items admitted before Close stay poppable.
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 4, microseconds(1000), microseconds(0)),
            1u);
  EXPECT_EQ(queue.PopBatch(&out, 4, microseconds(1000), microseconds(0)),
            0u);
}

}  // namespace
}  // namespace hbtree::serve
