#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace odr::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3 * kSec, [&] { order.push_back(3); });
  sim.schedule_at(1 * kSec, [&] { order.push_back(1); });
  sim.schedule_at(2 * kSec, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3 * kSec);
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(kSec, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(5 * kSec, [&] {
    sim.schedule_after(2 * kSec, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 7 * kSec);
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(10 * kSec, [] {});
  sim.run();
  SimTime fired_at = -1;
  sim.schedule_at(1 * kSec, [&] { fired_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(fired_at, 10 * kSec);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle id = sim.schedule_at(kSec, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_count(), 0u);
}

TEST(SimulatorTest, CancelFromWithinEarlierEvent) {
  Simulator sim;
  bool ran = false;
  const EventHandle id = sim.schedule_at(2 * kSec, [&] { ran = true; });
  sim.schedule_at(1 * kSec, [&] { sim.cancel(id); });
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1 * kSec, [&] { ++count; });
  sim.schedule_at(5 * kSec, [&] { ++count; });
  sim.run_until(3 * kSec);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 3 * kSec);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunUntilIncludesBoundary) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(3 * kSec, [&] { ran = true; });
  sim.run_until(3 * kSec);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, MaxEventsGuard) {
  Simulator sim;
  std::function<void()> self_reschedule = [&] {
    sim.schedule_after(kSec, self_reschedule);
  };
  sim.schedule_after(kSec, self_reschedule);
  const std::uint64_t executed = sim.run(100);
  EXPECT_EQ(executed, 100u);
  EXPECT_TRUE(sim.has_pending());
}

TEST(SimulatorTest, PendingCountTracksLiveEvents) {
  Simulator sim;
  const EventHandle a = sim.schedule_at(kSec, [] {});
  sim.schedule_at(2 * kSec, [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(SimulatorEngineTest, CancelHeavyQueueCompactsTombstones) {
  // Cancelling most of a large queue must shrink the heap (lazy deletion
  // plus wholesale compaction), not leave it full of dead entries; the
  // survivors still run in exact time order.
  Simulator sim;
  std::vector<EventHandle> ids;
  const int n = 10000;
  ids.reserve(n);
  for (int i = 0; i < n; ++i) {
    ids.push_back(sim.schedule_at((i * 7919) % 100000, [] {}));
  }
  EXPECT_EQ(sim.heap_size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  // 9000 of 10000 entries are tombstones; compaction must have fired.
  EXPECT_LT(sim.heap_size(), static_cast<std::size_t>(n) / 2);
  EXPECT_EQ(sim.pending_count(), static_cast<std::size_t>(n) / 10);
  EXPECT_EQ(sim.run(), static_cast<std::uint64_t>(n / 10));
}

TEST(SimulatorEngineTest, LargeCaptureCallbacksFallBackToHeapStorage) {
  // Captures past the inline buffer go through SmallFunc's heap fallback;
  // scheduling, cancelling and running them must all behave identically.
  Simulator sim;
  struct Big {
    std::uint64_t payload[16];
  };
  Big big{};
  big.payload[0] = 3;
  big.payload[15] = 4;
  std::uint64_t sum = 0;
  sim.schedule_at(10, [big, &sum] { sum += big.payload[0] + big.payload[15]; });
  const EventHandle doomed =
      sim.schedule_at(20, [big, &sum] { sum += 100 * big.payload[0]; });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();
  EXPECT_EQ(sum, 7u);
}

TEST(SimulatorEngineTest, SlotReuseKeepsIdsUniqueAcrossChurn) {
  // Heavy schedule/cancel/run churn reuses slab slots; stale handles from
  // already-fired or cancelled events must never cancel a later event that
  // happens to occupy the same slot.
  Simulator sim;
  std::vector<EventHandle> old_ids;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventHandle> ids;
    for (int i = 0; i < 20; ++i) {
      ids.push_back(
          sim.schedule_at(sim.now() + 1 + (i % 5), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 20; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
    sim.run();
    for (const EventHandle id : old_ids) EXPECT_FALSE(sim.cancel(id));
    old_ids = std::move(ids);
  }
  EXPECT_EQ(fired, 50 * 10);
}

TEST(SimulatorHandleTest, HandleToAReusedSlotCancelsNothing) {
  // The slab is LIFO: a later event takes the slot an earlier one freed.
  // The earlier event's handle must then match nothing, whether it ran or
  // was cancelled.
  Simulator sim;
  const EventHandle ran = sim.schedule_at(1, [] {});
  sim.run();
  int later_fired = 0;
  const EventHandle later = sim.schedule_at(2, [&] { ++later_fired; });
  ASSERT_EQ(later.slot, ran.slot);
  EXPECT_FALSE(sim.cancel(ran));
  EXPECT_TRUE(sim.cancel(later));
  const EventHandle again = sim.schedule_at(3, [&] { ++later_fired; });
  ASSERT_EQ(again.slot, later.slot);
  EXPECT_FALSE(sim.cancel(later));
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(later_fired, 1);
}

TEST(SimulatorHandleTest, DefaultHandleNeverMatchesAFreeSlot) {
  // A free slot holds id 0, the id of a default handle.
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));  // empty slab
  const EventHandle h = sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.cancel(h));
  ASSERT_EQ(h.slot, 0u);
  EXPECT_FALSE(sim.cancel(EventHandle{}));  // slot 0 free, holding id 0
  EXPECT_FALSE(sim.cancel(EventHandle{kInvalidEvent, h.slot}));
  sim.schedule_at(2, [] {});
  EXPECT_FALSE(sim.cancel(EventHandle{}));  // slot 0 live again
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorHandleTest, SlotBeyondTheSlabIsRefused) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(1, [] {});
  EXPECT_FALSE(sim.cancel(EventHandle{h.id, h.slot + 1}));
  EXPECT_FALSE(sim.cancel(EventHandle{h.id, 0xffffffffu}));
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(SimulatorHandleTest, CallbackCancellingItselfAfterReusingItsSlot) {
  // step() frees an event's slot before running it, so a callback that
  // schedules takes its own slot back. Its own handle must not cancel the
  // event it just scheduled.
  Simulator sim;
  EventHandle self;
  EventHandle next;
  bool cancelled_self = true;
  bool next_ran = false;
  self = sim.schedule_at(1, [&] {
    next = sim.schedule_at(2, [&] { next_ran = true; });
    cancelled_self = sim.cancel(self);
  });
  sim.run();
  EXPECT_EQ(next.slot, self.slot);
  EXPECT_FALSE(cancelled_self);
  EXPECT_TRUE(next_ran);
}

}  // namespace
}  // namespace odr::sim
