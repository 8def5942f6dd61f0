#include "net/network.h"

#include <gtest/gtest.h>

#include "obs/observer.h"
#include "sim/simulator.h"

namespace odr::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Network net{sim};
};

TEST_F(NetworkTest, SingleFlowLimitedByLink) {
  const LinkId link = net.add_link("l", 100.0);  // 100 B/s
  bool done = false;
  net.start_flow({{link}, 1000, kUnlimitedRate,
                  [&](FlowId) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 10 * kSec);
}

TEST_F(NetworkTest, SingleFlowLimitedByCap) {
  const LinkId link = net.add_link("l", 1000.0);
  const FlowHandle f = net.start_flow({{link}, 1000, 100.0, nullptr});
  EXPECT_NEAR(net.flow_stats(f).current_rate, 100.0, 1e-6);
}

TEST_F(NetworkTest, PathlessFlowUsesCapOnly) {
  bool done = false;
  net.start_flow({{}, 500, 50.0, [&](FlowId) { done = true; }});
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 10 * kSec);
}

TEST_F(NetworkTest, TwoFlowsShareLinkEqually) {
  const LinkId link = net.add_link("l", 100.0);
  const FlowHandle a = net.start_flow({{link}, 10000, kUnlimitedRate, nullptr});
  const FlowHandle b = net.start_flow({{link}, 10000, kUnlimitedRate, nullptr});
  EXPECT_NEAR(net.flow_stats(a).current_rate, 50.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(b).current_rate, 50.0, 1e-6);
  EXPECT_NEAR(net.link_utilization(link), 100.0, 1e-6);
}

TEST_F(NetworkTest, MaxMinRespectsPerFlowCaps) {
  // Classic waterfilling: caps 10 and 1000 on a 100-capacity link ->
  // rates 10 and 90.
  const LinkId link = net.add_link("l", 100.0);
  const FlowHandle small = net.start_flow({{link}, 100000, 10.0, nullptr});
  const FlowHandle big = net.start_flow({{link}, 100000, 1000.0, nullptr});
  EXPECT_NEAR(net.flow_stats(small).current_rate, 10.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(big).current_rate, 90.0, 1e-6);
}

TEST_F(NetworkTest, ThreeFlowsWaterfilling) {
  // Caps 20, 50, inf on capacity 120: allocation 20, 50, 50.
  const LinkId link = net.add_link("l", 120.0);
  const FlowHandle a = net.start_flow({{link}, 1 << 20, 20.0, nullptr});
  const FlowHandle b = net.start_flow({{link}, 1 << 20, 50.0, nullptr});
  const FlowHandle c =
      net.start_flow({{link}, 1 << 20, kUnlimitedRate, nullptr});
  EXPECT_NEAR(net.flow_stats(a).current_rate, 20.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(b).current_rate, 50.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(c).current_rate, 50.0, 1e-6);
}

TEST_F(NetworkTest, CompletionFreesBandwidthForOthers) {
  const LinkId link = net.add_link("l", 100.0);
  net.start_flow({{link}, 500, kUnlimitedRate, nullptr});  // done at 10s
  const FlowHandle b = net.start_flow({{link}, 5000, kUnlimitedRate, nullptr});
  sim.run_until(11 * kSec);
  EXPECT_NEAR(net.flow_stats(b).current_rate, 100.0, 1e-6);
  // First flow got 50 B/s for 10 s = 500 bytes; second then speeds up.
  sim.run();
  // b: 10s at 50 B/s = 500, then 4500 at 100 B/s = 45 s. Total 55 s.
  EXPECT_EQ(sim.now(), 55 * kSec);
}

TEST_F(NetworkTest, CancelFlowReleasesShare) {
  const LinkId link = net.add_link("l", 100.0);
  const FlowHandle a =
      net.start_flow({{link}, 1 << 20, kUnlimitedRate, nullptr});
  const FlowHandle b =
      net.start_flow({{link}, 1 << 20, kUnlimitedRate, nullptr});
  EXPECT_NEAR(net.flow_stats(b).current_rate, 50.0, 1e-6);
  EXPECT_TRUE(net.cancel_flow(a));
  EXPECT_FALSE(net.cancel_flow(a));
  EXPECT_NEAR(net.flow_stats(b).current_rate, 100.0, 1e-6);
}

TEST_F(NetworkTest, CancelledFlowCallbackNotInvoked) {
  const LinkId link = net.add_link("l", 100.0);
  bool fired = false;
  const FlowHandle f =
      net.start_flow({{link}, 1000, kUnlimitedRate, [&](FlowId) { fired = true; }});
  net.cancel_flow(f);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST_F(NetworkTest, SetFlowCapReschedulesCompletion) {
  const LinkId link = net.add_link("l", 1000.0);
  bool done = false;
  const FlowHandle f =
      net.start_flow({{link}, 1000, 100.0, [&](FlowId) { done = true; }});
  sim.run_until(5 * kSec);  // 500 bytes done
  net.set_flow_cap(f, 50.0);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 15 * kSec);  // 5 + 500/50
}

TEST_F(NetworkTest, ZeroCapStallsFlowUntilRaised) {
  bool done = false;
  const FlowHandle f =
      net.start_flow({{}, 1000, 0.0, [&](FlowId) { done = true; }});
  sim.run();
  EXPECT_FALSE(done);  // no events: flow is stalled, not completed
  net.set_flow_cap(f, 100.0);
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(NetworkTest, LinkCapacityChangePropagates) {
  const LinkId link = net.add_link("l", 100.0);
  const FlowHandle f =
      net.start_flow({{link}, 1 << 20, kUnlimitedRate, nullptr});
  net.set_link_capacity(link, 30.0);
  EXPECT_NEAR(net.flow_stats(f).current_rate, 30.0, 1e-6);
}

TEST_F(NetworkTest, DisjointComponentsDoNotInteract) {
  const LinkId l1 = net.add_link("l1", 100.0);
  const LinkId l2 = net.add_link("l2", 200.0);
  const FlowHandle a = net.start_flow({{l1}, 1 << 20, kUnlimitedRate, nullptr});
  const FlowHandle b = net.start_flow({{l2}, 1 << 20, kUnlimitedRate, nullptr});
  EXPECT_NEAR(net.flow_stats(a).current_rate, 100.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(b).current_rate, 200.0, 1e-6);
  // Adding load on l1 must not change the l2 flow's rate.
  net.start_flow({{l1}, 1 << 20, kUnlimitedRate, nullptr});
  EXPECT_NEAR(net.flow_stats(a).current_rate, 50.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(b).current_rate, 200.0, 1e-6);
}

TEST_F(NetworkTest, FlowStatsTrackProgressAndPeak) {
  const LinkId link = net.add_link("l", 100.0);
  const FlowHandle f = net.start_flow({{link}, 1000, kUnlimitedRate, nullptr});
  sim.run_until(4 * kSec);
  const FlowStats stats = net.flow_stats(f);
  EXPECT_EQ(stats.bytes_total, 1000u);
  EXPECT_NEAR(static_cast<double>(stats.bytes_done), 400.0, 1.0);
  EXPECT_NEAR(stats.peak_rate, 100.0, 1e-6);
  EXPECT_EQ(stats.started_at, 0);
}

TEST_F(NetworkTest, ManyFlowsFairShareScales) {
  const LinkId link = net.add_link("l", 1000.0);
  std::vector<FlowHandle> flows;
  for (int i = 0; i < 100; ++i) {
    flows.push_back(net.start_flow({{link}, 1 << 24, kUnlimitedRate, nullptr}));
  }
  for (FlowHandle f : flows) {
    EXPECT_NEAR(net.flow_stats(f).current_rate, 10.0, 1e-6);
  }
}

// A re-cap inside a 50-flow link with spare capacity takes the fast path:
// only the re-capped flow is touched, so exactly one completion is
// rescheduled (one cancel tombstone plus one insert grows the queue by one
// entry, not 50) and no solver runs.
TEST_F(NetworkTest, SetFlowCapReschedulesOnlyTheChangedFlow) {
  obs::ScopedObserver obs;
  const LinkId link = net.add_link("l", 1e9);
  std::vector<FlowHandle> flows;
  for (int i = 0; i < 50; ++i) {
    flows.push_back(net.start_flow({{link}, 1 << 20, 100.0, nullptr}));
  }
  ASSERT_EQ(sim.pending_count(), 50u);
  const std::size_t heap_before = sim.heap_size();
  const std::uint64_t fast_before =
      obs->metrics().counter("net.flows.fast_path").value();
  const std::uint64_t solves_before =
      obs->metrics().counter("net.solver.runs").value();

  net.set_flow_cap(flows[17], 200.0);

  EXPECT_EQ(sim.pending_count(), 50u);
  EXPECT_EQ(sim.heap_size(), heap_before + 1);
  obs::Registry& m = obs->metrics();
  EXPECT_EQ(m.counter("net.flows.fast_path").value() - fast_before, 1u);
  EXPECT_EQ(m.counter("net.solver.runs").value() - solves_before, 0u);
  // Re-capping to the same rate moves nothing; the re-capped flow still
  // finishes at its new rate and the kept ones at their original times.
  net.set_flow_cap(flows[0], 100.0);
  EXPECT_EQ(sim.heap_size(), heap_before + 1);
  sim.run_until(from_seconds(5243.0));  // (1 << 20) / 200 B/s = 5242.88 s
  EXPECT_FALSE(net.flow_active(flows[17]));
  EXPECT_EQ(net.active_flow_count(), 49u);
  sim.run_until(from_seconds(10485.75));  // (1 << 20) / 100 B/s = 10485.76 s
  EXPECT_EQ(net.active_flow_count(), 49u);
  sim.run_until(from_seconds(10485.77));
  EXPECT_EQ(net.active_flow_count(), 0u);
}

// A flow handle names a slab slot; calls through it find the flow only
// while that slot still holds the handle's id.
TEST_F(NetworkTest, HandleToAReusedSlotReadsNothing) {
  const LinkId link = net.add_link("l", 1000.0);
  const FlowHandle cancelled = net.start_flow({{link}, 1000, 100.0, nullptr});
  ASSERT_TRUE(net.cancel_flow(cancelled));
  const FlowHandle reuser = net.start_flow({{link}, 5000, 40.0, nullptr});
  ASSERT_EQ(reuser.slot, cancelled.slot);  // the slab's freelist is LIFO
  EXPECT_FALSE(net.flow_active(cancelled));
  EXPECT_EQ(net.flow_stats(cancelled).bytes_total, 0u);
  EXPECT_FALSE(net.set_flow_cap(cancelled, 1.0));
  EXPECT_FALSE(net.cancel_flow(cancelled));
  EXPECT_TRUE(net.flow_active(reuser));
  EXPECT_EQ(net.flow_stats(reuser).current_rate, 40.0);

  // A completed flow's handle is as stale as a cancelled one's.
  sim.run();
  const FlowHandle next = net.start_flow({{link}, 5000, 40.0, nullptr});
  ASSERT_EQ(next.slot, reuser.slot);
  EXPECT_FALSE(net.cancel_flow(reuser));
  EXPECT_EQ(net.flow_stats(next).current_rate, 40.0);
  EXPECT_EQ(net.active_flow_count(), 1u);
}

TEST_F(NetworkTest, DefaultHandleNeverMatchesAFreeSlot) {
  // A free slot holds kInvalidFlow, the id of a default handle.
  EXPECT_FALSE(net.flow_active(FlowHandle{}));  // empty slab
  const FlowHandle f = net.start_flow({{}, 1000, 10.0, nullptr});
  ASSERT_EQ(f.slot, 0u);
  ASSERT_TRUE(net.cancel_flow(f));
  EXPECT_FALSE(net.flow_active(FlowHandle{}));
  EXPECT_FALSE(net.cancel_flow(FlowHandle{}));
  EXPECT_FALSE(net.set_flow_cap(FlowHandle{}, 5.0));
  EXPECT_EQ(net.flow_stats(FlowHandle{}).bytes_total, 0u);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST_F(NetworkTest, SlotBeyondTheSlabIsRefused) {
  const FlowHandle f = net.start_flow({{}, 1000, 10.0, nullptr});
  EXPECT_FALSE(net.flow_active(FlowHandle{f.id, f.slot + 1}));
  EXPECT_FALSE(net.cancel_flow(FlowHandle{f.id, 0xffffffffu}));
  EXPECT_FALSE(net.set_flow_cap(FlowHandle{f.id, f.slot + 1}, 5.0));
  EXPECT_EQ(net.flow_stats(FlowHandle{f.id, f.slot + 1}).bytes_total, 0u);
  EXPECT_TRUE(net.flow_active(f));
}

TEST_F(NetworkTest, CompletionCallbackCannotCancelTheFlowInItsSlot) {
  // The network frees a flow's slot before its callback runs, so a flow
  // the callback starts takes that slot; the finished flow's handle must
  // not cancel it.
  FlowHandle first;
  FlowHandle second;
  bool cancelled_first = true;
  first = net.start_flow({{}, 100, 100.0, [&](FlowId) {
                            second = net.start_flow({{}, 100, 100.0, nullptr});
                            cancelled_first = net.cancel_flow(first);
                          }});
  sim.run_until(2 * kSec);
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_FALSE(cancelled_first);
  EXPECT_FALSE(net.flow_active(second));  // ran to completion itself
  EXPECT_EQ(sim.now(), 2 * kSec);
}

TEST(AllocationModelTest, EqualSplitWastesUnclaimedShare) {
  sim::Simulator sim;
  Network net(sim, AllocationModel::kEqualSplit);
  const LinkId link = net.add_link("l", 100.0);
  const FlowHandle small = net.start_flow({{link}, 1 << 20, 10.0, nullptr});
  const FlowHandle big = net.start_flow({{link}, 1 << 20, 1000.0, nullptr});
  // Equal split: each flow gets 50; the capped one uses 10 and the spare
  // 40 is NOT redistributed (contrast MaxMinRespectsPerFlowCaps).
  EXPECT_NEAR(net.flow_stats(small).current_rate, 10.0, 1e-6);
  EXPECT_NEAR(net.flow_stats(big).current_rate, 50.0, 1e-6);
  EXPECT_NEAR(net.link_utilization(link), 60.0, 1e-6);
}

TEST(AllocationModelTest, EqualSplitStillCompletesFlows) {
  sim::Simulator sim;
  Network net(sim, AllocationModel::kEqualSplit);
  const LinkId link = net.add_link("l", 100.0);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    net.start_flow({{link}, 1000, kUnlimitedRate, [&](FlowId) { ++done; }});
  }
  sim.run();
  EXPECT_EQ(done, 4);
}

// The exact kEqualSplit rates: a flow gets min(its cap or 1e15,
// capacity / n), floored at 0. A pathless flow gets its cap, or the 1e15
// clamp, and a cap at or below 1e-6 is kept, not zeroed.
TEST(AllocationModelTest, EqualSplitExactRates) {
  sim::Simulator sim;
  Network net(sim, AllocationModel::kEqualSplit);
  const FlowHandle finite = net.start_flow({{}, 1 << 20, 40.0, nullptr});
  const FlowHandle unlimited =
      net.start_flow({{}, 1 << 20, kUnlimitedRate, nullptr});
  const FlowHandle tiny = net.start_flow({{}, 1 << 20, 5e-7, nullptr});
  const FlowHandle zero_cap = net.start_flow({{}, 1 << 20, 0.0, nullptr});
  EXPECT_EQ(net.flow_stats(finite).current_rate, 40.0);
  EXPECT_EQ(net.flow_stats(unlimited).current_rate, 1e15);
  EXPECT_EQ(net.flow_stats(tiny).current_rate, 5e-7);
  EXPECT_EQ(net.flow_stats(zero_cap).current_rate, 0.0);
  net.set_flow_cap(finite, 3e-7);
  EXPECT_EQ(net.flow_stats(finite).current_rate, 3e-7);

  const LinkId dead = net.add_link("dead", 0.0);
  const FlowHandle starved =
      net.start_flow({{dead}, 1 << 20, kUnlimitedRate, nullptr});
  const FlowHandle starved_capped =
      net.start_flow({{dead}, 1 << 20, 10.0, nullptr});
  EXPECT_EQ(net.flow_stats(starved).current_rate, 0.0);
  EXPECT_EQ(net.flow_stats(starved_capped).current_rate, 0.0);

  // capacity / n = 100: the cap below it binds, the ones above it do not.
  const LinkId link = net.add_link("l", 300.0);
  const FlowHandle below = net.start_flow({{link}, 1 << 20, 50.0, nullptr});
  const FlowHandle above = net.start_flow({{link}, 1 << 20, 200.0, nullptr});
  const FlowHandle open =
      net.start_flow({{link}, 1 << 20, kUnlimitedRate, nullptr});
  EXPECT_EQ(net.flow_stats(below).current_rate, 50.0);
  EXPECT_EQ(net.flow_stats(above).current_rate, 100.0);
  EXPECT_EQ(net.flow_stats(open).current_rate, 100.0);
  EXPECT_EQ(net.link_utilization(link), 250.0);
  // One fewer flow: capacity / n = 150.
  net.cancel_flow(open);
  EXPECT_EQ(net.flow_stats(below).current_rate, 50.0);
  EXPECT_EQ(net.flow_stats(above).current_rate, 150.0);
  net.set_link_capacity(link, 60.0);
  EXPECT_EQ(net.flow_stats(below).current_rate, 30.0);
  EXPECT_EQ(net.flow_stats(above).current_rate, 30.0);
}

// Property sweep: with N capped flows on one link, the allocation is
// max-min fair: every flow gets min(cap, fair share at its level) and the
// link is either saturated or every flow is at its cap.
class FairnessPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FairnessPropertyTest, MaxMinInvariant) {
  sim::Simulator sim;
  Network net(sim);
  const double capacity = 1000.0;
  const LinkId link = net.add_link("l", capacity);
  const int n = GetParam();
  std::vector<FlowHandle> flows;
  std::vector<double> caps;
  for (int i = 0; i < n; ++i) {
    const double cap = 10.0 + 37.0 * ((i * 13) % n);
    caps.push_back(cap);
    flows.push_back(net.start_flow({{link}, 1 << 24, cap, nullptr}));
  }
  double total = 0.0;
  double min_uncapped = 1e18;
  for (int i = 0; i < n; ++i) {
    const double rate = net.flow_stats(flows[i]).current_rate;
    EXPECT_LE(rate, caps[i] + 1e-6);
    total += rate;
    if (rate < caps[i] - 1e-6) min_uncapped = std::min(min_uncapped, rate);
  }
  EXPECT_LE(total, capacity + 1e-4);
  // Either all flows are capped, or the link is (nearly) saturated.
  if (min_uncapped < 1e18) {
    EXPECT_NEAR(total, capacity, 1e-4);
    // No capped flow may exceed the lowest bottlenecked flow's rate
    // (max-min: you can only be above the fair level by being capped below).
    for (int i = 0; i < n; ++i) {
      const double rate = net.flow_stats(flows[i]).current_rate;
      if (rate > min_uncapped + 1e-6) {
        EXPECT_LE(rate, caps[i] + 1e-6);
        EXPECT_NEAR(rate, caps[i], 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FairnessPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 20, 64));

}  // namespace
}  // namespace odr::net
