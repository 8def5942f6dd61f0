#include "proto/ledbat.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"

namespace odr::proto {
namespace {

class LedbatTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Network net{sim};
};

TEST_F(LedbatTest, RampsUpOnIdleLink) {
  const net::LinkId link = net.add_link("uplink", mbps_to_rate(100.0));
  const net::FlowHandle flow =
      net.start_flow({{link}, 1ull << 40, kbps_to_rate(4.0), nullptr});
  LedbatController::Params params;
  LedbatController ledbat(sim, net, flow, link, params);
  ledbat.start();
  sim.run_until(10 * kMinute);
  // An idle link shows no queuing delay; the controller must have grown
  // the background rate well past its floor.
  EXPECT_GT(ledbat.current_rate(), 10 * params.min_rate);
}

TEST_F(LedbatTest, BacksOffUnderForegroundLoad) {
  const net::LinkId link = net.add_link("uplink", kbps_to_rate(1000.0));
  const net::FlowHandle flow =
      net.start_flow({{link}, 1ull << 40, kbps_to_rate(4.0), nullptr});
  LedbatController::Params params;
  LedbatController ledbat(sim, net, flow, link, params);
  ledbat.start();
  sim.run_until(10 * kMinute);
  const Rate before = ledbat.current_rate();
  // Foreground traffic arrives and pins the link near saturation.
  net.start_flow({{link}, 1ull << 40, kbps_to_rate(990.0), nullptr});
  sim.run_until(25 * kMinute);
  EXPECT_LT(ledbat.current_rate(), before);
  EXPECT_LE(ledbat.current_rate(), 2 * params.min_rate);
}

TEST_F(LedbatTest, RateStaysWithinBounds) {
  const net::LinkId link = net.add_link("uplink", mbps_to_rate(1000.0));
  const net::FlowHandle flow =
      net.start_flow({{link}, 1ull << 40, kbps_to_rate(4.0), nullptr});
  LedbatController::Params params;
  params.max_rate = kbps_to_rate(200.0);
  LedbatController ledbat(sim, net, flow, link, params);
  ledbat.start();
  for (int i = 1; i <= 60; ++i) {
    sim.run_until(i * kMinute);
    EXPECT_GE(ledbat.current_rate(), params.min_rate);
    EXPECT_LE(ledbat.current_rate(), params.max_rate);
  }
}

TEST_F(LedbatTest, QueuingDelayProxyIsMonotonic) {
  const net::LinkId link = net.add_link("l", 100.0);
  const net::FlowHandle flow = net.start_flow({{link}, 1000, 1.0, nullptr});
  LedbatController ledbat(sim, net, flow, link, {});
  EXPECT_EQ(ledbat.queuing_delay(0.0), 0);
  EXPECT_LT(ledbat.queuing_delay(0.3), ledbat.queuing_delay(0.9));
  EXPECT_LT(ledbat.queuing_delay(0.9), ledbat.queuing_delay(0.99));
}

TEST_F(LedbatTest, StopsSilentlyWhenFlowCompletes) {
  const net::LinkId link = net.add_link("l", 1000.0);
  const net::FlowHandle flow = net.start_flow({{link}, 1000, 100.0, nullptr});
  LedbatController ledbat(sim, net, flow, link, {});
  ledbat.start();
  sim.run();  // flow completes; controller must not keep the sim alive
  EXPECT_FALSE(net.flow_active(flow));
  EXPECT_FALSE(sim.has_pending());
}

}  // namespace
}  // namespace odr::proto
