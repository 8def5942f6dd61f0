// Tests of the ODR decision engine: every branch of the Fig 15 tree.
#include "core/decision.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "net/isp.h"

namespace odr::core {
namespace {

DecisionInput base_input() {
  DecisionInput in;
  in.weekly_popularity = 3.0;
  in.cached_in_cloud = false;
  in.protocol = proto::Protocol::kBitTorrent;
  in.user_access_bandwidth = kbps_to_rate(400.0);
  in.user_isp = net::Isp::kUnicom;
  in.has_smart_ap = true;
  in.ap_device = odr::ap::DeviceType::kUsbHdd;
  in.ap_filesystem = odr::ap::Filesystem::kExt4;
  return in;
}

const Redirector redirector;

TEST(RedirectorTest, HighlyPopularP2pGoesToSwarmViaAp) {
  DecisionInput in = base_input();
  in.weekly_popularity = 200.0;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kSmartAp);
  EXPECT_EQ(d.addressed_bottleneck, 2);  // spares the cloud's uplink
}

TEST(RedirectorTest, HighlyPopularP2pWithBadStorageUsesUserDevice) {
  DecisionInput in = base_input();
  in.weekly_popularity = 200.0;
  in.user_access_bandwidth = mbps_to_rate(20.0);
  in.ap_device = odr::ap::DeviceType::kUsbFlash;
  in.ap_filesystem = odr::ap::Filesystem::kNtfs;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kUserDevice);
  EXPECT_EQ(d.addressed_bottleneck, 4);
}

TEST(RedirectorTest, HighlyPopularP2pNoApUsesUserDevice) {
  DecisionInput in = base_input();
  in.weekly_popularity = 200.0;
  in.has_smart_ap = false;
  in.ap_device.reset();
  in.ap_filesystem.reset();
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kUserDevice);
}

TEST(RedirectorTest, SlowLineNeutralizesStorageBottleneck) {
  // §6.1: below the 0.93 MBps NTFS/flash ceiling, the AP is preferred
  // even with the worst storage configuration.
  DecisionInput in = base_input();
  in.weekly_popularity = 200.0;
  in.user_access_bandwidth = kbps_to_rate(400.0);  // < 0.93 MBps
  in.ap_device = odr::ap::DeviceType::kUsbFlash;
  in.ap_filesystem = odr::ap::Filesystem::kNtfs;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kSmartAp);
}

TEST(RedirectorTest, HighlyPopularHttpFallsBackOnCloud) {
  // Avoid making the origin HTTP server the bottleneck (§6.1).
  DecisionInput in = base_input();
  in.weekly_popularity = 200.0;
  in.protocol = proto::Protocol::kHttp;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kCloud);
  EXPECT_EQ(d.addressed_bottleneck, 2);
}

TEST(RedirectorTest, CachedFileWithHealthyPathFetchesFromCloud) {
  DecisionInput in = base_input();
  in.cached_in_cloud = true;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kCloud);
}

TEST(RedirectorTest, CachedFileWithSlowUserStagesViaAp) {
  // Bottleneck 1, cause: low user access bandwidth.
  DecisionInput in = base_input();
  in.cached_in_cloud = true;
  in.user_access_bandwidth = kbps_to_rate(80.0);
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kCloudThenSmartAp);
  EXPECT_EQ(d.addressed_bottleneck, 1);
}

TEST(RedirectorTest, CachedFileOutsideMajorIspsStagesViaAp) {
  // Bottleneck 1, cause: the ISP barrier.
  DecisionInput in = base_input();
  in.cached_in_cloud = true;
  in.user_isp = net::Isp::kOther;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kCloudThenSmartAp);
}

TEST(RedirectorTest, BottleneckedPathWithoutApStillUsesCloud) {
  DecisionInput in = base_input();
  in.cached_in_cloud = true;
  in.user_isp = net::Isp::kOther;
  in.has_smart_ap = false;
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kCloud);
}

TEST(RedirectorTest, UncachedUnpopularPreDownloadsFirst) {
  DecisionInput in = base_input();
  const Decision d = redirector.decide(in);
  EXPECT_EQ(d.route, Route::kCloudPreDownloadFirst);
  EXPECT_EQ(d.addressed_bottleneck, 3);
}

TEST(RedirectorTest, PopularButNotHighlyPopularStillUsesCloudPath) {
  // "Popular" (7-84) files do not qualify for the swarm shortcut.
  DecisionInput in = base_input();
  in.weekly_popularity = 50.0;
  EXPECT_EQ(redirector.decide(in).route, Route::kCloudPreDownloadFirst);
  in.cached_in_cloud = true;
  EXPECT_EQ(redirector.decide(in).route, Route::kCloud);
}

TEST(RedirectorTest, BottleneckPredicates) {
  DecisionInput in = base_input();
  EXPECT_FALSE(redirector.cloud_path_bottleneck(in));
  in.user_access_bandwidth = kbps_to_rate(100.0);
  EXPECT_TRUE(redirector.cloud_path_bottleneck(in));
  in = base_input();
  in.user_isp = net::Isp::kOther;
  EXPECT_TRUE(redirector.cloud_path_bottleneck(in));

  // Storage only bottlenecks when the line outruns the worst ceiling
  // (0.93 MBps), so test with a fast line.
  in = base_input();
  in.user_access_bandwidth = mbps_to_rate(20.0);
  EXPECT_FALSE(redirector.ap_storage_bottleneck(in));  // USB HDD + EXT4 is fine
  in.ap_filesystem = odr::ap::Filesystem::kNtfs;
  EXPECT_TRUE(redirector.ap_storage_bottleneck(in));
  in.user_access_bandwidth = kbps_to_rate(100.0);  // line below the ceiling
  EXPECT_FALSE(redirector.ap_storage_bottleneck(in));
  in = base_input();
  in.user_access_bandwidth = mbps_to_rate(20.0);
  in.ap_device = odr::ap::DeviceType::kUsbFlash;
  EXPECT_TRUE(redirector.ap_storage_bottleneck(in));
  in.has_smart_ap = false;
  EXPECT_FALSE(redirector.ap_storage_bottleneck(in));
}

// The popularity boundary is exactly the paper's: > 84/week.
TEST(RedirectorTest, HighlyPopularBoundary) {
  DecisionInput in = base_input();
  in.weekly_popularity = 84.0;
  EXPECT_EQ(redirector.decide(in).route, Route::kCloudPreDownloadFirst);
  in.weekly_popularity = 85.0;
  EXPECT_EQ(redirector.decide(in).route, Route::kSmartAp);
}

TEST(StrategyTest, BaselineRoutes) {
  const DecisionInput in = base_input();
  EXPECT_EQ(decide_with(Strategy::kCloudOnly, redirector, in).route,
            Route::kCloud);
  EXPECT_EQ(decide_with(Strategy::kApOnly, redirector, in).route,
            Route::kSmartAp);
  EXPECT_EQ(decide_with(Strategy::kAlwaysHybrid, redirector, in).route,
            Route::kCloudThenSmartAp);
  EXPECT_EQ(decide_with(Strategy::kOdr, redirector, in).route,
            redirector.decide(in).route);
}

TEST(StrategyTest, AmsSplitsOnPopularityOnly) {
  DecisionInput in = base_input();
  in.weekly_popularity = 200.0;
  EXPECT_EQ(decide_with(Strategy::kAms, redirector, in).route,
            Route::kUserDevice);
  in.protocol = proto::Protocol::kHttp;
  EXPECT_EQ(decide_with(Strategy::kAms, redirector, in).route, Route::kCloud);
  in = base_input();
  in.weekly_popularity = 2.0;
  EXPECT_EQ(decide_with(Strategy::kAms, redirector, in).route, Route::kCloud);
}

TEST(StrategyTest, NamesAreStable) {
  EXPECT_EQ(strategy_name(Strategy::kOdr), "ODR");
  EXPECT_EQ(strategy_name(Strategy::kCloudOnly), "Cloud-only");
  EXPECT_EQ(route_name(Route::kCloudThenSmartAp), "cloud+smart-ap");
}

}  // namespace
}  // namespace odr::core
