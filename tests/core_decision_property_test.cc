// Property sweep over the full DecisionInput space: structural invariants
// of the Fig-15 tree that must hold for EVERY input, not just the
// branch-by-branch cases in core_decision_test.cc.
#include <gtest/gtest.h>

#include <vector>

#include "core/decision.h"
#include "core/strategy.h"
#include "net/isp.h"

namespace odr::core {
namespace {

std::vector<DecisionInput> input_grid() {
  std::vector<DecisionInput> grid;
  const double pops[] = {0.0, 1.0, 6.9, 7.0, 84.0, 85.0, 5000.0};
  const bool cached_opts[] = {false, true};
  const proto::Protocol protocols[] = {
      proto::Protocol::kBitTorrent, proto::Protocol::kEmule,
      proto::Protocol::kHttp, proto::Protocol::kFtp};
  const Rate bws[] = {kbps_to_rate(50.0), kbps_to_rate(124.9),
                      kbps_to_rate(125.0), kbps_to_rate(500.0),
                      kbps_to_rate(930.0), mbps_to_rate(20.0)};
  const net::Isp isps[] = {net::Isp::kUnicom, net::Isp::kTelecom,
                           net::Isp::kCernet, net::Isp::kOther};
  struct ApSetup {
    bool has;
    std::optional<odr::ap::DeviceType> device;
    std::optional<odr::ap::Filesystem> fs;
  };
  const ApSetup aps[] = {
      {false, std::nullopt, std::nullopt},
      {true, odr::ap::DeviceType::kSataHdd, odr::ap::Filesystem::kExt4},
      {true, odr::ap::DeviceType::kUsbFlash, odr::ap::Filesystem::kNtfs},
      {true, odr::ap::DeviceType::kUsbFlash, odr::ap::Filesystem::kFat},
      {true, odr::ap::DeviceType::kUsbHdd, odr::ap::Filesystem::kNtfs},
  };

  for (double pop : pops) {
    for (bool cached : cached_opts) {
      for (auto protocol : protocols) {
        for (Rate bw : bws) {
          for (auto isp : isps) {
            for (const auto& ap : aps) {
              DecisionInput in;
              in.weekly_popularity = pop;
              in.cached_in_cloud = cached;
              in.protocol = protocol;
              in.user_access_bandwidth = bw;
              in.user_isp = isp;
              in.has_smart_ap = ap.has;
              in.ap_device = ap.device;
              in.ap_filesystem = ap.fs;
              grid.push_back(in);
            }
          }
        }
      }
    }
  }
  return grid;  // 7 * 2 * 4 * 6 * 4 * 5 = 6720 inputs
}

TEST(DecisionPropertyTest, InvariantsHoldOverTheFullGrid) {
  const Redirector redirector;
  for (const DecisionInput& in : input_grid()) {
    const Decision d = redirector.decide(in);
    const bool highly_popular =
        workload::classify_popularity(in.weekly_popularity) ==
        workload::PopularityClass::kHighlyPopular;

    // 1. AP routes require an AP.
    if (!in.has_smart_ap) {
      EXPECT_NE(d.route, Route::kSmartAp);
      EXPECT_NE(d.route, Route::kCloudThenSmartAp);
    }
    // 2. The AP-from-origin route is reserved for highly popular P2P
    //    files (anything else risks Bottleneck 3).
    if (d.route == Route::kSmartAp) {
      EXPECT_TRUE(highly_popular);
      EXPECT_TRUE(proto::is_p2p(in.protocol));
    }
    // 3. Direct user-device downloads likewise.
    if (d.route == Route::kUserDevice) {
      EXPECT_TRUE(highly_popular);
      EXPECT_TRUE(proto::is_p2p(in.protocol));
    }
    // 4. Cloud+AP staging only makes sense when the cloud has the bytes.
    if (d.route == Route::kCloudThenSmartAp) {
      EXPECT_TRUE(in.cached_in_cloud);
      EXPECT_TRUE(redirector.cloud_path_bottleneck(in));
    }
    // 5. Pre-download-first is exactly the uncached-and-not-hot branch.
    EXPECT_EQ(d.route == Route::kCloudPreDownloadFirst,
              !in.cached_in_cloud && !highly_popular);
    // 6. Highly popular P2P never lands on the cloud (Bottleneck 2).
    if (highly_popular && proto::is_p2p(in.protocol)) {
      EXPECT_NE(d.route, Route::kCloud);
      EXPECT_NE(d.route, Route::kCloudPreDownloadFirst);
    }
    // 7. The rationale is always populated.
    EXPECT_FALSE(d.rationale.empty());
  }
}

TEST(DecisionPropertyTest, BaselinesAreTotalOverTheGrid) {
  const Redirector redirector;
  for (const DecisionInput& in : input_grid()) {
    for (auto strategy : {Strategy::kCloudOnly, Strategy::kApOnly,
                          Strategy::kAlwaysHybrid, Strategy::kAms,
                          Strategy::kOdr}) {
      const Decision d = decide_with(strategy, redirector, in);
      // Every strategy returns one of the five routes; baselines that
      // need an AP are the caller's responsibility, but the decision
      // itself is always well-formed.
      EXPECT_LE(static_cast<int>(d.route), 4);
    }
  }
}

TEST(DecisionPropertyTest, MonotoneInPopularityForP2pWithHealthyAp) {
  // Fixing everything else (healthy AP, fast-enough line), raising the
  // popularity across the 84 threshold must flip the route away from the
  // cloud exactly once — no oscillation.
  const Redirector redirector;
  DecisionInput in;
  in.cached_in_cloud = true;
  in.protocol = proto::Protocol::kBitTorrent;
  in.user_access_bandwidth = kbps_to_rate(400.0);
  in.user_isp = net::Isp::kUnicom;
  in.has_smart_ap = true;
  in.ap_device = odr::ap::DeviceType::kUsbHdd;
  in.ap_filesystem = odr::ap::Filesystem::kExt4;
  bool flipped = false;
  Route prev = Route::kCloud;
  for (double pop = 0.0; pop <= 300.0; pop += 1.0) {
    in.weekly_popularity = pop;
    const Route r = redirector.decide(in).route;
    if (r != prev) {
      EXPECT_FALSE(flipped) << "route oscillated at popularity " << pop;
      EXPECT_EQ(prev, Route::kCloud);
      EXPECT_EQ(r, Route::kSmartAp);
      flipped = true;
      prev = r;
    }
  }
  EXPECT_TRUE(flipped);
}

}  // namespace
}  // namespace odr::core
