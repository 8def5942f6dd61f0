#include "core/multi_cloud.h"

#include <gtest/gtest.h>

#include "net/isp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace odr::core {
namespace {

class MultiCloudTest : public ::testing::Test {
 protected:
  MultiCloudTest() : net(sim), rng(5) {
    workload::CatalogParams cp;
    cp.num_files = 100;
    cp.total_weekly_requests = 725;
    catalog = std::make_unique<workload::Catalog>(cp, rng);
    for (int i = 0; i < 3; ++i) {
      cloud::CloudConfig cc;
      cc.total_upload_capacity = kbps_to_rate(1000.0 * (i + 1));
      clouds.push_back(std::make_unique<cloud::XuanfengCloud>(
          sim, net, *catalog, proto::SourceParams{}, cc, rng, nullptr));
    }
    selector = std::make_unique<MultiCloudSelector>(
        std::vector<cloud::XuanfengCloud*>{clouds[0].get(), clouds[1].get(),
                                           clouds[2].get()});
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  std::unique_ptr<workload::Catalog> catalog;
  std::vector<std::unique_ptr<cloud::XuanfengCloud>> clouds;
  std::unique_ptr<MultiCloudSelector> selector;
};

TEST_F(MultiCloudTest, PrefersCloudWithCachedCopy) {
  const auto& file = catalog->file(0);
  clouds[0]->warm_cache(file.index);  // only the smallest cloud has it
  const auto choice = selector->choose(file.index, net::Isp::kUnicom);
  EXPECT_EQ(choice.cloud, 0u);
  EXPECT_TRUE(choice.cached);
}

TEST_F(MultiCloudTest, AmongCachedPicksMostHeadroom) {
  const auto& file = catalog->file(1);
  clouds[0]->warm_cache(file.index);
  clouds[2]->warm_cache(file.index);  // bigger uplink
  const auto choice = selector->choose(file.index, net::Isp::kTelecom);
  EXPECT_EQ(choice.cloud, 2u);
  EXPECT_TRUE(choice.cached);
}

TEST_F(MultiCloudTest, UncachedFallsBackToHeadroom) {
  const auto& file = catalog->file(2);
  const auto choice = selector->choose(file.index, net::Isp::kMobile);
  EXPECT_EQ(choice.cloud, 2u);  // 3x the capacity of cloud 0
  EXPECT_FALSE(choice.cached);
}

TEST_F(MultiCloudTest, HeadroomTracksReservations) {
  const auto& file = catalog->file(3);
  // Saturate cloud 2's Telecom cluster; choice should move to cloud 1.
  for (int i = 0; i < 100; ++i) {
    const auto plan = clouds[2]->uploads().plan_fetch(net::Isp::kTelecom,
                                                      mbps_to_rate(50.0));
    if (!plan.admitted) break;
  }
  const auto choice = selector->choose(file.index, net::Isp::kTelecom);
  EXPECT_EQ(choice.cloud, 1u);
}

TEST_F(MultiCloudTest, OutOfIspUsersUseBestClusterHeadroom) {
  const auto& file = catalog->file(4);
  const auto choice = selector->choose(file.index, net::Isp::kOther);
  EXPECT_EQ(choice.cloud, 2u);
  EXPECT_GT(choice.headroom, 0.0);
}

TEST_F(MultiCloudTest, CachedAnywhereIsTheUnion) {
  const auto& a = catalog->file(5);
  const auto& b = catalog->file(6);
  clouds[1]->warm_cache(a.index);
  EXPECT_TRUE(selector->cached_anywhere(a.index));
  EXPECT_FALSE(selector->cached_anywhere(b.index));
}

}  // namespace
}  // namespace odr::core
