// Tests of the ODR web-service pipeline (§6.1): link parsing, sessions,
// ISP resolution, popularity lookup, decision rendering.
#include "core/service.h"

#include <gtest/gtest.h>

#include "net/isp.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace odr::core {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : net(sim), rng(77) {
    workload::CatalogParams cp;
    cp.num_files = 400;
    cp.total_weekly_requests = 2900;
    catalog = std::make_unique<workload::Catalog>(cp, rng);
    cloud = std::make_unique<cloud::XuanfengCloud>(
        sim, net, *catalog, proto::SourceParams{}, cloud::CloudConfig{}, rng,
        nullptr);
    service = std::make_unique<OdrService>(redirector, *cloud, *catalog,
                                           net::IpResolver::china_2015());
  }

  // A baseline request from a Telecom user with a healthy line and a
  // MiWiFi-class AP.
  ServiceRequest base_request(const std::string& link) {
    ServiceRequest r;
    r.link = link;
    r.client_ip = "219.150.0.1";  // Telecom
    r.access_bandwidth = kbps_to_rate(400.0);
    r.ap_model = "MiWiFi";
    r.ap_device = odr::ap::DeviceType::kSataHdd;
    r.ap_filesystem = odr::ap::Filesystem::kExt4;
    return r;
  }

  const workload::FileInfo& file(std::size_t i) const {
    return catalog->file(static_cast<workload::FileIndex>(i));
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  Redirector redirector;
  std::unique_ptr<workload::Catalog> catalog;
  std::unique_ptr<cloud::XuanfengCloud> cloud;
  std::unique_ptr<OdrService> service;
};

TEST_F(ServiceTest, RejectsMalformedLink) {
  const auto resp = service->handle(base_request("not-a-link"), 0);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("link"), std::string::npos);
  EXPECT_NE(resp.to_json().find("\"ok\":false"), std::string::npos);
}

TEST_F(ServiceTest, RequiresAccessBandwidth) {
  ServiceRequest r = base_request(file(0).source_link);
  r.access_bandwidth.reset();
  const auto resp = service->handle(r, 0);
  EXPECT_FALSE(resp.ok);
  // The error teaches the §6.1 measurement procedure.
  EXPECT_NE(resp.error.find("PC-assistant"), std::string::npos);
}

TEST_F(ServiceTest, ResolvesCatalogLinksOfEveryProtocol) {
  int p2p = 0, server = 0;
  for (const auto& f : catalog->files()) {
    const auto parsed = parse_download_link(f.source_link);
    ASSERT_TRUE(parsed.has_value()) << f.source_link;
    const auto idx = service->resolve_file(*parsed);
    ASSERT_TRUE(idx.has_value()) << f.source_link;
    EXPECT_EQ(*idx, f.index);
    (proto::is_p2p(parsed->protocol) ? p2p : server) += 1;
  }
  EXPECT_GT(p2p, 0);
  EXPECT_GT(server, 0);
}

TEST_F(ServiceTest, UnknownFileStillGetsADecision) {
  const auto resp = service->handle(
      base_request("magnet:?xt=urn:btih:"
                   "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
      0);
  ASSERT_TRUE(resp.ok);
  EXPECT_FALSE(resp.known_file);
  // Unknown popularity + uncached -> cloud pre-download first (Fig 15).
  EXPECT_EQ(resp.decision.route, Route::kCloudPreDownloadFirst);
}

TEST_F(ServiceTest, PopularityDrivesTheDecision) {
  // Make file 0 highly popular in the content DB.
  for (int i = 0; i < 100; ++i) {
    const_cast<cloud::XuanfengCloud&>(*cloud).content_db().record_request(
        0, i * kMinute);
  }
  // P2P highly popular with adequate AP storage -> the swarm via the AP.
  workload::FileIndex p2p_index = 0;
  for (const auto& f : catalog->files()) {
    if (proto::is_p2p(f.protocol)) {
      p2p_index = f.index;
      break;
    }
  }
  for (int i = 0; i < 100; ++i) {
    const_cast<cloud::XuanfengCloud&>(*cloud).content_db().record_request(
        p2p_index, i * kMinute);
  }
  const auto resp =
      service->handle(base_request(file(p2p_index).source_link), kHour);
  ASSERT_TRUE(resp.ok);
  EXPECT_TRUE(resp.known_file);
  EXPECT_GE(resp.input.weekly_popularity, 84.0);
  EXPECT_EQ(resp.decision.route, Route::kSmartAp);
  EXPECT_EQ(resp.decision.addressed_bottleneck, 2);
}

TEST_F(ServiceTest, CookieCarriesAuxiliaryInfo) {
  const auto first = service->handle(base_request(file(0).source_link), 0);
  ASSERT_TRUE(first.ok);
  ASSERT_FALSE(first.cookie.empty());

  // Second request: only link + cookie, no auxiliary fields.
  ServiceRequest r;
  r.link = file(1).source_link;
  r.client_ip = "219.150.0.1";
  r.cookie = first.cookie;
  const auto second = service->handle(r, kMinute);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.cookie, first.cookie);
  EXPECT_DOUBLE_EQ(second.input.user_access_bandwidth, kbps_to_rate(400.0));
  EXPECT_TRUE(second.input.has_smart_ap);
  EXPECT_EQ(service->active_sessions(), 1u);
}

TEST_F(ServiceTest, StaleCookieFallsBackToExplicitFields) {
  ServiceRequest r = base_request(file(0).source_link);
  r.cookie = "odr-session-999";  // never issued
  const auto resp = service->handle(r, 0);
  ASSERT_TRUE(resp.ok);
  EXPECT_NE(resp.cookie, "odr-session-999");  // fresh cookie issued
}

TEST_F(ServiceTest, IspResolutionFeedsBottleneck1) {
  cloud->warm_cache(file(0).index);
  ServiceRequest r = base_request(file(0).source_link);
  r.client_ip = "8.8.8.8";  // outside the four major ISPs
  const auto resp = service->handle(r, 0);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.input.user_isp, net::Isp::kOther);
  EXPECT_TRUE(resp.input.cached_in_cloud);
  EXPECT_EQ(resp.decision.route, Route::kCloudThenSmartAp);
  EXPECT_EQ(resp.decision.addressed_bottleneck, 1);
}

TEST_F(ServiceTest, JsonRenderingIsWellFormedish) {
  cloud->warm_cache(file(0).index);
  const auto resp = service->handle(base_request(file(0).source_link), 0);
  const std::string json = resp.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"route\":\""), std::string::npos);
  EXPECT_NE(json.find("\"user_isp\":\"Telecom\""), std::string::npos);
  EXPECT_NE(json.find("\"cached_in_cloud\":true"), std::string::npos);
}

}  // namespace
}  // namespace odr::core
