// Integration tests of the XuanfengCloud orchestrator.
#include "cloud/xuanfeng.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "net/isp.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "snapshot/format.h"

namespace odr::cloud {
namespace {

class XuanfengTest : public ::testing::Test {
 protected:
  XuanfengTest() : net(sim), rng(7) {
    workload::CatalogParams cp;
    cp.num_files = 200;
    cp.total_weekly_requests = 1450;
    catalog = std::make_unique<workload::Catalog>(cp, rng);

    config.total_upload_capacity = mbps_to_rate(100.0);
    config.dynamics_prob = 0.0;  // deterministic fetch rates in tests
    cloud = std::make_unique<XuanfengCloud>(sim, net, *catalog, sources,
                                            config, rng);
  }

  workload::WorkloadRecord request_for(workload::FileIndex file,
                                       const workload::User& user,
                                       workload::TaskId id = 1) {
    return {id, user.id, file, sim.now()};
  }

  workload::User make_user(net::Isp isp, Rate bw) {
    workload::User u;
    u.id = 1;
    u.isp = isp;
    u.access_bandwidth = bw;
    u.ip = "10.0.0.1";
    return u;
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  proto::SourceParams sources;
  CloudConfig config;
  std::unique_ptr<workload::Catalog> catalog;
  std::unique_ptr<XuanfengCloud> cloud;
};

TEST_F(XuanfengTest, CacheHitFetchesImmediately) {
  const auto& file = catalog->file(0);
  cloud->warm_cache(file);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));

  std::optional<workload::TaskOutcome> outcome;
  cloud->submit(request_for(0, user), user,
                [&](const workload::TaskOutcome& o) { outcome = o; });
  sim.run();

  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->pre.cache_hit);
  EXPECT_TRUE(outcome->pre.success);
  EXPECT_EQ(outcome->pre.traffic_bytes, 0u);
  EXPECT_EQ(outcome->pre.finish_time, outcome->pre.start_time);
  ASSERT_TRUE(outcome->fetched);
  EXPECT_TRUE(outcome->privileged_path);
  // Fetch at the user's line rate: duration = size / bw.
  const SimTime expected =
      from_seconds(static_cast<double>(file.size) / kbps_to_rate(500));
  EXPECT_NEAR(static_cast<double>(outcome->fetch.finish_time -
                                  outcome->fetch.start_time),
              static_cast<double>(expected), static_cast<double>(kSec));
}

TEST_F(XuanfengTest, MissPreDownloadsThenFetches) {
  // Rank-0 file: hot swarm, pre-download will succeed.
  const workload::User user = make_user(net::Isp::kTelecom, kbps_to_rate(400));
  std::optional<workload::TaskOutcome> outcome;
  cloud->submit(request_for(0, user), user,
                [&](const workload::TaskOutcome& o) { outcome = o; });
  sim.run();

  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->pre.cache_hit);
  ASSERT_TRUE(outcome->pre.success);
  EXPECT_GT(outcome->pre.finish_time, outcome->pre.start_time);
  EXPECT_GT(outcome->pre.traffic_bytes, 0u);
  EXPECT_TRUE(outcome->fetched);
  // The file is now cached: a second user hits.
  const workload::User user2 = make_user(net::Isp::kMobile, kbps_to_rate(300));
  std::optional<workload::TaskOutcome> second;
  cloud->submit(request_for(0, user2, 2), user2,
                [&](const workload::TaskOutcome& o) { second = o; });
  sim.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->pre.cache_hit);
}

TEST_F(XuanfengTest, ConcurrentRequestsShareOnePreDownload) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  std::vector<workload::TaskOutcome> outcomes;
  cloud->submit(request_for(0, user, 1), user,
                [&](const workload::TaskOutcome& o) { outcomes.push_back(o); });
  cloud->submit(request_for(0, user, 2), user,
                [&](const workload::TaskOutcome& o) { outcomes.push_back(o); });
  sim.run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(cloud->predownloaders().started_count(), 1u);
  // In-flight dedup: exactly one of the two records carries the traffic.
  const Bytes t0 = outcomes[0].pre.traffic_bytes;
  const Bytes t1 = outcomes[1].pre.traffic_bytes;
  EXPECT_TRUE((t0 == 0) != (t1 == 0));
  EXPECT_FALSE(outcomes[0].pre.cache_hit);
  EXPECT_FALSE(outcomes[1].pre.cache_hit);
}

TEST_F(XuanfengTest, StarvedSwarmFailsAndReportsCause) {
  // The tail-most file has expected popularity ~1/week: force a seedless
  // swarm by zeroing the seed parameters.
  proto::SourceParams starved = sources;
  starved.swarm.base_seed_mean = 0.0;
  starved.swarm.seeds_per_popularity = 0.0;
  cloud = std::make_unique<XuanfengCloud>(sim, net, *catalog, starved, config,
                                          rng);
  // Pick the least popular P2P file (HTTP tail files would not starve).
  workload::FileIndex tail = 0;
  for (std::size_t i = catalog->size(); i > 0; --i) {
    if (proto::is_p2p(catalog->file(i - 1).protocol)) {
      tail = static_cast<workload::FileIndex>(i - 1);
      break;
    }
  }
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  std::optional<workload::TaskOutcome> outcome;
  cloud->submit(request_for(tail, user), user,
                [&](const workload::TaskOutcome& o) { outcome = o; });
  sim.run();

  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->pre.success);
  EXPECT_EQ(outcome->pre.failure_cause,
            proto::FailureCause::kInsufficientSeeds);
  EXPECT_FALSE(outcome->fetched);
  // Failed in about the stagnation timeout.
  EXPECT_GE(outcome->pre.finish_time - outcome->pre.start_time, kHour);
  EXPECT_LE(outcome->pre.finish_time - outcome->pre.start_time,
            kHour + 3 * 5 * kMinute);
}

TEST_F(XuanfengTest, RejectsWhenCloudHasNoUploadBandwidth) {
  config.total_upload_capacity = kbps_to_rate(40.0);  // 10 KBps per cluster
  config.admission_floor = kbps_to_rate(125.0);
  cloud = std::make_unique<XuanfengCloud>(sim, net, *catalog, sources, config,
                                          rng);
  cloud->warm_cache(catalog->file(0));
  // First fetch consumes the tiny cluster; use four to drain all clusters.
  const workload::User user = make_user(net::Isp::kUnicom, mbps_to_rate(10));
  int rejected = 0, fetched = 0;
  for (int i = 0; i < 6; ++i) {
    cloud->submit(request_for(0, user, i + 1), user,
                  [&](const workload::TaskOutcome& o) {
                    if (o.fetch.rejected) ++rejected;
                    if (o.fetched) ++fetched;
                  });
  }
  sim.run_until(kMinute);
  EXPECT_GT(rejected, 0);
}

TEST_F(XuanfengTest, PreDownloadOnlyStopsBeforeFetch) {
  std::optional<workload::PreDownloadRecord> pre;
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->predownload_only(request_for(0, user),
                          [&](const workload::PreDownloadRecord& r) { pre = r; });
  sim.run();
  ASSERT_TRUE(pre.has_value());
  EXPECT_TRUE(pre->success);
  // No fetch happened: no upload bandwidth was reserved or spent.
  EXPECT_EQ(cloud->uploads().admitted_count(), 0u);
  // And the file is cached for later fetch_only.
  EXPECT_TRUE(cloud->storage().contains(0));
}

TEST_F(XuanfengTest, FetchOnlyUsesSuppliedPreRecord) {
  cloud->warm_cache(catalog->file(0));
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  workload::PreDownloadRecord pre;
  pre.start_time = 9;
  pre.success = true;
  pre.cache_hit = true;
  std::optional<workload::TaskOutcome> outcome;
  cloud->fetch_only(request_for(0, user, 9), user, pre,
                    [&](const workload::TaskOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->fetched);
  EXPECT_EQ(outcome->pre.start_time, 9);
  EXPECT_EQ(outcome->task_id, 9u);
  EXPECT_EQ(outcome->user_id, user.id);
  EXPECT_EQ(outcome->file, 0u);
}

TEST_F(XuanfengTest, ContentDbSeesEverySubmission) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->warm_cache(catalog->file(3));
  cloud->submit(request_for(3, user, 1), user, nullptr);
  cloud->submit(request_for(3, user, 2), user, nullptr);
  EXPECT_DOUBLE_EQ(cloud->content_db().weekly_popularity(3, sim.now()), 2.0);
}

// The content DB's and the pool's checkpoint bytes, counters and digests
// included: any change to either shows.
std::string cache_state(const XuanfengCloud& cloud) {
  snapshot::SnapshotWriter w;
  w.begin_section(1, 1);
  cloud.content_db().save(w);
  cloud.content_db().save_window(w);
  cloud.storage().save(w);
  cloud.storage().save_entries(w);
  w.end_section();
  return w.take();
}

// `submit` throws std::out_of_range naming a file past the catalog's end
// and the catalog's size, and leaves the content DB, the pool and the
// event queue as they were.
void expect_refused_past_catalog(const XuanfengCloud& cloud,
                                 const sim::Simulator& sim,
                                 const std::function<void()>& submit) {
  const std::string before = cache_state(cloud);
  const std::size_t pending = sim.pending_count();
  try {
    submit();
    ADD_FAILURE() << "a request for a file past the catalog was taken";
  } catch (const std::out_of_range& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("file 200 of a 200-file catalog"), std::string::npos)
        << what;
  }
  EXPECT_EQ(cache_state(cloud), before);
  EXPECT_EQ(sim.pending_count(), pending);
}

TEST_F(XuanfengTest, SubmitRefusesAFilePastTheCatalog) {
  ASSERT_EQ(catalog->size(), 200u);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->submit(request_for(3, user, 1), user, nullptr);
  expect_refused_past_catalog(*cloud, sim, [&] {
    cloud->submit(request_for(200, user, 2), user, nullptr);
  });
}

TEST_F(XuanfengTest, SubmitCloneRefusesAFilePastTheCatalog) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->submit(request_for(3, user, 1), user, nullptr);
  expect_refused_past_catalog(*cloud, sim, [&] {
    cloud->submit_clone(request_for(200, user, 2), user, nullptr);
  });
}

TEST_F(XuanfengTest, PredownloadOnlyRefusesAFilePastTheCatalog) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->submit(request_for(3, user, 1), user, nullptr);
  expect_refused_past_catalog(*cloud, sim, [&] {
    cloud->predownload_only(request_for(200, user, 2), nullptr);
  });
}

}  // namespace
}  // namespace odr::cloud
