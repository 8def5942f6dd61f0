// Integration tests of the XuanfengCloud orchestrator.
#include "cloud/xuanfeng.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

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
    rebuild(sources);
  }

  // A fresh cloud over `source_params` and `config`, reporting to outcomes.
  void rebuild(const proto::SourceParams& source_params) {
    cloud = std::make_unique<XuanfengCloud>(
        sim, net, *catalog, source_params, config, rng,
        [this](const workload::TaskOutcome& o) {
          EXPECT_TRUE(outcomes.emplace(o.task_id, o).second)
              << "task " << o.task_id << " reported twice";
        });
  }

  // What a receiver of user requests does: count the request, then submit.
  void receive(const workload::WorkloadRecord& request,
               const workload::User& user) {
    cloud->content_db().record_request(request.file, sim.now());
    cloud->submit(request, user);
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
  // Every outcome the cloud reported, by task id.
  std::map<workload::TaskId, workload::TaskOutcome> outcomes;
};

TEST_F(XuanfengTest, CacheHitFetchesImmediately) {
  const auto& file = catalog->file(0);
  cloud->warm_cache(file.index);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));

  cloud->submit(request_for(0, user), user);
  sim.run();

  ASSERT_EQ(outcomes.count(1), 1u);
  const workload::TaskOutcome* outcome = &outcomes.at(1);
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
  cloud->submit(request_for(0, user), user);
  sim.run();

  ASSERT_EQ(outcomes.count(1), 1u);
  const workload::TaskOutcome* outcome = &outcomes.at(1);
  EXPECT_FALSE(outcome->pre.cache_hit);
  ASSERT_TRUE(outcome->pre.success);
  EXPECT_GT(outcome->pre.finish_time, outcome->pre.start_time);
  EXPECT_GT(outcome->pre.traffic_bytes, 0u);
  EXPECT_TRUE(outcome->fetched);
  // The file is now cached: a second user hits.
  const workload::User user2 = make_user(net::Isp::kMobile, kbps_to_rate(300));
  cloud->submit(request_for(0, user2, 2), user2);
  sim.run();
  ASSERT_EQ(outcomes.count(2), 1u);
  EXPECT_TRUE(outcomes.at(2).pre.cache_hit);
}

TEST_F(XuanfengTest, ConcurrentRequestsShareOnePreDownload) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->submit(request_for(0, user, 1), user);
  cloud->submit(request_for(0, user, 2), user);
  sim.run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(cloud->predownloaders().started_count(), 1u);
  // In-flight dedup: exactly one of the two records carries the traffic.
  const Bytes t0 = outcomes.at(1).pre.traffic_bytes;
  const Bytes t1 = outcomes.at(2).pre.traffic_bytes;
  EXPECT_TRUE((t0 == 0) != (t1 == 0));
  EXPECT_FALSE(outcomes.at(1).pre.cache_hit);
  EXPECT_FALSE(outcomes.at(2).pre.cache_hit);
}

TEST_F(XuanfengTest, StarvedSwarmFailsAndReportsCause) {
  // The tail-most file has expected popularity ~1/week: force a seedless
  // swarm by zeroing the seed parameters.
  proto::SourceParams starved = sources;
  starved.swarm.base_seed_mean = 0.0;
  starved.swarm.seeds_per_popularity = 0.0;
  rebuild(starved);
  // Pick the least popular P2P file (HTTP tail files would not starve).
  workload::FileIndex tail = 0;
  for (std::size_t i = catalog->size(); i > 0; --i) {
    if (proto::is_p2p(catalog->file(i - 1).protocol)) {
      tail = static_cast<workload::FileIndex>(i - 1);
      break;
    }
  }
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->submit(request_for(tail, user), user);
  sim.run();

  ASSERT_EQ(outcomes.count(1), 1u);
  const workload::TaskOutcome* outcome = &outcomes.at(1);
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
  rebuild(sources);
  cloud->warm_cache(0);
  // First fetch consumes the tiny cluster; use four to drain all clusters.
  const workload::User user = make_user(net::Isp::kUnicom, mbps_to_rate(10));
  for (int i = 0; i < 6; ++i) cloud->submit(request_for(0, user, i + 1), user);
  sim.run_until(kMinute);
  int rejected = 0;
  for (const auto& [id, o] : outcomes) rejected += o.fetch.rejected ? 1 : 0;
  EXPECT_GT(rejected, 0);
}

TEST_F(XuanfengTest, PreDownloadOnlyStopsBeforeFetch) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->predownload_only(request_for(0, user, 4));
  sim.run();
  ASSERT_EQ(outcomes.count(4), 1u);
  const workload::TaskOutcome& report = outcomes.at(4);
  EXPECT_TRUE(report.pre.success);
  // The report holds the request's ids and the pre-download record only.
  EXPECT_EQ(report.user_id, user.id);
  EXPECT_EQ(report.file, 0u);
  EXPECT_EQ(report.weekly_popularity, 0.0);
  EXPECT_FALSE(report.fetched);
  EXPECT_EQ(report.fetch.start_time, 0);
  // No fetch happened: no upload bandwidth was reserved or spent.
  EXPECT_EQ(cloud->uploads().admitted_count(), 0u);
  // And the file is cached for later fetch_only.
  EXPECT_TRUE(cloud->storage().contains(0));
}

TEST_F(XuanfengTest, FetchOnlyUsesSuppliedPreRecord) {
  cloud->warm_cache(0);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  workload::PreDownloadRecord pre;
  pre.start_time = 9;
  pre.success = true;
  pre.cache_hit = true;
  cloud->fetch_only(request_for(0, user, 9), user, pre);
  sim.run();
  ASSERT_EQ(outcomes.count(9), 1u);
  const workload::TaskOutcome* outcome = &outcomes.at(9);
  EXPECT_TRUE(outcome->fetched);
  EXPECT_EQ(outcome->pre.start_time, 9);
  EXPECT_EQ(outcome->task_id, 9u);
  EXPECT_EQ(outcome->user_id, user.id);
  EXPECT_EQ(outcome->file, 0u);
}

// The cloud never counts a request: whoever receives it does, once.
TEST_F(XuanfengTest, SubmitLeavesTheContentDbToItsReceiver) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  cloud->warm_cache(3);
  cloud->submit(request_for(3, user, 1), user);
  cloud->predownload_only(request_for(3, user, 2));
  EXPECT_DOUBLE_EQ(cloud->content_db().weekly_popularity(3, sim.now()), 0.0);
  receive(request_for(3, user, 3), user);
  EXPECT_DOUBLE_EQ(cloud->content_db().weekly_popularity(3, sim.now()), 1.0);
}

// A cloud saved mid-fetch and loaded into a cloud built with another sink
// delivers the finished fetch to that sink, as the saved cloud would have.
TEST_F(XuanfengTest, RestoredFetchReportsToTheLoadingCloudsSink) {
  cloud->warm_cache(0);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  cloud->submit(request_for(0, user), user);  // a cache hit: fetching now
  sim.run_until(kSec);
  ASSERT_EQ(cloud->active_fetch_count(), 1u);

  snapshot::SnapshotWriter w;
  w.begin_section(1, 1);
  sim.save(w);
  net.save(w);
  w.end_section();
  cloud->save(w);
  const std::string saved = w.take();

  sim::Simulator sim2;
  net::Network net2(sim2);
  Rng rng2(7);
  std::vector<workload::TaskOutcome> heard;
  XuanfengCloud restored(
      sim2, net2, *catalog, sources, config, rng2,
      [&heard](const workload::TaskOutcome& o) { heard.push_back(o); });
  snapshot::SnapshotReader r(saved);
  r.require_section(1, 1);
  sim2.load(r);
  net2.load(r);
  r.end_section();
  restored.load(r);
  EXPECT_EQ(sim2.unclaimed_rearm_count(), 0u);
  sim2.run();

  sim.run();
  ASSERT_EQ(outcomes.count(1), 1u);
  const workload::TaskOutcome& expected = outcomes.at(1);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_TRUE(heard[0].fetched);
  EXPECT_EQ(heard[0].task_id, 1u);
  EXPECT_EQ(heard[0].fetch.finish_time, expected.fetch.finish_time);
  EXPECT_EQ(heard[0].fetch.traffic_bytes, expected.fetch.traffic_bytes);
}

// The cloud's whole checkpoint (rng, caches, uploads, VM pool, tasks) plus
// the content DB's records and the pool's entries: any change to the
// cloud's state shows.
std::string cloud_state(const XuanfengCloud& cloud) {
  snapshot::SnapshotWriter w;
  cloud.save(w);
  w.begin_section(3, 1);
  cloud.content_db().save_window(w);
  cloud.storage().save_entries(w);
  w.end_section();
  return w.take();
}

// `submit` throws std::out_of_range naming a file past the catalog's end
// and the catalog's size, and leaves the cloud's state and the event queue
// as they were.
void expect_refused_past_catalog(const XuanfengCloud& cloud,
                                 const sim::Simulator& sim,
                                 const std::function<void()>& submit) {
  const std::string before = cloud_state(cloud);
  const std::size_t pending = sim.pending_count();
  try {
    submit();
    ADD_FAILURE() << "a request for a file past the catalog was taken";
  } catch (const std::out_of_range& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("file 200 of a 200-file catalog"), std::string::npos)
        << what;
  }
  EXPECT_EQ(cloud_state(cloud), before);
  EXPECT_EQ(sim.pending_count(), pending);
}

TEST_F(XuanfengTest, SubmitRefusesAFilePastTheCatalog) {
  ASSERT_EQ(catalog->size(), 200u);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  receive(request_for(3, user, 1), user);
  expect_refused_past_catalog(*cloud, sim, [&] {
    cloud->submit(request_for(200, user, 2), user);
  });
}

TEST_F(XuanfengTest, PredownloadOnlyRefusesAFilePastTheCatalog) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  receive(request_for(3, user, 1), user);
  expect_refused_past_catalog(*cloud, sim, [&] {
    cloud->predownload_only(request_for(200, user, 2));
  });
}

// A fetch past the catalog is refused before it draws from the cloud's
// rng, reads a count or reserves upload capacity.
TEST_F(XuanfengTest, FetchOnlyRefusesAFilePastTheCatalog) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(400));
  receive(request_for(3, user, 1), user);
  workload::PreDownloadRecord pre;
  pre.success = true;
  expect_refused_past_catalog(*cloud, sim, [&] {
    cloud->fetch_only(request_for(200, user, 2), user, pre);
  });
}

}  // namespace
}  // namespace odr::cloud
