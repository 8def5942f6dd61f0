// Executor integration tests: each route against the real substrates.
#include "core/executor.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/replay.h"
#include "core/budget.h"
#include "core/circuit_breaker.h"
#include "core/hedge.h"
#include "fault/fault_plan.h"
#include "net/isp.h"
#include "snapshot/format.h"

namespace odr::core {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : net(sim), rng(31) {
    workload::CatalogParams cp;
    cp.num_files = 300;
    cp.total_weekly_requests = 2175;
    catalog = std::make_unique<workload::Catalog>(cp, rng);

    cloud_config.total_upload_capacity = mbps_to_rate(100.0);
    cloud_config.dynamics_prob = 0.0;
    cloud = make_cloud(sources);

    ap_config.hardware = odr::ap::kMiWiFi;
    ap_config.device = odr::ap::DeviceType::kSataHdd;
    ap_config.filesystem = odr::ap::Filesystem::kExt4;
    ap_config.bug_failure_prob = 0.0;
    ap = make_ap(sources);
    executor = make_executor(sources);
  }

  // A cloud over `source_params` that reports to the fixture's executor.
  std::unique_ptr<cloud::XuanfengCloud> make_cloud(
      const proto::SourceParams& source_params) {
    return std::make_unique<cloud::XuanfengCloud>(
        sim, net, *catalog, source_params, cloud_config, rng,
        [this](const workload::TaskOutcome& o) {
          executor->on_cloud_outcome(o);
        });
  }

  // An AP over `source_params` that reports to the fixture's executor.
  std::unique_ptr<odr::ap::SmartAp> make_ap(
      const proto::SourceParams& source_params) {
    return std::make_unique<odr::ap::SmartAp>(
        sim, net, ap_config, source_params, rng,
        [this](std::uint64_t id, const proto::DownloadResult& r) {
          executor->on_ap_outcome(id, r);
        });
  }

  // An executor over the fixture's cloud that files each outcome by task
  // id; a second report for one id fails the test.
  std::unique_ptr<Executor> make_executor(
      const proto::SourceParams& source_params) {
    return std::make_unique<Executor>(
        sim, net, *catalog, *cloud, source_params, RedirectorParams{}, rng,
        [this](const ExecOutcome& o) {
          EXPECT_TRUE(outcomes.emplace(o.task_id, o).second)
              << "task " << o.task_id << " reported twice";
          if (on_outcome) on_outcome(o);
        });
  }

  // The outcome of the last request made, if it has reported.
  std::optional<ExecOutcome> last_outcome() const {
    const auto it = outcomes.find(next_task_);
    if (it == outcomes.end()) return std::nullopt;
    return it->second;
  }

  workload::WorkloadRecord request_for(workload::FileIndex file,
                                       const workload::User& user) {
    return {++next_task_, user.id, file, sim.now()};
  }

  workload::User make_user(net::Isp isp, Rate bw) {
    workload::User u;
    u.id = 1;
    u.isp = isp;
    u.access_bandwidth = bw;
    u.ip = "10.1.1.1";
    return u;
  }

  Decision route(Route r) {
    Decision d;
    d.route = r;
    return d;
  }

  Decision hedged(Route r) {
    Decision d = route(r);
    d.hedge = true;
    return d;
  }

  // Rebuilds every substrate over starved swarm sources: p2p fetches find
  // no seeds and stagnate until the timeout, so a cancelled clone would
  // otherwise sit in flight for a simulated hour — the perfect loser.
  void rebuild_starved() {
    starved = sources;
    starved.swarm.base_seed_mean = 0.0;
    starved.swarm.seeds_per_popularity = 0.0;
    cloud = make_cloud(starved);
    ap = make_ap(starved);
    executor = make_executor(starved);
  }

  // Rebuilds the cloud and executor over upload clusters far below the
  // admission floor: every fetch is rejected the moment it is planned.
  void rebuild_starved_uploads() {
    cloud_config.total_upload_capacity = kbps_to_rate(40.0);
    cloud_config.admission_floor = kbps_to_rate(125.0);
    cloud = make_cloud(sources);
    executor = make_executor(sources);
  }

  HedgeCoordinator& enable_hedging() {
    hedges = std::make_unique<HedgeCoordinator>();
    executor->set_hedging(hedges.get());
    return *hedges;
  }

  workload::FileIndex first_p2p_file() const {
    for (std::size_t i = 0; i < catalog->size(); ++i) {
      if (proto::is_p2p(catalog->file(i).protocol)) {
        return static_cast<workload::FileIndex>(i);
      }
    }
    return 0;
  }

  sim::Simulator sim;
  net::Network net;
  Rng rng;
  proto::SourceParams sources;
  proto::SourceParams starved;
  cloud::CloudConfig cloud_config;
  odr::ap::SmartApConfig ap_config;
  std::unique_ptr<workload::Catalog> catalog;
  std::unique_ptr<cloud::XuanfengCloud> cloud;
  std::unique_ptr<odr::ap::SmartAp> ap;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<HedgeCoordinator> hedges;
  std::map<workload::TaskId, ExecOutcome> outcomes;
  // Runs inside the sink, after the outcome is filed.
  std::function<void(const ExecOutcome&)> on_outcome;
  workload::TaskId next_task_ = 0;
};

TEST_F(ExecutorTest, CloudRouteProducesFullOutcome) {
  cloud->warm_cache(0);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  executor->execute(route(Route::kCloud), request_for(0, user), user, nullptr);
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_NEAR(outcome->fetch_rate, kbps_to_rate(500), 1.0);
  EXPECT_FALSE(outcome->impeded);
  EXPECT_EQ(outcome->cloud_upload_bytes, catalog->file(0).size);
  EXPECT_GT(outcome->ready_time, outcome->request_time);
}

TEST_F(ExecutorTest, CloudRouteSlowUserIsImpeded) {
  cloud->warm_cache(1);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(60));
  executor->execute(route(Route::kCloud), request_for(1, user), user, nullptr);
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_TRUE(outcome->impeded);  // below the 125 KBps playback line
}

TEST_F(ExecutorTest, UserDeviceRouteDownloadsDirectly) {
  const workload::User user = make_user(net::Isp::kTelecom, kbps_to_rate(800));
  executor->execute(route(Route::kUserDevice), request_for(0, user), user,
                    nullptr);
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->route, Route::kUserDevice);
  EXPECT_TRUE(outcome->success);  // rank-0 file: hot swarm
  EXPECT_EQ(outcome->cloud_upload_bytes, 0u);  // the cloud was not involved
  EXPECT_EQ(outcome->pre_delay, 0);
  EXPECT_GT(outcome->fetch_delay, 0);
}

TEST_F(ExecutorTest, DirectTaskDiesInItsDoneCallback) {
  // The executor destroys a finished direct download when its callback
  // returns; no deferred delete is left queued behind the outcome.
  const workload::User user = make_user(net::Isp::kTelecom, kbps_to_rate(800));
  std::size_t pending_in_callback = ~std::size_t{0};
  on_outcome = [&](const ExecOutcome&) {
    pending_in_callback = sim.pending_count();
  };
  executor->execute(route(Route::kUserDevice), request_for(0, user), user,
                    nullptr);
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(pending_in_callback, 0u);
}

TEST_F(ExecutorTest, SmartApRouteEndsWithLanFetch) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(600));
  executor->execute(route(Route::kSmartAp), request_for(0, user), user,
                    ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_FALSE(outcome->impeded);  // LAN streaming is never impeded
  EXPECT_EQ(outcome->cloud_upload_bytes, 0u);
  EXPECT_GT(outcome->pre_delay, 0);
}

TEST_F(ExecutorTest, CloudThenApShieldsSlowUserFromImpediment) {
  cloud->warm_cache(2);
  const workload::User user = make_user(net::Isp::kOther, kbps_to_rate(400));
  executor->execute(route(Route::kCloudThenSmartAp), request_for(2, user),
                    user, ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  // The cloud->AP hop crossed the ISP barrier (slow), but the user is
  // shielded: not impeded, though the cloud still carried the bytes.
  EXPECT_FALSE(outcome->impeded);
  EXPECT_EQ(outcome->cloud_upload_bytes, catalog->file(2).size);
}

TEST_F(ExecutorTest, PreDownloadFirstReDecidesAfterCaching) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  executor->execute(route(Route::kCloudPreDownloadFirst), request_for(0, user),
                    user, ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  // Healthy path: after pre-download it re-decides to a plain cloud fetch.
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_GT(outcome->pre_delay, 0);
  EXPECT_GT(outcome->cloud_upload_bytes, 0u);
}

TEST_F(ExecutorTest, PreDownloadFirstWithSlowUserStagesViaAp) {
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(60));
  executor->execute(route(Route::kCloudPreDownloadFirst), request_for(0, user),
                    user, ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kCloudThenSmartAp);
  EXPECT_FALSE(outcome->impeded);
}

TEST_F(ExecutorTest, PreDownloadFailurePropagates) {
  proto::SourceParams starved = sources;
  starved.swarm.base_seed_mean = 0.0;
  starved.swarm.seeds_per_popularity = 0.0;
  cloud = make_cloud(starved);
  executor = make_executor(starved);
  workload::FileIndex p2p_file = 0;
  for (std::size_t i = 0; i < catalog->size(); ++i) {
    if (proto::is_p2p(catalog->file(i).protocol)) {
      p2p_file = static_cast<workload::FileIndex>(i);
      break;
    }
  }
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  executor->execute(route(Route::kCloudPreDownloadFirst),
                    request_for(p2p_file, user), user, ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_EQ(outcome->cause, proto::FailureCause::kInsufficientSeeds);
}

TEST_F(ExecutorTest, MakeInputReflectsWorldState) {
  cloud->warm_cache(5);
  cloud->content_db().record_request(5, sim.now());
  cloud->content_db().record_request(5, sim.now());
  const workload::User user = make_user(net::Isp::kCernet, kbps_to_rate(300));
  const DecisionInput in =
      executor->make_input(request_for(5, user), user, ap.get());
  EXPECT_TRUE(in.cached_in_cloud);
  EXPECT_DOUBLE_EQ(in.weekly_popularity, 2.0);
  EXPECT_EQ(in.user_isp, net::Isp::kCernet);
  EXPECT_TRUE(in.has_smart_ap);
  EXPECT_EQ(*in.ap_device, odr::ap::DeviceType::kSataHdd);
}

TEST_F(ExecutorTest, MakeInputFallsBackToTrueBandwidthWhenUnreported) {
  workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(333));
  user.reports_bandwidth = false;  // §4.2 footnote
  const DecisionInput in =
      executor->make_input(request_for(0, user), user, nullptr);
  EXPECT_DOUBLE_EQ(in.user_access_bandwidth, kbps_to_rate(333));
  EXPECT_FALSE(in.has_smart_ap);
}

// --- hedged request cloning --------------------------------------------------

TEST_F(ExecutorTest, HedgedPrimaryWinCancelsLoserAndRecordsOnce) {
  rebuild_starved();
  HedgeCoordinator& h = enable_hedging();
  const workload::FileIndex file = first_p2p_file();
  cloud->warm_cache(file);  // primary: fast cache hit
  const workload::User user =
      make_user(net::Isp::kUnicom, kbps_to_rate(20000));
  executor->execute(hedged(Route::kCloud), request_for(file, user), user,
                    ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_TRUE(outcome->hedged);
  EXPECT_FALSE(outcome->hedge_secondary_won);
  EXPECT_EQ(h.pairs_launched(), 1u);
  EXPECT_EQ(h.primary_wins(), 1u);
  EXPECT_EQ(h.secondary_wins(), 0u);
  EXPECT_EQ(h.cancelled_clones(), 1u);  // the starved AP clone was aborted
  // Every launched pair settled.
  EXPECT_EQ(h.primary_wins() + h.secondary_wins() + h.both_failed(),
            h.pairs_launched());
  // Dedup: only the primary records the request into the content DB; the
  // cancelled clone must not double-count popularity.
  EXPECT_DOUBLE_EQ(cloud->content_db().weekly_popularity(file, sim.now()),
                   1.0);
}

TEST_F(ExecutorTest, HedgedSecondaryWinReportsSecondaryRoute) {
  rebuild_starved();
  HedgeCoordinator& h = enable_hedging();
  const workload::FileIndex file = first_p2p_file();
  cloud->warm_cache(file);  // secondary: fast cache hit
  const workload::User user =
      make_user(net::Isp::kUnicom, kbps_to_rate(20000));
  // Primary AP fetch stagnates on the starved swarm; the cloud clone wins.
  executor->execute(hedged(Route::kSmartAp), request_for(file, user), user,
                    ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_TRUE(outcome->hedged);
  EXPECT_TRUE(outcome->hedge_secondary_won);
  EXPECT_EQ(h.secondary_wins(), 1u);
  EXPECT_EQ(h.cancelled_clones(), 1u);
  // Every launched pair settled.
  EXPECT_EQ(h.primary_wins() + h.secondary_wins() + h.both_failed(),
            h.pairs_launched());
}

TEST_F(ExecutorTest, HedgedBothFailedReportsPrimaryFailure) {
  rebuild_starved();
  HedgeCoordinator& h = enable_hedging();
  const workload::FileIndex file = first_p2p_file();  // not cached: both stall
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  executor->execute(hedged(Route::kCloud), request_for(file, user), user,
                    ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_TRUE(outcome->hedged);
  // The primary's failure is the one reported, not the clone's.
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_EQ(outcome->cause, proto::FailureCause::kInsufficientSeeds);
  EXPECT_EQ(h.both_failed(), 1u);
  // Every launched pair settled.
  EXPECT_EQ(h.primary_wins() + h.secondary_wins() + h.both_failed(),
            h.pairs_launched());
}

TEST_F(ExecutorTest, HedgedBudgetExhaustedDegradesToPlainPath) {
  HedgeCoordinator& h = enable_hedging();
  RetryBudget::Config bcfg;
  bcfg.enabled = true;
  bcfg.global_capacity = 0.0;  // bone-dry: every clone charge is denied
  bcfg.global_refill_per_hour = 0.0;
  RetryBudget budget(bcfg);
  h.set_budget(&budget);
  cloud->warm_cache(0);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  executor->execute(hedged(Route::kCloud), request_for(0, user), user,
                    ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  // Graceful degradation: the request still succeeds, single-path.
  EXPECT_TRUE(outcome->success);
  EXPECT_FALSE(outcome->hedged);
  EXPECT_EQ(h.pairs_launched(), 0u);
  EXPECT_EQ(h.budget_denied(), 1u);
  EXPECT_EQ(budget.denied(), 1u);
}

// Regression: a loser-cancel that lands while the clone holds a half-open
// probe slot must RELEASE the probe (no verdict on the substrate), not
// count as a failure that re-opens the breaker or a success that closes it.
TEST_F(ExecutorTest, HalfOpenLoserCancelReleasesProbe) {
  rebuild_starved();
  HedgeCoordinator& h = enable_hedging();
  CircuitBreaker::Config bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_duration = 5 * kMinute;
  bcfg.half_open_probes = 1;
  CircuitBreaker cloud_bk(sim, bcfg);
  CircuitBreaker ap_bk(sim, bcfg);
  executor->set_substrate_breakers(&cloud_bk, &ap_bk);
  ap_bk.record_failure();
  ap_bk.record_failure();
  ASSERT_EQ(ap_bk.state(), CircuitBreaker::State::kOpen);
  // Sit out the cool-off so the next AP request becomes the probe.
  sim.schedule_after(bcfg.open_duration + kMinute, [] {});
  sim.run();

  const workload::FileIndex file = first_p2p_file();
  cloud->warm_cache(file);
  const workload::User user =
      make_user(net::Isp::kUnicom, kbps_to_rate(20000));
  executor->execute(hedged(Route::kCloud), request_for(file, user), user,
                    ap.get());
  // The AP clone is in flight holding the single probe slot.
  EXPECT_EQ(ap_bk.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(ap_bk.probes_inflight(), 1u);
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(h.cancelled_clones(), 1u);
  EXPECT_EQ(ap_bk.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(ap_bk.probes_inflight(), 0u);
  EXPECT_EQ(ap_bk.times_opened(), 1u);  // the cancel did not re-trip it
  EXPECT_TRUE(ap_bk.allow());           // and the probe slot is free again
}

// A reroute means a breaker refused the request, and the hedge's secondary
// is then the substrate that refused: it refuses again at the same
// instant, so the request runs single-path on its rerouted route, having
// been charged the one clone token that is asked for before the breaker.
TEST_F(ExecutorTest, HedgedRequestReroutedByOpenBreakerDegrades) {
  HedgeCoordinator& h = enable_hedging();
  RetryBudget::Config bcfg;
  bcfg.enabled = true;
  RetryBudget budget(bcfg);
  h.set_budget(&budget);
  CircuitBreaker::Config breaker_config;
  breaker_config.failure_threshold = 1;
  breaker_config.open_duration = kWeek;
  CircuitBreaker cloud_bk(sim, breaker_config);
  CircuitBreaker ap_bk(sim, breaker_config);
  executor->set_substrate_breakers(&cloud_bk, &ap_bk);
  cloud_bk.record_failure();
  ASSERT_EQ(cloud_bk.state(), CircuitBreaker::State::kOpen);

  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(600));
  executor->execute(hedged(Route::kCloud), request_for(0, user), user,
                    ap.get());
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kSmartAp);
  EXPECT_TRUE(outcome->rerouted);
  EXPECT_FALSE(outcome->hedged);
  EXPECT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(h.pairs_launched(), 0u);
  EXPECT_EQ(budget.granted(), 1u);
  EXPECT_EQ(executor->reroutes(), 1u);
  EXPECT_EQ(cloud->inflight_predownload_count(), 0u);  // no cloud clone
}

// --- the content DB and the task table ---------------------------------------

// A request past the catalog is refused before the content DB counts it or
// a direct download starts.
TEST_F(ExecutorTest, UserDeviceRouteRefusesAFilePastTheCatalog) {
  ASSERT_EQ(catalog->size(), 300u);
  const workload::User user = make_user(net::Isp::kTelecom, kbps_to_rate(800));
  cloud->content_db().record_request(4, sim.now());
  const auto db_state = [&] {
    snapshot::SnapshotWriter w;
    w.begin_section(1, 1);
    cloud->content_db().save(w);
    cloud->content_db().save_window(w);
    w.end_section();
    return w.take();
  };
  const std::string before = db_state();
  try {
    executor->execute(route(Route::kUserDevice), request_for(300, user), user,
                      nullptr);
    ADD_FAILURE() << "a request for a file past the catalog was taken";
  } catch (const std::out_of_range& e) {
    const std::string what(e.what());
    EXPECT_NE(what.find("file 300 of a 300-file catalog"), std::string::npos)
        << what;
  }
  EXPECT_EQ(db_state(), before);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_TRUE(outcomes.empty());
}

// A cache hit on a cluster that cannot admit the fetch reports inside
// submit(): the task's record is filed before the call.
TEST_F(ExecutorTest, RejectionInsideSubmitReachesDone) {
  rebuild_starved_uploads();
  cloud->warm_cache(0);
  const workload::User user = make_user(net::Isp::kUnicom, mbps_to_rate(10));
  executor->execute(route(Route::kCloud), request_for(0, user), user, nullptr);
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());  // before the simulation runs at all
  EXPECT_FALSE(outcome->success);
  EXPECT_TRUE(outcome->rejected);
  EXPECT_EQ(outcome->cause, proto::FailureCause::kRejected);
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_DOUBLE_EQ(cloud->content_db().weekly_popularity(0, sim.now()), 1.0);
}

// The pre-download-first route: the cache hit reports inside
// predownload_only(), and the fetch that follows is rejected inside
// fetch_only().
TEST_F(ExecutorTest, RejectionInsideFetchOnlyReachesDone) {
  rebuild_starved_uploads();
  cloud->warm_cache(0);
  const workload::User user = make_user(net::Isp::kUnicom, mbps_to_rate(10));
  executor->execute(route(Route::kCloudPreDownloadFirst), request_for(0, user),
                    user, nullptr);
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_TRUE(outcome->rejected);
  EXPECT_EQ(outcome->cause, proto::FailureCause::kRejected);
  EXPECT_EQ(outcome->route, Route::kCloud);
  EXPECT_EQ(outcome->pre_delay, 0);
  EXPECT_EQ(cloud->uploads().rejected_count(), 1u);
}

// The AP primary wins while the cloud clone waits on a pre-download that
// starved swarms stall: the clone's waiter is cancelled, the shared
// pre-download keeps running, and the request counts once.
TEST_F(ExecutorTest, HedgedCloudCloneCancelledWhileWaiting) {
  starved = sources;
  starved.swarm.base_seed_mean = 0.0;
  starved.swarm.seeds_per_popularity = 0.0;
  cloud = make_cloud(starved);  // the AP keeps the healthy swarms
  executor = make_executor(sources);
  HedgeCoordinator& h = enable_hedging();
  const workload::FileIndex file = first_p2p_file();
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(500));
  executor->execute(hedged(Route::kSmartAp), request_for(file, user), user,
                    ap.get());
  sim.run_until(30 * kMinute);
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kSmartAp);
  EXPECT_FALSE(outcome->hedge_secondary_won);
  EXPECT_EQ(h.cancelled_clones(), 1u);
  EXPECT_EQ(h.wasted_bytes(), 0u);  // a waiter had moved nothing
  EXPECT_EQ(cloud->inflight_predownload_count(), 1u);
  sim.run();
  EXPECT_EQ(cloud->inflight_predownload_count(), 0u);
  EXPECT_DOUBLE_EQ(cloud->content_db().weekly_popularity(file, sim.now()),
                   1.0);
}

// The AP primary wins while the cloud clone streams the cached file to a
// slow user: the clone's fetch is cancelled and its bytes count as waste.
TEST_F(ExecutorTest, HedgedCloudCloneCancelledWhileFetching) {
  HedgeCoordinator& h = enable_hedging();
  const workload::FileIndex file = first_p2p_file();
  cloud->warm_cache(file);
  const workload::User user = make_user(net::Isp::kUnicom, kbps_to_rate(20));
  executor->execute(hedged(Route::kSmartAp), request_for(file, user), user,
                    ap.get());
  ASSERT_EQ(cloud->active_fetch_count(), 1u);
  sim.run();
  const std::optional<ExecOutcome> outcome = last_outcome();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(outcome->route, Route::kSmartAp);
  EXPECT_FALSE(outcome->hedge_secondary_won);
  EXPECT_EQ(h.cancelled_clones(), 1u);
  EXPECT_GT(h.wasted_bytes(), 0u);
  EXPECT_EQ(cloud->active_fetch_count(), 0u);
  EXPECT_EQ(cloud->uploads().admitted_count(), 1u);
}

// A hedged week under the severe fault plan, with breakers and the shared
// retry budget: every arrival races two clones, most losers are cancelled,
// faults fail clones on both sides, and still every request is reported
// exactly once.
TEST(ExecutorWeekTest, HedgedSevereWeekReportsEveryRequestOnce) {
  analysis::StrategyReplayConfig config;
  config.experiment = analysis::make_scaled_config(4000.0, 20151028);
  config.experiment.fault_plan = fault::make_chaos_plan(3);
  config.experiment.cloud.degraded_admission = true;
  config.experiment.cloud.retry_budget_enabled = true;
  config.strategy = Strategy::kHedged;
  config.use_circuit_breakers = true;
  const analysis::StrategyReplayResult result =
      analysis::run_strategy_replay(config);
  EXPECT_GT(result.hedge_pairs, 0u);
  EXPECT_GT(result.hedge_cancelled_clones, 0u);
  EXPECT_GT(result.faults_fired, 0u);

  // The week's task ids are 1..N; each must be reported once.
  const std::size_t n = config.experiment.requests.num_requests;
  ASSERT_EQ(result.outcomes.size(), n);
  std::vector<int> reports(n + 1, 0);
  for (const ExecOutcome& o : result.outcomes) {
    ASSERT_GE(o.task_id, 1u);
    ASSERT_LE(o.task_id, n);
    ++reports[o.task_id];
  }
  for (std::size_t id = 1; id <= n; ++id) {
    EXPECT_EQ(reports[id], 1) << "task " << id;
  }
}

}  // namespace
}  // namespace odr::core
