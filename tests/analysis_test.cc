// Tests for the metric collectors and (small-scale) replay drivers.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "analysis/report.h"
#include "net/isp.h"
#include "snapshot/world.h"
#include "util/rng.h"

namespace odr::analysis {
namespace {

workload::TaskOutcome make_outcome(bool cache_hit, bool pre_success,
                                bool fetched, Rate fetch_rate,
                                double popularity = 3.0) {
  workload::TaskOutcome o;
  o.task_id = 1;
  o.pre.cache_hit = cache_hit;
  o.pre.success = pre_success;
  o.pre.start_time = 0;
  o.pre.finish_time = cache_hit ? 0 : 30 * kMinute;
  o.pre.acquired_bytes = 100 * kMB;
  o.pre.average_rate = cache_hit ? 0.0 : kbps_to_rate(55.0);
  o.fetched = fetched;
  o.fetch.rejected = pre_success && !fetched;
  o.fetch.start_time = o.pre.finish_time;
  o.fetch.finish_time = o.fetch.start_time + 10 * kMinute;
  o.fetch.acquired_bytes = fetched ? 100 * kMB : 0;
  o.fetch.average_rate = fetch_rate;
  o.weekly_popularity = popularity;
  o.popularity = workload::classify_popularity(popularity);
  return o;
}

TEST(CollectSpeedDelayTest, ExcludesCacheHitsFromPreDownloadCdfs) {
  std::vector<workload::TaskOutcome> outcomes = {
      make_outcome(true, true, true, kbps_to_rate(300)),
      make_outcome(false, true, true, kbps_to_rate(200)),
  };
  const SpeedDelayCdfs cdfs = collect_speed_delay(outcomes);
  EXPECT_EQ(cdfs.predownload_speed_kbps.size(), 1u);  // hit excluded
  EXPECT_EQ(cdfs.fetch_speed_kbps.size(), 2u);
  EXPECT_EQ(cdfs.e2e_delay_min.size(), 2u);
  EXPECT_NEAR(cdfs.predownload_speed_kbps.median(), 55.0, 0.1);
}

TEST(CollectSpeedDelayTest, RejectedFetchCountsAsZeroSpeed) {
  std::vector<workload::TaskOutcome> outcomes = {
      make_outcome(true, true, false, 0.0),
  };
  const SpeedDelayCdfs cdfs = collect_speed_delay(outcomes);
  ASSERT_EQ(cdfs.fetch_speed_kbps.size(), 1u);
  EXPECT_DOUBLE_EQ(cdfs.fetch_speed_kbps.min(), 0.0);
  // But no fetch delay entry: the transfer never ran.
  EXPECT_EQ(cdfs.fetch_delay_min.size(), 0u);
}

TEST(FailureByClassTest, CountsPerClass) {
  std::vector<workload::TaskOutcome> outcomes = {
      make_outcome(false, false, false, 0.0, 2.0),   // unpopular failure
      make_outcome(false, true, true, 1000.0, 2.0),  // unpopular success
      make_outcome(false, true, true, 1000.0, 50.0),
      make_outcome(false, false, false, 0.0, 200.0),
  };
  const ClassFailure f = failure_by_class(outcomes);
  EXPECT_DOUBLE_EQ(f.ratio(workload::PopularityClass::kUnpopular), 0.5);
  EXPECT_DOUBLE_EQ(f.ratio(workload::PopularityClass::kPopular), 0.0);
  EXPECT_DOUBLE_EQ(f.ratio(workload::PopularityClass::kHighlyPopular), 1.0);
  EXPECT_DOUBLE_EQ(f.share_of_requests(workload::PopularityClass::kUnpopular),
                   0.5);
}

TEST(FailureByPopularityTest, BucketsByMeasuredPopularity) {
  std::vector<workload::TaskOutcome> outcomes;
  for (int i = 0; i < 10; ++i) {
    outcomes.push_back(make_outcome(false, i >= 5, i >= 5, 1000.0, 2.0));
  }
  for (int i = 0; i < 10; ++i) {
    outcomes.push_back(make_outcome(false, true, true, 1000.0, 50.0));
  }
  const auto buckets = failure_by_popularity(outcomes, {0, 7, 84, 1000});
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].requests, 10u);
  EXPECT_DOUBLE_EQ(buckets[0].failure_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(buckets[1].failure_ratio(), 0.0);
  EXPECT_EQ(buckets[2].requests, 0u);
}

TEST(BurdenSeriesTest, SeparatesHighlyPopularShare) {
  std::vector<workload::TaskOutcome> outcomes = {
      make_outcome(true, true, true, kbps_to_rate(300), 2.0),
      make_outcome(true, true, true, kbps_to_rate(300), 200.0),
  };
  const BurdenSeries series =
      burden_series(outcomes, kHour, 5 * kMinute, gbps_to_rate(1), 0.0);
  EXPECT_NEAR(series.all.sum(), 200e6, 1e3);
  EXPECT_NEAR(series.highly_popular.sum(), 100e6, 1e3);
}

TEST(BurdenSeriesTest, EstimatesRejectedBurden) {
  // Fig 11 adds the burden rejected fetches would have caused.
  std::vector<workload::TaskOutcome> outcomes = {
      make_outcome(true, true, false, 0.0),
  };
  const BurdenSeries with_estimate =
      burden_series(outcomes, kDay, 5 * kMinute, gbps_to_rate(1),
                    kbps_to_rate(504.0));
  EXPECT_NEAR(with_estimate.all.sum(), 100e6, 1e3);
  const BurdenSeries without =
      burden_series(outcomes, kDay, 5 * kMinute, gbps_to_rate(1), 0.0);
  EXPECT_DOUBLE_EQ(without.all.sum(), 0.0);
}

TEST(ReportTest, ComparisonTableRenders) {
  const std::string out =
      comparison_table("Title", {{"metric-x", "1", "2"}});
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("metric-x"), std::string::npos);
  EXPECT_EQ(fmt_pct(0.287), "28.7%");
  EXPECT_EQ(fmt_kbps(287.4), "287 KBps");
  EXPECT_EQ(fmt_minutes(81.9), "82 min");
}

TEST(ScaledConfigTest, RejectsDivisorsThatLeaveAnEmptyWorkload) {
  const ExperimentConfig edge = make_scaled_config(kMaxDivisor, 1);
  EXPECT_EQ(edge.catalog.num_files, 1u);
  EXPECT_GT(edge.users.num_users, 0u);
  EXPECT_GT(edge.requests.num_requests, 0u);
  for (const double divisor :
       {0.0, 0.5, -5.0, kMaxDivisor + 0.5, 600000.0,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(make_scaled_config(divisor, 1), std::invalid_argument)
        << divisor;
  }
}

// --- small-scale replay smoke tests ------------------------------------------

ExperimentConfig tiny_config() {
  // ~1/2000 scale: fast enough for unit tests.
  ExperimentConfig cfg = make_scaled_config(2000.0, 99);
  return cfg;
}

TEST(CloudReplayTest, ProducesOutcomeForEveryRequest) {
  const CloudReplayResult result = run_cloud_replay(tiny_config());
  EXPECT_GT(result.requests.size(), 1500u);
  EXPECT_EQ(result.outcomes.size(), result.requests.size());
  // Warmed cache gives a high hit ratio.
  EXPECT_GT(result.cache_hit_ratio, 0.7);
  EXPECT_LT(result.cache_hit_ratio, 0.99);
}

TEST(CloudReplayTest, SpeedsAndDelaysInPlausibleRanges) {
  const CloudReplayResult result = run_cloud_replay(tiny_config());
  const SpeedDelayCdfs cdfs = collect_speed_delay(result.outcomes);
  // Shape anchors at loose tolerance (tiny scale is noisy).
  EXPECT_GT(cdfs.fetch_speed_kbps.median(), 120.0);
  EXPECT_LT(cdfs.fetch_speed_kbps.median(), 600.0);
  EXPECT_GT(cdfs.predownload_delay_min.median(), 10.0);
  // Fetching is much faster than pre-downloading (the DTN payoff).
  EXPECT_GT(cdfs.predownload_delay_min.median(),
            4.0 * cdfs.fetch_delay_min.median());
}

TEST(CloudReplayTest, DeterministicForSameSeed) {
  const CloudReplayResult a = run_cloud_replay(tiny_config());
  const CloudReplayResult b = run_cloud_replay(tiny_config());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_DOUBLE_EQ(a.cache_hit_ratio, b.cache_hit_ratio);
  EXPECT_EQ(a.fetch_rejections, b.fetch_rejections);
  for (std::size_t i = 0; i < std::min<std::size_t>(50, a.outcomes.size());
       ++i) {
    EXPECT_EQ(a.outcomes[i].pre.finish_time, b.outcomes[i].pre.finish_time);
  }
}

TEST(ApReplayTest, ReplaysSampledUnicomWorkload) {
  ApReplayConfig cfg;
  cfg.experiment = tiny_config();
  cfg.sample_size = 150;
  const ApReplayResult result = run_ap_replay(cfg);
  EXPECT_GT(result.tasks.size(), 100u);
  // The replay's population, rebuilt through the same draws.
  Rng rng(cfg.experiment.seed);
  const workload::Catalog catalog(cfg.experiment.catalog, rng);
  const workload::UserPopulation users(cfg.experiment.users, rng);
  for (const auto& t : result.tasks) {
    const workload::User& u = users.user(t.request.user_id);
    EXPECT_EQ(u.isp, net::Isp::kUnicom);
    EXPECT_GT(u.reported_bandwidth(), 0.0);
  }
  // Failures exist and are dominated by insufficient seeds (§5.2).
  EXPECT_GT(result.failures, 0u);
  EXPECT_GE(result.insufficient_seed_failures, result.http_failures);
}

// A generated week as an in-memory trace: its requests plus the catalog's
// and population's attributes, bandwidth as recorded (0 = unreported).
// Not through CSV, which prints bandwidth to 6 significant digits.
workload::Trace trace_of(const CloudReplayResult& week) {
  workload::Trace trace;
  trace.requests = week.requests;
  trace.files = week.catalog->files();
  trace.users = week.users->users();
  for (workload::User& u : trace.users) {
    u.access_bandwidth = u.reported_bandwidth();
  }
  return trace;
}

TEST(TraceReplayTest, ReplaysGeneratedTraceWithSameShape) {
  // Generate a trace, then replay it via the trace-driven driver: the
  // reconstructed world must produce outcomes for every request with a
  // plausible hit ratio (exact equality is not expected: the catalog is
  // rebuilt from the records).
  const CloudReplayResult original = run_cloud_replay(tiny_config());
  const CloudReplayResult replayed =
      run_cloud_replay_from_trace(trace_of(original), tiny_config());
  EXPECT_EQ(replayed.outcomes.size(), original.requests.size());
  EXPECT_GT(replayed.cache_hit_ratio, 0.5);
  const SpeedDelayCdfs a = collect_speed_delay(original.outcomes);
  const SpeedDelayCdfs b = collect_speed_delay(replayed.outcomes);
  // Same order of magnitude on the headline medians.
  EXPECT_NEAR(b.fetch_speed_kbps.median(), a.fetch_speed_kbps.median(),
              a.fetch_speed_kbps.median() * 0.5);
}

TEST(TraceReplayTest, RecoversRecordedUserAttributes) {
  const CloudReplayResult original = run_cloud_replay(tiny_config());
  const CloudReplayResult replayed =
      run_cloud_replay_from_trace(trace_of(original), tiny_config());
  for (const auto& r : original.requests) {
    const workload::User& recorded = original.users->user(r.user_id);
    const workload::User& u = replayed.users->user(r.user_id);
    EXPECT_EQ(u.isp, recorded.isp);
    EXPECT_EQ(u.ip, recorded.ip);
    EXPECT_EQ(u.reported_bandwidth(), recorded.reported_bandwidth());
  }
}

TEST(TraceReplayTest, MatchesPinnedFingerprint) {
  // The trace replay's exact result, recorded before the trace path became
  // a CloudWorld constructor (and re-recorded for the exact swarm advance
  // and source timers, and again for seeded swarms' sample-aligned wakes):
  // it must make the same rng draws and schedule the same events in the
  // same order.
  const CloudReplayResult original = run_cloud_replay(tiny_config());
  const CloudReplayResult replayed =
      run_cloud_replay_from_trace(trace_of(original), tiny_config());
  EXPECT_EQ(outcome_fingerprint(replayed.outcomes), 0xb4a7a412eb7ae16aull);
  EXPECT_DOUBLE_EQ(replayed.cache_hit_ratio, 0.89324191968658173);
  EXPECT_EQ(replayed.duration, 691098266632);
}

TEST(TraceReplayTest, HonoursFaultPlan) {
  // The trace world shares the generated world's fault wiring: a non-empty
  // plan fires during the replayed week and leaves the outcome count alone.
  const CloudReplayResult original = run_cloud_replay(tiny_config());
  ExperimentConfig faulted = tiny_config();
  faulted.fault_plan = fault::make_chaos_plan(3);
  const CloudReplayResult replayed =
      run_cloud_replay_from_trace(trace_of(original), faulted);
  EXPECT_GT(replayed.faults_fired, 0u);
  EXPECT_EQ(replayed.outcomes.size(), original.requests.size());
}

TEST(TraceReplayTest, RecordOrderDoesNotMatter) {
  // A trace listed in any order replays as the time-ordered one: same
  // pinned fingerprint, and every outcome reports its own file's count.
  workload::Trace trace = trace_of(run_cloud_replay(tiny_config()));
  Rng rng(17);
  rng.shuffle(trace.requests);
  std::unordered_map<workload::TaskId, workload::FileIndex> file_of;
  std::unordered_map<workload::FileIndex, double> count_of;
  for (const auto& r : trace.requests) {
    file_of[r.task_id] = r.file;
    count_of[r.file] += 1.0;
  }
  const CloudReplayResult replayed =
      run_cloud_replay_from_trace(trace, tiny_config());
  EXPECT_EQ(outcome_fingerprint(replayed.outcomes), 0xb4a7a412eb7ae16aull);
  ASSERT_EQ(replayed.outcomes.size(), trace.requests.size());
  for (const auto& o : replayed.outcomes) {
    ASSERT_EQ(o.weekly_popularity, count_of[file_of.at(o.task_id)])
        << "task " << o.task_id;
  }
}

// Every field of an outcome but its task id.
auto fields_but_task(const workload::TaskOutcome& o) {
  return std::tie(o.user_id, o.file, o.pre.start_time, o.pre.finish_time,
                  o.pre.acquired_bytes, o.pre.traffic_bytes,
                  o.pre.average_rate, o.pre.peak_rate, o.pre.cache_hit,
                  o.pre.success, o.pre.failure_cause, o.fetch.start_time,
                  o.fetch.finish_time, o.fetch.acquired_bytes,
                  o.fetch.traffic_bytes, o.fetch.average_rate,
                  o.fetch.peak_rate, o.fetch.rejected, o.weekly_popularity,
                  o.popularity, o.fetched, o.privileged_path, o.aborted);
}

TEST(TraceReplayTest, TaskIdsNeedNotBeArrivalPositions) {
  // Raising every task id keeps the arrival order, so the replay is the
  // same apart from the ids; no result may join an outcome to its request
  // by position.
  const workload::Trace trace = trace_of(run_cloud_replay(tiny_config()));
  workload::Trace raised = trace;
  for (auto& r : raised.requests) r.task_id += 1000;
  const CloudReplayResult a = run_cloud_replay_from_trace(trace, tiny_config());
  const CloudReplayResult b =
      run_cloud_replay_from_trace(raised, tiny_config());

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const workload::TaskOutcome& x = a.outcomes[i];
    const workload::TaskOutcome& y = b.outcomes[i];
    ASSERT_EQ(y.task_id, x.task_id + 1000) << "outcome " << i;
    ASSERT_TRUE(fields_but_task(x) == fields_but_task(y))
        << "task " << x.task_id;
  }

  const TrafficCost ta = traffic_cost(a.outcomes, *a.catalog);
  const TrafficCost tb = traffic_cost(b.outcomes, *b.catalog);
  EXPECT_GT(ta.p2p_file_bytes, 0u);
  EXPECT_EQ(ta.p2p_file_bytes, tb.p2p_file_bytes);
  EXPECT_EQ(ta.p2p_traffic_bytes, tb.p2p_traffic_bytes);
  EXPECT_EQ(ta.http_file_bytes, tb.http_file_bytes);
  EXPECT_EQ(ta.http_traffic_bytes, tb.http_traffic_bytes);
  EXPECT_EQ(ta.user_fetch_file_bytes, tb.user_fetch_file_bytes);
  EXPECT_EQ(ta.user_fetch_traffic_bytes, tb.user_fetch_traffic_bytes);

  const Rate playback = kbps_to_rate(125.0);
  const ImpededBreakdown ia = impeded_breakdown(a.outcomes, *a.users, playback);
  const ImpededBreakdown ib = impeded_breakdown(b.outcomes, *b.users, playback);
  EXPECT_GT(ia.impeded, 0u);
  EXPECT_EQ(ia.fetch_attempts, ib.fetch_attempts);
  EXPECT_EQ(ia.impeded, ib.impeded);
  EXPECT_EQ(ia.by_isp_barrier, ib.by_isp_barrier);
  EXPECT_EQ(ia.by_low_bandwidth, ib.by_low_bandwidth);
  EXPECT_EQ(ia.by_rejection, ib.by_rejection);
  EXPECT_EQ(ia.by_unknown, ib.by_unknown);
}

TEST(StrategyReplayTest, OdrBeatsCloudOnlyOnImpediment) {
  StrategyReplayConfig cloud_cfg;
  cloud_cfg.experiment = tiny_config();
  cloud_cfg.strategy = core::Strategy::kCloudOnly;
  const auto cloud_result = run_strategy_replay(cloud_cfg);

  StrategyReplayConfig odr_cfg;
  odr_cfg.experiment = tiny_config();
  odr_cfg.strategy = core::Strategy::kOdr;
  const auto odr_result = run_strategy_replay(odr_cfg);

  const auto cloud_metrics =
      strategy_metrics("cloud", cloud_result.outcomes, cloud_result.duration,
                       0.0);
  const auto odr_metrics =
      strategy_metrics("odr", odr_result.outcomes, odr_result.duration,
                       odr_result.storage_throttled_fraction);
  ASSERT_GT(cloud_metrics.tasks, 0u);
  ASSERT_GT(odr_metrics.tasks, 0u);
  // Bottleneck 1: ODR strictly reduces impeded fetches.
  EXPECT_LT(odr_metrics.impeded_fraction,
            cloud_metrics.impeded_fraction * 0.7);
  // Bottleneck 2: ODR moves highly popular bytes off the cloud uplink.
  EXPECT_LT(odr_metrics.total_cloud_upload, cloud_metrics.total_cloud_upload);
}

TEST(StrategyReplayTest, ApOnlyFailsMoreOnUnpopular) {
  StrategyReplayConfig ap_cfg;
  ap_cfg.experiment = tiny_config();
  ap_cfg.strategy = core::Strategy::kApOnly;
  const auto ap_result = run_strategy_replay(ap_cfg);

  StrategyReplayConfig odr_cfg;
  odr_cfg.experiment = tiny_config();
  odr_cfg.strategy = core::Strategy::kOdr;
  const auto odr_result = run_strategy_replay(odr_cfg);

  const auto ap_metrics = strategy_metrics(
      "ap", ap_result.outcomes, ap_result.duration,
      ap_result.storage_throttled_fraction);
  const auto odr_metrics = strategy_metrics(
      "odr", odr_result.outcomes, odr_result.duration,
      odr_result.storage_throttled_fraction);
  // Bottleneck 3: the AP-only baseline fails unpopular files far more.
  EXPECT_GT(ap_metrics.unpopular_failure,
            1.5 * odr_metrics.unpopular_failure);
  // Bottleneck 4: ODR nearly eliminates storage throttling.
  EXPECT_LT(odr_result.storage_throttled_fraction,
            ap_result.storage_throttled_fraction * 0.5 + 1e-9);
}

}  // namespace
}  // namespace odr::analysis
