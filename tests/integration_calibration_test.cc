// Integration calibration tests: the paper's headline anchors must hold
// (with tolerances) on a 1/400-scale replay. These are the guardrails
// that keep future model changes from silently drifting away from the
// reproduction targets; EXPERIMENTS.md documents the full comparison.
#include <gtest/gtest.h>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "snapshot/world.h"

namespace odr::analysis {
namespace {

class CloudCalibration : public ::testing::Test {
 protected:
  static const CloudReplayResult& result() {
    static const CloudReplayResult r =
        run_cloud_replay(make_scaled_config(400.0, 20151028));
    return r;
  }
  static const SpeedDelayCdfs& cdfs() {
    static const SpeedDelayCdfs c = collect_speed_delay(result().outcomes);
    return c;
  }
};

TEST_F(CloudCalibration, CacheHitRatioNear89Percent) {
  // §2.1: 89% of requests are instantly satisfied from the pool.
  EXPECT_GT(result().cache_hit_ratio, 0.82);
  EXPECT_LT(result().cache_hit_ratio, 0.95);
}

TEST_F(CloudCalibration, FetchSpeedAnchors) {
  // Fig 8: median 287 / average 504 KBps.
  EXPECT_NEAR(cdfs().fetch_speed_kbps.median(), 287.0, 90.0);
  EXPECT_GT(cdfs().fetch_speed_kbps.mean(), 300.0);
  // Fetching is 5-15x faster than pre-downloading in the median.
  const double ratio = cdfs().fetch_speed_kbps.median() /
                       std::max(1.0, cdfs().predownload_speed_kbps.median());
  EXPECT_GT(ratio, 5.0);
}

TEST_F(CloudCalibration, PreDownloadSpeedShape) {
  // Fig 8: low median, heavy tail to the 2.37 MBps line, a near-zero mass.
  EXPECT_LT(cdfs().predownload_speed_kbps.median(), 80.0);
  EXPECT_GT(cdfs().predownload_speed_kbps.max(), 2000.0);
  EXPECT_LE(cdfs().predownload_speed_kbps.max(), 2400.0);
  const double near_zero = cdfs().predownload_speed_kbps.fraction_below(1.0);
  EXPECT_GT(near_zero, 0.10);
  EXPECT_LT(near_zero, 0.45);
}

TEST_F(CloudCalibration, DelayAnchors) {
  // Fig 9: pre-download median 82 / avg 370 min; fetch median 7 min.
  EXPECT_NEAR(cdfs().predownload_delay_min.median(), 82.0, 40.0);
  EXPECT_GT(cdfs().predownload_delay_min.mean(), 150.0);
  EXPECT_LT(cdfs().fetch_delay_min.median(), 20.0);
}

TEST_F(CloudCalibration, ImpededFetchDecomposition) {
  const ImpededBreakdown d =
      impeded_breakdown(result().outcomes, *result().users,
                        kbps_to_rate(125.0));
  // §4.2: 28% impeded = 9.6% barrier + 10.8% slow lines + 1.5% rejected
  // + 6.1% unknown.
  EXPECT_NEAR(d.impeded_fraction(), 0.28, 0.09);
  const double n = static_cast<double>(d.fetch_attempts);
  EXPECT_NEAR(d.by_isp_barrier / n, 0.096, 0.035);
  EXPECT_NEAR(d.by_low_bandwidth / n, 0.108, 0.04);
  EXPECT_GT(d.by_unknown / n, 0.02);
}

TEST_F(CloudCalibration, UnpopularFilesFailMost) {
  const ClassFailure f = failure_by_class(result().outcomes);
  using workload::PopularityClass;
  // Fig 10: unpopular ~13%, highly popular ~0.
  EXPECT_NEAR(f.ratio(PopularityClass::kUnpopular), 0.13, 0.08);
  EXPECT_LT(f.ratio(PopularityClass::kHighlyPopular), 0.02);
  EXPECT_GT(f.ratio(PopularityClass::kUnpopular),
            5.0 * f.ratio(PopularityClass::kPopular) - 0.01);
  // §4.1 request shares: unpopular ~36%, highly popular ~39%.
  EXPECT_NEAR(f.share_of_requests(PopularityClass::kUnpopular), 0.36, 0.08);
  EXPECT_NEAR(f.share_of_requests(PopularityClass::kHighlyPopular), 0.39,
              0.06);
}

TEST_F(CloudCalibration, TrafficCostAnchors) {
  const TrafficCost t = traffic_cost(result().outcomes, *result().catalog);
  EXPECT_NEAR(t.p2p_overhead(), 1.96, 0.25);       // §4.1
  EXPECT_NEAR(t.http_overhead(), 1.085, 0.02);     // §4.1
  EXPECT_NEAR(t.user_overhead(), 1.085, 0.02);     // §4.2
}

TEST(ApCalibration, FailureAndSpeedAnchors) {
  ApReplayConfig cfg;
  cfg.experiment = make_scaled_config(400.0, 20151028);
  cfg.sample_size = 999;
  const ApReplayResult r = run_ap_replay(cfg);
  ASSERT_GT(r.tasks.size(), 900u);

  std::size_t unpopular = 0, unpopular_failed = 0;
  EmpiricalCdf speed;
  for (const auto& t : r.tasks) {
    speed.add(rate_to_kbps(t.result.average_rate));
    if (workload::classify_popularity(t.weekly_popularity) ==
        workload::PopularityClass::kUnpopular) {
      ++unpopular;
      if (!t.result.success) ++unpopular_failed;
    }
  }
  const double overall =
      static_cast<double>(r.failures) / static_cast<double>(r.tasks.size());
  // §5.2: overall 16.8%, unpopular 42%, seeds dominate the causes.
  EXPECT_NEAR(overall, 0.168, 0.05);
  EXPECT_NEAR(static_cast<double>(unpopular_failed) /
                  std::max<std::size_t>(1, unpopular),
              0.42, 0.10);
  EXPECT_GT(r.insufficient_seed_failures, 5 * r.http_failures / 2);
  // Fig 13: median in the tens of KBps, maximum at the line.
  EXPECT_LT(speed.median(), 90.0);
  EXPECT_GT(speed.max(), 1500.0);
}

TEST(StrategyCalibration, OdrBeatsEveryBaselineOnItsBottleneck) {
  auto run = [](core::Strategy s) {
    StrategyReplayConfig cfg;
    cfg.experiment = make_scaled_config(400.0, 20151028);
    cfg.strategy = s;
    const auto r = run_strategy_replay(cfg);
    return std::make_pair(
        strategy_metrics(std::string(core::strategy_name(s)), r.outcomes,
                         r.duration, r.storage_throttled_fraction),
        r);
  };
  const auto [cloud, cloud_raw] = run(core::Strategy::kCloudOnly);
  const auto [ap, ap_raw] = run(core::Strategy::kApOnly);
  const auto [odr, odr_raw] = run(core::Strategy::kOdr);

  // B1: 28% -> 9% in the paper; at least a 2.5x reduction here.
  EXPECT_GT(cloud.impeded_fraction, 0.14);
  EXPECT_LT(odr.impeded_fraction, cloud.impeded_fraction / 2.5);
  // B2: meaningful upload reduction, no rejections left.
  EXPECT_LT(static_cast<double>(odr.total_cloud_upload),
            0.85 * static_cast<double>(cloud.total_cloud_upload));
  EXPECT_LE(odr.rejected_fraction, cloud.rejected_fraction);
  // B3: 42% -> 13% in the paper; at least a 2x reduction here.
  EXPECT_GT(ap.unpopular_failure, 0.30);
  EXPECT_LT(odr.unpopular_failure, ap.unpopular_failure / 2.0);
  // B4: almost completely avoided.
  EXPECT_GT(ap_raw.storage_throttled_fraction, 0.02);
  EXPECT_LT(odr_raw.storage_throttled_fraction,
            ap_raw.storage_throttled_fraction / 4.0);
  // Fig 17: ODR's median fetch speed is above Xuanfeng's.
  EXPECT_GT(odr.fetch_speed_kbps.median(),
            1.05 * cloud.fetch_speed_kbps.median());
}

}  // namespace
}  // namespace odr::analysis
